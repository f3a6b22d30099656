import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from iws import decompose

settings.register_profile(
    "default",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def natural_cubic():
    """Natural cubic spline through (t, v) evaluated at xs, as the batch of
    one of ``decompose._spline_rows``."""
    def spline(t, v, xs):
        seg = np.clip(np.searchsorted(t, xs, side="right") - 1, 0, t.size - 2)
        return decompose._spline_rows(t[None], v[None], np.array([t.size]), xs[None], seg[None])[0]
    return spline
