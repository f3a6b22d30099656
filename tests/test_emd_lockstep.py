"""Equivalence of the lockstep EMD with the per-signal sifter it replaced.

The oracle below is a verbatim copy of that per-signal code: ``_check_signal``,
``_local_extrema``, ``_zero_crossings``, ``_natural_cubic``, ``_envelope``,
``_sift``, ``emd`` and the Minkowski selection.  The batched code applies the same floating-point
operations in the same order to each row, so IMFs, residuals and selections
must be equal, not merely close.

The oracle reads the sifting rules from the ``iws.decompose`` constants when it
is called, so a test that patches them changes both sides alike.
"""

import numpy as np
import pytest

from iws import decompose
from iws.errors import DecompositionFailure, InvariantViolation

# ---------------------------------------------------------------------------
# Oracle: the per-signal implementation, verbatim
# ---------------------------------------------------------------------------

def _check_signal(x, min_len=6):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvariantViolation(f"expected a 1-D signal, got ndim={x.ndim}")
    if x.size < min_len:
        raise InvariantViolation(f"signal too short: {x.size} < {min_len}")
    if not np.all(np.isfinite(x)):
        raise InvariantViolation("non-finite values in signal")
    return x


def _local_extrema(x):
    """Indices of strict interior maxima and minima."""
    mid = x[1:-1]
    maxima = np.nonzero((mid > x[:-2]) & (mid > x[2:]))[0] + 1
    minima = np.nonzero((mid < x[:-2]) & (mid < x[2:]))[0] + 1
    return maxima, minima


def _zero_crossings(x):
    signs = np.sign(x)
    signs = signs[signs != 0]
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _natural_cubic(t, v, xs):
    """Natural cubic spline through (t, v) evaluated at xs.

    Small dedicated Thomas solve; the handful of knots per envelope makes
    general-purpose spline constructors the bottleneck otherwise.
    """
    m = t.size
    if m == 2:
        return v[0] + (v[1] - v[0]) * (xs - t[0]) / (t[1] - t[0])
    h = np.diff(t).astype(np.float64)
    rhs = 6.0 * np.diff(np.diff(v) / h)
    diag = 2.0 * (h[:-1] + h[1:])
    off = h[1:-1]
    # Thomas algorithm for the interior second derivatives
    k = diag.size
    cp = np.empty(k)
    dp = np.empty(k)
    cp[0] = off[0] / diag[0] if k > 1 else 0.0
    dp[0] = rhs[0] / diag[0]
    for i in range(1, k):
        denom = diag[i] - off[i - 1] * cp[i - 1]
        cp[i] = off[i] / denom if i < k - 1 else 0.0
        dp[i] = (rhs[i] - off[i - 1] * dp[i - 1]) / denom
    second = np.zeros(m)
    second[k] = dp[k - 1]
    for i in range(k - 2, -1, -1):
        second[i + 1] = dp[i] - cp[i] * second[i + 2]
    seg = np.clip(np.searchsorted(t, xs, side="right") - 1, 0, m - 2)
    dx = xs - t[seg]
    hs = h[seg]
    b = (v[seg + 1] - v[seg]) / hs - hs * (2.0 * second[seg] + second[seg + 1]) / 6.0
    c = second[seg] / 2.0
    d = (second[seg + 1] - second[seg]) / (6.0 * hs)
    return v[seg] + dx * (b + dx * (c + dx * d))


def _envelope(x, idx, n):
    t = np.concatenate([[-idx[0]], idx, [2 * (n - 1) - idx[-1]]]).astype(np.float64)
    v = np.concatenate([[x[idx[0]]], x[idx], [x[idx[-1]]]])
    return _natural_cubic(t, v, np.arange(n, dtype=np.float64))


def _sift(signal, scale):
    """One IMF extraction, or None if the component never satisfies the
    IMF conditions (count difference <= 1, envelope mean below tolerance)."""
    h = signal.copy()
    n = h.size
    for _ in range(decompose.MAX_SIFT_ITERATIONS):
        maxima, minima = _local_extrema(h)
        if maxima.size == 0 or minima.size == 0:
            return None
        upper = _envelope(h, maxima, n)
        lower = _envelope(h, minima, n)
        mean_env = 0.5 * (upper + lower)
        n_ext = maxima.size + minima.size
        if abs(n_ext - _zero_crossings(h)) <= 1 and np.max(np.abs(mean_env)) <= decompose.SIFT_TOLERANCE * scale:
            return h
        h = h - mean_env
    return None


def emd(signal):
    """Decompose into intrinsic mode functions plus a residual.

    Returns (imfs, residual) with sum(imfs) + residual == signal exactly.
    Raises DecompositionFailure when no IMF at all can be extracted
    (e.g. strictly monotonic input).
    """
    x = _check_signal(np.asarray(signal, dtype=np.float64))
    scale = float(np.std(x))
    if scale == 0.0:
        raise DecompositionFailure("constant signal has no oscillatory component")
    imfs = []
    residual = x.copy()
    for _ in range(decompose.MAX_IMFS):
        imf = _sift(residual, scale)
        if imf is None:
            break
        imfs.append(imf)
        residual = residual - imf
        maxima, minima = _local_extrema(residual)
        if maxima.size + minima.size < 2:  # residual effectively monotonic
            break
    if not imfs:
        raise DecompositionFailure("no IMF satisfied the sifting conditions")
    return imfs, residual


def minkowski_distance(signal, imf_values):
    """Euclidean (Minkowski, exponent 2) distance between signal and component."""
    diff = np.asarray(signal, dtype=np.float64) - np.asarray(imf_values, dtype=np.float64)
    return float(np.sqrt(np.sum(np.abs(diff) ** 2)))


def select_imfs_minkowski(signal, imfs):
    """Pick the two IMFs closest to the signal, preserving their input order.

    A single IMF is duplicated so downstream feature widths stay constant.
    """
    if not imfs:
        raise InvariantViolation("no IMFs to select from")
    if len(imfs) == 1:
        return [imfs[0], imfs[0]]
    distances = [minkowski_distance(signal, imf) for imf in imfs]
    keep = sorted(np.argsort(distances, kind="stable")[:2])
    return [imfs[keep[0]], imfs[keep[1]]]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def oracle_sift_hits_cap(signal, scale):
    """Whether ``_sift`` above ends by running out of iterations (not by
    emitting an IMF or by losing its maxima or minima)."""
    h = signal.copy()
    n = h.size
    for _ in range(decompose.MAX_SIFT_ITERATIONS):
        maxima, minima = _local_extrema(h)
        if maxima.size == 0 or minima.size == 0:
            return False
        mean_env = 0.5 * (_envelope(h, maxima, n) + _envelope(h, minima, n))
        n_ext = maxima.size + minima.size
        if abs(n_ext - _zero_crossings(h)) <= 1 and np.max(np.abs(mean_env)) <= decompose.SIFT_TOLERANCE * scale:
            return False
        h = h - mean_env
    return True


def oracle_decompose(x):
    """(IMF values, residual, whether the last sift ran into the cap) of the
    oracle; values and residual are None when it raises DecompositionFailure."""
    scale = float(np.std(x))
    try:
        imfs, residual = emd(x)
    except DecompositionFailure:
        return None, None, scale != 0.0 and oracle_sift_hits_cap(x, scale)
    capped = False
    if len(imfs) < decompose.MAX_IMFS:
        maxima, minima = _local_extrema(residual)
        if maxima.size + minima.size >= 2:  # ended because a sift returned None
            capped = oracle_sift_hits_cap(residual, scale)
    return imfs, residual, capped


def mixed_rows(seed, n_rows):
    """Random walks, white noise, sinusoids in noise, monotonic ramps and
    constants, interleaved."""
    gen = np.random.default_rng(seed)
    t = np.arange(64)
    kinds = (
        lambda: np.cumsum(gen.standard_normal(64)),
        lambda: gen.standard_normal(64),
        lambda: np.sin(t * gen.uniform(0.1, 1.0)) + 0.3 * gen.standard_normal(64),
        lambda: gen.standard_normal() * np.linspace(0.0, 1.0, 64),
        lambda: np.full(64, float(gen.integers(-3, 4))),
    )
    return np.stack([kinds[i % len(kinds)]() for i in range(n_rows)])


def sift_stack(rows):
    """``sift_blocks`` on a feed of one stack, keeping every IMF."""
    return next(decompose.sift_blocks(iter([rows]), keep_all=True))


def colored_noise(seed, n_rows):
    """Colored-noise rows like the synthetic EEG's, some of which run into the
    300-iteration sift cap."""
    gen = np.random.default_rng(seed)
    return np.cumsum(gen.standard_normal((n_rows, 64)), axis=1) + gen.standard_normal((n_rows, 64))


def assert_matches_oracle(rows):
    out = sift_stack(rows)
    for r, x in enumerate(rows):
        values, residual, capped = oracle_decompose(x)
        assert out.capped[r] == capped, r
        if values is None:
            assert out.counts[r] == 0, r
            assert np.array_equal(out.selected[r], np.stack([x, x])), r
            continue
        assert out.counts[r] == len(values), r
        for slot, v in enumerate(values):
            assert np.array_equal(out.imfs[r, slot], v), (r, slot)
        assert not np.any(out.imfs[r, len(values):]), r
        assert np.array_equal(out.residuals[r], residual), r
        assert np.array_equal(out.selected[r], select_imfs_minkowski(x, values)), r
    return out


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

def test_mixed_batch_matches_oracle():
    rows = mixed_rows(11, 60)
    out = assert_matches_oracle(rows)
    assert (out.counts == 0).sum() == 24  # every monotonic and constant row
    constant = np.std(rows, axis=1) == 0.0
    assert constant.sum() == 12 and not out.counts[constant].any()
    assert len(set(out.counts[out.counts > 0])) > 2  # rows end after different IMF counts


def test_row_result_does_not_depend_on_its_batch():
    rows = mixed_rows(12, 25)
    whole = sift_stack(rows)
    for r in range(rows.shape[0]):
        alone = sift_stack(rows[r:r + 1])
        assert alone.counts[0] == whole.counts[r]
        assert np.array_equal(alone.imfs[0], whole.imfs[r])
        assert np.array_equal(alone.residuals[0], whole.residuals[r])
        assert alone.capped[0] == whole.capped[r]


def test_max_imfs_two_matches_oracle(monkeypatch):
    monkeypatch.setattr(decompose, "MAX_IMFS", 2)
    out = assert_matches_oracle(mixed_rows(13, 40))
    assert out.counts.max() == 2


def test_small_sift_cap_matches_oracle(monkeypatch):
    monkeypatch.setattr(decompose, "MAX_SIFT_ITERATIONS", 3)
    out = assert_matches_oracle(mixed_rows(14, 40))
    assert out.capped.sum() > 5


def test_default_cap_stops_match_oracle():
    out = assert_matches_oracle(colored_noise(15, 80))
    assert out.capped.any()


def test_stalled_sift_ends_long_before_the_cap(monkeypatch):
    # each capped row here comes to a step that changes no bit of its
    # iterate, and every later step would repeat it; the oracle still runs
    # its last sift to the cap
    rows = colored_noise(15, 80)
    capped = np.flatnonzero(sift_stack(rows).capped)
    assert capped.size
    steps = 0
    sift_step = decompose._sift_step

    def counting(live):
        nonlocal steps
        steps += 1
        return sift_step(live)

    monkeypatch.setattr(decompose, "_sift_step", counting)
    for r in capped:
        steps = 0
        out = assert_matches_oracle(rows[r:r + 1])
        assert out.capped[0], r
        assert steps < decompose.MAX_SIFT_ITERATIONS // 4, (r, steps)


def test_tiny_signals_match_oracle():
    # a power-of-two scale changes no rounding, so each row sifts through the
    # same steps at any amplitude: none may end because its steps are small
    rows = colored_noise(15, 40)
    tiny = assert_matches_oracle(rows * 2.0**-40)
    out = sift_stack(rows)
    assert tiny.capped.any() and np.array_equal(tiny.capped, out.capped)
    assert np.array_equal(tiny.counts, out.counts)
    assert np.array_equal(tiny.imfs, out.imfs * 2.0**-40)


def test_imf_found_on_an_unchanged_step_is_not_capped():
    # alternating samples: both envelopes are constant, so their mean is 0
    # and the first step changes nothing, but the row is an IMF already
    rows = np.stack([np.tile([1.0, -1.0], 32), np.tile([-3.0, 3.0], 32)])
    out = assert_matches_oracle(rows)
    assert out.counts.tolist() == [1, 1] and not out.capped.any()


def test_zero_crossings_match_oracle():
    gen = np.random.default_rng(18)
    rows = gen.standard_normal((9, 64))  # row 0 holds no zero
    rows[1, 20] = 0.0
    rows[2, 10:25] = 0.0
    rows[3, :5], rows[3, -7:] = 0.0, -0.0  # leading and trailing zeros
    rows[4] = 0.0
    rows[5, ::3] = 0.0  # runs of one between signs
    rows[6] = gen.integers(-1, 2, 64)  # runs of zeros of every length
    rows[7] = 0.0
    rows[7, 30] = 2.0  # one sign alone
    rows[8] = np.tile([1.0, 0.0, 0.0, -1.0], 16)
    for stack in (rows, rows[:1], rows[1:], rows[[0, 4, 0, 6]], np.repeat(rows[:1], 3, axis=0)):
        got = decompose._zero_crossings(stack)
        assert got.tolist() == [_zero_crossings(x) for x in stack]


def test_emd_is_a_batch_of_one():
    for x in mixed_rows(16, 10):
        values, residual, _ = oracle_decompose(x)
        if values is None:
            with pytest.raises(DecompositionFailure):
                decompose.emd(x)
            continue
        imfs, got_residual = decompose.emd(x)
        assert all(np.array_equal(a, b) for a, b in zip(imfs, values, strict=True))
        assert np.array_equal(got_residual, residual)


def test_natural_cubic_matches_oracle(natural_cubic):
    for seed in range(60):
        gen = np.random.default_rng(seed)
        m = int(gen.integers(2, 20))
        t = np.sort(gen.choice(np.arange(-10, 80), size=m, replace=False)).astype(float)
        v = gen.standard_normal(m)
        xs = np.linspace(t[0] - 2.0, t[-1] + 2.0, 64)
        got = natural_cubic(t, v, xs)
        want = _natural_cubic(t, v, xs)
        if m == 2:  # the oracle's straight-line shortcut rounds differently
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        else:
            assert np.array_equal(got, want), seed


def test_selection_ties_and_single_imf_match_oracle():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    a = np.array([1.0, 2.0, 3.0, 5.0])  # distance 1
    b = np.zeros(4)  # distance sqrt(30)
    c = np.array([1.0, 2.0, 2.0, 4.0])  # distance 1: the tie keeps a first
    # x itself is the closest; the pair still comes back in input order
    for values, want in (((a, b, c), [0, 2]), ((b,), [0, 0]), ((c, a), [0, 1]),
                         ((b, a, x), [1, 2])):
        for select in (decompose.select_imfs_minkowski, select_imfs_minkowski):
            assert np.array_equal(select(x, list(values)), [values[i] for i in want])
    with pytest.raises(InvariantViolation, match="no IMFs to select from"):
        decompose.select_imfs_minkowski(x, [])


def test_non_finite_imf_names_the_row(monkeypatch):
    from iws import features

    windows = mixed_rows(17, 14).T[None]  # one window, a mixed row per channel
    sift_step = decompose._sift_step

    def overflowing(live):
        before = live["counts"].copy()
        result = sift_step(live)
        e = np.flatnonzero((live["counts"] > before) & (live["id"] == 2))  # channel 2
        live["imfs"][e, live["counts"][e] - 1, 5] = np.inf  # of the IMF just stored
        return result

    monkeypatch.setattr(decompose, "_sift_step", overflowing)
    with pytest.raises(InvariantViolation, match="^channel 2, instance offset 39: "
                                                 "coefficient set imf: non-finite"):
        list(features.stack_matrices([(windows, [39])], (2,)))
