import numpy as np
import pytest
from hypothesis import given, strategies as st

from iws import decompose
from iws.decompose import (
    DEC_HI,
    DEC_LO,
    CoefficientSet,
    dwt_bior22,
    emd,
    idwt_bior22,
    minkowski_distance,
    select_imfs_minkowski,
)
from iws.errors import DecompositionFailure, EmptyInput, InvariantViolation


def count_extrema(x):
    n_max = sum(1 for i in range(1, len(x) - 1) if x[i - 1] < x[i] > x[i + 1])
    n_min = sum(1 for i in range(1, len(x) - 1) if x[i - 1] > x[i] < x[i + 1])
    return n_max + n_min


def count_zero_crossings(x):
    s = np.sign(x)
    s = s[s != 0]
    return int(np.sum(s[1:] != s[:-1]))


class TestDwt:
    def test_constant_killed_by_highpass(self):
        sets = dwt_bior22(np.ones(64))
        for s in sets[:4]:
            assert np.max(np.abs(s.values)) < 1e-10
        # approximation carries the full energy
        rec = idwt_bior22(sets)
        np.testing.assert_allclose(rec, np.ones(64), atol=1e-10)
        assert np.sum(sets[4].values ** 2) > 0

    def test_ramp_killed_by_two_vanishing_moments(self):
        sets = dwt_bior22(np.arange(64, dtype=float))
        for s in sets[:4]:
            assert np.max(np.abs(s.values)) < 1e-8

    def test_interior_coefficients_match_direct_convolution(self, rng):
        # oracle: dot products with the published taps, away from boundaries
        from iws.decompose import dwt_single_level

        x = rng.standard_normal(64)
        detail = dwt_bior22(x)[0].values
        for k in range(2, 30):  # taps x[2k-2 .. 2k] fully interior
            expected = float(np.dot(DEC_HI, x[2 * k - 2:2 * k + 1]))
            assert detail[k] == pytest.approx(expected, abs=1e-12)
        a1, _ = dwt_single_level(x)
        level1_approx_oracle = [float(np.dot(DEC_LO, x[2 * k - 4:2 * k + 1]))
                                for k in range(2, 30)]
        np.testing.assert_allclose(a1[2:30], level1_approx_oracle, atol=1e-12)

    def test_perfect_reconstruction(self, rng):
        worst = 0.0
        for _ in range(200):
            x = rng.standard_normal(64) * rng.uniform(0.1, 50)
            sets = dwt_bior22(x)
            rec = idwt_bior22(sets)
            worst = max(worst, float(np.max(np.abs(rec - x))))
        assert worst < 1e-8

    def test_golden_sizes(self):
        sets = dwt_bior22(np.random.default_rng(0).standard_normal(64))
        assert [s.values.size for s in sets] == [34, 19, 12, 8, 8]
        assert [s.kind for s in sets] == [
            "detail_level_1", "detail_level_2", "detail_level_3",
            "detail_level_4", "approximation_level_5",
        ]

    @given(st.integers(0, 2**31 - 1))
    def test_linearity(self, seed):
        gen = np.random.default_rng(seed)
        x, y = gen.standard_normal(64), gen.standard_normal(64)
        a, b = gen.uniform(-3, 3), gen.uniform(-3, 3)
        combined = dwt_bior22(a * x + b * y)
        separate_x, separate_y = dwt_bior22(x), dwt_bior22(y)
        for c, sx, sy in zip(combined, separate_x, separate_y):
            np.testing.assert_allclose(c.values, a * sx.values + b * sy.values,
                                       atol=1e-9)

    def test_wrong_length_rejected(self):
        with pytest.raises(InvariantViolation):
            dwt_bior22(np.zeros(63))

    def test_nonfinite_rejected(self):
        x = np.zeros(64)
        x[10] = np.nan
        with pytest.raises(InvariantViolation):
            dwt_bior22(x)


class TestEnvelopeSpline:
    def test_matches_scipy_natural_spline(self):
        from scipy.interpolate import CubicSpline

        from iws.decompose import _natural_cubic

        for seed in range(50):
            gen = np.random.default_rng(seed)
            m = int(gen.integers(2, 20))
            t = np.sort(gen.choice(np.arange(-10, 80), size=m, replace=False)).astype(float)
            v = gen.standard_normal(m)
            xs = np.linspace(t[0], t[-1], 64)
            ref = CubicSpline(t, v, bc_type="natural")(xs)
            np.testing.assert_allclose(_natural_cubic(t, v, xs), ref, atol=1e-9)


class TestEmd:
    def test_single_sinusoid_single_imf(self):
        t = np.arange(64)
        x = np.sin(2 * np.pi * 4 * t / 64)
        imfs, _ = emd(x)
        corr = np.corrcoef(imfs[0].values, x)[0, 1]
        assert corr >= 0.95

    def test_two_tone_separation(self):
        t = np.arange(64)
        fast = np.sin(2 * np.pi * 10 * t / 64)
        slow = 2.0 * np.sin(2 * np.pi * 2 * t / 64 + 0.3)
        imfs, _ = emd(fast + slow)
        assert len(imfs) >= 2
        assert np.corrcoef(imfs[0].values, fast)[0, 1] >= 0.9
        assert np.corrcoef(imfs[1].values, slow)[0, 1] >= 0.9

    def test_monotonic_input_fails(self):
        with pytest.raises(DecompositionFailure):
            emd(np.linspace(0.0, 1.0, 64))

    def test_constant_input_fails(self):
        with pytest.raises(DecompositionFailure):
            emd(np.ones(64))

    def test_completeness(self, rng):
        for _ in range(50):
            x = rng.standard_normal(64)
            imfs, resid = emd(x)
            rec = np.sum([i.values for i in imfs], axis=0) + resid
            assert np.max(np.abs(rec - x)) < 1e-8

    def test_emitted_imfs_satisfy_count_condition(self, rng):
        for _ in range(50):
            x = rng.standard_normal(64)
            imfs, _ = emd(x)
            for imf in imfs:
                v = imf.values
                assert abs(count_extrema(v) - count_zero_crossings(v)) <= 1

    def test_max_imfs_respected(self, rng, monkeypatch):
        monkeypatch.setattr(decompose, "MAX_IMFS", 2)
        x = rng.standard_normal(64)
        imfs, _ = emd(x)
        assert len(imfs) <= 2


class TestMinkowskiSelection:
    def test_exact_copy_has_zero_distance(self, rng):
        x = rng.standard_normal(64)
        copy = CoefficientSet(values=x, kind="imf")
        noise = CoefficientSet(values=x + rng.standard_normal(64), kind="imf")
        assert minkowski_distance(x, copy.values) == 0.0
        selected = select_imfs_minkowski(x, [noise, copy])
        assert any(np.array_equal(s.values, x) for s in selected)

    def test_two_imfs_forced(self, rng):
        x = rng.standard_normal(64)
        imfs = [CoefficientSet(values=rng.standard_normal(64), kind="imf")
                for _ in range(2)]
        selected = select_imfs_minkowski(x, imfs)
        assert [id(s) for s in selected] == [id(i) for i in imfs]

    def test_three_imfs_hand_computed(self):
        # 4-sample toy: distances hand-computed below
        x = np.array([1.0, 2.0, 3.0, 4.0])
        a = CoefficientSet(values=np.array([1.0, 2.0, 3.0, 5.0]), kind="imf")   # d = 1
        b = CoefficientSet(values=np.array([0.0, 0.0, 0.0, 0.0]), kind="imf")   # d = sqrt(30)
        c = CoefficientSet(values=np.array([1.0, 2.0, 2.0, 4.0]), kind="imf")   # d = 1 -> tie keeps order
        assert minkowski_distance(x, a.values) == pytest.approx(1.0)
        assert minkowski_distance(x, b.values) == pytest.approx(np.sqrt(30.0))
        assert minkowski_distance(x, c.values) == pytest.approx(1.0)
        selected = select_imfs_minkowski(x, [a, b, c])
        assert [id(s) for s in selected] == [id(a), id(c)]

    def test_single_imf_duplicated(self, rng):
        x = rng.standard_normal(64)
        only = CoefficientSet(values=rng.standard_normal(64), kind="imf")
        selected = select_imfs_minkowski(x, [only])
        assert len(selected) == 2 and selected[0] is selected[1]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            select_imfs_minkowski(np.zeros(4), [])

    @given(st.integers(0, 2**31 - 1))
    def test_selected_pair_permutation_invariant(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal(32)
        imfs = [CoefficientSet(values=gen.standard_normal(32), kind="imf")
                for _ in range(5)]
        base = select_imfs_minkowski(x, imfs)
        base_keys = {tuple(s.values) for s in base}
        perm = [imfs[i] for i in gen.permutation(5)]
        shuffled = select_imfs_minkowski(x, perm)
        assert {tuple(s.values) for s in shuffled} == base_keys
