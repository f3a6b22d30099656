import numpy as np
import pytest
from hypothesis import given, strategies as st

from iws.data import SignalInstance
from iws.errors import (
    DegenerateScaling,
    EmptyInput,
    InputTooShort,
    LayoutMismatch,
)
from iws.features import (
    FeatureVector,
    assemble_fs4,
    extract_features,
    ghe,
    higuchi_fd,
    instantaneous_energy,
    katz_fd,
    pca_apply,
    pca_fit,
    scaler_apply,
    scaler_fit,
    teager_energy,
)


def reference_higuchi(x, k_max=10):
    """Naive double-loop Higuchi, independent of the library implementation."""
    x = np.asarray(x, float)
    n = len(x)
    ln_inv_k, ln_l = [], []
    for k in range(1, k_max + 1):
        per_offset = []
        for m in range(1, k + 1):  # paper-style 1-based offsets
            n_seg = (n - m) // k
            if n_seg < 1:
                continue
            total = 0.0
            for i in range(1, n_seg + 1):
                total += abs(x[m + i * k - 1] - x[m + (i - 1) * k - 1])
            per_offset.append(total * (n - 1) / (n_seg * k) / k)
        ln_inv_k.append(np.log(1.0 / k))
        ln_l.append(np.log(np.mean(per_offset)))
    return float(np.polyfit(ln_inv_k, ln_l, 1)[0])


class TestInstantaneousEnergy:
    def test_unit_values(self):
        assert instantaneous_energy([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.0)

    def test_closed_form(self):
        assert instantaneous_energy([2.0, 2.0]) == pytest.approx(np.log10(4.0))

    def test_hand_arithmetic(self):
        assert instantaneous_energy([1.0, 2.0, 3.0, 4.0]) == pytest.approx(
            np.log10(7.5), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            instantaneous_energy([])

    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 100.0))
    def test_scale_covariance(self, seed, c):
        x = np.random.default_rng(seed).standard_normal(32) + 0.1
        assert instantaneous_energy(c * x) == pytest.approx(
            instantaneous_energy(x) + 2 * np.log10(c), abs=1e-9)


class TestTeagerEnergy:
    def test_constant_clamps(self):
        assert teager_energy([5.0, 5.0, 5.0, 5.0]) == -12.0

    def test_hand_arithmetic(self):
        # terms |4-3| = 1 and |9-8| = 1, normalized by m=4
        assert teager_energy([1.0, 2.0, 3.0, 4.0]) == pytest.approx(
            np.log10(0.5), abs=1e-9)

    def test_geometric_sequence_is_null(self):
        assert teager_energy([1.0, 2.0, 4.0, 8.0]) == -12.0
        assert teager_energy([3.0, 6.0, 12.0, 24.0, 48.0]) == -12.0

    def test_too_short(self):
        with pytest.raises(InputTooShort):
            teager_energy([1.0, 2.0])

    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 100.0))
    def test_scale_covariance(self, seed, c):
        x = np.random.default_rng(seed).standard_normal(32)
        base = teager_energy(x)
        if base > -11.9:  # skip near-clamp cases where covariance breaks
            assert teager_energy(c * x) == pytest.approx(
                base + 2 * np.log10(c), abs=1e-9)


class TestHiguchi:
    def test_straight_line(self):
        assert higuchi_fd(np.arange(64, dtype=float)) == pytest.approx(1.0, abs=0.05)

    def test_white_noise_dimension_two(self):
        vals = [higuchi_fd(np.random.default_rng(s).standard_normal(1024))
                for s in range(20)]
        assert np.mean(vals) == pytest.approx(2.0, abs=0.15)

    def test_constant_returns_zero(self):
        assert higuchi_fd(np.full(64, 2.5)) == 0.0

    def test_matches_reference_implementation(self, rng):
        for _ in range(10):
            x = rng.standard_normal(128)
            assert higuchi_fd(x) == pytest.approx(reference_higuchi(x), abs=1e-10)

    def test_offset_invariance(self, rng):
        x = rng.standard_normal(256)
        assert higuchi_fd(x + 100.0) == pytest.approx(higuchi_fd(x), abs=1e-9)

    def test_too_short(self):
        with pytest.raises(InputTooShort):
            higuchi_fd(np.zeros(10), k_max=10)


class TestKatz:
    @given(st.floats(-5, 5), st.floats(-100, 100), st.integers(8, 200))
    def test_any_line_is_one(self, slope, intercept, n):
        x = slope * np.arange(n) + intercept
        assert katz_fd(x) == pytest.approx(1.0, abs=1e-9)

    def test_hand_arithmetic(self):
        # L = 4*sqrt(2), d = 4, KFD = ln5 / (ln5 - 0.5 ln2)
        x = [0.0, 1.0, 0.0, 1.0, 0.0]
        expected = np.log(5) / (np.log(5) - 0.5 * np.log(2))
        assert katz_fd(x) == pytest.approx(expected, abs=1e-3)
        assert katz_fd(x) == pytest.approx(1.2743, abs=1e-3)

    def test_constant_is_one(self):
        assert katz_fd(np.zeros(16)) == pytest.approx(1.0)

    def test_too_short(self):
        with pytest.raises(InputTooShort):
            katz_fd([1.0])


class TestGhe:
    def test_random_walk(self):
        vals = [ghe(np.cumsum(np.random.default_rng(s).standard_normal(1024)), 1)
                for s in range(50)]
        assert np.mean(vals) == pytest.approx(0.5, abs=0.1)

    def test_linear_trend(self):
        assert ghe(np.arange(1024, dtype=float), 1) == pytest.approx(1.0, abs=0.05)

    def test_white_noise(self):
        vals = [ghe(np.random.default_rng(s).standard_normal(1024), 1)
                for s in range(50)]
        assert np.mean(vals) == pytest.approx(0.0, abs=0.1)

    def test_q2_random_walk(self):
        vals = [ghe(np.cumsum(np.random.default_rng(s).standard_normal(1024)), 2)
                for s in range(20)]
        assert np.mean(vals) == pytest.approx(0.5, abs=0.1)

    @given(st.integers(0, 2**31 - 1), st.floats(0.1, 50.0))
    def test_positive_scale_invariance(self, seed, c):
        x = np.cumsum(np.random.default_rng(seed).standard_normal(64))
        assert ghe(c * x, 1) == pytest.approx(ghe(x, 1), abs=1e-9)

    def test_too_short(self):
        with pytest.raises(InputTooShort):
            ghe(np.zeros(37), 1)  # needs >= 2 * 19 = 38, twice the largest lag

    def test_degenerate_scaling(self):
        with pytest.raises(DegenerateScaling):
            ghe(np.zeros(64), 1)


def labeled_instance(seed=0, label=0):
    gen = np.random.default_rng(seed)
    return SignalInstance(samples=gen.standard_normal((64, 14)),
                          trial_offset=13, label=label)


class TestExtraction:
    def test_fs1_width_and_layout(self):
        fv = extract_features(labeled_instance(), 1)
        assert fv.values.size == 70
        assert fv.layout[0] == (0, "w1", "IE")
        assert fv.layout[4] == (0, "a5", "IE")
        assert fv.layout[-1] == (13, "a5", "IE")
        assert fv.feature_set_id == 1

    def test_fs2_width_and_finiteness(self):
        fv = extract_features(labeled_instance(3), 2)
        assert fv.values.size == 168
        assert np.all(np.isfinite(fv.values))
        assert fv.layout[0] == (0, "imf1", "TE")
        assert fv.layout[6] == (0, "imf2", "TE")

    def test_fs3_identical_channels_identical_features(self):
        walk = np.cumsum(np.random.default_rng(5).standard_normal(64))
        inst = SignalInstance(samples=np.tile(walk[:, None], (1, 14)), trial_offset=0)
        fv = extract_features(inst, 3)
        assert fv.values.size == 28
        h1 = fv.values[0::2]
        h2 = fv.values[1::2]
        assert np.max(np.abs(h1 - h1[0])) < 1e-12
        assert np.max(np.abs(h2 - h2[0])) < 1e-12

    def test_determinism(self):
        a = extract_features(labeled_instance(9), 1)
        b = extract_features(labeled_instance(9), 1)
        assert np.array_equal(a.values, b.values)
        assert a.layout == b.layout

    def test_label_and_offset_travel(self):
        fv = extract_features(labeled_instance(1, label=1), 1)
        assert fv.label == 1 and fv.source_offset == 13


class TestAssembleFs4:
    def test_widths_sum(self):
        inst = labeled_instance(2, label=1)
        v = assemble_fs4(*(extract_features(inst, k) for k in (1, 2, 3)))
        assert v.values.size == 266
        assert v.feature_set_id == 4
        assert v.label == 1

    def test_mismatched_instances_rejected(self):
        a = extract_features(labeled_instance(2, label=1), 1)
        other = SignalInstance(
            samples=np.random.default_rng(3).standard_normal((64, 14)),
            trial_offset=99, label=1)
        b = extract_features(other, 2)
        c = extract_features(labeled_instance(2, label=1), 3)
        with pytest.raises(LayoutMismatch):
            assemble_fs4(a, b, c)

    def test_wrong_order_rejected(self):
        inst = labeled_instance(2)
        v1, v2, v3 = (extract_features(inst, k) for k in (1, 2, 3))
        with pytest.raises(LayoutMismatch):
            assemble_fs4(v2, v1, v3)


class TestScaler:
    def _vectors(self, matrix):
        layout = [("x", "x", f"f{i}") for i in range(matrix.shape[1])]
        return [FeatureVector(values=row, feature_set_id=0, layout=layout)
                for row in matrix]

    def test_golden_population_std(self):
        vecs = self._vectors(np.array([[0.0, 10.0], [2.0, 10.0], [4.0, 10.0]]))
        model = scaler_fit(vecs)
        out = np.stack([scaler_apply(model, v).values for v in vecs])
        np.testing.assert_allclose(out[:, 0], [-1.224744871, 0.0, 1.224744871], atol=1e-8)
        # zero-variance column: centered but not scaled
        np.testing.assert_allclose(out[:, 1], [0.0, 0.0, 0.0], atol=1e-12)

    def test_train_set_statistics(self, rng):
        vecs = self._vectors(rng.standard_normal((40, 7)) * 3 + 1)
        model = scaler_fit(vecs)
        out = np.stack([scaler_apply(model, v).values for v in vecs])
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_single_vector_degenerate(self):
        vecs = self._vectors(np.array([[3.0, -1.0, 7.0]]))
        model = scaler_fit(vecs)
        out = scaler_apply(model, vecs[0])
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            scaler_fit([])


class TestPca:
    def test_rank_two_data(self, rng):
        # variance along two orthogonal directions only, comparable sizes
        n = 200
        basis = np.zeros((2, 8))
        basis[0, 1] = 1.0
        basis[1, 4] = 1.0
        coords = rng.standard_normal((n, 2)) * np.array([1.5, 1.0])
        matrix = coords @ basis + 5.0
        model = pca_fit(matrix, 0.90)
        assert model.components.shape[0] == 2
        assert model.retained_variance_ratio == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_keeps_about_ninety_percent(self, rng):
        matrix = rng.standard_normal((1000, 10))
        model = pca_fit(matrix, 0.90)
        assert 8 <= model.components.shape[0] <= 10

    def test_orthonormal_rows(self, rng):
        matrix = rng.standard_normal((100, 12)) @ np.diag(np.arange(1, 13))
        model = pca_fit(matrix, 0.90)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(model.components.shape[0]), atol=1e-8)

    def test_eigenvalues_match_svd_oracle(self, rng):
        matrix = rng.standard_normal((80, 6)) * np.array([5, 4, 3, 2, 1, 0.5])
        model = pca_fit(matrix, 0.90)
        centered = matrix - matrix.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        np.testing.assert_allclose(model.eigenvalues, sv ** 2 / matrix.shape[0],
                                   atol=1e-8)

    def test_projection_variance_ratio(self, rng):
        matrix = rng.standard_normal((150, 20)) * rng.uniform(0.1, 4.0, 20)
        model = pca_fit(matrix, 0.90)
        layout = [("x", "x", f"f{i}") for i in range(20)]
        vecs = [FeatureVector(values=row, feature_set_id=0, layout=layout)
                for row in matrix]
        projected = np.stack([pca_apply(model, v).values for v in vecs])
        ratio = projected.var(axis=0).sum() / (matrix - matrix.mean(axis=0)).var(axis=0).sum()
        assert ratio >= 0.90
        assert model.retained_variance_ratio >= 0.90

    def test_apply_sets_feature_set_five(self, rng):
        matrix = rng.standard_normal((30, 5))
        model = pca_fit(matrix, 0.90)
        layout = [("x", "x", f"f{i}") for i in range(5)]
        v = FeatureVector(values=matrix[0], feature_set_id=0, layout=layout, label=1)
        out = pca_apply(model, v)
        assert out.feature_set_id == 5 and out.label == 1

    def test_needs_two_rows(self):
        with pytest.raises(EmptyInput):
            pca_fit(np.zeros((1, 4)), 0.90)
