import numpy as np
import pytest
from hypothesis import given, strategies as st

from iws.data import SignalInstance
from iws.errors import DegenerateScaling, InvariantViolation
from iws.features import (
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
        with pytest.raises(InvariantViolation, match="empty set"):
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
        with pytest.raises(InvariantViolation, match="needs >= 3 samples, got 2"):
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
        with pytest.raises(InvariantViolation, match="needs >= 11 samples, got 10"):
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
        with pytest.raises(InvariantViolation, match="needs >= 2 samples, got 1"):
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
        with pytest.raises(InvariantViolation, match="needs >= 38 samples, got 37"):
            ghe(np.zeros(37), 1)  # needs >= 2 * 19 = 38, twice the largest lag
        with pytest.raises(InvariantViolation, match="ghe handles q = 1 or 2, got 3"):
            ghe(np.zeros(64), 3)

    def test_degenerate_scaling(self):
        with pytest.raises(DegenerateScaling):
            ghe(np.zeros(64), 1)


def random_instance(seed=0):
    gen = np.random.default_rng(seed)
    return SignalInstance(samples=gen.standard_normal((64, 14)), trial_offset=13)


class TestExtraction:
    def test_fs1_width_and_layout(self):
        assert extract_features(random_instance(), 1).shape == (70,)

    def test_fs2_width_and_finiteness(self):
        row = extract_features(random_instance(3), 2)
        assert row.shape == (168,)
        assert np.all(np.isfinite(row))

    def test_fs3_identical_channels_identical_features(self):
        walk = np.cumsum(np.random.default_rng(5).standard_normal(64))
        inst = SignalInstance(samples=np.tile(walk[:, None], (1, 14)), trial_offset=0)
        row = extract_features(inst, 3)
        assert row.shape == (28,)
        h1 = row[0::2]
        h2 = row[1::2]
        assert np.max(np.abs(h1 - h1[0])) < 1e-12
        assert np.max(np.abs(h2 - h2[0])) < 1e-12

    def test_determinism(self):
        a = extract_features(random_instance(9), 1)
        b = extract_features(random_instance(9), 1)
        assert np.array_equal(a, b)

    def test_window_checked_where_it_is_used(self):
        # the instance holds its window as given; extract_features reads a
        # list-of-rows window as the array and refuses any other shape or set
        w = random_instance(4).samples
        for fs in (1, 2, 3):
            as_list = SignalInstance(samples=w.tolist(), trial_offset=13)
            assert np.array_equal(extract_features(as_list, fs),
                                  extract_features(SignalInstance(samples=w, trial_offset=13), fs))
        with pytest.raises(InvariantViolation, match="expected 1 windows of 64 x 14"):
            extract_features(SignalInstance(samples=w[:63], trial_offset=13), 1)
        with pytest.raises(InvariantViolation, match="extract_features handles sets 1-3, got 4"):
            extract_features(SignalInstance(samples=w, trial_offset=13), 4)


class TestAssembleFs4:
    def test_widths_sum(self):
        inst = random_instance(2)
        v = assemble_fs4(*(extract_features(inst, k) for k in (1, 2, 3)))
        assert v.shape == (266,)

    def test_wrong_order_rejected(self):
        inst = random_instance(2)
        v1, v2, v3 = (extract_features(inst, k) for k in (1, 2, 3))
        with pytest.raises(InvariantViolation, match="feature set 1 has width 70"):
            assemble_fs4(v2, v1, v3)


class TestScaler:
    def test_golden_population_std(self):
        vecs = list(np.array([[0.0, 10.0], [2.0, 10.0], [4.0, 10.0]]))
        model = scaler_fit(vecs)
        out = np.stack([scaler_apply(model, v) for v in vecs])
        np.testing.assert_allclose(out[:, 0], [-1.224744871, 0.0, 1.224744871], atol=1e-8)
        # zero-variance column: centered but not scaled
        np.testing.assert_allclose(out[:, 1], [0.0, 0.0, 0.0], atol=1e-12)

    def test_train_set_statistics(self, rng):
        vecs = list(rng.standard_normal((40, 7)) * 3 + 1)
        model = scaler_fit(vecs)
        out = np.stack([scaler_apply(model, v) for v in vecs])
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_single_vector_degenerate(self):
        vecs = list(np.array([[3.0, -1.0, 7.0]]))
        model = scaler_fit(vecs)
        out = scaler_apply(model, vecs[0])
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvariantViolation, match="empty training set"):
            scaler_fit([])
        with pytest.raises(InvariantViolation, match=r"needs \(n, d\) training rows"):
            scaler_fit(np.zeros((2, 3, 4)))


class TestPca:
    def test_rank_two_data(self, rng, caplog):
        # variance along two orthogonal directions only, comparable sizes
        n = 200
        basis = np.zeros((2, 8))
        basis[0, 1] = 1.0
        basis[1, 4] = 1.0
        coords = rng.standard_normal((n, 2)) * np.array([1.5, 1.0])
        matrix = coords @ basis + 5.0
        model = pca_fit(matrix)
        assert model.components.shape[0] == 2
        assert model.retained_variance_ratio == pytest.approx(1.0, abs=1e-12)
        # rank zero: identical rows keep one component, with a warning
        with caplog.at_level("WARNING", logger="iws.features"):
            model = pca_fit(np.full((n, 8), 5.0))
        assert model.components.shape[0] == 1 and model.retained_variance_ratio == 1.0
        assert "zero total variance" in caplog.text

    def test_isotropic_keeps_about_ninety_percent(self, rng):
        matrix = rng.standard_normal((1000, 10))
        model = pca_fit(matrix)
        assert 8 <= model.components.shape[0] <= 10

    def test_orthonormal_rows(self, rng):
        matrix = rng.standard_normal((100, 12)) @ np.diag(np.arange(1, 13))
        model = pca_fit(matrix)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(model.components.shape[0]), atol=1e-8)

    def test_largest_entry_of_each_component_is_positive(self, rng):
        for _ in range(20):
            model = pca_fit(rng.standard_normal((40, 9)) * rng.uniform(0.5, 3.0, 9))
            rows = np.arange(model.components.shape[0])
            pivots = model.components[rows, np.argmax(np.abs(model.components), axis=1)]
            assert np.all(pivots > 0)

    def test_eigenvalues_match_svd_oracle(self, rng):
        matrix = rng.standard_normal((80, 6)) * np.array([5, 4, 3, 2, 1, 0.5])
        model = pca_fit(matrix)
        centered = matrix - matrix.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        np.testing.assert_allclose(model.eigenvalues, sv ** 2 / matrix.shape[0],
                                   atol=1e-8)

    def test_projection_variance_ratio(self, rng):
        matrix = rng.standard_normal((150, 20)) * rng.uniform(0.1, 4.0, 20)
        model = pca_fit(matrix)
        projected = np.stack([pca_apply(model, row) for row in matrix])
        ratio = projected.var(axis=0).sum() / (matrix - matrix.mean(axis=0)).var(axis=0).sum()
        assert ratio >= 0.90
        assert model.retained_variance_ratio >= 0.90

    def test_needs_two_rows(self):
        with pytest.raises(InvariantViolation, match=">= 2 rows"):
            pca_fit(np.zeros((1, 4)))


class TestOneFunctionPerOperation:
    """A window's row through a per-window operation is that row of the
    operation on a matrix."""

    def _sets(self, rng, n=30):
        return [rng.standard_normal((n, w)) for w in (70, 168, 28)]

    def test_assemble_rows_are_the_matrix_rows(self, rng):
        sets = self._sets(rng)
        whole = assemble_fs4(*sets)
        assert whole.shape == (30, 266)
        for i in range(30):
            assert assemble_fs4(*(m[i] for m in sets)).tobytes() == whole[i].tobytes()

    def test_scaler_rows_are_the_matrix_rows(self, rng):
        matrix = rng.standard_normal((40, 266)) * rng.uniform(0.1, 5.0, 266)
        model = scaler_fit(matrix[:25])
        whole = scaler_apply(model, matrix)
        for i, row in enumerate(matrix):
            assert scaler_apply(model, row).tobytes() == whole[i].tobytes()

    def test_pca_rows_agree_with_the_matrix_rows(self, rng):
        matrix = rng.standard_normal((40, 266)) * rng.uniform(0.1, 5.0, 266)
        model = pca_fit(matrix[:25])
        whole = pca_apply(model, matrix)
        for i, row in enumerate(matrix):
            got = pca_apply(model, row)
            # a BLAS product's bits depend on its shape: close to the matrix row,
            # and bit-equal to the row projected as a one-row matrix
            np.testing.assert_allclose(got, whole[i], rtol=0, atol=1e-12)
            one_row = (row[None] - model.mean) @ model.components.T
            assert got.tobytes() == one_row[0].tobytes()

    def test_wrong_width_refused(self, rng):
        sets = self._sets(rng, n=4)
        matrix = np.concatenate(sets, axis=1)
        scaler, pca = scaler_fit(matrix), pca_fit(matrix)
        for x in (matrix, matrix[0]):
            for apply, model in ((scaler_apply, scaler), (pca_apply, pca)):
                with pytest.raises(InvariantViolation, match="does not match"):
                    apply(model, x[..., 1:])
        for parts in (sets, [m[0] for m in sets]):
            with pytest.raises(InvariantViolation, match="feature set 1 has width 70"):
                assemble_fs4(parts[1], parts[0], parts[2])
            with pytest.raises(InvariantViolation, match="feature set 2 has width 168"):
                assemble_fs4(parts[0], parts[1][..., 1:], parts[2])
