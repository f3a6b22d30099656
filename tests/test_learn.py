import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial.distance import cdist

from iws import learn
from iws.errors import (
    InvariantViolation,
    SingleClassTraining,
    TooFewTrials,
    WidthMismatch,
)
from iws.learn import (
    ClassifierSpec,
    RandomForestModel,
    _logreg_loss_grad,
    _sq_distances,
    make_fold_plan,
    predict,
    train,
)


def blobs(n_per_class=100, margin=5.0, dim=4, seed=0):
    """Two well-separated gaussian clusters; margin in units of cluster std."""
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n_per_class, dim))
    b = gen.standard_normal((n_per_class, dim)) + margin
    X = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


def xor_clusters(n_per_cluster=50, seed=0):
    gen = np.random.default_rng(seed)
    centers = [(0, 0, 0), (5, 5, 0), (0, 5, 1), (5, 0, 1)]
    X, y = [], []
    for cx, cy, label in centers:
        X.append(gen.standard_normal((n_per_cluster, 2)) * 0.5 + [cx, cy])
        y += [label] * n_per_cluster
    return np.vstack(X), np.array(y)


def tree_predict(node, row):
    """One row down one dict tree; NaN compares false, so it goes right."""
    while "feature" in node:
        node = node["left"] if row[node["feature"]] < node["threshold"] else node["right"]
    return node["label"]


def dict_vote(trees, X):
    """Per-row majority of the dict trees, exact ties to 0: the oracle of
    ``RandomForestModel.predict``."""
    votes = np.array([[tree_predict(tree, row) for row in X] for tree in trees])
    return (votes.sum(axis=0) * 2 > len(trees)).astype(np.int64), votes.sum(axis=0)


def tree_depth(node):
    if "feature" not in node:
        return 0
    return 1 + max(tree_depth(node["left"]), tree_depth(node["right"]))


def probe_rows(gen, n, dim):
    """Normal rows, some entries replaced by NaN, inf and -inf."""
    X = gen.standard_normal((n, dim)) * 3
    for value in (np.nan, np.inf, -np.inf):
        X[gen.random(X.shape) < 0.1] = value
    return X


def nearest_centroid_oracle(X, y):
    c0 = X[y == 0].mean(axis=0)
    c1 = X[y == 1].mean(axis=0)
    d0 = ((X - c0) ** 2).sum(axis=1)
    d1 = ((X - c1) ** 2).sum(axis=1)
    return (d1 < d0).astype(int)


class TestFoldPlan:
    @pytest.mark.parametrize("n,train,test", [(100, 75, 25), (160, 120, 40), (8, 6, 2)])
    def test_split_sizes(self, n, train, test):
        plan = make_fold_plan(n, seed=1)
        assert len(plan.folds) == 4
        for tr, te in plan.folds:
            assert len(tr) == train and len(te) == test
            assert set(tr) | set(te) == set(range(n))
            assert not set(tr) & set(te)

    def test_determinism(self):
        assert make_fold_plan(40, seed=9).folds == make_fold_plan(40, seed=9).folds

    def test_seed_changes_plan(self):
        assert make_fold_plan(40, seed=9).folds != make_fold_plan(40, seed=10).folds

    def test_default_split_is_floor_of_three_quarters(self):
        for n in range(8, 300):
            tr, te = make_fold_plan(n, seed=0, n_folds=1).folds[0]
            assert len(tr) == 3 * n // 4 and len(te) == n - 3 * n // 4

    def test_too_few_trials(self):
        with pytest.raises(TooFewTrials):
            make_fold_plan(7, seed=0)


class TestTraining:
    @pytest.mark.parametrize("kind", ["random_forest", "knn", "logreg"])
    def test_separable_blobs_perfect_training_accuracy(self, kind):
        X, y = blobs()
        oracle = nearest_centroid_oracle(X, y)
        assert np.array_equal(oracle, y)  # sanity: clusters really separate
        model = train(ClassifierSpec(kind=kind, seed=4), X, y)
        assert np.array_equal(predict(model, X), y)

    def test_knn_single_class(self):
        X = np.random.default_rng(0).standard_normal((60, 3))
        y = np.ones(60, dtype=int)
        model = train(ClassifierSpec(kind="knn"), X, y)
        assert np.all(predict(model, X) == 1)

    def test_knn_falls_back_when_small(self, caplog):
        X, y = blobs(n_per_class=10)
        with caplog.at_level("WARNING"):
            model = train(ClassifierSpec(kind="knn"), X, y)  # k = 50 > 20 rows
        assert model.k == 20
        assert any("falling back" in r.message for r in caplog.records)

    def test_xor_forest_beats_logreg(self):
        X, y = xor_clusters()
        rf = train(ClassifierSpec(kind="random_forest", seed=1), X, y)
        lr = train(ClassifierSpec(kind="logreg"), X, y)
        rf_acc = np.mean(predict(rf, X) == y)
        lr_acc = np.mean(predict(lr, X) == y)
        assert rf_acc >= 0.95
        assert lr_acc <= 0.75

    @pytest.mark.parametrize("kind", ["random_forest", "logreg"])
    def test_single_class_rejected(self, kind):
        X = np.random.default_rng(0).standard_normal((20, 3))
        with pytest.raises(SingleClassTraining):
            train(ClassifierSpec(kind=kind), X, np.zeros(20, dtype=int))

    def test_bad_shapes_rejected(self):
        with pytest.raises(InvariantViolation):
            train(ClassifierSpec(kind="knn"), np.zeros((4, 2)), np.zeros(3))

    @pytest.mark.parametrize("kind", ["random_forest", "knn", "logreg"])
    def test_zero_width_rejected(self, kind):
        with pytest.raises(InvariantViolation, match=">= 1 feature"):
            train(ClassifierSpec(kind=kind), np.zeros((4, 0)), [0, 1, 0, 1])

    @pytest.mark.parametrize("kind", ["random_forest", "knn", "logreg"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "label 2", "label -1", "label 0.5"])
    def test_non_finite_features_or_non_binary_labels_rejected(self, kind, bad):
        X, y = blobs(n_per_class=10)
        y = y.astype(np.float64)
        if bad.startswith("label"):
            y[3] = float(bad.split()[1])
        else:
            X[5, 1] = float(bad)
        with pytest.raises(InvariantViolation,
                           match="0 or 1" if bad.startswith("label") else "finite"):
            train(ClassifierSpec(kind=kind), X, y)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvariantViolation):
            ClassifierSpec(kind="svm")


class TestPredict:
    def test_training_set_recovered(self):
        X, y = blobs(seed=3)
        model = train(ClassifierSpec(kind="random_forest", seed=2), X, y)
        assert np.array_equal(predict(model, X), y)

    def test_empty_input(self):
        X, y = blobs(n_per_class=30)
        model = train(ClassifierSpec(kind="logreg"), X, y)
        assert predict(model, np.zeros((0, 4))).size == 0

    def test_width_mismatch(self):
        X, y = blobs(n_per_class=30)
        for kind in ("random_forest", "knn", "logreg"):
            model = train(ClassifierSpec(kind=kind, seed=1), X, y)
            with pytest.raises(WidthMismatch):
                predict(model, np.zeros((3, 5)))


class TestDeterminismAndProperties:
    def test_forest_byte_stable(self):
        X, y = blobs(n_per_class=60, margin=1.0, seed=8)  # overlapping, harder
        m1 = train(ClassifierSpec(kind="random_forest", seed=7), X, y)
        m2 = train(ClassifierSpec(kind="random_forest", seed=7), X, y)
        probe = np.random.default_rng(1).standard_normal((50, 4)) * 2
        assert np.array_equal(predict(m1, probe), predict(m2, probe))

    def test_forest_seed_matters(self):
        X, y = blobs(n_per_class=60, margin=0.5, seed=8)
        m1 = train(ClassifierSpec(kind="random_forest", seed=7), X, y)
        m2 = train(ClassifierSpec(kind="random_forest", seed=8), X, y)
        probe = np.random.default_rng(1).standard_normal((200, 4))
        # different bootstraps almost surely disagree somewhere on noise
        assert not np.array_equal(predict(m1, probe), predict(m2, probe))

    @given(st.integers(0, 2**31 - 1))
    def test_knn_permutation_invariant(self, seed):
        gen = np.random.default_rng(seed)
        X = gen.standard_normal((120, 3))  # more rows than k = 50
        y = (gen.uniform(size=120) < 0.5).astype(int)
        perm = gen.permutation(120)
        m1 = train(ClassifierSpec(kind="knn"), X, y)
        m2 = train(ClassifierSpec(kind="knn"), X[perm], y[perm])
        assert m1.k == learn.KNN_K
        probe = gen.standard_normal((25, 3))
        assert np.array_equal(predict(m1, probe), predict(m2, probe))

    def test_knn_tie_resolves_to_zero(self):
        # the k = 50 nearest are 25 rows per class at equal distance -> tie -> 0;
        # 10 far class-1 rows keep k from falling back
        X = np.array([[0.0]] * 25 + [[2.0]] * 25 + [[100.0]] * 10)
        y = np.array([0] * 25 + [1] * 25 + [1] * 10)
        model = train(ClassifierSpec(kind="knn"), X, y)
        assert model.k == 50
        assert predict(model, np.array([[1.0]]))[0] == 0

    @pytest.mark.parametrize("width", [70, 266])
    @pytest.mark.parametrize("grid", [False, True])
    def test_knn_matches_cdist_oracle(self, width, grid):
        # oracle: scipy's sqeuclidean cdist; grid data makes many distances tie
        gen = np.random.default_rng(width)
        draw = ((lambda shape: gen.integers(-1, 2, shape).astype(float)) if grid
                else gen.standard_normal)
        X, probe = draw((300, width)), draw((80, width))
        y = (gen.uniform(size=300) < 0.5).astype(int)
        d2 = cdist(probe, X, metric="sqeuclidean")
        assert np.array_equal(_sq_distances(probe, X), d2)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :50]
        expected = (y[nearest].sum(axis=1) * 2 > 50).astype(int)
        model = train(ClassifierSpec(kind="knn"), X, y)  # k = 50
        assert np.array_equal(predict(model, probe), expected)

    def test_logreg_loss_monotone(self):
        X, y = blobs(n_per_class=50, margin=1.0, seed=5)
        y_pm = np.where(y == 1, 1.0, -1.0)
        lam = 1.0
        w = np.zeros(X.shape[1])
        b = 0.0
        losses = [_logreg_loss_grad(w, b, X, y_pm, lam)[0]]
        step = 1.0
        for _ in range(200):
            loss, gw, gb = _logreg_loss_grad(w, b, X, y_pm, lam)
            gn2 = float(gw @ gw) + gb ** 2
            while step >= 1e-12:
                wn, bn = w - step * gw, b - step * gb
                ln = _logreg_loss_grad(wn, bn, X, y_pm, lam)[0]
                if ln <= loss - 1e-4 * step * gn2:
                    break
                step *= 0.5
            w, b = wn, bn
            losses.append(ln)
            step *= 2
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_logreg_model_loss_decreases(self):
        X, y = blobs(n_per_class=50, margin=2.0, seed=5)
        y_pm = np.where(y == 1, 1.0, -1.0)
        model = train(ClassifierSpec(kind="logreg"), X, y)
        final_loss = _logreg_loss_grad(model.weights, model.intercept, X, y_pm, 1.0)[0]
        initial_loss = _logreg_loss_grad(np.zeros(4), 0.0, X, y_pm, 1.0)[0]
        assert final_loss < initial_loss

    def test_single_tree_full_features_degeneracy(self, monkeypatch):
        # one feature, so every split searches all of them
        X, y = blobs(n_per_class=40, dim=1, seed=2)
        monkeypatch.setattr(learn, "RF_TREES", 1)
        ensemble = train(ClassifierSpec(kind="random_forest", seed=3), X, y)
        assert len(ensemble.trees) == 1
        single = RandomForestModel(trees=ensemble.trees, n_features=1)
        probe = np.random.default_rng(0).standard_normal((60, 1)) * 3
        assert np.array_equal(predict(ensemble, probe), predict(single, probe))


class TestCompiledForest:
    """``RandomForestModel.predict`` walks a flat node table; it must vote as
    the dict trees do, row by row."""

    @pytest.mark.parametrize("data", ["noise", "blobs"])
    def test_matches_dict_walk(self, data):
        gen = np.random.default_rng(11)
        if data == "noise":  # deep trees
            X, y = gen.standard_normal((200, 9)), gen.integers(0, 2, 200)
        else:  # one split per tree
            X, y = blobs(n_per_class=50, margin=8.0, dim=3, seed=11)
        model = train(ClassifierSpec(kind="random_forest", seed=5), X, y)
        depth = max(tree_depth(t) for t in model.trees)
        assert depth > 5 if data == "noise" else depth == 1
        # rows exactly on a threshold, which sends them right
        thresholds = model.threshold[model.left != np.arange(model.left.size)][:300]
        on_threshold = np.repeat(thresholds[:, None], X.shape[1], axis=1)
        probe = np.vstack([X, probe_rows(gen, 300, X.shape[1]), on_threshold])
        assert np.array_equal(predict(model, probe), dict_vote(model.trees, probe)[0])

    def test_single_leaf_trees(self):
        # constant columns: no candidate has two values, every tree is a leaf
        X = np.full((30, 2), 4.0)
        y = np.arange(30) % 3 == 0
        model = train(ClassifierSpec(kind="random_forest", seed=2), X, y.astype(int))
        assert all("feature" not in t for t in model.trees)
        probe = probe_rows(np.random.default_rng(3), 20, 2)
        assert np.array_equal(predict(model, probe), dict_vote(model.trees, probe)[0])
        assert np.array_equal(model.left, np.arange(len(model.trees)))
        assert np.array_equal(model.right, model.left)

    def test_even_tree_count_ties_resolve_to_zero(self, monkeypatch):
        monkeypatch.setattr(learn, "RF_TREES", 10)
        gen = np.random.default_rng(4)
        X, y = gen.standard_normal((120, 4)), gen.integers(0, 2, 120)
        model = train(ClassifierSpec(kind="random_forest", seed=9), X, y)
        probe = probe_rows(gen, 400, 4)
        expected, votes = dict_vote(model.trees, probe)
        assert (votes == 5).any()  # some rows really tie 5 to 5
        assert np.array_equal(predict(model, probe), expected)
        # a hand-made forest that gives every row two votes of four
        one, zero = {"label": 1}, {"label": 0}
        split = {"feature": 0, "threshold": 0.0, "left": one, "right": zero}
        mirror = {"feature": 0, "threshold": 0.0, "left": zero, "right": one}
        tied = RandomForestModel(trees=[one, zero, split, mirror], n_features=1)
        rows = np.array([[-1.0], [1.0], [np.nan], [-np.inf], [np.inf]])
        assert np.array_equal(predict(tied, rows), dict_vote(tied.trees, rows)[0])
        assert np.array_equal(predict(tied, rows), [0, 0, 0, 0, 0])

    def test_node_table_in_preorder(self):
        leaf0, leaf1 = {"label": 0}, {"label": 1}
        inner = {"feature": 1, "threshold": 2.5, "left": leaf1, "right": leaf0}
        tree = {"feature": 0, "threshold": -1.0, "left": inner, "right": leaf1}
        model = RandomForestModel(trees=[leaf1, tree], n_features=2)
        assert model.roots.tolist() == [0, 1]
        assert model.feature[[1, 2]].tolist() == [0, 1]
        assert model.threshold[[1, 2]].tolist() == [-1.0, 2.5]
        assert model.left.tolist() == [0, 2, 3, 3, 4, 5]
        assert model.right.tolist() == [0, 5, 4, 3, 4, 5]
        assert model.label[[0, 3, 4, 5]].tolist() == [1, 1, 0, 1]
