"""Equivalence of the rank-based forest with the per-feature split search it
replaced.

The oracle below is a verbatim copy of that code: ``_best_split``, ``_leaf``,
``_grow_tree`` and ``_train_random_forest``, the last taking its seed, tree
count and candidate count as arguments.  It sorts the float values of
one candidate feature at a time with a stable sort and grows each tree on a
copy of its bootstrap rows.  The rank-based code draws the same random numbers
in the same order and computes every Gini cost with the same arithmetic, so
the trees must be equal as dicts, thresholds included.

Smaller forests patch ``learn.RF_TREES``; other candidate counts than
``floor(sqrt(m))`` are grown tree by tree through ``learn._grow_tree``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iws import learn
from iws.learn import RandomForestModel

# ---------------------------------------------------------------------------
# Oracle: the per-feature implementation, verbatim
# ---------------------------------------------------------------------------

def _best_split(X, y, feature_ids):
    """Best (feature, threshold, weighted gini) over the candidate features."""
    n = y.size
    best = (None, 0.0, np.inf)
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    for f in feature_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ones_left = np.cumsum(y[order])[:-1].astype(np.float64)
        ones_right = float(np.sum(y)) - ones_left
        gini_left = 1.0 - ((ones_left / n_left) ** 2 + ((n_left - ones_left) / n_left) ** 2)
        gini_right = 1.0 - ((ones_right / n_right) ** 2 + ((n_right - ones_right) / n_right) ** 2)
        cost = (n_left * gini_left + n_right * gini_right) / n
        cost[xs[1:] <= xs[:-1]] = np.inf  # only boundaries between distinct values
        i = int(np.argmin(cost))
        if cost[i] < best[2]:
            best = (int(f), float(0.5 * (xs[i] + xs[i + 1])), float(cost[i]))
    return best


def _leaf(y):
    ones = int(np.sum(y))
    zeros = y.size - ones
    return {"label": 1 if ones > zeros else 0}  # ties resolve to 0


def _grow_tree(X, y, rng, n_candidates):
    if np.all(y == y[0]) or y.size < 2:
        return _leaf(y)
    feats = rng.choice(X.shape[1], size=n_candidates, replace=False)
    feature, threshold, cost = _best_split(X, y, feats)
    if feature is None or not np.isfinite(cost):
        return _leaf(y)
    mask = X[:, feature] < threshold
    if not mask.any() or mask.all():
        return _leaf(y)
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _grow_tree(X[mask], y[mask], rng, n_candidates),
        "right": _grow_tree(X[~mask], y[~mask], rng, n_candidates),
    }


def _train_random_forest(X, y, seed, n_trees, n_candidates):
    n, m = X.shape
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), t)))
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X[boot], y[boot], rng, n_candidates))
    return RandomForestModel(trees=trees, n_features=m)


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

def _rank_trees(X, y, seed, n_trees, n_candidates):
    """``learn._train_random_forest`` with its candidate count as an argument."""
    keys, values = learn._split_tables(X, y)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), t)))
        boot = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(learn._grow_tree(X, y, keys, values, boot, rng, n_candidates))
    return trees


def assert_same_forest(X, y, n_trees=learn.RF_TREES, seed=0, n_candidates=None):
    """Oracle and rank-based forests agree.  With ``n_candidates`` None the
    whole ``learn._train_random_forest`` runs, at its floor(sqrt(m))."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if n_candidates is None:
        sqrt_m = max(1, int(np.floor(np.sqrt(X.shape[1]))))
        expected = _train_random_forest(X, y, seed, n_trees, sqrt_m).trees
        with mock.patch.object(learn, "RF_TREES", n_trees):
            got = learn._train_random_forest(X, y, seed).trees
    else:
        expected = _train_random_forest(X, y, seed, n_trees, n_candidates).trees
        got = _rank_trees(X, y, seed, n_trees, n_candidates)
    assert got == expected


def random_labels(gen, n):
    y = gen.integers(0, 2, n)
    y[:2] = (0, 1)
    return y


def grid_with_signed_zeros(gen, shape, levels=5):
    """Integers in [-(levels // 2), levels // 2], about half of the zeros as -0.0."""
    X = gen.integers(-(levels // 2), levels // 2 + 1, shape).astype(np.float64)
    X[(X == 0) & (gen.random(shape) < 0.5)] = -0.0
    return X


@pytest.mark.parametrize("seed", [0, 1])
def test_control_shape_noise(seed):
    # 275 x 70 FS1 rows on noise: deep trees, as in the SNR-0 workload
    gen = np.random.default_rng(seed)
    assert_same_forest(gen.standard_normal((275, 70)), random_labels(gen, 275),
                       n_trees=20, seed=seed)


def test_headline_shape():
    # 25 rows of the 266 FS4 features
    gen = np.random.default_rng(2)
    X = gen.standard_normal((25, 266)) * gen.uniform(0.1, 10.0, 266)
    assert_same_forest(X, random_labels(gen, 25), seed=3)


@pytest.mark.parametrize("levels", [2, 3, 5])
def test_tie_heavy_integer_grid(levels):
    gen = np.random.default_rng(levels)
    X = grid_with_signed_zeros(gen, (150, 12), levels)
    assert_same_forest(X, random_labels(gen, 150), n_trees=30, seed=levels)


def test_constant_columns_and_duplicated_rows():
    gen = np.random.default_rng(4)
    X = gen.standard_normal((60, 8))
    X[:, [1, 4, 5]] = 3.0
    y = random_labels(gen, 60)
    # duplicates with both agreeing and conflicting labels: some nodes keep
    # rows no candidate can separate
    X = np.vstack([X, X[:30], X[:30]])
    y = np.concatenate([y, y[:30], 1 - y[:30]])
    assert_same_forest(X, y, n_trees=30, seed=4)
    assert_same_forest(X, y, n_trees=30, seed=4, n_candidates=1)


def test_all_columns_constant():
    X = np.full((20, 3), 7.0)
    assert_same_forest(X, np.arange(20) % 2, n_trees=5)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_infinite_entries():
    gen = np.random.default_rng(5)
    X = gen.standard_normal((120, 9))
    X[gen.random(X.shape) < 0.1] = np.inf
    X[gen.random(X.shape) < 0.1] = -np.inf
    X[:, 0] = np.where(gen.random(120) < 0.5, np.inf, -np.inf)
    assert_same_forest(X, random_labels(gen, 120), n_trees=30, seed=5)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("X", [[[0.0], [1.0]], [[1.0, 1.0], [1.0, 1.0]],
                               [[np.inf, 2.0], [-np.inf, 2.0]], [[-0.0, 3.0], [0.0, -3.0]]])
@pytest.mark.parametrize("y", [[0, 1], [1, 0], [1, 1]])
def test_two_rows(X, y):
    assert_same_forest(X, y, n_trees=20)


@pytest.mark.parametrize("per_split", [1, 11])
def test_features_per_split_one_and_all(per_split):
    gen = np.random.default_rng(6)
    X = np.hstack([gen.standard_normal((90, 6)), grid_with_signed_zeros(gen, (90, 5))])
    assert_same_forest(X, random_labels(gen, 90), n_trees=30, seed=6,
                       n_candidates=per_split)


@given(n=st.integers(2, 40), m=st.integers(1, 6), per_split=st.integers(0, 6),
       grid=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_small_shapes(n, m, per_split, grid, seed):
    gen = np.random.default_rng(seed)
    X = grid_with_signed_zeros(gen, (n, m), 3) if grid else gen.standard_normal((n, m))
    # 0 runs the whole forest at floor(sqrt(m)) candidates
    assert_same_forest(X, gen.integers(0, 2, n), n_trees=8, seed=seed,
                       n_candidates=min(per_split, m) or None)


def test_dense_ranks_share_equal_values_and_follow_value_order():
    gen = np.random.default_rng(7)
    X = np.hstack([grid_with_signed_zeros(gen, (50, 3)), gen.standard_normal((50, 2))])
    X[gen.random(X.shape) < 0.1] = np.inf
    X[gen.random(X.shape) < 0.1] = -np.inf
    ranks = learn._dense_ranks(X)
    assert ranks.shape == (5, 50)
    for f in range(5):
        x, r = X[:, f], ranks[f]
        assert np.array_equal(r[:, None] == r[None, :], x[:, None] == x[None, :])
        assert np.array_equal(r[:, None] < r[None, :], x[:, None] < x[None, :])
        assert np.array_equal(np.unique(r), np.arange(np.unique(x).size))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_split_tables_pack_ranks_and_labels_and_invert_the_ranks():
    gen = np.random.default_rng(8)
    X = np.hstack([grid_with_signed_zeros(gen, (60, 3)), gen.standard_normal((60, 2))])
    X[gen.random(X.shape) < 0.1] = np.inf
    X[gen.random(X.shape) < 0.1] = -np.inf
    y = random_labels(gen, 60)
    keys, values = learn._split_tables(X, y)
    ranks = learn._dense_ranks(X)
    assert np.array_equal(keys, 2 * ranks + y)
    for f in range(X.shape[1]):
        assert np.array_equal(values[f, ranks[f]], X[:, f])
        # the midpoint of two neighbouring ranks has the bits of the midpoint
        # of any two rows holding them, whichever zero either row holds
        for r in range(ranks[f].max()):
            a, b = np.flatnonzero(ranks[f] == r), np.flatnonzero(ranks[f] == r + 1)
            from_rows = 0.5 * (X[a, f][:, None] + X[b, f][None, :])
            from_table = 0.5 * (values[f, r] + values[f, r + 1])
            assert (from_rows.view(np.int64) == np.float64(from_table).view(np.int64)).all()
    # the threshold of a split is such a midpoint
    f, threshold = learn._best_split(keys, values, np.arange(60), np.arange(5), int(y.sum()))
    x = np.unique(X[:, f])
    assert np.float64(threshold).view(np.int64) in (0.5 * (x[:-1] + x[1:])).view(np.int64)
