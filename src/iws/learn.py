"""From-scratch classifiers (random forest, k-NN, logistic regression) and the
per-subject 4-fold 75/25 trial-level validation scheme."""

import logging
from dataclasses import dataclass

import numpy as np

from .data import MIN_TRIALS
from .errors import (
    InvariantViolation,
    SingleClassTraining,
    TooFewTrials,
    WidthMismatch,
)

log = logging.getLogger(__name__)

CLASSIFIER_KINDS = ("random_forest", "knn", "logreg")

TRAIN_RATIO = 0.75  # share of a subject's trials in each fold's training side
RF_TREES = 100
KNN_K = 50
LOGREG_PENALTY = 1.0  # L2 strength


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise InvariantViolation(f"unknown classifier kind {self.kind!r}")


@dataclass(frozen=True)
class FoldPlan:
    """Four independent seeded 75/25 trial-level splits for one subject."""

    folds: tuple  # of (train_ids, test_ids) tuples

    def __post_init__(self):
        object.__setattr__(
            self, "folds", tuple((tuple(tr), tuple(te)) for tr, te in self.folds)
        )
        for tr, te in self.folds:
            if set(tr) & set(te):
                raise InvariantViolation("train and test trials overlap")


def make_fold_plan(n_trials, seed, n_folds=4) -> FoldPlan:
    """Shuffle trial indices ``n_folds`` times and split each shuffle 75/25.

    Splits are at trial granularity, never window granularity, so no
    windows of a test trial can leak into training.
    """
    if n_trials < MIN_TRIALS:
        raise TooFewTrials(
            f"{n_trials} trials < {MIN_TRIALS}; cannot split 75/25 with >= 2 test trials")
    n_train = int(n_trials * TRAIN_RATIO)
    folds = []
    for f in range(n_folds):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), f)))
        perm = rng.permutation(n_trials)
        folds.append((tuple(int(i) for i in perm[:n_train]),
                      tuple(int(i) for i in perm[n_train:])))
    return FoldPlan(folds=tuple(folds))


# ---------------------------------------------------------------------------
# Decision tree / random forest
# ---------------------------------------------------------------------------

def _dense_ranks(X):
    """Dense ranks of each column of ``X``, as a (features, rows) matrix.

    Equal values share a rank and rank order is value order, so a split
    search on ranks sees the same boundaries as one on the values (for any
    ``X`` without NaN)."""
    return np.array([np.unique(col, return_inverse=True)[1] for col in X.T])


def _split_tables(X, y):
    """The per-fold tables of the split search: ``keys[f, i]``, the dense rank
    of ``X[i, f]`` in its column packed with the row's label as
    ``2 * rank + y[i]``, and ``values[f, r]``, the value of rank ``r`` in
    column ``f``.

    Equal values share a rank.  -0.0 and 0.0 share one too, and either gives
    the same midpoint with a distinct neighbour.  Entries of ``values`` past a
    column's highest rank are never read and stay unset."""
    ranks = _dense_ranks(X)
    values = np.empty(ranks.shape)
    values[np.arange(ranks.shape[0])[:, None], ranks] = X.T
    return 2 * ranks + y, values


def _best_split(keys, values, rows, feature_ids, ones):
    """Best (feature, threshold) over the candidate features for the node
    holding ``rows``, ``ones`` of them labelled 1; None when no candidate has
    two distinct values.

    ``keys`` packs each (feature, row) rank with the row's label (see
    ``_split_tables``), so one in-place sort of the node's (candidates,
    rows) key submatrix orders every candidate and carries the labels along.
    Only the last position of a run of equal ranks is a boundary, and the
    label count there does not depend on the order inside the run, so an
    unstable sort gives the costs of a stable one.  Among tied minima the
    first candidate in draw order wins."""
    n = rows.size
    sub = keys.take(feature_ids, axis=0).take(rows, axis=1)
    sub.sort(axis=1)
    ranks = sub >> 1
    ones_left = sub & 1
    ones_left.cumsum(axis=1, out=ones_left)
    # side 0 is left of each boundary and side 1 right of it, so that one
    # array operation takes a step of the Gini cost on both sides
    ones_by_side = np.empty((2, feature_ids.size, n - 1), dtype=np.int64)
    ones_by_side[0] = ones_left[:, :-1]
    np.subtract(ones, ones_by_side[0], out=ones_by_side[1])
    sizes = np.empty((2, 1, n - 1))
    sizes[0, 0] = np.arange(1, n)
    np.subtract(n, sizes[0], out=sizes[1])
    # size * gini = size * (1 - ((ones / size) ** 2 + ((size - ones) / size) ** 2)),
    # one operation at a time in that order, so every cost rounds as that
    # expression does (x ** 2 is x * x)
    p1 = ones_by_side / sizes
    p0 = sizes - ones_by_side
    p0 /= sizes
    p1 *= p1
    p0 *= p0
    p1 += p0
    np.subtract(1.0, p1, out=p1)
    p1 *= sizes
    cost = p1[0] + p1[1]
    cost /= n
    np.putmask(cost, ranks[:, 1:] == ranks[:, :-1], np.inf)
    k = int(cost.argmin())  # row-major: first candidate in draw order among ties
    j, i = divmod(k, n - 1)
    if cost[j, i] == np.inf:
        return None
    f = int(feature_ids[j])
    return f, float(0.5 * (values[f, ranks[j, i]] + values[f, ranks[j, i + 1]]))


def _leaf(ones, n):
    return {"label": 1 if ones > n - ones else 0}  # ties resolve to 0


def _grow_tree(X, y, keys, values, rows, rng, n_candidates):
    """Grow a tree on ``rows`` of ``X`` (with repeats), drawing one candidate
    set per split node in DFS preorder."""
    n = rows.size
    ones = int(np.count_nonzero(y[rows]))
    if ones == 0 or ones == n:
        return _leaf(ones, n)
    feats = rng.choice(X.shape[1], size=n_candidates, replace=False)
    split = _best_split(keys, values, rows, feats, ones)
    if split is None:
        return _leaf(ones, n)
    feature, threshold = split
    mask = X[rows, feature] < threshold
    n_left = int(np.count_nonzero(mask))
    if n_left == 0 or n_left == n:
        return _leaf(ones, n)
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _grow_tree(X, y, keys, values, rows[mask], rng, n_candidates),
        "right": _grow_tree(X, y, keys, values, rows[~mask], rng, n_candidates),
    }


def _compile_tree(node, table):
    """Append the tree at ``node`` to the flat list ``table`` in preorder, five
    entries per node: feature, threshold, left, right, label.  Returns the
    node's index; a leaf is its own left and right child."""
    i = len(table) // 5
    if "feature" not in node:
        table.extend((0, 0.0, i, i, node["label"]))
        return i
    table.extend((node["feature"], node["threshold"], 0, 0, 0))
    table[5 * i + 2] = _compile_tree(node["left"], table)
    table[5 * i + 3] = _compile_tree(node["right"], table)
    return i


class RandomForestModel:
    """Bagged CART ensemble: Gini impurity, grown to purity, majority vote.

    ``trees`` stay nested dicts.  They are compiled once into one flat node
    table (``feature``, ``threshold``, ``left``, ``right``, ``label``), each
    tree in preorder from its entry in ``roots``."""

    kind = "random_forest"

    def __init__(self, trees, n_features):
        self.trees = trees
        self.n_features = n_features
        table = []
        self.roots = np.array([_compile_tree(tree, table) for tree in trees], dtype=np.int64)
        table = np.array(table, dtype=np.float64).reshape(-1, 5).T  # exact for the integers
        self.threshold = table[1].copy()
        self.feature, self.left, self.right, self.label = table[[0, 2, 3, 4]].astype(np.int64)

    def predict(self, X):
        X = _check_predict_input(X, self.n_features)
        if X.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        # every (tree, row) pair descends one level per step; NaN goes right
        cols = np.arange(X.shape[0])
        node = np.broadcast_to(self.roots[:, None], (self.roots.size, cols.size))
        is_leaf = self.left == np.arange(self.left.size)
        while not is_leaf[node].all():
            node = np.where(X[cols, self.feature[node]] < self.threshold[node],
                            self.left[node], self.right[node])
        votes = self.label[node].sum(axis=0)
        # strict majority of trees; exact ties resolve to 0
        return (votes * 2 > len(self.trees)).astype(np.int64)


def _train_random_forest(X, y, seed):
    n, m = X.shape
    n_candidates = max(1, int(np.floor(np.sqrt(m))))
    keys, values = _split_tables(X, y)
    trees = []
    for t in range(RF_TREES):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), t)))
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X, y, keys, values, boot, rng, n_candidates))
    return RandomForestModel(trees=trees, n_features=m)


# ---------------------------------------------------------------------------
# k nearest neighbors
# ---------------------------------------------------------------------------

def _sq_distances(A, B):
    """Squared Euclidean distances between the rows of ``A`` and ``B``, summed
    one feature at a time: each entry is the sequential sum of a per-pair loop."""
    d2 = np.zeros((A.shape[0], B.shape[0]))
    for j in range(A.shape[1]):
        d2 += (A[:, j, None] - B[None, :, j]) ** 2
    return d2


class KnnModel:
    """Stored training set; majority label among the k nearest by Euclidean
    (Minkowski p=2) distance, prediction ties resolving to class 0."""

    kind = "knn"

    def __init__(self, X, y, k):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        self.k = int(k)
        self.n_features = self.X.shape[1]

    def predict(self, X):
        X = _check_predict_input(X, self.n_features)
        if X.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        d2 = _sq_distances(X, self.X)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :self.k]
        ones = self.y[nearest].sum(axis=1)
        return (ones * 2 > self.k).astype(np.int64)


def _train_knn(X, y):
    k = KNN_K
    if X.shape[0] < k:
        log.warning("knn: %d training rows < k=%d; falling back to k=%d",
                    X.shape[0], k, X.shape[0])
        k = X.shape[0]
    return KnnModel(X=X, y=y, k=k)


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------

class LogRegModel:
    kind = "logreg"

    def __init__(self, weights, intercept):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.intercept = float(intercept)
        self.n_features = self.weights.size

    def decision(self, X):
        return X @ self.weights + self.intercept

    def predict(self, X):
        X = _check_predict_input(X, self.n_features)
        if X.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        return (self.decision(X) > 0.0).astype(np.int64)


def _logreg_loss(w, b, X, y_pm, lam):
    """The L2-penalized logistic loss and the margins ``z`` it was taken at."""
    n = X.shape[0]
    z = y_pm * (X @ w + b)
    # numerically stable log(1 + exp(-z))
    loss = float(np.mean(np.logaddexp(0.0, -z))) + lam * float(w @ w) / (2 * n)
    return loss, z


def _logreg_grad(w, z, X, y_pm, lam):
    """Gradient of the loss in ``w`` and the intercept, from its margins ``z``."""
    n = X.shape[0]
    sig = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
    coeff = -y_pm * sig / n
    grad_w = X.T @ coeff + lam * w / n  # intercept stays unpenalized
    grad_b = float(np.sum(coeff))
    return grad_w, grad_b


def _logreg_loss_grad(w, b, X, y_pm, lam):
    loss, z = _logreg_loss(w, b, X, y_pm, lam)
    return (loss, *_logreg_grad(w, z, X, y_pm, lam))


def _train_logreg(X, y):
    """Batch gradient descent with Armijo backtracking on the L2-penalized
    logistic loss; the accepted-step loss sequence is non-increasing.  The
    gradient is taken only at accepted points."""
    n, m = X.shape
    y_pm = np.where(y == 1, 1.0, -1.0)
    w = np.zeros(m)
    b = 0.0
    lam = LOGREG_PENALTY
    step = 1.0
    loss, grad_w, grad_b = _logreg_loss_grad(w, b, X, y_pm, lam)
    for _ in range(5000):  # iteration cap
        gnorm2 = float(grad_w @ grad_w) + grad_b ** 2
        if np.sqrt(gnorm2) <= 1e-6:  # gradient-norm tolerance
            break
        accepted = False
        while step >= 1e-12:
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            loss_new, z_new = _logreg_loss(w_new, b_new, X, y_pm, lam)
            if loss_new <= loss - 1e-4 * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:  # no descent direction at float precision
            break
        w, b, loss = w_new, b_new, loss_new
        grad_w, grad_b = _logreg_grad(w, z_new, X, y_pm, lam)
        step = min(step * 2.0, 1e6)  # allow re-growth after cautious steps
    return LogRegModel(weights=w, intercept=b)


# ---------------------------------------------------------------------------
# Shared surface
# ---------------------------------------------------------------------------

def _check_predict_input(X, n_features):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(0, n_features) if X.size == 0 else X.reshape(1, -1)
    if X.shape[0] > 0 and X.shape[1] != n_features:
        raise WidthMismatch(f"expected {n_features} features, got {X.shape[1]}")
    return X


def train(spec: ClassifierSpec, X, y):
    """Train the classifier named by ``spec`` on a feature matrix and labels."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.size or y.size < 2 or X.shape[1] < 1:
        raise InvariantViolation(
            f"need matching X ({X.shape}) and y ({y.shape}) with >= 2 rows and >= 1 feature"
        )
    # NaN is the one input whose rank order and float order disagree
    if not np.isfinite(X).all():
        raise InvariantViolation("training features must be finite")
    if not ((y == 0) | (y == 1)).all():
        raise InvariantViolation("training labels must be 0 or 1")
    y = y.astype(np.int64)
    classes = np.unique(y)
    if spec.kind in ("random_forest", "logreg") and classes.size < 2:
        raise SingleClassTraining(f"{spec.kind} needs both classes in training data")
    if spec.kind == "random_forest":
        return _train_random_forest(X, y, spec.seed)
    if spec.kind == "knn":
        return _train_knn(X, y)
    return _train_logreg(X, y)


def predict(model, X):
    return model.predict(X)
