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


def _best_split(X, ranks, y, rows, feature_ids):
    """Best (feature, threshold) over the candidate features for the node
    holding ``rows`` of ``X``; None when no candidate has two distinct values.

    One argsort of the node's (candidates, rows) rank submatrix orders every
    candidate.  Only the last position of a run of equal values is a
    boundary, and the label count there does not depend on the order inside
    the run, so an unstable sort gives the costs of a stable one.  Among tied
    minima the first candidate in draw order wins."""
    n = rows.size
    order = ranks.take(feature_ids, axis=0).take(rows, axis=1).argsort(axis=1)
    sorted_rows = rows[order]
    sorted_ranks = ranks[feature_ids[:, None], sorted_rows]
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    ones_left = y[sorted_rows[:, :-1]].cumsum(axis=1)
    ones_right = y[rows].sum() - ones_left
    gini_left = 1.0 - ((ones_left / n_left) ** 2 + ((n_left - ones_left) / n_left) ** 2)
    gini_right = 1.0 - ((ones_right / n_right) ** 2 + ((n_right - ones_right) / n_right) ** 2)
    cost = (n_left * gini_left + n_right * gini_right) / n
    cost[sorted_ranks[:, 1:] == sorted_ranks[:, :-1]] = np.inf
    pos = cost.argmin(axis=1)
    best = cost[np.arange(pos.size), pos]
    j = int(best.argmin())
    if best[j] == np.inf:
        return None
    i, f = pos[j], int(feature_ids[j])
    a, b = sorted_rows[j, i], sorted_rows[j, i + 1]
    return f, float(0.5 * (X[a, f] + X[b, f]))


def _leaf(ones, n):
    return {"label": 1 if ones > n - ones else 0}  # ties resolve to 0


def _grow_tree(X, ranks, y, rows, rng, n_candidates):
    """Grow a tree on ``rows`` of ``X`` (with repeats), drawing one candidate
    set per split node in DFS preorder."""
    n = rows.size
    ones = int(np.count_nonzero(y[rows]))
    if ones == 0 or ones == n:
        return _leaf(ones, n)
    feats = rng.choice(X.shape[1], size=n_candidates, replace=False)
    split = _best_split(X, ranks, y, rows, feats)
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
        "left": _grow_tree(X, ranks, y, rows[mask], rng, n_candidates),
        "right": _grow_tree(X, ranks, y, rows[~mask], rng, n_candidates),
    }


def _tree_predict(node, row):
    while "feature" in node:
        node = node["left"] if row[node["feature"]] < node["threshold"] else node["right"]
    return node["label"]


class RandomForestModel:
    """Bagged CART ensemble: Gini impurity, grown to purity, majority vote."""

    kind = "random_forest"

    def __init__(self, trees, n_features):
        self.trees = trees
        self.n_features = n_features

    def predict(self, X):
        X = _check_predict_input(X, self.n_features)
        if X.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        votes = np.zeros(X.shape[0], dtype=np.int64)
        for tree in self.trees:
            votes += np.fromiter(
                (_tree_predict(tree, row) for row in X), dtype=np.int64, count=X.shape[0]
            )
        # strict majority of trees; exact ties resolve to 0
        return (votes * 2 > len(self.trees)).astype(np.int64)


def _train_random_forest(X, y, seed):
    n, m = X.shape
    n_candidates = max(1, int(np.floor(np.sqrt(m))))
    ranks = _dense_ranks(X)
    labels = y.astype(np.float64)  # exact 0/1, so label counts are exact sums
    trees = []
    for t in range(RF_TREES):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), t)))
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X, ranks, labels, boot, rng, n_candidates))
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


def _logreg_loss_grad(w, b, X, y_pm, lam):
    n = X.shape[0]
    z = y_pm * (X @ w + b)
    # numerically stable log(1 + exp(-z))
    loss = float(np.mean(np.logaddexp(0.0, -z))) + lam * float(w @ w) / (2 * n)
    sig = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
    coeff = -y_pm * sig / n
    grad_w = X.T @ coeff + lam * w / n  # intercept stays unpenalized
    grad_b = float(np.sum(coeff))
    return loss, grad_w, grad_b


def _train_logreg(X, y):
    """Batch gradient descent with Armijo backtracking on the L2-penalized
    logistic loss; the accepted-step loss sequence is non-increasing."""
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
            loss_new, gw_new, gb_new = _logreg_loss_grad(w_new, b_new, X, y_pm, lam)
            if loss_new <= loss - 1e-4 * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:  # no descent direction at float precision
            break
        w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
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
