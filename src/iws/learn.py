"""From-scratch classifiers (random forest, k-NN, logistic regression) and the
per-subject 4-fold 75/25 trial-level validation scheme."""

import logging
from array import array
from dataclasses import dataclass

import numpy as np

from .data import MIN_TRIALS
from .errors import InvariantViolation, TooFewTrials

log = logging.getLogger(__name__)

CLASSIFIER_KINDS = ("random_forest", "knn", "logreg")

TRAIN_RATIO = 0.75  # share of a subject's trials in each fold's training side
RF_TREES = 100
KNN_K = 50
LOGREG_PENALTY = 1.0  # L2 strength
LOGREG_NEWTON_STEPS = 100  # cap on the Newton steps of one fit


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise InvariantViolation(f"unknown classifier kind {self.kind!r}")


def make_fold_plan(n_trials, seed, n_folds=4) -> tuple:
    """One subject's folds, ``((train_ids, test_ids), ...)``: shuffle the
    trial indices ``n_folds`` times and split each shuffle 75/25.

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
    return tuple(folds)


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


# Nodes of up to this many rows take their split costs from the shared table
# (``_split_cost_table``); larger ones compute them.  The table's size grows as
# rows ** 2 / 2: 512 rows take 132k entries, about 1 MiB.
GINI_TABLE_ROWS = 512


def _side_costs(size, ones):
    """``size * gini`` of a side holding ``size`` rows, ``ones`` of them
    labelled 1: size * (1 - ((ones / size) ** 2 + ((size - ones) / size) ** 2)),
    one operation at a time in that order (x ** 2 is x * x).  ``size`` is
    float, ``ones`` integer; they broadcast."""
    p1 = ones / size
    p0 = size - ones
    p0 /= size
    p1 *= p1
    p0 *= p0
    p1 += p0
    np.subtract(1.0, p1, out=p1)
    p1 *= size
    return p1


# (base, costs): the side cost of (size, ones) is costs[base[size] + ones], for
# every 1 <= size < base.size and 0 <= ones <= size.  Shared by every forest of
# the process, and only ever replaced by a larger one.
_split_costs = (np.zeros(1, dtype=np.int64), np.empty(0))


def _split_cost_table(n):
    """The shared side-cost table, grown first to cover nodes of up to
    ``min(n, GINI_TABLE_ROWS)`` rows if it does not yet."""
    global _split_costs
    rows = min(n, GINI_TABLE_ROWS)
    base, costs = _split_costs
    if rows >= base.size:
        first = base.size  # the rows of a smaller table keep their place
        ones = np.arange(rows + 1)
        base = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(ones[2:], out=base[2:])  # size s holds s + 1 entries
        costs = np.concatenate([costs, np.empty(base[rows] + rows + 1 - costs.size)])
        for size in range(first, rows + 1):  # row by row: no rows x rows temporaries
            costs[base[size]:base[size] + size + 1] = _side_costs(float(size), ones[:size + 1])
        base.flags.writeable = costs.flags.writeable = False  # every forest reads them
        _split_costs = base, costs
    return _split_costs


def _best_split(keys, values, gini, rows, feature_ids, ones):
    """Best (feature, threshold) over the candidate features for the node
    holding ``rows``, ``ones`` of them labelled 1; None when no candidate has
    two distinct values.

    ``keys`` packs each (feature, row) rank with the row's label (see
    ``_split_tables``), so one in-place sort of the node's (candidates,
    rows) key submatrix orders every candidate and carries the labels along.
    Only the last position of a run of equal ranks is a boundary, and the
    label count there does not depend on the order inside the run, so an
    unstable sort gives the costs of a stable one.  Each side's cost comes
    from the side-cost table ``gini`` (``_split_cost_table``) when it covers
    the node, else from ``_side_costs``.  Among tied minima the first
    candidate in draw order wins."""
    n = rows.size
    sub = keys.take(feature_ids, axis=0).take(rows, axis=1)
    sub.sort(axis=1)
    ranks = sub >> 1
    ones_left = sub & 1
    ones_left.cumsum(axis=1, out=ones_left)
    left = ones_left[:, :-1]
    base, costs = gini
    if n < base.size:
        at = left + base[1:n]
        cost = costs.take(at)
        np.subtract(base[n - 1:0:-1] + ones, left, out=at)
        cost += costs.take(at)
    else:
        sizes = np.arange(1.0, n)
        cost = _side_costs(sizes, left)
        cost += _side_costs(n - sizes, ones - left)
    cost /= n
    np.putmask(cost, ranks[:, 1:] == ranks[:, :-1], np.inf)
    k = int(cost.argmin())  # row-major: first candidate in draw order among ties
    j, i = divmod(k, n - 1)
    if cost[j, i] == np.inf:
        return None
    f = int(feature_ids[j])
    return f, float(0.5 * (values[f, ranks[j, i]] + values[f, ranks[j, i + 1]]))


def _grow_tree(X, y, keys, values, gini, rows, rng, n_candidates, nodes):
    """Grow a tree on ``rows`` of ``X`` (with repeats) into ``nodes``, the
    growable (feature, threshold, left, right, label) buffers, one candidate
    set drawn per split node.  Nodes are made in DFS preorder: a split's left
    child follows it, and its right child's index is written when that child
    is popped.  A leaf is its own left and right child, with feature and
    threshold 0; a split's label is 0."""
    right = nodes[3]
    stack = [(rows, -1)]  # (rows, the split whose right child they are, or -1)
    while stack:
        rows, parent = stack.pop()
        i = len(right)
        if parent >= 0:
            right[parent] = i
        n = rows.size
        ones = int(np.count_nonzero(y[rows]))
        node = (0, 0.0, i, i, 1 if ones > n - ones else 0)  # a leaf; ties resolve to 0
        if 0 < ones < n:
            feats = rng.choice(X.shape[1], size=n_candidates, replace=False)
            split = _best_split(keys, values, gini, rows, feats, ones)
            if split is not None:
                f, t = split
                mask = X[rows, f] < t
                if 0 < np.count_nonzero(mask) < n:
                    node = (f, t, i + 1, 0, 0)
                    stack.append((rows[~mask], i))
                    stack.append((rows[mask], -1))
        for buf, v in zip(nodes, node):
            buf.append(v)


class RandomForestModel:
    """Bagged CART ensemble: Gini impurity, grown to purity, majority vote.

    The trees live in flat node arrays (``feature``, ``threshold``, ``left``,
    ``right``, ``label``), each tree in preorder from its entry in ``roots``."""

    kind = "random_forest"

    def __init__(self, roots, feature, threshold, left, right, label, n_features):
        self.roots, self.feature, self.threshold = roots, feature, threshold
        self.left, self.right, self.label = left, right, label
        self.n_features = n_features

    @property
    def trees(self):
        """The trees as nested dicts, decoded from the node arrays on each read:
        a split is {"feature", "threshold", "left", "right"}, a leaf {"label"}."""
        feature, threshold, left, right, label = (
            a.tolist() for a in (self.feature, self.threshold, self.left, self.right, self.label))

        def node(i):
            if left[i] == i:
                return {"label": label[i]}
            return {"feature": feature[i], "threshold": threshold[i],
                    "left": node(left[i]), "right": node(right[i])}

        return [node(i) for i in self.roots.tolist()]

    def predict(self, X):
        X = _check_predict_input(X, self.n_features)
        # every (tree, row) pair descends one level per step; NaN goes right
        cols = np.arange(X.shape[0])
        node = np.broadcast_to(self.roots[:, None], (self.roots.size, cols.size))
        is_leaf = self.left == np.arange(self.left.size)
        while not is_leaf[node].all():
            node = np.where(X[cols, self.feature[node]] < self.threshold[node],
                            self.left[node], self.right[node])
        votes = self.label[node].sum(axis=0)
        # strict majority of trees; exact ties resolve to 0
        return (votes * 2 > self.roots.size).astype(np.int64)


def _train_random_forest(X, y, seed):
    n, m = X.shape
    n_candidates = max(1, int(np.floor(np.sqrt(m))))
    keys, values = _split_tables(X, y)
    gini = _split_cost_table(n)
    nodes = (array("q"), array("d"), array("q"), array("q"), array("q"))
    roots = []
    for t in range(RF_TREES):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), t)))
        boot = rng.integers(0, n, size=n)
        roots.append(len(nodes[0]))
        _grow_tree(X, y, keys, values, gini, boot, rng, n_candidates, nodes)
    return RandomForestModel(np.array(roots, dtype=np.int64),
                             *(np.frombuffer(buf, dtype=buf.typecode) for buf in nodes),
                             n_features=m)


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

    def predict(self, X):
        X = _check_predict_input(X, self.n_features)
        return (X @ self.weights + self.intercept > 0.0).astype(np.int64)


def _logreg_loss(theta, A, y_pm, penalty):
    """The penalized logistic loss at ``theta`` (the weights, then the
    intercept) on ``A`` = [X, 1], and the margins ``z`` it was taken at."""
    z = y_pm * (A @ theta)
    # numerically stable log(1 + exp(-z))
    loss = float(np.mean(np.logaddexp(0.0, -z))) + 0.5 * float(penalty @ (theta * theta))
    return loss, z


def _train_logreg(X, y):
    """Newton steps with Armijo backtracking on the L2-penalized logistic loss
    (Hastie, Tibshirani & Friedman 2009, 4.4.1; Boyd & Vandenberghe 2004,
    9.5); the accepted-step loss sequence is non-increasing.  A step that
    cannot be solved for, or is no descent direction, ends the fit at the
    current iterate, and so does a line search whose trial iterate rounds to
    the current one."""
    n, m = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    y_pm = np.where(y == 1, 1.0, -1.0)
    penalty = np.full(m + 1, LOGREG_PENALTY / n)
    penalty[m] = 0.0  # the intercept is unpenalized
    theta = np.zeros(m + 1)
    loss, z = _logreg_loss(theta, A, y_pm, penalty)
    for _ in range(LOGREG_NEWTON_STEPS):
        q = np.exp(-np.logaddexp(0.0, z))  # 1 / (1 + exp(z)), without overflow
        grad = A.T @ (-y_pm * q) / n + penalty * theta
        if np.linalg.norm(grad) <= 1e-12:  # gradient-norm tolerance
            break
        hess = (A.T * (q * (1.0 - q) / n)) @ A
        hess[np.diag_indices(m + 1)] += penalty
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:  # e.g. a repeated feature whose penalty rounds away
            break
        slope = float(grad @ step)
        if not (np.isfinite(step).all() and slope > 0.0):
            break
        t = 1.0
        while t >= 1e-12:  # step floor
            trial = theta - t * step
            # a trial equal to theta in every bit has theta's loss, and every
            # shorter step rounds to theta as well: none can lower the loss
            if np.array_equal(trial.view(np.uint64), theta.view(np.uint64)):
                t = 0.0
                break
            loss_new, z_new = _logreg_loss(trial, A, y_pm, penalty)
            if loss_new < loss - 1e-4 * t * slope:  # Armijo, and a strict decrease
                break
            t *= 0.5
        if t < 1e-12:  # no step lowers the loss at float precision
            break
        theta, loss, z = trial, loss_new, z_new
    return LogRegModel(weights=theta[:m], intercept=theta[m])


# ---------------------------------------------------------------------------
# Shared surface
# ---------------------------------------------------------------------------

def _check_predict_input(X, n_features):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (1, 2):
        raise InvariantViolation(f"expected a feature row or matrix, got ndim={X.ndim}")
    if X.ndim == 1:
        X = X.reshape(0, n_features) if X.size == 0 else X.reshape(1, -1)
    if X.shape[1] != n_features:
        raise InvariantViolation(f"expected {n_features} features, got {X.shape[1]}")
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
        raise InvariantViolation(f"{spec.kind} needs both classes in training data")
    if spec.kind == "random_forest":
        return _train_random_forest(X, y, spec.seed)
    if spec.kind == "knn":
        return _train_knn(X, y)
    return _train_logreg(X, y)


def predict(model, X):
    return model.predict(X)
