"""Equivalence of the Newton logistic regression with the gradient-descent
trainer it replaced.

The oracle below is a verbatim copy of that code: ``_logreg_loss``,
``_logreg_grad``, ``_logreg_loss_grad`` and ``_train_logreg``.  It minimizes
the same L2-penalized logistic loss to a gradient norm of 1e-6, so on the
fits the pipeline makes (z-scored, 16 to 266 features, some with more
features than rows) the Newton fit must predict the same labels, reach an
objective no higher than the oracle's, and stop at a gradient norm of at most
1e-8, full-rank, rank-deficient and separable fits alike.
"""

import numpy as np
import pytest

from iws import learn
from iws.learn import LOGREG_PENALTY, ClassifierSpec, LogRegModel, train

# ---------------------------------------------------------------------------
# Oracle: batch gradient descent, verbatim
# ---------------------------------------------------------------------------

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
# Fits shaped like the pipeline's
# ---------------------------------------------------------------------------

# (training rows, features): sets 4 and 5 on the headline, set 1 on control,
# and smaller and wider ones besides; 25 x 266 and 60 x 168 have more
# coefficients than rows
SHAPES = [(25, 266), (26, 16), (275, 70), (274, 17), (40, 28), (60, 168)]
CASES = ["noise", "shifted", "rank_deficient", "separable"]


def z_scored_fit(shape, case, seed, n_probe=100):
    """Training rows, labels and probe rows, z-scored by the training rows'
    statistics as the pipeline's scaler does.  ``shifted`` moves class 1 by
    half a standard deviation on a third of the features, ``separable`` by
    four on every feature; ``rank_deficient`` draws every row from a
    subspace of a quarter of the features' dimension."""
    n, m = shape
    gen = np.random.default_rng(seed)
    y = (gen.uniform(size=n + n_probe) < 0.4).astype(np.int64)
    y[:2] = (0, 1)  # both classes in training
    if case == "rank_deficient":
        k = max(1, m // 4)
        X = gen.standard_normal((n + n_probe, k)) @ gen.standard_normal((k, m))
        X += 0.5 * y[:, None]
    else:
        X = gen.standard_normal((n + n_probe, m))
        if case == "shifted":
            X[:, : m // 3] += 0.5 * y[:, None]
        elif case == "separable":
            X += 4.0 * y[:, None]
    mean, std = X[:n].mean(axis=0), X[:n].std(axis=0)
    X = (X - mean) / std
    return X[:n], y[:n], X[n:]


def objective(model, X, y):
    y_pm = np.where(y == 1, 1.0, -1.0)
    return _logreg_loss(model.weights, model.intercept, X, y_pm, LOGREG_PENALTY)[0]


def gradient_norm(model, X, y):
    y_pm = np.where(y == 1, 1.0, -1.0)
    _, grad_w, grad_b = _logreg_loss_grad(model.weights, model.intercept, X, y_pm, LOGREG_PENALTY)
    return float(np.sqrt(grad_w @ grad_w + grad_b ** 2))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_newton_matches_gradient_descent(shape, case):
    for seed in range(3):
        X, y, probe = z_scored_fit(shape, case, seed)
        want = _train_logreg(X, y)
        got = train(ClassifierSpec(kind="logreg"), X, y)
        assert np.array_equal(got.predict(probe), want.predict(probe))
        assert np.array_equal(got.predict(X), want.predict(X))
        assert objective(got, X, y) <= objective(want, X, y) + 1e-12


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_newton_stops_at_a_stationary_point(shape, case):
    for seed in range(3, 6):
        X, y, _ = z_scored_fit(shape, case, seed)
        model = train(ClassifierSpec(kind="logreg"), X, y)
        assert gradient_norm(model, X, y) <= 1e-8


# ---------------------------------------------------------------------------
# The stall exit: a line search whose trial iterate rounds to the current one
# ends the fit at once
# ---------------------------------------------------------------------------

def _train_newton_searching_to_the_floor(X, y):
    """Oracle: the Newton trainer as it was before the stall exit, whose line
    search halves t down to 1e-12 even once its trial iterate rounds to the
    current one, verbatim but for the learn module prefixes."""
    n, m = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    y_pm = np.where(y == 1, 1.0, -1.0)
    penalty = np.full(m + 1, LOGREG_PENALTY / n)
    penalty[m] = 0.0  # the intercept is unpenalized
    theta = np.zeros(m + 1)
    loss, z = learn._logreg_loss(theta, A, y_pm, penalty)
    for _ in range(learn.LOGREG_NEWTON_STEPS):
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
            loss_new, z_new = learn._logreg_loss(trial, A, y_pm, penalty)
            if loss_new < loss - 1e-4 * t * slope:  # Armijo, and a strict decrease
                break
            t *= 0.5
        else:  # no step lowers the loss at float precision
            break
        theta, loss, z = trial, loss_new, z_new
    return LogRegModel(weights=theta[:m], intercept=theta[m])


def test_stalled_line_search_ends_the_fit_with_the_same_weights(monkeypatch):
    X, y, _ = z_scored_fit((26, 16), "noise", 4)  # its last search stalls
    calls = []
    loss = learn._logreg_loss

    def counting(*args):
        calls.append(1)
        return loss(*args)

    monkeypatch.setattr(learn, "_logreg_loss", counting)
    want = _train_newton_searching_to_the_floor(X, y)
    searched = len(calls)
    del calls[:]
    got = train(ClassifierSpec(kind="logreg"), X, y)
    # halving t from 1 to 1e-12 alone takes 40 evaluations
    assert searched >= 40 and len(calls) <= searched - 15
    assert got.weights.tobytes() == want.weights.tobytes()
    assert np.float64(got.intercept).tobytes() == np.float64(want.intercept).tobytes()
