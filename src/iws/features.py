"""Window features and the five feature sets.

Feature sets, columns channel-major (every column of channel 0, then of 1, ...):
  1: band energy (IE) per channel of w1, w2, w3, w4, a5, the 4 wavelet detail
     sets and the approximation (70)
  2: per channel imf1 then imf2, the two selected IMFs, each as TE, IE, HFD,
     KFD, GHE_q1, GHE_q2 (168)
  3: per channel GHE_q1, GHE_q2 of the cleaned window itself (28)
  4: concatenation 1 || 2 || 3 (266)
  5: PCA of z-scored set 4 keeping >= 90% of the variance (<= 266)

Every feature is computed row-wise on a stack of signals, one row per
(window, channel); ``stack_matrices`` turns each stack of windows into one
matrix per feature set.  The scalar functions and the per-instance
``extract_features`` are batches of one, and ``assemble_fs4``,
``scaler_apply`` and ``pca_apply`` take one window's row or a matrix of rows.
"""

import functools
import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import CHANNEL_COUNT, WINDOW_SAMPLES
from .decompose import dwt_bior22, sift_blocks
# the per-signal forms stay importable from here: perfbench/tracing.py wraps them
from .decompose import emd, select_imfs_minkowski  # noqa: F401
from .errors import DegenerateScaling, InvariantViolation, NumericalFailure

log = logging.getLogger(__name__)

LOG_CLAMP = 1e-12  # floor for log10 arguments; keeps -inf out of classifiers

FEATURE_SET_WIDTHS = {1: 70, 2: 168, 3: 28, 4: 266}
PCA_VARIANCE_TARGET = 0.90  # share of set 4's variance that set 5 keeps

_FS2_FEATURES = ("TE", "IE", "HFD", "KFD", "GHE_q1", "GHE_q2")
_HIGUCHI_K_MAX = 10
GHE_TAUS = range(1, 20)  # lags of the scaling-of-increments fit, one-sample resolution
_FS1_BLOCK_ROWS = 64  # rows per band product (see ``_fs1_rows``)


# ---------------------------------------------------------------------------
# Row-wise features.  Each takes an (n_rows, n_samples) matrix and returns one
# value per row.
# ---------------------------------------------------------------------------

def _ie_rows(x):
    """log10 of the mean squared value of each row."""
    return np.log10(np.maximum(np.mean(x ** 2, axis=1), LOG_CLAMP))


def _teager_rows(x):
    """log10 of the mean absolute energy-operator output x(r)^2 - x(r-1)x(r+1).

    The operator is defined on interior points only; the normalization stays
    1/m over the full row length.
    """
    terms = np.abs(x[:, 1:-1] ** 2 - x[:, :-2] * x[:, 2:])
    return np.log10(np.maximum(np.sum(terms, axis=1) / x.shape[1], LOG_CLAMP))


def _katz_rows(x):
    """Waveform dimension log(m) / (log(m) + log(d/L)) of each row.

    L is the path length with unit abscissa steps; d the farthest planar
    distance from the first point.  Straight lines give exactly 1.
    """
    m = x.shape[1]
    path = np.sum(np.sqrt(1.0 + np.diff(x, axis=1) ** 2), axis=1)
    t = np.arange(m, dtype=np.float64)
    d = np.max(np.sqrt(t ** 2 + (x - x[:, :1]) ** 2), axis=1)
    denom = np.log(m) + np.log(np.maximum(d / path, LOG_CLAMP))
    with np.errstate(divide="ignore"):
        return np.where(denom == 0.0, 1.0, np.log(m) / denom)


def _slopes(u, v, valid):
    """Least-squares slope of each row of ``v`` against the shared abscissae
    ``u``, fitted over the points where ``valid`` holds (nan below 2 points)."""
    n = valid.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(valid, u, 0.0)
        du = np.where(valid, u - (u.sum(axis=1) / n)[:, None], 0.0)
        v = np.where(valid, v, 0.0)
        dv = v - (v.sum(axis=1) / n)[:, None]
        return np.sum(du * dv, axis=1) / np.sum(du * du, axis=1)


def _higuchi_rows(x, k_max):
    """Curve-length scaling dimension of each row: slope of ln L(k) against ln(1/k).

    L(k) averages, over the k subsampled series starting at offsets
    m = 0..k-1, the absolute increments normalized by (N-1)/(n_seg*k).
    Rows with zero curve length at some k (constants) get 0 by convention.
    """
    n = x.shape[1]
    mean_len = np.empty((x.shape[0], k_max))
    for k in range(1, k_max + 1):
        # the series from offset m steps by x[m + k j + k] - x[m + k j]: every
        # k-th lag-k increment from m
        steps = np.abs(x[:, k:] - x[:, :-k])
        lengths = []
        for m in range(k):
            n_seg = (n - 1 - m) // k
            if n_seg < 1:
                continue
            total = np.sum(steps[:, m::k], axis=1)
            lengths.append(total * (n - 1) / (n_seg * k) / k)
        mean_len[:, k - 1] = np.mean(np.stack(lengths, axis=1), axis=1)
    zero = np.any(mean_len <= 0.0, axis=1)
    if zero.any():
        log.warning("higuchi_fd: zero curve length (constant signal) on %d of %d rows; "
                    "returning 0", int(zero.sum()), zero.size)
    log_inv_k = np.log(1.0 / np.arange(1, k_max + 1))
    log_len = np.log(np.where(zero[:, None], 1.0, mean_len))
    slope = _slopes(log_inv_k, log_len, np.ones(mean_len.shape, dtype=bool))
    return np.where(zero, 0.0, slope)


def _ghe_rows(x):
    """Scaling exponents H(1) and H(2) of each row, each with the number of
    lag points it used: ((H(1), points), (H(2), points)).

    K_q(tau) = mean|x(t+tau) - x(t)|^q / mean|x(t)|^q; H(q) is the
    least-squares slope of ln K_q against ln tau, divided by q.  Lags with a
    non-positive or non-finite K_q are skipped.  Both moments come from one
    |x(t+tau) - x(t)| array per lag: its q = 1 power is itself and its
    q = 2 power is its square.
    """
    size = np.abs(x)
    denom = [np.mean(size, axis=1), np.mean(np.multiply(size, size, out=size), axis=1)]
    num = np.empty((2, x.shape[0], len(GHE_TAUS)))
    for j, tau in enumerate(GHE_TAUS):
        step = np.abs(x[:, tau:] - x[:, :-tau])
        num[0, :, j] = np.mean(step, axis=1)
        num[1, :, j] = np.mean(np.multiply(step, step, out=step), axis=1)
    out = []
    for q in (1, 2):
        with np.errstate(divide="ignore", invalid="ignore"):
            k_val = num[q - 1] / denom[q - 1][:, None]
        valid = (denom[q - 1] > 0.0)[:, None] & np.isfinite(k_val) & (k_val > 0.0)
        log_k = np.log(np.where(valid, k_val, 1.0))
        out.append((_slopes(np.log(GHE_TAUS), log_k, valid) / q, valid.sum(axis=1)))
    return out


def _degenerate_message(n_points, q):
    return f"only {n_points} valid lag points (need >= 3) for q={q}"


def _hurst_pair(x, where):
    """(H(1), H(2)) of each row.  Raises DegenerateScaling for the first row
    with fewer than 3 valid lag points, prefixed by ``where(row)``."""
    (h1, n1), (h2, n2) = _ghe_rows(x)
    bad = np.flatnonzero((n1 < 3) | (n2 < 3))
    if bad.size:
        r = int(bad[0])
        q, n_points = (1, n1[r]) if n1[r] < 3 else (2, n2[r])
        raise DegenerateScaling(f"{where(r)}: {_degenerate_message(n_points, q)}")
    return h1, h2


# ---------------------------------------------------------------------------
# Scalar forms: one signal as a batch of one
# ---------------------------------------------------------------------------

def instantaneous_energy(w) -> float:
    """log10 of the mean squared coefficient value."""
    x = np.asarray(w, dtype=np.float64)
    if x.size == 0:
        raise InvariantViolation("instantaneous_energy of empty set")
    return float(_ie_rows(x.reshape(1, -1))[0])


def teager_energy(w) -> float:
    """log10 of the mean absolute energy-operator output (see ``_teager_rows``)."""
    x = np.asarray(w, dtype=np.float64)
    if x.size < 3:
        raise InvariantViolation(f"teager_energy needs >= 3 samples, got {x.size}")
    return float(_teager_rows(x.reshape(1, -1))[0])


def higuchi_fd(x, k_max: int = _HIGUCHI_K_MAX) -> float:
    """Higuchi fractal dimension (see ``_higuchi_rows``); constants return 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < k_max + 1:
        raise InvariantViolation(f"higuchi_fd needs >= {k_max + 1} samples, got {x.size}")
    return float(_higuchi_rows(x.reshape(1, -1), k_max)[0])


def katz_fd(x) -> float:
    """Katz waveform dimension (see ``_katz_rows``); straight lines give 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise InvariantViolation(f"katz_fd needs >= 2 samples, got {x.size}")
    return float(_katz_rows(x.reshape(1, -1))[0])


def ghe(x, q) -> float:
    """Generalized Hurst exponent H(q), q = 1 or 2 (see ``_ghe_rows``)."""
    if q not in (1, 2):
        raise InvariantViolation(f"ghe handles q = 1 or 2, got {q!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2 * GHE_TAUS[-1]:
        raise InvariantViolation(f"ghe needs >= {2 * GHE_TAUS[-1]} samples, got {x.size}")
    h, n_points = _ghe_rows(x.reshape(1, -1))[q - 1]
    if n_points[0] < 3:
        raise DegenerateScaling(_degenerate_message(n_points[0], q))
    return float(h[0])


# ---------------------------------------------------------------------------
# Feature sets of a window stack.  Rows are (window, channel) pairs, window
# major, so a (n_rows, k) result reshapes to (n_windows, 14 * k) in
# channel-major column order.
# ---------------------------------------------------------------------------

@functools.cache
def _dwt_band_matrices():
    """bior2.2 analysis with anti-reflect extension is linear in the window:
    band j of a row x is x @ M[j].  Built by decomposing the unit vectors."""
    bands = zip(*(dwt_bior22(e) for e in np.eye(WINDOW_SAMPLES)))
    mats = tuple(np.stack(band) for band in bands)
    for m in mats:
        m.setflags(write=False)
    return mats


def _fs1_rows(rows):
    """Band energies of each row.  The products run on zero-padded blocks of
    ``_FS1_BLOCK_ROWS`` rows: a BLAS product's bits depend on its row count,
    and a row's must not depend on the rows stacked beside it."""
    n, width = rows.shape
    blocks = np.zeros((-(-n // _FS1_BLOCK_ROWS), _FS1_BLOCK_ROWS, width))
    blocks.reshape(-1, width)[:n] = rows
    return np.stack([_ie_rows((blocks @ m).reshape(-1, m.shape[1])[:n])
                     for m in _dwt_band_matrices()], axis=1)


def _fs2_values(rows, dec, where):
    """FS2 of each row from ``dec.selected`` (a row without IMFs: its window twice)."""
    if not dec.finite.all():
        raise InvariantViolation(
            f"{where(int(np.argmin(dec.finite)))}: coefficient set imf: non-finite values")
    imf_rows = dec.selected.reshape(-1, rows.shape[1])  # row r's slots at 2r, 2r + 1
    h1, h2 = _hurst_pair(imf_rows, lambda i: where(i // 2))
    values = np.stack([
        _teager_rows(imf_rows),
        _ie_rows(imf_rows),
        _higuchi_rows(imf_rows, _HIGUCHI_K_MAX),
        _katz_rows(imf_rows),
        h1,
        h2,
    ], axis=1)
    return values.reshape(rows.shape[0], 2 * len(_FS2_FEATURES))


def _row_stack(windows, offsets):
    """The rows of a window stack, one per (window, channel) pair, window
    major, and the function that names row r by its channel and offset."""
    windows = np.asarray(windows, dtype=np.float64)
    n_windows = len(offsets)
    if windows.shape != (n_windows, WINDOW_SAMPLES, CHANNEL_COUNT):
        raise InvariantViolation(
            f"expected {n_windows} windows of {WINDOW_SAMPLES} x {CHANNEL_COUNT}, "
            f"got shape {windows.shape}"
        )

    def where(r):
        return f"channel {r % CHANNEL_COUNT}, instance offset {offsets[r // CHANNEL_COUNT]}"

    # a copy for any window count: a strided view would change the order of row sums
    return np.ascontiguousarray(windows.transpose(0, 2, 1)).reshape(-1, WINDOW_SAMPLES), where


def _matrices(rows, where, feature_set_ids, dec):
    """{feature_set_id: matrix} of a row stack, sets 1-3; ``dec`` is its EMD."""
    finite = np.all(np.isfinite(rows), axis=1)
    if not finite.all():
        raise InvariantViolation(f"{where(int(np.argmin(finite)))}: non-finite values in signal")
    out = {}
    for fs in feature_set_ids:
        with np.errstate(over="ignore"):  # an overflow is refused below, naming its row
            if fs == 1:
                values = _fs1_rows(rows)
            elif fs == 2:
                values = _fs2_values(rows, dec, where)
            else:
                values = np.stack(_hurst_pair(rows, where), axis=1)
        finite = np.all(np.isfinite(values), axis=1)
        if not finite.all():
            raise InvariantViolation(
                f"{where(int(np.argmin(finite)))}: feature set {fs}: non-finite values")
        out[fs] = values.reshape(-1, FEATURE_SET_WIDTHS[fs])
    return out


def stack_matrices(stacks, feature_set_ids):
    """Feature sets 1, 2, 3 and/or 4 of each stack of windows that ``stacks``
    yields, one dict per stack, in order.

    A stack is (windows, offsets): ``windows`` is (n_windows, 64, 14) and
    ``offsets`` gives each window's trial offset, which errors name together
    with the channel.  Each dict is {feature_set_id: (n_windows, width)
    matrix}, columns in the module's order, for the sets asked for only.
    Set 4 is built from sets 1, 2 and 3 (``assemble_fs4``), and EMD runs only
    when set 2 is needed.

    For set 2 the rows of all stacks sift through one EMD queue
    (``sift_blocks``): a stack is read when the queue has room for its rows,
    and its matrices are built once its last row has ended, so an error names
    the first stack that has one.  The EMD summary is logged once, with the
    totals of all stacks, after the last stack: as a warning when some row
    had no IMF (its window stands in for them), else at INFO.
    """
    if not set(feature_set_ids) <= FEATURE_SET_WIDTHS.keys():
        raise InvariantViolation(f"stack_matrices handles sets 1-4, got {sorted(feature_set_ids)}")
    base = (1, 2, 3) if 4 in feature_set_ids else tuple(feature_set_ids)
    read = deque()  # (rows, where) of the stacks read and not handed back

    def feed():
        for windows, offsets in stacks:
            read.append(_row_stack(windows, offsets))
            yield read[-1][0]

    decs = sift_blocks(feed()) if 2 in base else (None for _ in feed())
    n_rows = no_imf = capped = 0
    for dec in decs:
        rows, where = read.popleft()
        matrices = _matrices(rows, where, base, dec)
        if 4 in feature_set_ids:
            matrices[4] = assemble_fs4(matrices[1], matrices[2], matrices[3])
        yield {fs: matrices[fs] for fs in feature_set_ids}
        if dec is not None:
            n_rows += rows.shape[0]
            no_imf += int((dec.counts == 0).sum())
            capped += int(dec.capped.sum())
    if no_imf or capped:
        log.log(logging.WARNING if no_imf else logging.INFO,
                "emd on %d rows: %d produced no IMF and use the window itself, "
                "%d stopped at the sift-iteration cap", n_rows, no_imf, capped)


def extract_features(instance, feature_set_id: int) -> np.ndarray:
    """Feature set 1, 2 or 3 of one SignalInstance: its row of the set's matrix."""
    if feature_set_id not in (1, 2, 3):
        raise InvariantViolation(f"extract_features handles sets 1-3, got {feature_set_id}")
    [matrices] = stack_matrices([([instance.samples], [instance.trial_offset])],
                                (feature_set_id,))
    return matrices[feature_set_id][0]


def assemble_fs4(m1, m2, m3) -> np.ndarray:
    """Feature set 4: sets 1, 2, 3 (in that order) side by side, of one window
    (three rows) or of a stack (three matrices of the same windows)."""
    parts = [np.asarray(m, dtype=np.float64) for m in (m1, m2, m3)]
    for fs, part in enumerate(parts, start=1):
        if part.shape[-1:] != (FEATURE_SET_WIDTHS[fs],):
            raise InvariantViolation(
                f"feature set {fs} has width {FEATURE_SET_WIDTHS[fs]}, got shape {part.shape}")
    return np.concatenate(parts, axis=-1)


# ---------------------------------------------------------------------------
# Standard-score normalization and PCA, fitted on training rows only
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalerModel:
    mean: np.ndarray
    std: np.ndarray  # population std; zero-variance dims stored as 1.0


def scaler_fit(train) -> ScalerModel:
    """Fit on training rows: an (n, d) matrix or a sequence of rows."""
    if len(train) == 0:
        raise InvariantViolation("scaler_fit on empty training set")
    matrix = np.asarray(train, dtype=np.float64)
    if matrix.ndim != 2:
        raise InvariantViolation(f"scaler_fit needs (n, d) training rows, got shape {matrix.shape}")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)  # population (divide by n)
    std = np.where(std > 0.0, std, 1.0)
    return ScalerModel(mean=mean, std=std)


def scaler_apply(model: ScalerModel, x) -> np.ndarray:
    """Z-score a row, or every row of an (n, d) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != model.mean.size:
        raise InvariantViolation(f"shape {x.shape} does not match scaler width {model.mean.size}")
    return (x - model.mean) / model.std


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # n_components x input_dim, orthonormal rows
    retained_variance_ratio: float
    eigenvalues: np.ndarray  # full spectrum, descending


def pca_fit(train_matrix) -> PcaModel:
    """Eigendecompose the covariance of the (centered) training matrix and keep
    the minimal leading component count reaching ``PCA_VARIANCE_TARGET`` of
    the variance."""
    matrix = np.asarray(train_matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise InvariantViolation("pca_fit needs a matrix with >= 2 rows")
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    cov = centered.T @ centered / matrix.shape[0]
    try:
        eigvals, eigvecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(f"covariance eigensolve failed: {exc}") from exc
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    total = float(eigvals.sum())
    if total <= 0.0:
        log.warning("pca_fit: zero total variance in training data; keeping 1 component")
        n_keep, ratio = 1, 1.0
    else:
        cum = np.cumsum(eigvals) / total
        n_keep = int(np.searchsorted(cum, PCA_VARIANCE_TARGET) + 1)
        ratio = float(cum[n_keep - 1])
    components = eigvecs[:, :n_keep].T
    # deterministic sign: largest-magnitude entry of each component positive
    pivot = components[np.arange(n_keep), np.argmax(np.abs(components), axis=1)]
    components[pivot < 0] *= -1.0
    return PcaModel(
        mean=mean,
        components=components,
        retained_variance_ratio=ratio,
        eigenvalues=eigvals,
    )


def pca_apply(model: PcaModel, x) -> np.ndarray:
    """Project a row, or every row of an (n, d) matrix, onto the kept
    components.  A row is projected as a one-row matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != model.mean.size:
        raise InvariantViolation(f"shape {x.shape} does not match PCA input width {model.mean.size}")
    out = (np.atleast_2d(x) - model.mean) @ model.components.T
    return out if x.ndim == 2 else out[0]
