"""Window features and the five feature-set layouts.

Feature sets:
  1: band energy (IE) of the 4 wavelet detail sets + approximation, per channel (70)
  2: TE, IE, HFD, KFD, GHE(q=1), GHE(q=2) of the two selected IMFs, per channel (168)
  3: GHE(q=1), GHE(q=2) of the cleaned window itself, per channel (28)
  4: concatenation 1 || 2 || 3 (266)
  5: PCA of z-scored set 4 keeping >= 90% of the variance (<= 266)

Every feature is computed row-wise on a stack of signals, one row per
(window, channel); ``feature_matrices`` turns a stack of windows into one
matrix per feature set.  The scalar functions and the per-instance
``extract_features`` are batches of one.
"""

import functools
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import CHANNEL_COUNT, WINDOW_SAMPLES
from .decompose import dwt_bior22, emd_rows, select_imf_pairs
# the per-signal forms stay importable from here: perfbench/tracing.py wraps them
from .decompose import emd, select_imfs_minkowski  # noqa: F401
from .errors import (
    DegenerateScaling,
    EmptyInput,
    InputTooShort,
    InvariantViolation,
    LayoutMismatch,
    NumericalFailure,
)

log = logging.getLogger(__name__)

LOG_CLAMP = 1e-12  # floor for log10 arguments; keeps -inf out of classifiers

FEATURE_SET_WIDTHS = {1: 70, 2: 168, 3: 28, 4: 266}

_BAND_TAGS = ("w1", "w2", "w3", "w4", "a5")
_FS2_FEATURES = ("TE", "IE", "HFD", "KFD", "GHE_q1", "GHE_q2")
_HIGUCHI_K_MAX = 10
GHE_TAUS = range(1, 20)  # lags of the scaling-of-increments fit, one-sample resolution

_LAYOUTS = {
    1: tuple((ch, tag, "IE") for ch in range(CHANNEL_COUNT) for tag in _BAND_TAGS),
    2: tuple((ch, f"imf{slot}", name) for ch in range(CHANNEL_COUNT)
             for slot in (1, 2) for name in _FS2_FEATURES),
    3: tuple((ch, "signal", name) for ch in range(CHANNEL_COUNT)
             for name in ("GHE_q1", "GHE_q2")),
}


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    feature_set_id: int
    layout: tuple  # one (channel, band, feature) descriptor per value
    label: Optional[int] = None
    source_offset: Optional[int] = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "layout", tuple(tuple(e) for e in self.layout))
        if arr.ndim != 1 or arr.size != len(self.layout):
            raise InvariantViolation(
                f"feature vector length {arr.size} does not match layout length {len(self.layout)}"
            )
        expected = FEATURE_SET_WIDTHS.get(self.feature_set_id)
        if expected is not None and arr.size != expected:
            raise InvariantViolation(
                f"feature set {self.feature_set_id} must have width {expected}, got {arr.size}"
            )
        if self.feature_set_id == 5 and arr.size > FEATURE_SET_WIDTHS[4]:
            raise InvariantViolation(f"feature set 5 width {arr.size} exceeds {FEATURE_SET_WIDTHS[4]}")


def _values_of(w):
    return np.asarray(getattr(w, "values", w), dtype=np.float64)


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
    w = valid.astype(np.float64)
    n = w.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        du = np.where(valid, u - ((w @ u) / n)[:, None], 0.0)
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
        lengths = []
        for m in range(k):
            n_seg = (n - 1 - m) // k
            if n_seg < 1:
                continue
            total = np.sum(np.abs(np.diff(x[:, m::k][:, :n_seg + 1], axis=1)), axis=1)
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


def _ghe_rows(x, q):
    """Scaling exponent H(q) of each row, and the number of lag points it used.

    K_q(tau) = mean|x(t+tau) - x(t)|^q / mean|x(t)|^q; H(q) is the
    least-squares slope of ln K_q against ln tau, divided by q.  Lags with a
    non-positive or non-finite K_q are skipped.
    """
    denom = np.mean(np.abs(x) ** q, axis=1)
    num = np.stack([np.mean(np.abs(x[:, tau:] - x[:, :-tau]) ** q, axis=1) for tau in GHE_TAUS],
                   axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_val = num / denom[:, None]
    valid = (denom > 0.0)[:, None] & np.isfinite(k_val) & (k_val > 0.0)
    log_k = np.log(np.where(valid, k_val, 1.0))
    return _slopes(np.log(GHE_TAUS), log_k, valid) / q, valid.sum(axis=1)


def _degenerate_message(n_points, q):
    return f"only {n_points} valid lag points (need >= 3) for q={q}"


def _hurst_pair(x, where):
    """(H(1), H(2)) of each row.  Raises DegenerateScaling for the first row
    with fewer than 3 valid lag points, prefixed by ``where(row)``."""
    h1, n1 = _ghe_rows(x, 1)
    h2, n2 = _ghe_rows(x, 2)
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
    x = _values_of(w)
    if x.size == 0:
        raise EmptyInput("instantaneous_energy of empty set")
    return float(_ie_rows(x.reshape(1, -1))[0])


def teager_energy(w) -> float:
    """log10 of the mean absolute energy-operator output (see ``_teager_rows``)."""
    x = _values_of(w)
    if x.size < 3:
        raise InputTooShort(f"teager_energy needs >= 3 samples, got {x.size}")
    return float(_teager_rows(x.reshape(1, -1))[0])


def higuchi_fd(x, k_max: int = _HIGUCHI_K_MAX) -> float:
    """Higuchi fractal dimension (see ``_higuchi_rows``); constants return 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < k_max + 1:
        raise InputTooShort(f"higuchi_fd needs >= {k_max + 1} samples, got {x.size}")
    return float(_higuchi_rows(x.reshape(1, -1), k_max)[0])


def katz_fd(x) -> float:
    """Katz waveform dimension (see ``_katz_rows``); straight lines give 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise InputTooShort(f"katz_fd needs >= 2 samples, got {x.size}")
    return float(_katz_rows(x.reshape(1, -1))[0])


def ghe(x, q) -> float:
    """Generalized Hurst exponent H(q) (see ``_ghe_rows``)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2 * GHE_TAUS[-1]:
        raise InputTooShort(f"ghe needs >= {2 * GHE_TAUS[-1]} samples, got {x.size}")
    h, n_points = _ghe_rows(x.reshape(1, -1), q)
    if n_points[0] < 3:
        raise DegenerateScaling(_degenerate_message(n_points[0], q))
    return float(h[0])


# ---------------------------------------------------------------------------
# Feature sets of a window stack.  Rows are (window, channel) pairs, window
# major, so a (n_rows, k) result reshapes to (n_windows, 14 * k) in
# channel-major layout order.
# ---------------------------------------------------------------------------

@functools.cache
def _dwt_band_matrices():
    """bior2.2 analysis with anti-reflect extension is linear in the window:
    band j of a row x is x @ M[j].  Built by decomposing the unit vectors."""
    bands = zip(*(dwt_bior22(e) for e in np.eye(WINDOW_SAMPLES)))
    mats = tuple(np.stack([s.values for s in band]) for band in bands)
    for m in mats:
        m.setflags(write=False)
    return mats


def _fs1_rows(rows):
    return np.stack([_ie_rows(rows @ m) for m in _dwt_band_matrices()], axis=1)


def _fs2_rows(rows, where):
    dec = emd_rows(rows)
    finite = np.all(np.isfinite(dec.imfs), axis=(1, 2))
    if not finite.all():
        raise InvariantViolation(
            f"{where(int(np.argmin(finite)))}: coefficient set imf: non-finite values")
    pairs = select_imf_pairs(rows, dec.imfs, dec.counts)
    selected = np.take_along_axis(dec.imfs, pairs[:, :, None], axis=1)
    # no oscillatory component: fill both slots from the raw window
    fallback = dec.counts == 0
    selected[fallback] = rows[fallback, None]
    if fallback.any() or dec.capped.any():
        log.warning("emd on %d rows: %d produced no IMF and use the window itself, "
                    "%d stopped at the sift-iteration cap", rows.shape[0],
                    int(fallback.sum()), int(dec.capped.sum()))
    imf_rows = selected.reshape(-1, rows.shape[1])  # row r's slots at 2r, 2r + 1
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


def feature_matrices(windows, offsets, feature_set_ids) -> dict:
    """Feature sets 1, 2 and/or 3 of a stack of windows.

    ``windows`` is (n_windows, 64, 14); ``offsets`` gives each window's trial
    offset, which errors name together with the channel.  Returns
    {feature_set_id: (n_windows, width) matrix}, columns in layout order.
    """
    windows = np.asarray(windows, dtype=np.float64)
    n_windows = len(offsets)
    if windows.shape != (n_windows, WINDOW_SAMPLES, CHANNEL_COUNT):
        raise InvariantViolation(
            f"expected {n_windows} windows of {WINDOW_SAMPLES} x {CHANNEL_COUNT}, "
            f"got shape {windows.shape}"
        )
    rows = windows.transpose(0, 2, 1).reshape(-1, WINDOW_SAMPLES)

    def where(r):
        return f"channel {r % CHANNEL_COUNT}, instance offset {offsets[r // CHANNEL_COUNT]}"

    finite = np.all(np.isfinite(rows), axis=1)
    if not finite.all():
        raise InvariantViolation(f"{where(int(np.argmin(finite)))}: non-finite values in signal")
    out = {}
    for fs in feature_set_ids:
        if fs == 1:
            values = _fs1_rows(rows)
        elif fs == 2:
            values = _fs2_rows(rows, where)
        elif fs == 3:
            values = np.stack(_hurst_pair(rows, where), axis=1)
        else:
            raise InvariantViolation(f"feature_matrices handles sets 1-3, got {fs}")
        out[fs] = values.reshape(n_windows, FEATURE_SET_WIDTHS[fs])
    return out


def concat_fs4(m1, m2, m3) -> np.ndarray:
    """Feature set 4 rows: sets 1, 2, 3 of the same windows side by side."""
    return np.concatenate([m1, m2, m3], axis=1)


def extract_features(instance, feature_set_id: int) -> FeatureVector:
    """Compute feature set 1, 2 or 3 for one SignalInstance, channel-major order."""
    if feature_set_id not in (1, 2, 3):
        raise InvariantViolation(f"extract_features handles sets 1-3, got {feature_set_id}")
    values = feature_matrices(instance.samples[None], [instance.trial_offset],
                              (feature_set_id,))[feature_set_id][0]
    return FeatureVector(
        values=values,
        feature_set_id=feature_set_id,
        layout=_LAYOUTS[feature_set_id],
        label=instance.label,
        source_offset=instance.trial_offset,
    )


def assemble_fs4(v1: FeatureVector, v2: FeatureVector, v3: FeatureVector) -> FeatureVector:
    """Concatenate sets 1, 2, 3 (in that order) for one instance."""
    for v, want in ((v1, 1), (v2, 2), (v3, 3)):
        if v.feature_set_id != want:
            raise LayoutMismatch(f"expected feature set {want}, got {v.feature_set_id}")
    if not (v1.label == v2.label == v3.label):
        raise LayoutMismatch("labels disagree across the three vectors")
    offsets = {v.source_offset for v in (v1, v2, v3) if v.source_offset is not None}
    if len(offsets) > 1:
        raise LayoutMismatch(f"vectors come from different instances: offsets {sorted(offsets)}")
    return FeatureVector(
        values=concat_fs4(v1.values[None], v2.values[None], v3.values[None])[0],
        feature_set_id=4,
        layout=v1.layout + v2.layout + v3.layout,
        label=v1.label,
        source_offset=v1.source_offset,
    )


# ---------------------------------------------------------------------------
# Standard-score normalization and PCA, fitted on training rows only
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalerModel:
    mean: np.ndarray
    std: np.ndarray  # population std; zero-variance dims stored as 1.0


def scaler_fit(train) -> ScalerModel:
    """Fit on training rows: an (n, d) matrix or a sequence of FeatureVectors."""
    if len(train) == 0:
        raise EmptyInput("scaler_fit on empty training set")
    matrix = np.stack([_values_of(v) for v in train])
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)  # population (divide by n)
    std = np.where(std > 0.0, std, 1.0)
    return ScalerModel(mean=mean, std=std)


def scaler_transform(model: ScalerModel, matrix) -> np.ndarray:
    """Z-score every row of an (n, d) matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != model.mean.size:
        raise LayoutMismatch(
            f"vector width {matrix.shape[-1]} does not match scaler width {model.mean.size}"
        )
    return (matrix - model.mean) / model.std


def scaler_apply(model: ScalerModel, v: FeatureVector) -> FeatureVector:
    return FeatureVector(
        values=scaler_transform(model, v.values[None])[0],
        feature_set_id=v.feature_set_id,
        layout=v.layout,
        label=v.label,
        source_offset=v.source_offset,
    )


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # n_components x input_dim, orthonormal rows
    retained_variance_ratio: float
    eigenvalues: np.ndarray  # full spectrum, descending


def pca_fit(train_matrix, target_ratio: float = 0.90) -> PcaModel:
    """Eigendecompose the covariance of the (centered) training matrix and keep
    the minimal leading component count reaching ``target_ratio`` of variance."""
    matrix = np.asarray(train_matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise EmptyInput("pca_fit needs a matrix with >= 2 rows")
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
        n_keep = int(np.searchsorted(cum, target_ratio) + 1)
        ratio = float(cum[n_keep - 1])
    components = eigvecs[:, :n_keep].T
    # deterministic sign: largest-magnitude entry of each component positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        components=components,
        retained_variance_ratio=ratio,
        eigenvalues=eigvals,
    )


def pca_transform(model: PcaModel, matrix) -> np.ndarray:
    """Project every row of an (n, d) matrix onto the kept components."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != model.mean.size:
        raise LayoutMismatch(
            f"vector width {matrix.shape[-1]} does not match PCA input width {model.mean.size}"
        )
    return (matrix - model.mean) @ model.components.T


def pca_apply(model: PcaModel, v: FeatureVector) -> FeatureVector:
    projected = pca_transform(model, v.values[None])[0]
    layout = [("pca", f"pc{i:03d}", "proj") for i in range(projected.size)]
    return FeatureVector(
        values=projected,
        feature_set_id=5,
        layout=layout,
        label=v.label,
        source_offset=v.source_offset,
    )
