"""Wavelet filter-bank and empirical-mode decomposition of 64-sample windows."""

import logging
from dataclasses import dataclass

import numpy as np

from .data import WINDOW_SAMPLES
from .errors import DecompositionFailure, EmptyInput, InvariantViolation

log = logging.getLogger(__name__)

_R2 = np.sqrt(2.0)

# Biorthogonal 2.2 spline pair (analysis 5-tap / 3-tap, synthesis 3-tap /
# 5-tap), lowpass sums normalized to sqrt(2).  The highpass has two vanishing
# moments, so degree-1 polynomials produce zero detail coefficients.
DEC_LO = np.array([-0.125, 0.25, 0.75, 0.25, -0.125]) * _R2
DEC_HI = np.array([-0.25, 0.5, -0.25]) * _R2
REC_LO = np.array([0.25, 0.5, 0.25]) * _R2
REC_HI = np.array([-0.125, -0.25, 0.75, -0.25, -0.125]) * _R2

DWT_LEVELS = 4

COEFF_KINDS = ("detail_level_1", "detail_level_2", "detail_level_3",
               "detail_level_4", "approximation_level_5")


@dataclass(frozen=True)
class CoefficientSet:
    """One decomposition band: a detail/approximation sequence or one IMF."""

    values: np.ndarray
    kind: str
    source_channel: int = 0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.size == 0:
            raise InvariantViolation(f"coefficient set {self.kind}: empty")
        if not np.all(np.isfinite(arr)):
            raise InvariantViolation(f"coefficient set {self.kind}: non-finite values")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class EmdParams:
    # the sift cap covers the long convergence tail seen on 64-sample colored
    # noise (median 10 iterations, 99th percentile ~150)
    max_imfs: int = 8
    max_sift_iterations: int = 300
    sift_tolerance: float = 0.05

    def __post_init__(self):
        if self.max_imfs <= 0 or self.max_sift_iterations <= 0 or self.sift_tolerance <= 0:
            raise InvariantViolation("EmdParams fields must all be positive")


# ---------------------------------------------------------------------------
# DWT.  Boundary handling is point-symmetric (anti-reflect) extension, which
# continues constants and linear trends exactly: both land entirely in the
# approximation band, and the synthesis bank inverts the transform to machine
# precision.  Subband lengths are (n + 5) // 2 per level: every analysis
# output whose filter support touches real data is retained, which is exactly
# the set the synthesis filters need for perfect reconstruction.
# ---------------------------------------------------------------------------

def _antireflect(x, pad):
    left = 2.0 * x[0] - x[1:pad + 1][::-1]
    right = 2.0 * x[-1] - x[-pad - 1:-1][::-1]
    return np.concatenate([left, x, right])


def _check_signal(x, min_len=6):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvariantViolation(f"expected a 1-D signal, got ndim={x.ndim}")
    if x.size < min_len:
        raise InvariantViolation(f"signal too short: {x.size} < {min_len}")
    if not np.all(np.isfinite(x)):
        raise InvariantViolation("non-finite values in signal")
    return x


def dwt_single_level(x):
    """One analysis step: returns (approximation, detail), each (n + 5) // 2 long."""
    x = _check_signal(x)
    n = x.size
    xe = _antireflect(x, 4)  # xe[i] = x[i - 4]
    n_out = (n + 5) // 2
    # windows of xe ending at samples x[2k]; lowpass taps x[2k-4..2k],
    # highpass taps x[2k-2..2k]
    win = np.lib.stride_tricks.sliding_window_view(xe, 5)[::2][:n_out]
    approx = win @ DEC_LO
    detail = win[:, 2:] @ DEC_HI
    return approx, detail


def idwt_single_level(approx, detail, n_out):
    """Invert one analysis step back to an ``n_out``-sample signal."""
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    up_len = 2 * max(approx.size, detail.size) + 4
    up_a = np.zeros(up_len)
    up_d = np.zeros(up_len)
    up_a[::2][:approx.size] = approx
    up_d[::2][:detail.size] = detail
    x = np.zeros(n_out)
    for m in range(n_out):
        #  a[k] contributes for 2k in [m+1, m+3], d[k] for 2k in [m-1, m+3]
        s = 0.0
        for j in range(3):
            t = m + 1 + j
            if t % 2 == 0:
                s += REC_LO[j] * up_a[t]
        for j in range(5):
            t = m - 1 + j
            if 0 <= t < up_len and t % 2 == 0:
                s += REC_HI[j] * up_d[t]
        x[m] = s
    return x


def dwt_bior22(signal, levels=DWT_LEVELS, source_channel=0):
    """Decompose a 64-sample window into 4 detail sets plus the approximation.

    Returns [w1, w2, w3, w4, a5] as CoefficientSets, finest detail first.
    """
    x = _check_signal(signal)
    if x.size != WINDOW_SAMPLES:
        raise InvariantViolation(f"expected a {WINDOW_SAMPLES}-sample window, got {x.size}")
    details = []
    cur = x
    for _ in range(levels):
        cur, det = dwt_single_level(cur)
        details.append(det)
    sets = [
        CoefficientSet(values=det, kind=COEFF_KINDS[j], source_channel=source_channel)
        for j, det in enumerate(details)
    ]
    sets.append(CoefficientSet(values=cur, kind=COEFF_KINDS[4], source_channel=source_channel))
    return sets


def idwt_bior22(sets, n_samples=WINDOW_SAMPLES):
    """Reconstruct the window from dwt_bior22 output (perfect to ~1e-12)."""
    if len(sets) != DWT_LEVELS + 1:
        raise InvariantViolation(f"expected {DWT_LEVELS + 1} coefficient sets, got {len(sets)}")
    lengths = [n_samples]
    for _ in range(DWT_LEVELS - 1):
        lengths.append((lengths[-1] + 5) // 2)
    cur = sets[-1].values
    for level in range(DWT_LEVELS - 1, -1, -1):
        cur = idwt_single_level(cur, sets[level].values, lengths[level])
    return cur


# ---------------------------------------------------------------------------
# EMD.  Sifting with cubic-spline envelopes through local extrema; envelope
# endpoints are the first/last extremum mirrored across the window boundary
# to suppress end swings.
# ---------------------------------------------------------------------------

def _local_extrema(x):
    """Indices of strict interior maxima and minima."""
    mid = x[1:-1]
    maxima = np.nonzero((mid > x[:-2]) & (mid > x[2:]))[0] + 1
    minima = np.nonzero((mid < x[:-2]) & (mid < x[2:]))[0] + 1
    return maxima, minima


def _zero_crossings(x):
    signs = np.sign(x)
    signs = signs[signs != 0]
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _natural_cubic(t, v, xs):
    """Natural cubic spline through (t, v) evaluated at xs.

    Small dedicated Thomas solve; the handful of knots per envelope makes
    general-purpose spline constructors the bottleneck otherwise.
    """
    m = t.size
    if m == 2:
        return v[0] + (v[1] - v[0]) * (xs - t[0]) / (t[1] - t[0])
    h = np.diff(t).astype(np.float64)
    rhs = 6.0 * np.diff(np.diff(v) / h)
    diag = 2.0 * (h[:-1] + h[1:])
    off = h[1:-1]
    # Thomas algorithm for the interior second derivatives
    k = diag.size
    cp = np.empty(k)
    dp = np.empty(k)
    cp[0] = off[0] / diag[0] if k > 1 else 0.0
    dp[0] = rhs[0] / diag[0]
    for i in range(1, k):
        denom = diag[i] - off[i - 1] * cp[i - 1]
        cp[i] = off[i] / denom if i < k - 1 else 0.0
        dp[i] = (rhs[i] - off[i - 1] * dp[i - 1]) / denom
    second = np.zeros(m)
    second[k] = dp[k - 1]
    for i in range(k - 2, -1, -1):
        second[i + 1] = dp[i] - cp[i] * second[i + 2]
    seg = np.clip(np.searchsorted(t, xs, side="right") - 1, 0, m - 2)
    dx = xs - t[seg]
    hs = h[seg]
    b = (v[seg + 1] - v[seg]) / hs - hs * (2.0 * second[seg] + second[seg + 1]) / 6.0
    c = second[seg] / 2.0
    d = (second[seg + 1] - second[seg]) / (6.0 * hs)
    return v[seg] + dx * (b + dx * (c + dx * d))


def _envelope(x, idx, n):
    t = np.concatenate([[-idx[0]], idx, [2 * (n - 1) - idx[-1]]]).astype(np.float64)
    v = np.concatenate([[x[idx[0]]], x[idx], [x[idx[-1]]]])
    return _natural_cubic(t, v, np.arange(n, dtype=np.float64))


def _sift(signal, params, scale):
    """One IMF extraction, or None if the component never satisfies the
    IMF conditions (count difference <= 1, envelope mean below tolerance)."""
    h = signal.copy()
    n = h.size
    for _ in range(params.max_sift_iterations):
        maxima, minima = _local_extrema(h)
        if maxima.size == 0 or minima.size == 0:
            return None
        upper = _envelope(h, maxima, n)
        lower = _envelope(h, minima, n)
        mean_env = 0.5 * (upper + lower)
        n_ext = maxima.size + minima.size
        if abs(n_ext - _zero_crossings(h)) <= 1 and np.max(np.abs(mean_env)) <= params.sift_tolerance * scale:
            return h
        h = h - mean_env
    return None


def emd(signal, params: EmdParams = EmdParams(), source_channel=0):
    """Decompose into intrinsic mode functions plus a residual.

    Returns (imfs, residual) with sum(imfs) + residual == signal exactly.
    Raises DecompositionFailure when no IMF at all can be extracted
    (e.g. strictly monotonic input).
    """
    x = _check_signal(np.asarray(signal, dtype=np.float64))
    scale = float(np.std(x))
    if scale == 0.0:
        raise DecompositionFailure("constant signal has no oscillatory component")
    imfs = []
    residual = x.copy()
    for _ in range(params.max_imfs):
        imf = _sift(residual, params, scale)
        if imf is None:
            break
        imfs.append(CoefficientSet(values=imf, kind="imf", source_channel=source_channel))
        residual = residual - imf
        maxima, minima = _local_extrema(residual)
        if maxima.size + minima.size < 2:  # residual effectively monotonic
            break
    if not imfs:
        raise DecompositionFailure("no IMF satisfied the sifting conditions")
    return imfs, residual


def minkowski_distance(signal, imf_values):
    """Euclidean (Minkowski, exponent 2) distance between signal and component."""
    diff = np.asarray(signal, dtype=np.float64) - np.asarray(imf_values, dtype=np.float64)
    return float(np.sqrt(np.sum(np.abs(diff) ** 2)))


def select_imfs_minkowski(signal, imfs):
    """Pick the two IMFs closest to the signal, preserving their input order.

    A single IMF is duplicated so downstream feature widths stay constant.
    """
    if not imfs:
        raise EmptyInput("no IMFs to select from")
    if len(imfs) == 1:
        return [imfs[0], imfs[0]]
    distances = [minkowski_distance(signal, imf.values) for imf in imfs]
    keep = sorted(np.argsort(distances, kind="stable")[:2])
    return [imfs[keep[0]], imfs[keep[1]]]
