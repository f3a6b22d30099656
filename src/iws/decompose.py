"""Wavelet filter-bank and empirical-mode decomposition of 64-sample windows."""

import logging
from dataclasses import dataclass
from typing import NamedTuple

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

MAX_IMFS = 8
# the sift cap covers the long convergence tail seen on 64-sample colored
# noise (median 10 iterations, 99th percentile ~150)
MAX_SIFT_ITERATIONS = 300
SIFT_TOLERANCE = 0.05  # envelope-mean bound, as a fraction of the row's std

COEFF_KINDS = ("detail_level_1", "detail_level_2", "detail_level_3",
               "detail_level_4", "approximation_level_5")


@dataclass(frozen=True)
class CoefficientSet:
    """One decomposition band: a detail/approximation sequence or one IMF."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.size == 0:
            raise InvariantViolation(f"coefficient set {self.kind}: empty")
        if not np.all(np.isfinite(arr)):
            raise InvariantViolation(f"coefficient set {self.kind}: non-finite values")
        object.__setattr__(self, "values", arr)


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


def dwt_bior22(signal):
    """Decompose a 64-sample window into 4 detail sets plus the approximation.

    Returns [w1, w2, w3, w4, a5] as CoefficientSets, finest detail first.
    """
    x = _check_signal(signal)
    if x.size != WINDOW_SAMPLES:
        raise InvariantViolation(f"expected a {WINDOW_SAMPLES}-sample window, got {x.size}")
    details = []
    cur = x
    for _ in range(DWT_LEVELS):
        cur, det = dwt_single_level(cur)
        details.append(det)
    sets = [CoefficientSet(values=det, kind=COEFF_KINDS[j]) for j, det in enumerate(details)]
    sets.append(CoefficientSet(values=cur, kind=COEFF_KINDS[4]))
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
# to suppress end swings.  The rows of a signal stack are sifted in lockstep:
# one step does one sift iteration of every row still decomposing, and each
# row's own stopping rules decide when it emits an IMF and when it ends.
# ---------------------------------------------------------------------------

def _extremum_masks(x):
    """Strict interior maxima and minima of each row, as two boolean masks."""
    maxima = np.zeros(x.shape, dtype=bool)
    minima = np.zeros(x.shape, dtype=bool)
    mid, left, right = x[:, 1:-1], x[:, :-2], x[:, 2:]
    maxima[:, 1:-1] = (mid > left) & (mid > right)
    minima[:, 1:-1] = (mid < left) & (mid < right)
    return maxima, minima


def _zero_crossings(x):
    """Sign changes along each row, zero samples skipped."""
    n_rows, n = x.shape
    signs = np.sign(x)
    nonzero = signs != 0
    # latest nonzero sample at or before each position (-1: none yet)
    last = np.maximum.accumulate(np.where(nonzero, np.arange(n), -1), axis=1)[:, :-1]
    before = np.take(signs, np.maximum(last, 0) + n * np.arange(n_rows)[:, None])
    return np.count_nonzero(nonzero[:, 1:] & (last >= 0) & (signs[:, 1:] != before), axis=1)


def _second_derivatives(h, slope, n_knots):
    """Second derivatives at the knots of each row's natural cubic spline.

    Row r has ``n_knots[r]`` real knots with spacings ``h[r]`` and secant
    slopes ``slope[r]``; its interior values solve one tridiagonal system.
    The Thomas sweep runs over the knot index across all rows at once.  A
    padded unknown is an identity row (diagonal 1, right-hand side 0) and the
    coupling after a row's last real unknown is 0, so each row goes through
    exactly the operations of its own solve.  Returns (n_rows, padded knots).
    """
    n_rows, k = slope.shape[0], slope.shape[1] - 1  # k: unknowns of the widest row
    real = np.arange(k) < (n_knots - 2)[:, None]
    # per unknown: right-hand side, diagonal and coupling to the next unknown
    system = np.zeros((k, 3, n_rows))
    system[:, 0] = np.where(real, 6.0 * np.diff(slope, axis=1), 0.0).T
    system[:, 1] = np.where(real, 2.0 * (h[:, :-1] + h[:, 1:]), 1.0).T
    system[:-1, 2] = np.where(real[:, 1:], h[:, 1:-1], 0.0).T
    # forward sweep: sweep[i] holds (dp[i], cp[i], 0), so one step's
    # system[i] - off[i - 1] * sweep[i - 1] is (dp numerator, denominator,
    # off[i]) and one division gives (dp[i], cp[i])
    sweep = np.zeros((k, 3, n_rows))
    second = np.zeros((k + 2, n_rows))
    if k:
        np.divide(system[0, ::2], system[0, 1], out=sweep[0, :2])
        for i in range(1, k):
            num = system[i] - system[i - 1, 2] * sweep[i - 1]
            np.divide(num[::2], num[1], out=sweep[i, :2])
        dp, cp = sweep[:, 0], sweep[:, 1]
        second[k] = dp[k - 1]
        for i in range(k - 2, -1, -1):
            second[i + 1] = dp[i] - cp[i] * second[i + 2]
    return second.T


def _spline_rows(t, v, n_knots, xs, seg):
    """Natural cubic spline of each row, evaluated at ``xs`` in segments ``seg``.

    Row r interpolates its first ``n_knots[r]`` knots (t[r], v[r]); knots past
    those are padding that keeps t strictly increasing.
    """
    n_rows, m = t.shape
    h = np.diff(t, axis=1)
    slope = np.diff(v, axis=1) / h
    second = _second_derivatives(h, slope, n_knots)
    # cubic coefficients of each segment, then Horner's rule in place at each
    # sample, gathering one coefficient at a time to keep temporaries small
    s0, s1 = second[:, :-1], second[:, 1:]
    cubic = np.zeros((3, n_rows, m))
    cubic[0, :, :-1] = slope - h * (2.0 * s0 + s1) / 6.0
    cubic[1, :, :-1] = s0 / 2.0
    cubic[2, :, :-1] = (s1 - s0) / (6.0 * h)
    b, c, d = cubic.reshape(3, -1)
    at = seg + m * np.arange(n_rows)[:, None]
    dx = xs - t.ravel()[at]
    y = d[at]
    y *= dx
    y += c[at]
    y *= dx
    y += b[at]
    y *= dx
    y += v.ravel()[at]
    return y


def _natural_cubic(t, v, xs):
    """Natural cubic spline through (t, v) evaluated at xs: a batch of one."""
    seg = np.clip(np.searchsorted(t, xs, side="right") - 1, 0, t.size - 2)
    return _spline_rows(t[None], v[None], np.array([t.size]), xs[None], seg[None])[0]


def _envelopes(x, ext):
    """Spline of each row of ``x`` through the samples where ``ext`` holds
    (at least one per row), first/last extremum mirrored, at every sample."""
    n_rows, n = x.shape
    counts = np.count_nonzero(ext, axis=1)
    r, col = np.nonzero(ext)  # row-major: each row's extrema are contiguous
    starts = np.cumsum(counts) - counts
    first, last = col[starts], col[starts + counts - 1]
    # knot 0 mirrors the first extremum left of sample 0 and knot counts + 1 the
    # last one right of sample n - 1, so sample s lies in segment cum[s]
    cum = np.cumsum(ext, axis=1)
    m = int(counts.max()) + 2
    t = np.broadcast_to(np.arange(2 * n, 2 * n + m, dtype=np.float64), (n_rows, m)).copy()
    v = np.zeros((n_rows, m))
    slot = cum[r, col]
    t[r, slot] = col
    v[r, slot] = x[r, col]
    rows = np.arange(n_rows)
    t[:, 0] = -first
    v[:, 0] = x[rows, first]
    t[rows, counts + 1] = 2 * (n - 1) - last
    v[rows, counts + 1] = x[rows, last]
    return _spline_rows(t, v, counts + 2, np.arange(n, dtype=np.float64), cum)


class EmdRows(NamedTuple):
    """Lockstep EMD of an (n_rows, n) signal stack."""

    imfs: np.ndarray       # (n_rows, MAX_IMFS, n); row r fills its first counts[r] slots
    counts: np.ndarray     # IMFs per row; 0 when the row has no oscillatory component
    residuals: np.ndarray  # (n_rows, n): each row minus its IMFs
    constant: np.ndarray   # rows with zero spread, never sifted
    capped: np.ndarray     # rows whose last sift ran into MAX_SIFT_ITERATIONS


def emd_rows(rows) -> EmdRows:
    """Decompose every row of an (n_rows, n) stack into IMFs plus a residual.

    Each row sifts its residual until the IMF conditions hold (extremum and
    zero-crossing counts differ by at most 1, envelope mean within
    ``SIFT_TOLERANCE`` times the row's std), emits it and goes on with what is
    left.  A row ends when a sift finds no maxima or no minima, when a sift
    reaches ``MAX_SIFT_ITERATIONS``, when its residual has fewer than 2
    extrema, or after ``MAX_IMFS`` IMFs.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n_rows, n = rows.shape
    scale = np.std(rows, axis=1)
    imfs = np.zeros((n_rows, MAX_IMFS, n))
    counts = np.zeros(n_rows, dtype=np.intp)
    residuals = rows.copy()
    constant = scale == 0.0
    capped = np.zeros(n_rows, dtype=bool)
    tolerance = SIFT_TOLERANCE * scale
    live = np.flatnonzero(~constant)  # rows still decomposing
    h = rows[live]  # their current sift iterates
    iterations = np.zeros(live.size, dtype=np.intp)  # of the current sift
    while live.size:
        maxima, minima = _extremum_masks(h)
        n_max = np.count_nonzero(maxima, axis=1)
        n_min = np.count_nonzero(minima, axis=1)
        sifting = (n_max > 0) & (n_min > 0)  # otherwise the sift fails: the row ends
        if not sifting.all():
            live, h, iterations = live[sifting], h[sifting], iterations[sifting]
            maxima, minima = maxima[sifting], minima[sifting]
            n_max, n_min = n_max[sifting], n_min[sifting]
            if not live.size:
                break
        k = live.size
        env = _envelopes(np.concatenate([h, h]), np.concatenate([maxima, minima]))
        mean_env = 0.5 * (env[:k] + env[k:])
        emit = ((np.abs(n_max + n_min - _zero_crossings(h)) <= 1)
                & (np.max(np.abs(mean_env), axis=1) <= tolerance[live]))
        done = live[emit]
        imfs[done, counts[done]] = h[emit]
        residuals[done] = residuals[done] - h[emit]
        counts[done] += 1
        res_max, res_min = _extremum_masks(residuals[done])
        more = np.zeros(k, dtype=bool)
        more[emit] = ((np.count_nonzero(res_max, axis=1) + np.count_nonzero(res_min, axis=1) >= 2)
                      & (counts[done] < MAX_IMFS))
        iterations = np.where(emit, 0, iterations + 1)
        at_cap = ~emit & (iterations == MAX_SIFT_ITERATIONS)
        capped[live[at_cap]] = True
        h = np.where(emit[:, None], residuals[live], h - mean_env)
        stay = np.where(emit, more, ~at_cap)
        live, h, iterations = live[stay], h[stay], iterations[stay]
    return EmdRows(imfs, counts, residuals, constant, capped)


def emd(signal):
    """Decompose into intrinsic mode functions plus a residual: a batch of one.

    Returns (imfs, residual) with sum(imfs) + residual == signal exactly.
    Raises DecompositionFailure when no IMF at all can be extracted
    (e.g. strictly monotonic input).
    """
    x = _check_signal(np.asarray(signal, dtype=np.float64))
    out = emd_rows(x[None])
    if out.constant[0]:
        raise DecompositionFailure("constant signal has no oscillatory component")
    if not out.counts[0]:
        raise DecompositionFailure("no IMF satisfied the sifting conditions")
    imfs = [CoefficientSet(values=imf, kind="imf") for imf in out.imfs[0, :out.counts[0]]]
    return imfs, out.residuals[0]


def minkowski_distance(signal, imf_values):
    """Euclidean (Minkowski, exponent 2) distance between signal and component,
    along the last axis: one value per row of a stack."""
    diff = np.asarray(signal, dtype=np.float64) - np.asarray(imf_values, dtype=np.float64)
    return np.sqrt(np.sum(np.abs(diff) ** 2, axis=-1))


def select_imf_pairs(signals, imfs, counts):
    """Slots of the two IMFs closest to each row's signal, in input order.

    ``imfs`` is (n_rows, n_slots, n) with row r's IMFs in its first
    ``counts[r]`` slots.  Ties keep the earlier IMF; a row with a single IMF
    gets it twice.  Rows without IMFs get meaningless slots.
    """
    n_rows, n_slots = imfs.shape[:2]
    dist = np.full((n_rows, max(n_slots, 2)), np.inf)
    for slot in range(n_slots):
        dist[:, slot] = minkowski_distance(signals, imfs[:, slot])
    dist[np.arange(dist.shape[1]) >= counts[:, None]] = np.inf
    pairs = np.sort(np.argsort(dist, axis=1, kind="stable")[:, :2], axis=1)
    pairs[counts == 1] = 0
    return pairs


def select_imfs_minkowski(signal, imfs):
    """Pick the two IMFs closest to the signal, preserving their input order:
    a batch of one.  A single IMF is duplicated so downstream feature widths
    stay constant.
    """
    if not imfs:
        raise EmptyInput("no IMFs to select from")
    values = np.stack([np.asarray(imf.values, dtype=np.float64) for imf in imfs])
    signal = np.asarray(signal, dtype=np.float64)
    first, second = select_imf_pairs(signal[None], values[None], np.array([len(imfs)]))[0]
    return [imfs[first], imfs[second]]
