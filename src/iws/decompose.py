"""Wavelet filter-bank and empirical-mode decomposition of 64-sample windows."""

import logging
from collections import deque

import numpy as np

from .data import WINDOW_SAMPLES
from .errors import DecompositionFailure, InvariantViolation

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
_MIN_SIGNAL_SAMPLES = 6  # shortest signal the DWT and EMD accept

MAX_IMFS = 8
# the sift cap covers the long convergence tail seen on 64-sample colored
# noise (median 10 iterations, 99th percentile ~150)
MAX_SIFT_ITERATIONS = 300
SIFT_TOLERANCE = 0.05  # envelope-mean bound, as a fraction of the row's std
# rows sifting at once: a narrower queue pays each step's fixed cost more
# often; a wider one (512) ran slower and took ~3 MiB more peak memory
EMD_QUEUE_ROWS = 256


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


def _check_signal(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvariantViolation(f"expected a 1-D signal, got ndim={x.ndim}")
    if x.size < _MIN_SIGNAL_SAMPLES:
        raise InvariantViolation(f"signal too short: {x.size} < {_MIN_SIGNAL_SAMPLES}")
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
    #  a[k] reaches x[m] for 2k in [m+1, m+3] and d[k] for 2k in [m-1, m+3], so
    #  a is read one place ahead (up_a[1:]) and d upsampled one place late
    up_a = np.zeros(up_len)
    up_d = np.zeros(up_len + 1)
    up_a[::2][:approx.size] = approx
    up_d[1::2][:detail.size] = detail
    return (np.correlate(up_a[1:], REC_LO, "valid")[:n_out]
            + np.correlate(up_d, REC_HI, "valid")[:n_out])


def dwt_bior22(signal):
    """Decompose a 64-sample window into 4 detail sets plus the approximation.

    Returns the arrays [w1, w2, w3, w4, a5], finest detail first.  A band
    that overflows to a non-finite value raises InvariantViolation.
    """
    x = _check_signal(signal)
    if x.size != WINDOW_SAMPLES:
        raise InvariantViolation(f"expected a {WINDOW_SAMPLES}-sample window, got {x.size}")
    bands = []
    cur = x
    for _ in range(DWT_LEVELS):
        cur, det = dwt_single_level(cur)
        bands.append(det)
    bands.append(cur)
    for name, band in zip(("w1", "w2", "w3", "w4", "a5"), bands):
        if not np.all(np.isfinite(band)):
            raise InvariantViolation(f"dwt band {name}: non-finite values")
    return bands


def idwt_bior22(bands):
    """Reconstruct the window from dwt_bior22 output (perfect to ~1e-12)."""
    if len(bands) != DWT_LEVELS + 1:
        raise InvariantViolation(f"expected {DWT_LEVELS + 1} bands, got {len(bands)}")
    # each level's input is as long as the detail band it produced
    lengths = [WINDOW_SAMPLES] + [len(band) for band in bands[:DWT_LEVELS - 1]]
    cur = bands[-1]
    for level in range(DWT_LEVELS - 1, -1, -1):
        cur = idwt_single_level(cur, bands[level], lengths[level])
    return cur


# ---------------------------------------------------------------------------
# EMD.  Sifting with cubic-spline envelopes through local extrema; envelope
# endpoints are the first/last extremum mirrored across the window boundary
# to suppress end swings.  Rows sift in lockstep through one bounded queue:
# one step does one sift iteration of every row in it, each row's own
# stopping rules decide when it emits an IMF and when it ends.  The rows
# sifting hold the queue's first slots: the last of them fill the slots of
# those that end, and rows from the feed start in the slots after them.
# ---------------------------------------------------------------------------

def _extrema(x):
    """Strict interior extrema of each row of ``x``, as one (2 * n_rows, n)
    mask: the maxima of every row, then the minima of every row."""
    k = x.shape[0]
    extrema = np.zeros((2 * k, x.shape[1]), dtype=bool)
    mid, left, right = x[:, 1:-1], x[:, :-2], x[:, 2:]
    extrema[:k, 1:-1] = (mid > left) & (mid > right)
    extrema[k:, 1:-1] = (mid < left) & (mid < right)
    return extrema


def _zero_crossings(x):
    """Sign changes along each row, zero samples skipped."""
    signs = np.sign(x)
    count = np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1)
    zero = np.flatnonzero((signs == 0).any(axis=1))
    if zero.size:  # these rows compare each nonzero sign with the last one before it
        signs, n = signs[zero], x.shape[1]
        nonzero = signs != 0
        # latest nonzero sample at or before each position (-1: none yet)
        last = np.maximum.accumulate(np.where(nonzero, np.arange(n), -1), axis=1)[:, :-1]
        before = np.take(signs, np.maximum(last, 0) + n * np.arange(zero.size)[:, None])
        count[zero] = (nonzero[:, 1:] & (last >= 0) & (signs[:, 1:] != before)).sum(axis=1)
    return count


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
    at = seg + m * np.arange(n_rows)[:, None]  # flat indices: take() gathers faster than []
    dx = xs - t.take(at)
    y = d.take(at)
    y *= dx
    y += c.take(at)
    y *= dx
    y += b.take(at)
    y *= dx
    y += v.take(at)
    return y


def _envelopes(x, extrema, counts):
    """Upper then lower envelope of each row of ``x``, as one (2 * n_rows, n)
    stack: row i of the stack is the spline through the samples where row i
    of ``extrema`` (``_extrema(x)``) holds, ``counts[i]`` of them and at least
    one, first/last extremum mirrored, at every sample."""
    n = x.shape[1]
    # the extrema as flat row-major indices into the mask stack: each
    # envelope's are contiguous, and modulo x.size they index x
    flat = np.flatnonzero(extrema)
    values = x.ravel()[flat % x.size]
    r, col = np.divmod(flat, n)
    ends = np.cumsum(counts)
    first, last = ends - counts, ends - 1  # each envelope's first and last extremum
    # knot 0 mirrors the first extremum left of sample 0 and knot counts + 1 the
    # last one right of sample n - 1, so sample s lies in segment cum[s]
    cum = np.cumsum(extrema, axis=1, dtype=np.int32)  # narrower than intp: half the time
    m = int(counts.max()) + 2
    t = np.broadcast_to(np.arange(2 * n, 2 * n + m, dtype=np.float64), (counts.size, m)).copy()
    v = np.zeros((counts.size, m))
    knot = r * m + cum.ravel()[flat]
    t.ravel()[knot] = col
    v.ravel()[knot] = values
    rows = np.arange(counts.size)
    t[:, 0] = -col[first]
    v[:, 0] = values[first]
    t[rows, counts + 1] = 2 * (n - 1) - col[last]
    v[rows, counts + 1] = values[last]
    return _spline_rows(t, v, counts + 2, np.arange(n, dtype=np.float64), cum)


class EmdRows:
    """EMD of an (n_rows, n) signal stack: the one record ``sift_blocks`` makes
    when it reads the stack, fills in as the stack's rows end and yields.  A
    row without IMFs (never sifted, or none found) is its own ``selected`` pair."""

    def __init__(self, rows, start, keep_all):
        n_rows, n = rows.shape
        self.rows, self.start = rows, start  # row i has queue id start + i
        with np.errstate(invalid="ignore"):  # a row holding inf has no spread: never sifted
            scale = np.std(rows, axis=1)
        self.tolerance = SIFT_TOLERANCE * scale
        self.todo = np.flatnonzero(scale > 0.0)  # rows to sift that have not started yet
        self.left = self.todo.size  # rows to sift that have not ended yet
        # (n_rows, MAX_IMFS, n), row r in its first counts[r] slots, and (n_rows, n),
        # each row minus its IMFs: both None unless kept
        self.imfs = np.zeros((n_rows, MAX_IMFS, n)) if keep_all else None
        self.residuals = rows.copy() if keep_all else None
        self.counts = np.zeros(n_rows, dtype=np.intp)  # IMFs per row; 0: no oscillation
        self.capped = np.zeros(n_rows, dtype=bool)  # last sift ran into, or would, the cap
        self.selected = np.stack([rows, rows], axis=1)  # the two IMFs closest to each row
        self.finite = np.ones(n_rows, dtype=bool)  # rows whose IMFs are all finite


def _slots(n):
    """The sift state of the queue: one array per quantity, one entry per
    slot; the rows sifting hold the first slots."""
    return {
        "id": np.zeros(EMD_QUEUE_ROWS, dtype=np.intp),  # queue id of the row in each slot
        "signal": np.zeros((EMD_QUEUE_ROWS, n)),
        "h": np.zeros((EMD_QUEUE_ROWS, n)),  # the current sift iterate
        "residual": np.zeros((EMD_QUEUE_ROWS, n)),
        "tolerance": np.zeros(EMD_QUEUE_ROWS),
        "iterations": np.zeros(EMD_QUEUE_ROWS, dtype=np.intp),  # of the current sift
        "counts": np.zeros(EMD_QUEUE_ROWS, dtype=np.intp),
        "imfs": np.zeros((EMD_QUEUE_ROWS, MAX_IMFS, n)),  # a row's IMFs in its first counts slots
    }


def _start_rows(state, slots, ids, signal, tolerance):
    """Start the rows ``signal`` (queue ids ``ids``) in ``slots``."""
    state["id"][slots] = ids
    for key in ("signal", "h", "residual"):
        state[key][slots] = signal
    state["tolerance"][slots] = tolerance
    for key in ("iterations", "counts", "imfs"):
        state[key][slots] = 0


def _closest_pairs(signals, imfs, counts):
    """The two IMFs closest to each row of ``signals`` (Minkowski distance),
    as an (n_rows, 2, n) stack in slot order; a tie keeps the earlier IMF.

    ``imfs`` is (n_rows, n_slots, n) with row r's IMFs in its first
    ``counts[r]`` slots.  A row with one IMF gets it twice, so feature widths
    stay constant, and a row with none gets its own signal twice.
    """
    dist = minkowski_distance(signals[:, None], imfs)
    dist[np.arange(imfs.shape[1]) >= counts[:, None]] = np.inf
    order = np.argsort(dist, axis=1, kind="stable")
    pairs = np.sort(order.take([0, 1], axis=1, mode="clip"), axis=1)
    pairs[counts == 1] = 0
    selected = np.take_along_axis(imfs, pairs[:, :, None], axis=1)
    selected[counts == 0] = signals[counts == 0, None]
    return selected


def _sift_step(live):
    """One sift iteration of every row of ``live``, written into the arrays of
    ``live`` (none is rebound).  Returns the rows that end, and those of them
    that ran into the sift-iteration cap or stalled on the way to it."""
    h, iterations = live["h"], live["iterations"]
    k = h.shape[0]
    extrema = _extrema(h)
    counts = extrema.sum(axis=1)  # maxima of each row, then minima
    n_max, n_min = counts[:k], counts[k:]
    failed = (n_max == 0) | (n_min == 0)  # the sift fails: the row ends
    if failed.any():  # the others sift in the next step
        return failed, np.zeros(failed.size, dtype=bool)
    env = _envelopes(h, extrema, counts)
    mean_env = 0.5 * (env[:k] + env[k:])
    emit = ((np.abs(n_max + n_min - _zero_crossings(h)) <= 1)
            & (np.max(np.abs(mean_env), axis=1) <= live["tolerance"]))
    step = h - mean_env
    # a row's step depends only on its own iterate and tolerance: one that
    # leaves every bit of the iterate as it was would repeat until the cap
    unchanged = np.all(step.view(np.uint64) == h.view(np.uint64), axis=1)
    iterations += 1
    iterations[emit] = 0
    capped = ~emit & (unchanged | (iterations == MAX_SIFT_ITERATIONS))
    ended = capped.copy()
    e = np.flatnonzero(emit)
    if e.size:
        imf, residual, n_imfs = h[e], live["residual"], live["counts"]
        residual[e] = residual[e] - imf
        live["imfs"][e, n_imfs[e]] = imf
        n_imfs[e] += 1
        n_res = _extrema(residual[e]).reshape(2, e.size, -1).sum(axis=(0, 2))
        ended[e] = (n_res < 2) | (n_imfs[e] == MAX_IMFS)
    h[...] = np.where(emit[:, None], live["residual"], step)
    return ended, capped


def sift_blocks(blocks, keep_all=False):
    """The EMD sifting loop.  Yields the EmdRows of each stack of ``blocks``,
    in order: the record made when the stack is read, filled as its rows end.

    ``blocks`` yields (n_rows, n) signal stacks.  It is read only while fewer
    than ``EMD_QUEUE_ROWS`` rows are sifting, and each step does one sift
    iteration of every sifting row.  A row sifts its residual until the IMF
    conditions hold (extremum and zero-crossing counts differ by at most 1,
    envelope mean within ``SIFT_TOLERANCE`` times the row's std), emits it
    and goes on with what is left.  A row ends when a sift finds no maxima or
    no minima, when a sift reaches ``MAX_SIFT_ITERATIONS`` or takes a step
    that leaves its iterate unchanged (every later step would repeat that one
    up to the cap: the row ends as capped), when its residual has fewer than
    2 extrema, or after ``MAX_IMFS`` IMFs.  A stack is handed
    back once its last row has ended and every stack before it is handed
    back.  The queue keeps each sifting row's IMFs; when rows end, the two
    closest to each (``_closest_pairs``) and whether all are finite go to
    their records, and every IMF and the residual only with ``keep_all``.  A
    row's result does not depend on the rows sifting beside it, so neither
    on the stacking nor on the queue width.
    """
    fed = deque()  # stacks read and not handed back yet
    n_read = live = 0  # rows read so far, and rows sifting: those in the first live slots
    state = None  # the sift state, in EMD_QUEUE_ROWS slots, made at the first stack
    while True:
        while live < EMD_QUEUE_ROWS:  # start rows from the feed in the free slots
            if fed and fed[-1].todo.size:
                block = fed[-1]
                start, block.todo = np.split(block.todo, [EMD_QUEUE_ROWS - live])
                _start_rows(state, slice(live, live + start.size), start + block.start,
                            block.rows[start], block.tolerance[start])
                live += start.size
                continue
            rows = next(blocks, None)
            if rows is None:
                break
            fed.append(EmdRows(np.asarray(rows, dtype=np.float64), n_read, keep_all))
            n_read += fed[-1].rows.shape[0]
            if state is None:
                state = _slots(fed[-1].rows.shape[1])
        while fed and fed[0].left == 0:
            yield fed.popleft()
        if not live:  # the feed is used up
            return
        sifting = {key: value[:live] for key, value in state.items()}
        ended, capped = _sift_step(sifting)
        e = np.flatnonzero(ended)
        if not e.size:
            continue
        # copy the results of the rows that end out, selected once for them all
        ids, counts, imfs = state["id"][e], state["counts"][e], state["imfs"][e]
        selected = _closest_pairs(state["signal"][e], imfs, counts)
        finite = np.isfinite(imfs).all(axis=(1, 2))
        for block in fed:
            mine = (ids >= block.start) & (ids < block.start + block.rows.shape[0])
            src, dst = e[mine], ids[mine] - block.start
            block.counts[dst] = counts[mine]
            block.selected[dst] = selected[mine]
            block.finite[dst] = finite[mine]
            block.capped[dst] = capped[src]
            if keep_all:
                block.imfs[dst] = imfs[mine]
                block.residuals[dst] = state["residual"][src]
            block.left -= dst.size
        # and move the last rows still sifting into the slots of those that end
        live -= e.size
        holes, movers = e[e < live], live + np.flatnonzero(~ended[live:])
        for value in state.values():
            value[holes] = value[movers]


def emd(signal):
    """Decompose into intrinsic mode functions plus a residual: a batch of one.

    Returns (imfs, residual): ``imfs`` is (k, n), one IMF per row, and
    imfs.sum(axis=0) + residual == signal exactly.  Raises
    DecompositionFailure when no IMF at all can be extracted (e.g. strictly
    monotonic input), and InvariantViolation when an IMF is non-finite.
    """
    x = _check_signal(np.asarray(signal, dtype=np.float64))
    if np.std(x) == 0.0:
        raise DecompositionFailure("constant signal has no oscillatory component")
    out = next(sift_blocks(iter([x[None]]), keep_all=True))
    if not out.counts[0]:
        raise DecompositionFailure("no IMF satisfied the sifting conditions")
    if not out.finite[0]:
        raise InvariantViolation("emd: non-finite IMF values")
    return out.imfs[0, :out.counts[0]], out.residuals[0]


def minkowski_distance(signal, imf_values):
    """Euclidean (Minkowski, exponent 2) distance between signal and component,
    along the last axis: one value per row of a stack."""
    diff = np.asarray(signal, dtype=np.float64) - np.asarray(imf_values, dtype=np.float64)
    return np.sqrt(np.sum(np.abs(diff) ** 2, axis=-1))


def select_imfs_minkowski(signal, imfs):
    """The two rows of ``imfs`` closest to the signal (Minkowski distance), as
    a (2, n) array in their input order: ``_closest_pairs`` on a batch of one.
    """
    imfs = np.asarray(imfs, dtype=np.float64)
    if len(imfs) == 0:
        raise InvariantViolation("no IMFs to select from")
    signal = np.asarray(signal, dtype=np.float64)
    return _closest_pairs(signal[None], imfs[None], np.array([len(imfs)]))[0]
