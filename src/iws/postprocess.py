"""Window-vote reduction to 0.1 s bins and single-island error correction."""

import numpy as np

from .data import STEP_SAMPLES, WINDOW_SAMPLES, Trial
from .errors import InvariantViolation

# window w spans samples [step*w, step*w + WINDOW_SAMPLES), so it overlaps
# bins w .. w + _BINS_PER_WINDOW - 1: an interior bin sees 5 windows
_BINS_PER_WINDOW = (WINDOW_SAMPLES - 1) // STEP_SAMPLES + 1


def n_bins_for(n_samples) -> int:
    """Number of 0.1 s bins covering an n-sample trial (last bin may be partial)."""
    return -(-n_samples // STEP_SAMPLES)


def reduce_windows(raw, n_bins) -> list:
    """Collapse overlapped window labels into per-bin labels by majority vote
    (a tie gives 0, and so does a bin past the last window's span)."""
    raw = np.asarray(raw, dtype=np.int64)
    if raw.size == 0:
        raise InvariantViolation("no window labels to reduce")
    kernel = np.ones(_BINS_PER_WINDOW, dtype=np.int64)
    ones = np.convolve(raw, kernel)  # 1 votes of each bin up to the last window's span
    voters = np.convolve(np.ones_like(raw), kernel)
    won = (2 * ones[:n_bins] > voters[:n_bins]).astype(np.int64).tolist()
    return won + [0] * (n_bins - len(won))


def correct_errors(bins) -> list:
    """Flip single-sample islands whose two neighbors agree, one pass,
    scanning left to right.

    A flip merges the island into the left run, which makes the pass
    idempotent; endpoints are left untouched (an edge run may continue
    beyond the trial boundary, so it is not treated as an island).
    """
    out = list(bins)
    for i in range(1, len(out) - 1):
        if out[i - 1] == out[i + 1] != out[i]:
            out[i] = out[i - 1]
    return out


def truth_bins(trial: Trial) -> list:
    """Ground-truth bin labels: 1 where more than half the bin's samples are IWS."""
    start = STEP_SAMPLES * np.arange(n_bins_for(trial.n_samples))
    inside = (np.minimum(start + STEP_SAMPLES, trial.ending_sample)
              - np.maximum(start, trial.onset_sample))
    return (2 * inside > STEP_SAMPLES).astype(np.int64).tolist()


def postprocess_trial(raw_window_labels, trial: Trial):
    """Corrected and truth bin labels of one test trial, as two equal-length lists."""
    bins = reduce_windows(raw_window_labels, n_bins_for(trial.n_samples))
    return correct_errors(bins), truth_bins(trial)
