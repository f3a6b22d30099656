"""Window-vote reduction to 0.1 s bins and single-island error correction."""

import math
from dataclasses import dataclass

from .data import STEP_SAMPLES, WINDOW_SAMPLES, Trial
from .errors import EmptyInput, InvariantViolation


@dataclass(frozen=True)
class TrialPrediction:
    """Per-trial label vectors at every post-processing stage."""

    raw_window_labels: tuple
    bin_labels: tuple
    corrected_labels: tuple
    truth_labels: tuple

    def __post_init__(self):
        lens = {len(self.bin_labels), len(self.corrected_labels), len(self.truth_labels)}
        if len(lens) != 1:
            raise InvariantViolation(f"bin/corrected/truth lengths disagree: {lens}")


def n_bins_for(n_samples, step=STEP_SAMPLES) -> int:
    """Number of 0.1 s bins covering an n-sample trial (last bin may be partial)."""
    return math.ceil(n_samples / step)


def covering_windows(b, n_windows, step=STEP_SAMPLES):
    """Indices of test windows whose sample span overlaps bin ``b``.

    Window w spans [step*w, step*w + WINDOW_SAMPLES); bin b spans
    [step*b, step*(b+1)).  At most ceil(WINDOW_SAMPLES/step) = 5 windows
    overlap an interior bin; edge bins see fewer.
    """
    lo = max(0, b - (WINDOW_SAMPLES - 1) // step)
    hi = min(b, n_windows - 1)
    return list(range(lo, hi + 1))


def _majority(votes):
    ones = sum(votes)
    return 1 if 2 * ones > len(votes) else 0  # ties (and no votes) give 0


def reduce_windows(raw, n_bins, step=STEP_SAMPLES) -> list:
    """Collapse overlapped window labels into per-bin labels by majority vote."""
    raw = list(raw)
    if not raw:
        raise EmptyInput("no window labels to reduce")
    return [
        _majority([raw[w] for w in covering_windows(b, len(raw), step)])
        for b in range(n_bins)
    ]


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


def truth_bins(trial: Trial, n_bins=None, step=STEP_SAMPLES) -> list:
    """Ground-truth bin labels: 1 where more than half the bin's samples are IWS."""
    if n_bins is None:
        n_bins = n_bins_for(trial.n_samples, step)
    labels = []
    for b in range(n_bins):
        start, end = step * b, step * (b + 1)
        inside = max(0, min(end, trial.ending_sample) - max(start, trial.onset_sample))
        labels.append(1 if 2 * inside > step else 0)
    return labels


def postprocess_trial(raw_window_labels, trial: Trial, step=STEP_SAMPLES) -> TrialPrediction:
    """Full reduction + correction + truth discretization for one test trial."""
    n_bins = n_bins_for(trial.n_samples, step)
    bins = reduce_windows(list(raw_window_labels), n_bins, step)
    corrected = correct_errors(bins)
    truth = truth_bins(trial, n_bins, step)
    return TrialPrediction(
        raw_window_labels=tuple(int(v) for v in raw_window_labels),
        bin_labels=tuple(bins),
        corrected_labels=tuple(corrected),
        truth_labels=tuple(truth),
    )
