"""Common average reference cleaning and trial windowing."""

import numpy as np

from .data import STEP_SAMPLES, WINDOW_SAMPLES, SignalInstance, Trial
from .errors import InvariantViolation, SegmentTooShort


def car_filter(samples) -> np.ndarray:
    """Subtract the cross-channel mean from every time sample.

    Output rows sum to zero, making the filter idempotent.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise InvariantViolation(f"expected a 2-D samples matrix, got ndim={samples.ndim}")
    if not np.all(np.isfinite(samples)):
        raise InvariantViolation("non-finite values in input to car_filter")
    return samples - samples.mean(axis=1, keepdims=True)


def car_filter_trial(trial: Trial) -> Trial:
    return trial.with_samples(car_filter(trial.samples))


def _starts(begin, end_exclusive):
    """Window start indices in [begin, ...] with start + window <= end_exclusive."""
    return range(begin, end_exclusive - WINDOW_SAMPLES + 1, STEP_SAMPLES)


def training_grid(trial: Trial):
    """Offsets and 0/1 labels of a marker-labeled trial's pure-class windows.

    Three independent passes: ISS windows from the trial start up to the
    onset, IWS windows from the onset up to the ending, ISS windows from the
    ending to the end of the trial.  No window ever mixes classes.
    """
    segments = [
        (0, trial.onset_sample, 0),
        (trial.onset_sample, trial.ending_sample, 1),
        (trial.ending_sample, trial.n_samples, 0),
    ]
    offsets, labels = [], []
    for begin, end, label in segments:
        starts = _starts(begin, end)
        if not starts:
            raise SegmentTooShort(
                f"trial {trial.subject_id}: segment [{begin}, {end}) of length "
                f"{end - begin} admits no {WINDOW_SAMPLES}-sample window"
            )
        offsets.extend(starts)
        labels.extend([label] * len(starts))
    return offsets, labels


def _instance(trial, start, label=None):
    return SignalInstance(samples=trial.samples[start:start + WINDOW_SAMPLES, :],
                          trial_offset=start, label=label)


def segment_training_trial(trial: Trial):
    """Cut a marker-labeled trial into the pure-class instances of ``training_grid``."""
    return [_instance(trial, start, label) for start, label in zip(*training_grid(trial))]


def segment_test_trial(trial: Trial):
    """Cut a trial into unlabeled instances continuously, ignoring markers."""
    n = trial.n_samples
    if n < WINDOW_SAMPLES:
        raise SegmentTooShort(f"trial {trial.subject_id}: {n} samples < window {WINDOW_SAMPLES}")
    return [_instance(trial, start) for start in _starts(0, n)]
