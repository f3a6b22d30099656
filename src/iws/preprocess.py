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


def _starts(begin, end_exclusive, step):
    """Window start indices in [begin, ...] with start + window <= end_exclusive."""
    if not 0 < step <= WINDOW_SAMPLES:
        raise InvariantViolation(f"need 0 < step ({step}) <= window ({WINDOW_SAMPLES})")
    return range(begin, end_exclusive - WINDOW_SAMPLES + 1, step)


def segment_training_trial(trial: Trial, step=STEP_SAMPLES):
    """Cut a marker-labeled trial into pure-class instances.

    Three independent passes: ISS windows from the trial start up to the
    onset, IWS windows from the onset up to the ending, ISS windows from the
    ending to the end of the trial.  No instance ever mixes classes.
    """
    n = trial.n_samples
    segments = [
        (0, trial.onset_sample, 0),
        (trial.onset_sample, trial.ending_sample, 1),
        (trial.ending_sample, n, 0),
    ]
    instances = []
    for begin, end, label in segments:
        starts = _starts(begin, end, step)
        if not starts:
            raise SegmentTooShort(
                f"trial {trial.subject_id}: segment [{begin}, {end}) of length "
                f"{end - begin} admits no {WINDOW_SAMPLES}-sample window"
            )
        for start in starts:
            instances.append(
                SignalInstance(
                    samples=trial.samples[start:start + WINDOW_SAMPLES, :],
                    trial_offset=start,
                    label=label,
                )
            )
    return instances


def segment_test_trial(trial: Trial, step=STEP_SAMPLES):
    """Cut a trial into unlabeled instances continuously, ignoring markers."""
    n = trial.n_samples
    if n < WINDOW_SAMPLES:
        raise SegmentTooShort(f"trial {trial.subject_id}: {n} samples < window {WINDOW_SAMPLES}")
    return [
        SignalInstance(samples=trial.samples[start:start + WINDOW_SAMPLES, :], trial_offset=start)
        for start in _starts(0, n, step)
    ]
