"""Common average reference cleaning and trial windowing."""

from dataclasses import replace
from typing import NamedTuple

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
    return replace(trial, samples=car_filter(trial.samples))


def _starts(begin, end_exclusive):
    """Window start indices in [begin, ...] with start + window <= end_exclusive."""
    return range(begin, end_exclusive - WINDOW_SAMPLES + 1, STEP_SAMPLES)


class WindowGrid(NamedTuple):
    train_offsets: np.ndarray
    labels: np.ndarray
    test_offsets: np.ndarray


def window_grid(trial: Trial) -> WindowGrid:
    """A marker-labeled trial's window offsets: its pure-class training
    windows with their 0/1 labels, and its test windows.

    Training windows come from three independent passes: ISS windows from the
    trial start up to the onset, IWS windows from the onset up to the ending,
    ISS windows from the ending to the end of the trial.  No window ever mixes
    classes.  Test windows run continuously over the trial, ignoring markers.
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
    return WindowGrid(np.array(offsets, dtype=np.int64), np.array(labels, dtype=np.int64),
                      np.array(_starts(0, trial.n_samples), dtype=np.int64))


def window_stack(trial: Trial, offsets) -> np.ndarray:
    """The (len(offsets), 64, 14) stack of a trial's windows that start at ``offsets``."""
    return trial.samples[np.asarray(offsets)[:, None] + np.arange(WINDOW_SAMPLES)]


def segment_training_trial(trial: Trial):
    """Cut a marker-labeled trial into the pure-class instances of its window grid."""
    grid = window_grid(trial)
    windows = window_stack(trial, grid.train_offsets)
    return [SignalInstance(samples=w, trial_offset=o, label=label)
            for w, o, label in zip(windows, grid.train_offsets.tolist(), grid.labels.tolist())]


def segment_test_trial(trial: Trial):
    """Cut a trial into unlabeled instances continuously, ignoring markers."""
    offsets = _starts(0, trial.n_samples)
    return [SignalInstance(samples=w, trial_offset=o)
            for w, o in zip(window_stack(trial, offsets), offsets)]
