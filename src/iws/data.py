"""Trial data model, on-disk trial format, and the synthetic dataset generator."""

import json
import logging
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, InvariantViolation, MalformedFile

log = logging.getLogger(__name__)

# The one recording geometry the detector handles: 14-channel EEG at 128 Hz,
# 0.5 s windows sliding by 0.1 s, scored in 0.1 s bins.
SAMPLING_RATE = 128
CHANNEL_COUNT = 14
WINDOW_SAMPLES = 64  # 0.5 s
STEP_SAMPLES = 13  # window step and scoring bin: 0.1 s is 12.8 samples, rounded
MIN_TRIALS = 8  # a 75/25 trial split of 8 leaves 2 test trials

PROTOCOL_TAGS = ("dataset1", "dataset2", "dataset3", "synthetic")

_SCHEMA_VERSION = 1


def _channel_names():
    return [f"ch{i:02d}" for i in range(CHANNEL_COUNT)]


def check_int(field, value):
    """Raise ConfigError naming ``field`` unless ``value`` is an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{field} must be an integer, got {value!r}")


def check_real(field, value):
    """Raise ConfigError naming ``field`` unless ``value`` is a finite number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{field} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class Trial:
    """One recording: ISS, then IWS, then ISS, with known ground-truth markers.

    ``onset_sample`` is the first IWS sample; ``ending_sample`` is the first
    post-IWS ISS sample (exclusive end), so the IWS length is ``ending - onset``.
    """

    subject_id: str
    samples: np.ndarray  # n_samples x CHANNEL_COUNT, microvolts
    onset_sample: int
    ending_sample: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", arr)
        self.validate()
        arr.setflags(write=False)  # shared across threads; must not mutate

    @property
    def n_samples(self):
        return self.samples.shape[0]

    def validate(self):
        if self.samples.ndim != 2 or self.samples.shape[1] != CHANNEL_COUNT:
            raise InvariantViolation(
                f"trial {self.subject_id}: samples must be n x {CHANNEL_COUNT}, "
                f"got shape {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise InvariantViolation(f"trial {self.subject_id}: non-finite sample values")
        n = self.samples.shape[0]
        if n < 3 * WINDOW_SAMPLES:
            raise InvariantViolation(
                f"trial {self.subject_id}: {n} samples < {3 * WINDOW_SAMPLES} minimum"
            )
        if not (0 < self.onset_sample < self.ending_sample < n):
            raise InvariantViolation(
                f"trial {self.subject_id}: markers must satisfy "
                f"0 < onset ({self.onset_sample}) < ending ({self.ending_sample}) < n ({n})"
            )

    def with_samples(self, samples):
        """Copy of this trial with new sample data (markers unchanged)."""
        return Trial(
            subject_id=self.subject_id,
            samples=samples,
            onset_sample=self.onset_sample,
            ending_sample=self.ending_sample,
        )


@dataclass(frozen=True)
class SubjectDataset:
    """All trials of one subject."""

    subject_id: str
    trials: tuple
    protocol_tag: str = "synthetic"

    def __post_init__(self):
        object.__setattr__(self, "trials", tuple(self.trials))
        self.validate()

    def validate(self):
        if self.protocol_tag not in PROTOCOL_TAGS:
            raise InvariantViolation(
                f"subject {self.subject_id}: unknown protocol_tag {self.protocol_tag!r}"
            )
        if len(self.trials) < MIN_TRIALS:
            raise InvariantViolation(
                f"subject {self.subject_id}: {len(self.trials)} trials < {MIN_TRIALS} "
                "(75/25 split needs at least 2 test trials)"
            )


@dataclass(frozen=True)
class SignalInstance:
    """One 0.5 s analysis window (64 samples x 14 channels) cut from a trial.

    ``label`` is 0 (ISS) / 1 (IWS) for training instances, None for test
    instances extracted continuously.
    """

    samples: np.ndarray
    trial_offset: int
    label: Optional[int] = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.shape != (WINDOW_SAMPLES, CHANNEL_COUNT):
            raise InvariantViolation(
                f"signal instance must be {WINDOW_SAMPLES} x {CHANNEL_COUNT}, got {arr.shape}"
            )
        if self.label not in (None, 0, 1):
            raise InvariantViolation(f"label must be 0, 1 or None, got {self.label!r}")
        object.__setattr__(self, "samples", arr)
        arr.setflags(write=False)


@dataclass(frozen=True)
class SynthConfig:
    """Geometry and signal parameters for the synthetic trial generator.

    Inside [onset, ending) a band-limited oscillation is added on all channels
    at ``snr`` times the background standard deviation; snr=0 yields trials
    whose IWS is statistically indistinguishable from the ISS.
    """

    n_subjects: int
    trials_per_subject: int
    trial_length_samples: int
    iws_length_range: tuple
    carrier_band_hz: tuple = (8.0, 12.0)
    snr: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_subjects", "trials_per_subject", "trial_length_samples", "seed"):
            check_int(name, getattr(self, name))
        for name in ("iws_length_range", "carrier_band_hz"):
            pair = getattr(self, name)
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"{name} must have exactly two entries, got {pair!r}")
        for v in self.iws_length_range:
            check_int("iws_length_range", v)
        for v in self.carrier_band_hz:
            check_real("carrier_band_hz", v)
        check_real("snr", self.snr)
        object.__setattr__(self, "iws_length_range", tuple(int(v) for v in self.iws_length_range))
        object.__setattr__(self, "carrier_band_hz", tuple(float(v) for v in self.carrier_band_hz))
        self.validate()

    def validate(self):
        if self.n_subjects < 1:
            raise ConfigError("n_subjects must be >= 1")
        if self.trials_per_subject < MIN_TRIALS:
            raise ConfigError(
                f"trials_per_subject must be >= {MIN_TRIALS} (SubjectDataset minimum)")
        lo, hi = self.iws_length_range
        if not (0 < lo <= hi):
            raise ConfigError("iws_length_range must satisfy 0 < min <= max")
        if lo < WINDOW_SAMPLES:
            raise ConfigError(
                f"iws_length_range minimum {lo} < window size {WINDOW_SAMPLES}; "
                "the IWS could not host one full window"
            )
        if self.trial_length_samples < hi + 2 * WINDOW_SAMPLES:
            raise ConfigError(
                "trial_length_samples too small: iws_length_range must fit with "
                f">= {WINDOW_SAMPLES} ISS samples on each side"
            )
        f_lo, f_hi = self.carrier_band_hz
        if not (0 < f_lo <= f_hi < SAMPLING_RATE / 2):
            raise ConfigError("carrier_band_hz must lie inside (0, Nyquist)")
        # snr = 0 is allowed: it produces featureless control datasets.
        if self.snr < 0:
            raise ConfigError("snr must be >= 0")


# ---------------------------------------------------------------------------
# Trial file I/O.  Format: one JSON object per trial; numbers use full double
# precision (repr round-trip), so read(write(t)) is bit-for-bit equal.
# ---------------------------------------------------------------------------

_JSON_NUMBERS = frozenset((int, float))  # what json.load makes of a number; bool excluded


def write_trial_file(trial: Trial, path) -> None:
    trial.validate()
    head = {
        "subject_id": trial.subject_id,
        "sampling_rate": SAMPLING_RATE,
        "channels": _channel_names(),
        "onset_sample": int(trial.onset_sample),
        "ending_sample": int(trial.ending_sample),
    }
    # the bytes of json.dumps on the whole document with the samples added,
    # written WINDOW_SAMPLES rows per call to the C encoder: json.dump would
    # stream through the pure-Python encoder, one call would hold the whole
    # text at once, and one call per row costs ~25% more time
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-1] + ', "samples": [')
        for start in range(0, trial.n_samples, WINDOW_SAMPLES):
            rows = json.dumps(trial.samples[start:start + WINDOW_SAMPLES].tolist())
            fh.write((", " if start else "") + rows[1:-1])
        fh.write("]}")


def _require(doc, key, kind, where):
    """``doc[key]``, which must be exactly of JSON type ``kind`` (a bool is no int)."""
    if key not in doc:
        raise MalformedFile(f"{where}: missing field '{key}'")
    value = doc[key]
    if type(value) is not kind:
        raise MalformedFile(f"{where}: field '{key}' has wrong type {type(value).__name__}")
    return value


def read_trial_file(path) -> Trial:
    where = str(path)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also an integer past Python's digit limit
            raise MalformedFile(f"{where}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise MalformedFile(f"{where}: top-level value must be an object")
    subject_id = _require(doc, "subject_id", str, where)
    rate = _require(doc, "sampling_rate", int, where)
    if rate != SAMPLING_RATE:
        raise MalformedFile(f"{where}: field 'sampling_rate' must be {SAMPLING_RATE}, got {rate}")
    channels = _require(doc, "channels", list, where)
    if len(channels) != CHANNEL_COUNT:
        raise MalformedFile(f"{where}: field 'channels' must list {CHANNEL_COUNT} names")
    onset = _require(doc, "onset_sample", int, where)
    ending = _require(doc, "ending_sample", int, where)
    rows = _require(doc, "samples", list, where)
    if not rows:
        raise MalformedFile(f"{where}: field 'samples' is empty")
    for i, row in enumerate(rows):
        if (not isinstance(row, list) or len(row) != CHANNEL_COUNT
                or not _JSON_NUMBERS.issuperset(map(type, row))):
            raise MalformedFile(f"{where}: field 'samples[{i}]' must be a {CHANNEL_COUNT}-number row")
    try:
        samples = np.asarray(rows, dtype=np.float64)
    except OverflowError as exc:
        raise MalformedFile(f"{where}: field 'samples' holds an integer beyond double range") from exc
    try:
        return Trial(subject_id=subject_id, samples=samples, onset_sample=onset,
                     ending_sample=ending)
    except InvariantViolation as exc:  # JSON NaN/Infinity, bad markers, too short
        raise MalformedFile(f"{where}: {exc}") from exc


def trial_filename(subject_id, trial_index):
    return f"{subject_id}_{trial_index:03d}.json"


def write_dataset(datasets, out_dir) -> None:
    """Write each trial as <subject>_<index>.json plus a manifest.json index."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"schema_version": _SCHEMA_VERSION, "subjects": []}
    for ds in datasets:
        files = []
        for i, trial in enumerate(ds.trials):
            name = trial_filename(ds.subject_id, i)
            write_trial_file(trial, out_dir / name)
            files.append(name)
        manifest["subjects"].append(
            {"subject_id": ds.subject_id, "protocol_tag": ds.protocol_tag, "files": files}
        )
    tmp = out_dir / "manifest.json.tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2)
    os.replace(tmp, out_dir / "manifest.json")


def read_dataset(in_dir):
    """Load a dataset directory back into a list of SubjectDataset."""
    in_dir = Path(in_dir)
    manifest_path = in_dir / "manifest.json"
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # also an integer past Python's digit limit
            raise MalformedFile(f"{manifest_path}: not valid JSON ({exc})") from exc
    where = str(manifest_path)
    if not isinstance(manifest, dict):
        raise MalformedFile(f"{where}: top-level value must be an object")
    subjects = _require(manifest, "subjects", list, where)
    if not subjects:
        raise MalformedFile(f"{where}: field 'subjects' is empty")
    datasets = []
    for i, entry in enumerate(subjects):
        if not isinstance(entry, dict):
            raise MalformedFile(f"{where}: field 'subjects[{i}]' must be an object")
        sid = _require(entry, "subject_id", str, where)
        if any(ds.subject_id == sid for ds in datasets):
            raise MalformedFile(f"{where}: field 'subjects[{i}].subject_id' repeats {sid!r}")
        tag = entry.get("protocol_tag", "synthetic")
        if tag not in PROTOCOL_TAGS:
            raise MalformedFile(f"{where}: field 'subjects[{i}].protocol_tag' must be one of "
                                f"{', '.join(PROTOCOL_TAGS)}, got {tag!r}")
        files = _require(entry, "files", list, where)
        if not all(isinstance(name, str) for name in files):
            raise MalformedFile(f"{where}: field 'subjects[{i}].files' must list file names")
        for j, name in enumerate(files):
            # a plain name in this directory, as write_dataset writes them
            if name in ("", ".", "..") or "\0" in name or os.path.basename(name) != name:
                raise MalformedFile(
                    f"{where}: field 'subjects[{i}].files' entry {name!r} is not a plain file name")
            if name in files[:j]:
                raise MalformedFile(f"{where}: field 'subjects[{i}].files' lists {name!r} twice")
        if len(files) < MIN_TRIALS:
            raise MalformedFile(f"{where}: field 'subjects[{i}].files' lists {len(files)} "
                                f"trials < {MIN_TRIALS} (75/25 split needs at least 2 test trials)")
        trials = [read_trial_file(in_dir / name) for name in files]
        for name, trial in zip(files, trials):
            if trial.subject_id != sid:
                raise MalformedFile(
                    f"{where}: field 'subjects[{i}].subject_id' is {sid!r}, "
                    f"but {name} belongs to {trial.subject_id!r}")
        datasets.append(SubjectDataset(subject_id=sid, trials=trials, protocol_tag=tag))
    return datasets


# ---------------------------------------------------------------------------
# Synthetic generator: background noise with a band-limited oscillation added
# inside the IWS.  Fully deterministic for a given SynthConfig.
# ---------------------------------------------------------------------------

def _background(rng, n_samples):
    """White noise plus first-order low-passed noise, roughly unit variance."""
    white = rng.standard_normal((n_samples, CHANNEL_COUNT))
    driven = rng.standard_normal((n_samples, CHANNEL_COUNT))
    lowpassed = driven.copy()
    for t in range(1, n_samples):  # AR(1): y[t] = x[t] + 0.9 y[t-1]
        lowpassed[t] += 0.9 * lowpassed[t - 1]
    lowpassed = lowpassed / np.sqrt(1.0 / (1.0 - 0.9 ** 2))
    return 0.7 * white + 0.7 * lowpassed


def _generate_trial(rng, config, subject_id):
    n = config.trial_length_samples
    lo, hi = config.iws_length_range
    iws_len = int(rng.integers(lo, hi + 1))
    onset = int(rng.integers(WINDOW_SAMPLES, n - WINDOW_SAMPLES - iws_len + 1))
    ending = onset + iws_len

    samples = _background(rng, n)
    f_lo, f_hi = config.carrier_band_hz
    freq = rng.uniform(f_lo, f_hi)
    phases = rng.uniform(0.0, 2.0 * np.pi, CHANNEL_COUNT)
    if config.snr > 0:
        amp = config.snr * samples.std(axis=0)
        t = np.arange(onset, ending) / SAMPLING_RATE
        carrier = np.sin(2.0 * np.pi * freq * t[:, None] + phases[None, :])
        samples[onset:ending, :] += amp[None, :] * carrier

    return Trial(
        subject_id=subject_id,
        samples=samples,
        onset_sample=onset,
        ending_sample=ending,
    )


def generate_synthetic_dataset(config: SynthConfig):
    """Deterministically generate ``n_subjects`` SubjectDatasets from a seed."""
    config.validate()
    root = np.random.SeedSequence(config.seed)
    subject_seqs = root.spawn(config.n_subjects)
    datasets = []
    for s, seq in enumerate(subject_seqs):
        subject_id = f"s{s + 1:02d}"
        trial_seqs = seq.spawn(config.trials_per_subject)
        trials = [
            _generate_trial(np.random.default_rng(ts), config, subject_id)
            for ts in trial_seqs
        ]
        datasets.append(
            SubjectDataset(subject_id=subject_id, trials=trials, protocol_tag="synthetic")
        )
    log.info("generated %d subjects x %d trials (seed=%d)",
             config.n_subjects, config.trials_per_subject, config.seed)
    return datasets
