"""End-to-end experiment driver: segment, featurize, train, predict, smooth,
score, per subject and fold, with all randomness derived from one root seed."""

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import evaluate, features, learn, postprocess, preprocess
from .data import MIN_TRIALS, STEP_SAMPLES, WINDOW_SAMPLES, check_int, check_real
from .errors import ConfigError, SegmentTooShort
from .learn import CLASSIFIER_KINDS, ClassifierSpec

log = logging.getLogger(__name__)

_BASE_SETS = (1, 2, 3)


@dataclass(frozen=True)
class RunConfig:
    dataset_path: str
    feature_set_ids: tuple = (1,)
    classifiers: tuple = ("random_forest",)
    folds: int = 4
    train_ratio: float = 0.75
    step_samples: int = STEP_SAMPLES
    pca_target_ratio: float = 0.90
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.dataset_path, str):
            raise ConfigError(f"dataset_path must be a string, got {self.dataset_path!r}")
        for name in ("folds", "step_samples", "seed"):
            check_int(name, getattr(self, name))
        for name in ("train_ratio", "pca_target_ratio"):
            check_real(name, getattr(self, name))
        for i in self.feature_set_ids:
            check_int("feature_set_ids", i)
        object.__setattr__(self, "feature_set_ids", tuple(int(i) for i in self.feature_set_ids))
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        self.validate()

    def validate(self):
        bad = [i for i in self.feature_set_ids if i not in (1, 2, 3, 4, 5)]
        if bad or not self.feature_set_ids:
            raise ConfigError(f"feature_set_ids must be a non-empty subset of 1..5, got {bad or '[]'}")
        bad = [c for c in self.classifiers if c not in CLASSIFIER_KINDS]
        if bad or not self.classifiers:
            raise ConfigError(f"classifiers must be a non-empty subset of {CLASSIFIER_KINDS}")
        for name in ("feature_set_ids", "classifiers"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat an entry, got {list(values)}")
        if self.folds < 1:
            raise ConfigError("folds must be >= 1")
        if not (0.0 < self.train_ratio < 1.0):
            raise ConfigError("train_ratio must be in (0, 1)")
        # the 8-trial split is the tightest: a ratio leaving it >= 1 training
        # and >= 2 test trials does so for every larger subject
        n_train = int(MIN_TRIALS * self.train_ratio)
        if n_train < 1 or MIN_TRIALS - n_train < 2:
            raise ConfigError(
                f"train_ratio {self.train_ratio} splits a {MIN_TRIALS}-trial subject into "
                f"{n_train} training and {MIN_TRIALS - n_train} test trials; "
                "need >= 1 and >= 2")
        if not (1 <= self.step_samples <= WINDOW_SAMPLES):
            raise ConfigError(
                f"step_samples must be in [1, {WINDOW_SAMPLES}], got {self.step_samples}")
        if not (0.0 < self.pca_target_ratio <= 1.0):
            raise ConfigError("pca_target_ratio must be in (0, 1]")

    def needed_base_sets(self):
        need = set()
        for fs in self.feature_set_ids:
            need.update(_BASE_SETS if fs >= 4 else (fs,))
        return tuple(sorted(need))


def _stable_seed(*parts):
    """Deterministic 63-bit seed from a tuple of integers."""
    seq = np.random.SeedSequence(entropy=tuple(int(p) for p in parts))
    return int(seq.generate_state(1, dtype=np.uint64)[0] >> 1)


def _input_set(fs_id):
    """Feature set whose matrix feeds ``fs_id``: set 5 is the PCA of set 4."""
    return 4 if fs_id == 5 else fs_id


@dataclass(frozen=True)
class _TrialFeatures:
    """Feature matrices of one trial, keyed by input set (see ``_input_set``)."""

    train: dict  # training windows in segmentation order
    labels: np.ndarray  # one 0/1 label per training row
    test: dict  # continuous test windows in trial order


def _featurize_trial(trial, config):
    """Featurize every distinct window offset of a trial once.

    The training windows before the onset lie on the test grid, so both
    sides take their rows from one set of matrices.
    """
    train = preprocess.segment_training_trial(trial, config.step_samples)
    test = preprocess.segment_test_trial(trial, config.step_samples)
    offsets = sorted({inst.trial_offset for inst in (*train, *test)})
    row = {offset: i for i, offset in enumerate(offsets)}
    windows = np.stack([trial.samples[o:o + WINDOW_SAMPLES] for o in offsets])
    base = features.feature_matrices(windows, offsets, config.needed_base_sets())
    inputs = {_input_set(fs) for fs in config.feature_set_ids}
    if 4 in inputs:
        base[4] = features.concat_fs4(base[1], base[2], base[3])
    train_rows = [row[inst.trial_offset] for inst in train]
    test_rows = [row[inst.trial_offset] for inst in test]
    return _TrialFeatures(
        train={s: base[s][train_rows] for s in inputs},
        labels=np.array([inst.label for inst in train], dtype=np.int64),
        test={s: base[s][test_rows] for s in inputs},
    )


def run_subject(dataset, config: RunConfig, subject_index: int):
    """All folds, feature sets and classifiers for one subject.

    Returns {(feature_set_id, classifier): subject_result_block}.
    """
    t0 = time.perf_counter()
    trials = [preprocess.car_filter_trial(t) for t in dataset.trials]
    log.info("subject %s: CAR filter done (%.2fs)", dataset.subject_id, time.perf_counter() - t0)

    trial_features, usable = {}, []
    for idx, trial in enumerate(trials):
        try:
            trial_features[idx] = _featurize_trial(trial, config)
        except SegmentTooShort as exc:
            log.warning("subject %s trial %d rejected: %s", dataset.subject_id, idx, exc)
            continue
        usable.append(idx)
    log.info("subject %s: feature extraction done (%.2fs, %d/%d trials usable)",
             dataset.subject_id, time.perf_counter() - t0, len(usable), len(trials))

    plan = learn.make_fold_plan(len(usable), _stable_seed(config.seed, subject_index),
                                n_folds=config.folds, train_ratio=config.train_ratio)
    out = {
        (fs, clf): {"subject_id": dataset.subject_id, "fold_scores": [],
                    **({"pca_dims": []} if fs == 5 else {})}
        for fs in config.feature_set_ids for clf in config.classifiers
    }

    for fold_idx, (train_pos, test_pos) in enumerate(plan.folds):
        train_ids = [usable[i] for i in train_pos]
        test_ids = [usable[i] for i in test_pos]
        y_train = np.concatenate([trial_features[t].labels for t in train_ids])
        for fs in config.feature_set_ids:
            src = _input_set(fs)
            X_train = np.concatenate([trial_features[t].train[src] for t in train_ids])
            scaler = features.scaler_fit(X_train)
            X_train = features.scaler_transform(scaler, X_train)
            X_test = {t: features.scaler_transform(scaler, trial_features[t].test[src])
                      for t in test_ids}
            if fs == 5:
                pca = features.pca_fit(X_train, config.pca_target_ratio)
                X_train = features.pca_transform(pca, X_train)
                X_test = {t: features.pca_transform(pca, X) for t, X in X_test.items()}
            for clf_idx, clf in enumerate(config.classifiers):
                spec = ClassifierSpec(
                    kind=clf,
                    seed=_stable_seed(config.seed, subject_index, fold_idx, clf_idx, fs),
                )
                model = learn.train(spec, X_train, y_train)
                fold_scores = []
                for t in test_ids:
                    raw = learn.predict(model, X_test[t])
                    pred = postprocess.postprocess_trial(raw, trials[t], step=config.step_samples)
                    fold_scores.append(evaluate.score_trial(
                        pred.corrected_labels, pred.truth_labels, trial_id=t))
                out[(fs, clf)]["fold_scores"].append(fold_scores)
            if fs == 5:
                for clf in config.classifiers:
                    out[(fs, clf)]["pca_dims"].append(int(pca.components.shape[0]))
        log.info("subject %s: fold %d scored (%.2fs)",
                 dataset.subject_id, fold_idx, time.perf_counter() - t0)
    log.info("subject %s: done in %.2fs", dataset.subject_id, time.perf_counter() - t0)
    return out


def _run_subject_payload(payload):
    dataset, config, subject_index = payload
    return run_subject(dataset, config, subject_index)


def run_experiment(datasets, config: RunConfig, jobs: int = 1) -> dict:
    """Run every subject and assemble the report document.

    Per-(subject, fold, classifier) seeds derive deterministically from the
    root seed, so serial and parallel schedules produce identical reports.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    payloads = [(ds, config, i) for i, ds in enumerate(datasets)]
    jobs = min(jobs, len(payloads), os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            subject_outputs = list(pool.map(_run_subject_payload, payloads))
    else:
        subject_outputs = [_run_subject_payload(p) for p in payloads]

    merged = {}
    for out in subject_outputs:
        for key, block in out.items():
            merged.setdefault(key, []).append(block)
    config_echo = asdict(config)
    config_echo["feature_set_ids"] = list(config.feature_set_ids)
    config_echo["classifiers"] = list(config.classifiers)
    return evaluate.build_report(merged, config_echo, config.seed)
