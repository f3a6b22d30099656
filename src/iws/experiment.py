"""End-to-end experiment driver: segment, featurize, train, predict, smooth,
score, per subject and fold, with all randomness derived from one root seed."""

import logging
import os
import time
from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np

from . import evaluate, features, learn, postprocess, preprocess
from .data import check_int
from .errors import ConfigError, IwsError, SegmentTooShort, TooFewTrials
from .learn import CLASSIFIER_KINDS, ClassifierSpec

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    dataset_path: str
    feature_set_ids: tuple = (1,)
    classifiers: tuple = ("random_forest",)
    folds: int = 4
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.dataset_path, str):
            raise ConfigError(f"dataset_path must be a string, got {self.dataset_path!r}")
        for name in ("folds", "seed"):
            check_int(name, getattr(self, name))
        for name in ("feature_set_ids", "classifiers"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
        for i in self.feature_set_ids:
            check_int("feature_set_ids", i)
        object.__setattr__(self, "feature_set_ids", tuple(int(i) for i in self.feature_set_ids))
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _stable_seed(*parts):
    """Deterministic 63-bit seed from a tuple of integers."""
    seq = np.random.SeedSequence(entropy=tuple(int(p) for p in parts))
    return int(seq.generate_state(1, dtype=np.uint64)[0] >> 1)


def _input_set(fs_id):
    """Feature set whose matrix feeds ``fs_id``: set 5 is the PCA of set 4."""
    return 4 if fs_id == 5 else fs_id


def _read_offsets(grids, folds):
    """The offsets of each usable trial's windows that some fold of ``folds``
    reads, ascending: its training offsets if it trains in a fold, and its
    test offsets if it is tested in one."""
    trained = {i for train, _ in folds for i in train}
    tested = {i for _, test in folds for i in test}
    reads = []
    for i, grid in enumerate(grids):
        parts = [grid.train_offsets] if i in trained else []
        if i in tested:
            parts.append(grid.test_offsets)
        reads.append(np.unique(np.concatenate(parts)))
    return reads


def run_subject(dataset, config: RunConfig, subject_index: int):
    """All folds, feature sets and classifiers for one subject.

    Returns {(feature_set_id, classifier): subject_result_block}.
    """
    t0 = time.perf_counter()
    trials = [preprocess.car_filter_trial(t) for t in dataset.trials]
    log.info("subject %s: CAR filter done (%.2fs)", dataset.subject_id, time.perf_counter() - t0)

    def named(exc, where=""):  # same class, now naming the subject (and trial)
        return type(exc)(f"subject {dataset.subject_id}{where}: {exc}")

    usable, grids = [], []  # the trials with a window grid, and their grids
    for idx, trial in enumerate(trials):
        try:
            grids.append(preprocess.window_grid(trial))
            usable.append(idx)
        except SegmentTooShort as exc:
            log.warning("subject %s trial %d rejected: %s", dataset.subject_id, idx, exc)
    try:
        folds = learn.make_fold_plan(len(usable), _stable_seed(config.seed, subject_index),
                                     n_folds=config.folds)
    except TooFewTrials as exc:
        raise named(exc) from exc
    reads = _read_offsets(grids, folds)
    # one featurization pass over the windows some fold reads, reading each trial as it goes
    inputs = sorted({_input_set(fs) for fs in config.feature_set_ids})
    stacks = ((preprocess.window_stack(trials[t], read), read) for t, read in zip(usable, reads))
    per_trial = []
    try:
        for matrices in features.stack_matrices(stacks, inputs):
            per_trial.append(matrices)
    except IwsError as exc:
        raise named(exc, f" trial {usable[len(per_trial)]}") from exc
    log.info("subject %s: feature extraction done (%.2fs, %d/%d trials usable)",
             dataset.subject_id, time.perf_counter() - t0, len(usable), len(trials))

    # one table per input set: usable trial i's read windows are rows bounds[i]:bounds[i + 1]
    table = {s: np.concatenate([matrices[s] for matrices in per_trial]) for s in inputs}
    del per_trial  # joined, so each trial's matrices are held once
    bounds = np.cumsum([0] + [read.size for read in reads])

    def table_rows(i, offsets):  # table rows of usable trial i's windows at ``offsets``
        return bounds[i] + np.searchsorted(reads[i], offsets)

    out = {(fs, clf): {"subject_id": dataset.subject_id, "fold_scores": []}
           for fs in config.feature_set_ids for clf in config.classifiers}

    for fold_idx, (train_pos, test_pos) in enumerate(folds):
        train_rows = np.concatenate([table_rows(i, grids[i].train_offsets) for i in train_pos])
        test_rows = np.concatenate([table_rows(i, grids[i].test_offsets) for i in test_pos])
        splits = np.cumsum([grids[i].test_offsets.size for i in test_pos])[:-1]  # per test trial
        y_train = np.concatenate([grids[i].labels for i in train_pos])
        for s in inputs:  # one input set's z-scored rows at a time
            train = table[s][train_rows]
            scaler = features.scaler_fit(train)
            scaled = [features.scaler_apply(scaler, X) for X in (train, table[s][test_rows])]
            for fs in [f for f in config.feature_set_ids if _input_set(f) == s]:
                X_train, X_test = scaled
                if fs == 5:
                    pca = features.pca_fit(X_train)
                    X_train, X_test = (features.pca_apply(pca, X) for X in scaled)
                for clf_idx, clf in enumerate(config.classifiers):
                    spec = ClassifierSpec(
                        kind=clf,
                        seed=_stable_seed(config.seed, subject_index, fold_idx, clf_idx, fs),
                    )
                    model = learn.train(spec, X_train, y_train)
                    fold_scores = []
                    for i, raw in zip(test_pos, np.split(learn.predict(model, X_test), splits)):
                        corrected, truth = postprocess.postprocess_trial(raw, trials[usable[i]])
                        fold_scores.append(evaluate.score_trial(corrected, truth,
                                                                trial_id=usable[i]))
                    out[(fs, clf)]["fold_scores"].append(fold_scores)
                    if fs == 5:
                        out[(fs, clf)].setdefault("pca_dims", []).append(
                            int(pca.components.shape[0]))
        log.info("subject %s: fold %d scored (%.2fs)",
                 dataset.subject_id, fold_idx, time.perf_counter() - t0)
    log.info("subject %s: done in %.2fs", dataset.subject_id, time.perf_counter() - t0)
    return out


def run_experiment(datasets, config: RunConfig, jobs: int = 1) -> dict:
    """Run every subject and assemble the report document.

    Per-(subject, fold, classifier) seeds derive deterministically from the
    root seed, so serial and parallel schedules produce identical reports.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, len(datasets), os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when needed

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            subject_outputs = list(pool.map(run_subject, datasets, repeat(config),
                                            range(len(datasets))))
    else:
        subject_outputs = [run_subject(ds, config, i) for i, ds in enumerate(datasets)]

    merged = {}
    for out in subject_outputs:
        for key, block in out.items():
            merged.setdefault(key, []).append(block)
    config_echo = asdict(config)
    config_echo["feature_set_ids"] = list(config.feature_set_ids)
    config_echo["classifiers"] = list(config.classifiers)
    return evaluate.build_report(merged, config_echo, config.seed)
