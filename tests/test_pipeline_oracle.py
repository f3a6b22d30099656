"""End-to-end oracle: a slow ``run_subject`` built only from the per-window
API gives ``run_experiment``'s report byte for byte.

The reference cuts each trial into ``SignalInstance``s, featurizes every
instance on its own into one row per input set, z-scores the rows one at a
time and stacks them per fold side, and predicts and scores one test trial at
a time.  It has no window
grid, offsets, feature table or read union.  Since a window's feature rows
are the same bits in any stack, a mismatch in sets 1-4 is a plumbing bug.
"""

import dataclasses
import functools
import json
from typing import NamedTuple

import numpy as np
import pytest

from iws import evaluate, experiment, learn, postprocess, preprocess
from iws.data import (
    STEP_SAMPLES,
    WINDOW_SAMPLES,
    SignalInstance,
    SynthConfig,
    Trial,
    generate_synthetic_dataset,
)
from iws.errors import SegmentTooShort
from iws.experiment import RunConfig, _stable_seed
from iws.features import (
    assemble_fs4,
    extract_features,
    pca_apply,
    pca_fit,
    scaler_apply,
    scaler_fit,
)

SUBJECTS = {
    # the benchmark's headline subject
    "headline": (dict(n_subjects=1, trials_per_subject=8, trial_length_samples=224,
                      iws_length_range=(64, 96), snr=5.0),
                 (4, 5), ("random_forest", "logreg")),
    "sets_1_5": (dict(n_subjects=1, trials_per_subject=8, trial_length_samples=320,
                      iws_length_range=(64, 128), snr=2.0),
                 (1, 2, 3, 4, 5), ("random_forest", "knn", "logreg")),
}


class UsableTrial(NamedTuple):
    index: int  # in the subject's dataset
    trial: Trial  # CAR-filtered
    labels: list  # of the training instances
    train: dict  # {input set: [feature row per training instance]}
    test: dict  # {input set: [feature row per test instance]}


def cut_test_trial(trial):
    """Every window of a trial, one per 13-sample step, markers ignored."""
    return [SignalInstance(samples=trial.samples[s:s + WINDOW_SAMPLES], trial_offset=s)
            for s in range(0, trial.n_samples - WINDOW_SAMPLES + 1, STEP_SAMPLES)]


def vectors(instances, input_sets):
    """{input set: [feature row per instance]}; set 4 is assembled from 1-3."""
    base = {1, 2, 3} if 4 in input_sets else set(input_sets)
    out = {fs: [extract_features(inst, fs) for inst in instances] for fs in base}
    if 4 in input_sets:
        out[4] = [assemble_fs4(*v) for v in zip(out[1], out[2], out[3])]
    return out


@functools.cache
def featurized(name):
    """The dataset of subject ``name`` and its usable trials, featurized once
    for every run seed."""
    synth, feature_set_ids, _ = SUBJECTS[name]
    dataset = generate_synthetic_dataset(SynthConfig(seed=424242, **synth))[0]
    input_sets = {4 if fs == 5 else fs for fs in feature_set_ids}
    usable = []
    for index, raw in enumerate(dataset.trials):
        trial = preprocess.car_filter_trial(raw)
        try:
            train = preprocess.segment_training_trial(trial)
        except SegmentTooShort:
            continue
        usable.append(UsableTrial(index, trial, [inst.label for inst in train],
                                  vectors(train, input_sets),
                                  vectors(cut_test_trial(trial), input_sets)))
    return dataset, usable


def stacked(model, vecs):
    return np.stack([scaler_apply(model, v) for v in vecs])


def reference_run_subject(subject_id, usable, config, subject_index):
    folds = learn.make_fold_plan(len(usable), _stable_seed(config.seed, subject_index),
                                 n_folds=config.folds)
    out = {(fs, clf): {"subject_id": subject_id, "fold_scores": []}
           for fs in config.feature_set_ids for clf in config.classifiers}
    for fold_idx, (train_ids, test_ids) in enumerate(folds):
        y_train = [label for i in train_ids for label in usable[i].labels]
        for fs in config.feature_set_ids:
            input_set = 4 if fs == 5 else fs
            train = [v for i in train_ids for v in usable[i].train[input_set]]
            scaler = scaler_fit(train)
            X_train = stacked(scaler, train)
            X_tests = [stacked(scaler, usable[i].test[input_set]) for i in test_ids]
            if fs == 5:  # one projection per stacked fold side
                pca = pca_fit(X_train)
                X_train = pca_apply(pca, X_train)
                splits = np.cumsum([len(X) for X in X_tests])[:-1]
                X_tests = np.split(pca_apply(pca, np.concatenate(X_tests)), splits)
            for clf_idx, clf in enumerate(config.classifiers):
                seed = _stable_seed(config.seed, subject_index, fold_idx, clf_idx, fs)
                model = learn.train(learn.ClassifierSpec(kind=clf, seed=seed), X_train, y_train)
                scores = []
                for i, X_test in zip(test_ids, X_tests):
                    corrected, truth = postprocess.postprocess_trial(
                        learn.predict(model, X_test), usable[i].trial)
                    scores.append(evaluate.score_trial(corrected, truth,
                                                       trial_id=usable[i].index))
                out[(fs, clf)]["fold_scores"].append(scores)
                if fs == 5:
                    out[(fs, clf)].setdefault("pca_dims", []).append(
                        int(pca.components.shape[0]))
    return out


@pytest.mark.parametrize("seed", [99, 106])
@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_reference_run_subject_matches_run_experiment(name, seed):
    dataset, usable = featurized(name)
    _, feature_set_ids, classifiers = SUBJECTS[name]
    config = RunConfig(dataset_path="fixed", feature_set_ids=feature_set_ids,
                       classifiers=classifiers, seed=seed)
    blocks = reference_run_subject(dataset.subject_id, usable, config, 0)
    echo = dict(dataclasses.asdict(config), feature_set_ids=list(feature_set_ids),
                classifiers=list(classifiers))
    want = evaluate.build_report({key: [block] for key, block in blocks.items()}, echo, seed)
    got = experiment.run_experiment([dataset], config)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
