import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from iws import decompose, experiment, features, learn, preprocess
from iws.data import WINDOW_SAMPLES, SynthConfig, generate_synthetic_dataset
from iws.errors import ConfigError, DegenerateScaling, TooFewTrials
from iws.evaluate import write_report
from iws.experiment import RunConfig, run_experiment
from iws.learn import ClassifierSpec


@pytest.fixture(scope="module")
def tiny_datasets():
    cfg = SynthConfig(n_subjects=2, trials_per_subject=8, trial_length_samples=320,
                      iws_length_range=(96, 160), carrier_band_hz=(8, 12),
                      snr=5.0, seed=77)
    return generate_synthetic_dataset(cfg)


class TestRunConfig:
    def test_validation_names_fields(self):
        with pytest.raises(ConfigError, match="feature_set_ids"):
            RunConfig(dataset_path="x", feature_set_ids=(7,))
        with pytest.raises(ConfigError, match="classifiers"):
            RunConfig(dataset_path="x", classifiers=("svm",))

    def test_window_geometry_is_not_a_setting(self):
        # nor the split ratio, the classifier hyperparameters or the EMD/GHE rules
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "dataset_path", "feature_set_ids", "classifiers", "folds", "seed"]
        assert [f.name for f in dataclasses.fields(ClassifierSpec)] == ["kind", "seed"]
        assert not hasattr(decompose, "EmdParams")
        assert not hasattr(features, "GheParams")


class TestRunExperiment:
    def test_parallel_equals_serial(self, tiny_datasets, tmp_path):
        rc = RunConfig(dataset_path="mem", feature_set_ids=(1,),
                       classifiers=("random_forest",), folds=2, seed=5)
        serial = run_experiment(tiny_datasets, rc, jobs=1)
        parallel = run_experiment(tiny_datasets, rc, jobs=2)
        a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
        write_report(serial, a)
        write_report(parallel, b)
        assert a.read_bytes() == b.read_bytes()

    def test_multiple_classifiers_and_sets(self, tiny_datasets):
        rc = RunConfig(dataset_path="mem", feature_set_ids=(1, 3),
                       classifiers=("random_forest", "logreg"), folds=2, seed=5)
        report = run_experiment(tiny_datasets, rc)
        keys = {(b["feature_set_id"], b["classifier"]) for b in report["results"]}
        assert keys == {(1, "random_forest"), (1, "logreg"),
                        (3, "random_forest"), (3, "logreg")}

    def test_set_result_independent_of_the_sets_beside_it(self):
        cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=192,
                          iws_length_range=(64, 64), carrier_band_hz=(8, 12),
                          snr=5.0, seed=79)
        datasets = generate_synthetic_dataset(cfg)
        classifiers = ("random_forest", "knn", "logreg")

        def blocks(feature_set_ids):
            report = run_experiment(datasets, RunConfig(
                dataset_path="mem", feature_set_ids=feature_set_ids, classifiers=classifiers,
                folds=2, seed=5))
            return {(b["feature_set_id"], b["classifier"]): json.dumps(b, sort_keys=True)
                    for b in report["results"]}

        together = blocks((1, 2, 3, 4, 5))
        assert len(together) == 15
        for fs in (1, 2, 3, 4, 5):
            alone = blocks((fs,))
            assert alone == {(fs, clf): together[(fs, clf)] for clf in classifiers}

    def test_one_scaler_per_fold_and_input_set(self, monkeypatch):
        # the benchmark's headline: sets 4 and 5 share set 4's z-scored rows,
        # and each side of a fold is transformed and projected once
        cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=224,
                          iws_length_range=(64, 96), snr=5.0, seed=424242)
        ds = generate_synthetic_dataset(cfg)[0]
        rc = RunConfig(dataset_path="mem", feature_set_ids=(4, 5),
                       classifiers=("random_forest", "logreg"), seed=99)
        patched = ((features, "scaler_fit"), (features, "scaler_apply"),
                   (features, "pca_apply"), (learn, "predict"))
        calls = {name: [] for _, name in patched}
        for module, name in patched:
            def counted(*args, _fn=getattr(module, name), _seen=calls[name]):
                _seen.append(np.shape(args[-1])[0])  # rows of the matrix
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        experiment.run_subject(ds, rc, 0)
        assert {name: len(rows) for name, rows in calls.items()} == {
            "scaler_fit": 4, "scaler_apply": 8, "pca_apply": 8, "predict": 16}
        # every prediction reads one fold's whole test side
        trials = [preprocess.car_filter_trial(t) for t in ds.trials]
        test_rows = [preprocess.window_grid(t).test_offsets.size for t in trials]
        folds = learn.make_fold_plan(len(trials), experiment._stable_seed(rc.seed, 0))
        assert calls["predict"] == [sum(test_rows[i] for i in test) for _, test in folds
                                    for _ in range(4)]

    def test_rejected_trial_leaves_the_others_their_ids_and_scores(self, tiny_datasets, caplog):
        ds = tiny_datasets[0]
        short = dataclasses.replace(ds.trials[0], onset_sample=30)  # no window before the onset
        with_short = dataclasses.replace(ds, trials=[*ds.trials[:2], short, *ds.trials[2:]])
        rc = RunConfig(dataset_path="mem", feature_set_ids=(1, 5), classifiers=("knn",),
                       folds=2, seed=5)
        with caplog.at_level("WARNING", logger="iws.experiment"):
            got = experiment.run_subject(with_short, rc, 0)
        assert [r.getMessage().split(":")[0] for r in caplog.records
                if "rejected" in r.getMessage()] == [f"subject {ds.subject_id} trial 2 rejected"]
        want = experiment.run_subject(ds, rc, 0)
        ids = [0, 1, 3, 4, 5, 6, 7, 8]  # trial i of ``ds`` is trial ids[i] of ``with_short``
        for key in want:
            renumbered = [[dataclasses.replace(score, trial_id=ids[score.trial_id])
                           for score in fold] for fold in want[key]["fold_scores"]]
            assert got[key]["fold_scores"] == renumbered
            assert got[key].get("pca_dims") == want[key].get("pca_dims")

    def test_too_few_usable_trials_names_the_subject(self, tiny_datasets):
        # s01 keeps all 8 trials; s02 loses one and cannot be split 75/25
        first, second = tiny_datasets
        short = dataclasses.replace(second.trials[3], onset_sample=10)
        second = dataclasses.replace(second, trials=[*second.trials[:3], short,
                                                     *second.trials[4:]])
        rc = RunConfig(dataset_path="mem", feature_set_ids=(1,), classifiers=("knn",), folds=1)
        with pytest.raises(TooFewTrials, match=r"^subject s02: 7 trials < 8;"):
            run_experiment([first, second], rc)

    def test_fs5_records_pca_dims(self):
        # shortest legal trials keep the EMD-heavy feature-set-4 base cheap
        cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=192,
                          iws_length_range=(64, 64), carrier_band_hz=(8, 12),
                          snr=5.0, seed=78)
        datasets = generate_synthetic_dataset(cfg)
        rc = RunConfig(dataset_path="mem", feature_set_ids=(5,),
                       classifiers=("logreg",), folds=2, seed=5)
        report = run_experiment(datasets, rc)
        for sub in report["results"][0]["subjects"]:
            assert len(sub["pca_dims"]) == 2
            for dim in sub["pca_dims"]:
                assert 1 <= dim <= 266

    def test_fs5_random_forest_detects_imagined_words(self):
        # the paper's headline detector end to end; F1 over 11 recorded
        # (data seed, run seed) pairs of this geometry spans 0.733-0.831
        cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=224,
                          iws_length_range=(64, 96), carrier_band_hz=(8, 12),
                          snr=5.0, seed=424242)
        rc = RunConfig(dataset_path="mem", feature_set_ids=(5,),
                       classifiers=("random_forest",), seed=99)
        report = run_experiment(generate_synthetic_dataset(cfg), rc)
        (block,) = report["results"]
        assert (block["feature_set_id"], block["classifier"]) == (5, "random_forest")
        assert block["population"]["f1"]["mean"] >= 0.65

    def test_report_json_serializable_and_deterministic(self, tiny_datasets):
        rc = RunConfig(dataset_path="mem", feature_set_ids=(1,),
                       classifiers=("knn",), folds=2, seed=6)
        r1 = run_experiment(tiny_datasets, rc)
        r2 = run_experiment(tiny_datasets, rc)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_config_echo_in_report(self, tiny_datasets):
        rc = RunConfig(dataset_path="somewhere", feature_set_ids=(1,),
                       classifiers=("random_forest",), folds=2, seed=5)
        report = run_experiment(tiny_datasets, rc)
        assert report["config"]["dataset_path"] == "somewhere"
        assert report["config"]["feature_set_ids"] == [1]
        assert report["seed"] == 5


class TestJobs:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Worker counts of every pool run_experiment opens; starts no process."""
        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return list(map(fn, *iterables))

        # run_experiment imports the pool class only when it opens a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return opened

    RC = RunConfig(dataset_path="mem", feature_set_ids=(1,), classifiers=("knn",),
                   folds=1, seed=3)

    def test_clamped_to_subjects(self, tiny_datasets, pools, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        report = run_experiment(tiny_datasets, self.RC, jobs=1000)
        assert pools == [len(tiny_datasets)]
        assert report == run_experiment(tiny_datasets, self.RC, jobs=1)

    def test_clamped_to_cpus(self, tiny_datasets, pools, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        run_experiment(tiny_datasets, self.RC, jobs=2)
        assert pools == []  # one worker: runs in-process

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_below_one_rejected(self, tiny_datasets, pools, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            run_experiment(tiny_datasets, self.RC, jobs=jobs)
        assert pools == []


class TestTrialFeatures:
    def test_rows_match_per_instance_extraction(self, tiny_datasets, monkeypatch):
        trial = preprocess.car_filter_trial(tiny_datasets[0].trials[0])
        # FS2 per instance is slow; stand in for it with a cheap fixed matrix
        monkeypatch.setattr(features, "_fs2_values", lambda rows, *a: rows[:, :12].copy())
        grid = preprocess.window_grid(trial)
        computed = np.union1d(grid.train_offsets, grid.test_offsets)
        [base] = features.stack_matrices([(preprocess.window_stack(trial, computed), computed)],
                                         (1, 3, 4))

        train = preprocess.segment_training_trial(trial)
        test = preprocess.segment_test_trial(trial)
        shared = {i.trial_offset for i in train} & {i.trial_offset for i in test}
        assert shared  # the pre-onset windows
        assert list(computed) == sorted({i.trial_offset for i in (*train, *test)})
        assert grid.train_offsets.tolist() == [i.trial_offset for i in train]
        assert grid.test_offsets.tolist() == [i.trial_offset for i in test]
        assert set(base) == {1, 3, 4}
        np.testing.assert_array_equal(grid.labels, [i.label for i in train])
        for offsets, instances in ((grid.train_offsets, train), (grid.test_offsets, test)):
            matrix_set = {fs: matrix[np.searchsorted(computed, offsets)]
                          for fs, matrix in base.items()}
            for fs in (1, 3):
                expected = np.stack([features.extract_features(i, fs) for i in instances])
                assert matrix_set[fs].tobytes() == expected.tobytes()
            np.testing.assert_array_equal(matrix_set[4][:, :70], matrix_set[1])
            np.testing.assert_array_equal(matrix_set[4][:, 70 + 168:], matrix_set[3])

    def test_pipeline_builds_no_signal_instance(self, tiny_datasets, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the pipeline built a SignalInstance")

        monkeypatch.setattr(preprocess, "SignalInstance", forbidden)
        rc = RunConfig(dataset_path="mem", feature_set_ids=(1,), classifiers=("knn",), folds=1)
        out = experiment.run_subject(tiny_datasets[0], rc, 0)
        assert len(out[(1, "knn")]["fold_scores"]) == 1



class TestReadWindows:
    """The subject pass plans its folds first and featurizes only the windows
    some fold reads."""

    @staticmethod
    def read_offsets(trials, folds):
        """Oracle: per trial, the ascending offsets of its training windows if
        it trains in one of ``folds``, and of its test windows if it is
        tested in one."""
        out = []
        for i, trial in enumerate(trials):
            offsets = set()
            if any(i in train for train, _ in folds):
                offsets |= set(preprocess.window_grid(trial).train_offsets.tolist())
            if any(i in test for _, test in folds):
                offsets |= set(preprocess._starts(0, trial.n_samples))
            out.append(sorted(offsets))
        return out

    def test_featurized_rows_are_the_read_union_of_the_full_grid(self, monkeypatch):
        # the benchmark's headline subject: 19% of its windows go unread at
        # run seed 99 and 37% at 106
        cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=224,
                          iws_length_range=(64, 96), snr=5.0, seed=424242)
        ds = generate_synthetic_dataset(cfg)[0]
        trials = [preprocess.car_filter_trial(t) for t in ds.trials]
        grids = [preprocess.window_grid(t) for t in trials]
        every_offsets = [np.union1d(g.train_offsets, g.test_offsets) for g in grids]
        full = list(features.stack_matrices(
            [(preprocess.window_stack(t, o), o) for t, o in zip(trials, every_offsets)],
            (1, 2, 3, 4)))
        stack_matrices = features.stack_matrices
        fed, returned = [], []

        def recording(stacks, feature_set_ids):
            def tap():
                for windows, offsets in stacks:
                    fed.append([int(o) for o in offsets])
                    yield windows, offsets

            for matrices in stack_matrices(tap(), feature_set_ids):
                returned.append(matrices)
                yield matrices

        monkeypatch.setattr(features, "stack_matrices", recording)
        plans, unread = [], []
        for seed in (99, 106):
            fed.clear()
            returned.clear()
            rc = RunConfig(dataset_path="mem", feature_set_ids=(1, 2, 3, 4),
                           classifiers=("knn",), seed=seed)
            experiment.run_subject(ds, rc, 0)
            folds = learn.make_fold_plan(len(trials), experiment._stable_seed(seed, 0))
            want = self.read_offsets(trials, folds)
            assert fed == want
            assert len(returned) == len(trials)
            for all_offsets, offsets, got, every in zip(every_offsets, want, returned, full):
                rows = np.searchsorted(all_offsets, offsets)
                assert set(got) == {1, 2, 3, 4}
                for fs in (1, 2, 3, 4):
                    assert got[fs].tobytes() == every[fs][rows].tobytes()
            plans.append(folds)
            unread.append(sum(o.size for o in every_offsets) - sum(map(len, want)))
        assert plans[0] != plans[1]
        assert 0 < unread[0] < unread[1]

    def test_a_flat_window_no_fold_reads_leaves_the_run_going(self, tiny_datasets):
        # a zero-filled 64-sample gap gives GHE no lag to fit
        ds = tiny_datasets[0]
        rc = RunConfig(dataset_path="mem", feature_set_ids=(3,), classifiers=("knn",), seed=0)
        folds = learn.make_fold_plan(len(ds.trials), experiment._stable_seed(rc.seed, 0))
        tested = {i for _, test in folds for i in test}
        [idx] = sorted(set(range(len(ds.trials))) - tested)  # trains, but is never tested
        trial = ds.trials[idx]
        train_offsets = preprocess.window_grid(trial).train_offsets.tolist()
        offset = next(o for o in preprocess._starts(0, trial.n_samples) if o not in train_offsets)

        def with_gap(i):
            samples = ds.trials[i].samples.copy()
            samples[offset:offset + WINDOW_SAMPLES] = 0.0
            trials = list(ds.trials)
            trials[i] = dataclasses.replace(ds.trials[i], samples=samples)
            return dataclasses.replace(ds, trials=trials)

        out = experiment.run_subject(with_gap(idx), rc, 0)
        assert len(out[(3, "knn")]["fold_scores"]) == 4
        # the same gap in a tested trial, where the window is read, still aborts
        other = min(tested)
        with pytest.raises(DegenerateScaling,
                           match=f"trial {other}: channel 0, instance offset {offset}:"):
            experiment.run_subject(with_gap(other), rc, 0)


QUIET_RUN_SCRIPT = """
import logging
from iws.data import SynthConfig, generate_synthetic_dataset
from iws.experiment import RunConfig, run_experiment

logging.basicConfig(level=logging.DEBUG)  # logs go to stderr
datasets = generate_synthetic_dataset(SynthConfig(
    n_subjects=1, trials_per_subject=8, trial_length_samples=224, iws_length_range=(64, 96),
    seed=5))
report = run_experiment(datasets, RunConfig(
    dataset_path="unused", feature_set_ids=(1, 5), classifiers=("random_forest", "logreg"),
    folds=1, seed=3))
assert len(report["results"]) == 4
"""


def test_run_writes_nothing_to_stdout():
    # a benchmark driving run_experiment reads its own last stdout line as
    # the result, so the library prints nothing there, at exit included
    proc = subprocess.run([sys.executable, "-c", QUIET_RUN_SCRIPT], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
