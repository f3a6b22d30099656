import dataclasses
import json
import os

import numpy as np
import pytest

from iws import decompose, experiment, features, preprocess
from iws.data import SynthConfig, generate_synthetic_dataset
from iws.errors import ConfigError
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

    def test_needed_base_sets(self):
        assert RunConfig(dataset_path="x", feature_set_ids=(1,)).needed_base_sets() == (1,)
        assert RunConfig(dataset_path="x", feature_set_ids=(5,)).needed_base_sets() == (1, 2, 3)
        assert RunConfig(dataset_path="x", feature_set_ids=(2, 4)).needed_base_sets() == (1, 2, 3)


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

            def map(self, fn, payloads):
                return [fn(p) for p in payloads]

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
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
        rc = RunConfig(dataset_path="mem", feature_set_ids=(1, 3, 4))
        computed = []
        engine = features.feature_matrices

        def recording(windows, offsets, sets, *args):
            computed.extend(offsets)
            return engine(windows, offsets, sets, *args)

        monkeypatch.setattr(features, "feature_matrices", recording)
        # FS2 per instance is slow; stand in for it with a cheap fixed matrix
        monkeypatch.setattr(features, "_fs2_rows",
                            lambda rows, *a: rows[:, :12].copy())
        tf = experiment._featurize_trial(trial, rc)

        train = preprocess.segment_training_trial(trial)
        test = preprocess.segment_test_trial(trial)
        shared = {i.trial_offset for i in train} & {i.trial_offset for i in test}
        assert shared  # the pre-onset windows
        assert sorted(computed) == sorted({i.trial_offset for i in (*train, *test)})
        assert set(tf.train) == set(tf.test) == {1, 3, 4}
        np.testing.assert_array_equal(tf.labels, [i.label for i in train])
        for matrix_set, instances in ((tf.train, train), (tf.test, test)):
            for fs in (1, 3):
                expected = np.stack([features.extract_features(i, fs).values
                                     for i in instances])
                np.testing.assert_allclose(matrix_set[fs], expected, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(matrix_set[4][:, :70], matrix_set[1])
            np.testing.assert_array_equal(matrix_set[4][:, 70 + 168:], matrix_set[3])

    def test_pipeline_builds_no_signal_instance(self, tiny_datasets, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the pipeline built a SignalInstance")

        monkeypatch.setattr(preprocess, "SignalInstance", forbidden)
        rc = RunConfig(dataset_path="mem", feature_set_ids=(1,), classifiers=("knn",), folds=1)
        out = experiment.run_subject(tiny_datasets[0], rc, 0)
        assert len(out[(1, "knn")]["fold_scores"]) == 1
