import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iws import cli, data, postprocess
from iws.data import SynthConfig
from iws import errors
from iws.errors import ConfigError, IwsError, NumericalFailure
from iws.experiment import RunConfig

SYNTH_CFG = {
    "n_subjects": 2,
    "trials_per_subject": 8,
    "trial_length_samples": 320,
    "iws_length_range": [96, 160],
    "carrier_band_hz": [8, 12],
    "snr": 5.0,
    "seed": 21,
}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "iws.cli", *args],
                          capture_output=True, text=True)


def assert_config_error(proc, field):
    """Exit 2 with one ``error:`` line naming ``field`` and no traceback."""
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and field in errors[0]
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "synth.json"
    cfg_path.write_text(json.dumps(SYNTH_CFG))
    out = root / "ds"
    proc = run_cli("generate", "--config", str(cfg_path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


class TestGenerate:
    def test_writes_expected_files(self, dataset_dir):
        files = sorted(p.name for p in dataset_dir.glob("*.json"))
        assert "manifest.json" in files
        assert len([f for f in files if f != "manifest.json"]) == 16

    def test_negative_snr_exits_2_naming_field(self, tmp_path):
        bad = dict(SYNTH_CFG, snr=-2.0)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        proc = run_cli("generate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "snr" in proc.stderr

    def test_unknown_field_exits_2(self, tmp_path):
        bad = dict(SYNTH_CFG, wavelength=3)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        proc = run_cli("generate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "wavelength" in proc.stderr

    @pytest.mark.parametrize("field,value", [
        ("n_subjects", 1.5), ("trials_per_subject", 8.0), ("trial_length_samples", 320.0),
        ("seed", 1.5), ("seed", True), ("iws_length_range", ["a", 64]),
        ("snr", float("nan")), ("snr", float("inf")), ("snr", True), ("snr", "5"),
    ])
    def test_non_integer_field_exits_2(self, tmp_path, field, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(SYNTH_CFG, **{field: value})))
        proc = run_cli("generate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert field in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("field,value", [
        ("carrier_band_hz", ["a", 12]), ("carrier_band_hz", [True, 12]),
        ("carrier_band_hz", [8]), ("carrier_band_hz", "8-12"),
        ("iws_length_range", [96, 160, 200]), ("iws_length_range", 96),
    ])
    def test_malformed_pair_field_exits_2(self, tmp_path, field, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(SYNTH_CFG, **{field: value})))
        proc = run_cli("generate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert field in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "x").exists()

    def test_negative_seed_exits_2_naming_field(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(SYNTH_CFG, seed=-1)))
        proc = run_cli("generate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert_config_error(proc, "seed")
        assert not (tmp_path / "x").exists()

    def test_rerun_identical_content(self, dataset_dir, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(SYNTH_CFG))
        out2 = tmp_path / "ds2"
        proc = run_cli("generate", "--config", str(cfg), "--out", str(out2))
        assert proc.returncode == 0
        for p in sorted(dataset_dir.glob("*.json")):
            assert (out2 / p.name).read_bytes() == p.read_bytes(), p.name


class TestRun:
    def run_config(self, dataset_dir, seed=5):
        return {
            "dataset_path": str(dataset_dir),
            "feature_set_ids": [1],
            "classifiers": ["random_forest"],
            "folds": 2,
            "seed": seed,
        }

    def test_report_written_with_sane_scores(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.run_config(dataset_dir)))
        out = tmp_path / "report.json"
        proc = run_cli("run", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert len(report["results"]) == 1
        block = report["results"][0]
        assert len(block["subjects"]) == 2
        for sub in block["subjects"]:
            for fold in sub["folds"]:
                for t in fold["trial_scores"]:
                    for metric in ("precision", "recall", "f1"):
                        assert 0.0 <= t[metric] <= 1.0
        assert out.with_suffix(".csv").exists()
        assert "mean F1" in proc.stdout

    def test_deterministic_reports(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.run_config(dataset_dir)))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli("run", "--config", str(cfg), "--out", str(out1)).returncode == 0
        assert run_cli("run", "--config", str(cfg), "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_feature_set_exits_2(self, dataset_dir, tmp_path):
        doc = self.run_config(dataset_dir)
        doc["feature_set_ids"] = [9]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2
        assert "feature_set_ids" in proc.stderr

    @pytest.mark.parametrize("field,value", [
        ("window_samples", 32), ("window_samples", 64), ("step_samples", 80),
        ("step_samples", 13.0), ("folds", 1.5), ("seed", 1.5), ("train_ratio", 0.1),
        ("feature_set_ids", ["x"]), ("feature_set_ids", [1.7]), ("dataset_path", 5),
        ("feature_set_ids", [1, 1]), ("classifiers", ["logreg", "logreg"]),
        ("pca_target_ratio", True), ("pca_target_ratio", float("nan")),
        ("train_ratio", "0.75"), ("train_ratio", float("inf")),
        ("step_samples", 13), ("pca_target_ratio", 0.9),
        # its own id: the default one would repeat that of ("train_ratio", "0.75")
        pytest.param("train_ratio", 0.75, id="train_ratio-number-0.75"),
    ])
    def test_unrunnable_geometry_exits_2(self, dataset_dir, tmp_path, field, value):
        doc = dict(self.run_config(dataset_dir), **{field: value})
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2
        assert field in proc.stderr and "Traceback" not in proc.stderr

    def test_negative_seed_exits_2_naming_field(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.run_config(dataset_dir, seed=-1)))
        out = tmp_path / "r.json"
        proc = run_cli("run", "--config", str(cfg), "--out", str(out))
        assert_config_error(proc, "seed")
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("feature_set_ids", None), ("classifiers", None), ("feature_set_ids", 5),
        ("classifiers", "knn"),  # not read as ("k", "n", "n")
    ])
    def test_list_field_of_another_type_exits_2_naming_it(self, dataset_dir, tmp_path,
                                                          field, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict(self.run_config(dataset_dir), **{field: value})))
        out = tmp_path / "r.json"
        proc = run_cli("run", "--config", str(cfg), "--out", str(out))
        assert_config_error(proc, f"{field} must be a list")
        assert not out.exists()

    def test_other_sampling_rate_exits_3(self, dataset_dir, tmp_path):
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        trial = ds / "s01_000.json"
        doc = json.loads(trial.read_text())
        doc["sampling_rate"] = 256
        trial.write_text(json.dumps(doc))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.run_config(ds)))
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 3
        assert "sampling_rate" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("feature_set", [2, 3])
    def test_feature_error_names_the_trial(self, dataset_dir, tmp_path, feature_set):
        # an all-zero trial leaves GHE no lag to fit: still exit 4, now
        # naming the subject and trial as well as the channel and offset
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        trial = ds / "s01_003.json"
        doc = json.loads(trial.read_text())
        doc["samples"] = [[0.0] * 14 for _ in doc["samples"]]
        trial.write_text(json.dumps(doc))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict(self.run_config(ds), feature_set_ids=[feature_set])))
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 4
        assert "subject s01 trial 3: channel 0, instance offset 0:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_too_few_usable_trials_exits_3_naming_the_subject(self, dataset_dir, tmp_path):
        # no window fits before the onset, so s02 is left 7 of its 8 trials
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        trial = ds / "s02_003.json"
        doc = json.loads(trial.read_text())
        doc["onset_sample"] = 10
        trial.write_text(json.dumps(doc))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.run_config(ds)))
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 3
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert errors == ["error: subject s02: 7 trials < 8; "
                          "cannot split 75/25 with >= 2 test trials"]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case,check", [
        ("nan", "non-finite"), ("infinity", "non-finite"), ("markers", "markers"),
        ("short", "minimum"),
    ])
    def test_invalid_trial_file_exits_3_naming_it(self, dataset_dir, tmp_path, case, check):
        # json.load accepts NaN and Infinity; Trial rejects them, and bad
        # markers or a short trial, naming only the subject
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        trial = ds / "s01_002.json"
        doc = json.loads(trial.read_text())
        if case in ("nan", "infinity"):
            doc["samples"][3][2] = float(case)
        elif case == "markers":
            doc["onset_sample"], doc["ending_sample"] = 200, 150
        else:
            doc["samples"] = doc["samples"][:150]
        trial.write_text(json.dumps(doc))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.run_config(ds)))
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 3
        assert str(trial) in proc.stderr and check in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_manifest_exits_3(self, dataset_dir, tmp_path):
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["subjects"][0]["files"] = [5]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.run_config(ds)))
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 3
        assert "manifest.json" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case,field", [
        ("no-subjects", "subjects"), ("unknown-tag", "subjects[0].protocol_tag"),
        ("list-tag", "subjects[0].protocol_tag"), ("seven-files", "subjects[0].files"),
        ("repeated-file", "subjects[0].files"), ("absolute-path", "subjects[0].files"),
        ("missing-file", "subjects[0].files"),
    ], ids=["no-subjects", "unknown-tag", "list-tag", "seven-files", "repeated-file",
            "absolute-path", "missing-file"])
    def test_manifest_entry_error_exits_3_naming_it(self, dataset_dir, tmp_path, case, field):
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        path = ds / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = manifest["subjects"][0]
        files = entry["files"]
        if case == "no-subjects":
            manifest["subjects"] = []
        elif case == "unknown-tag":
            entry["protocol_tag"] = "dataset9"
        elif case == "list-tag":
            entry["protocol_tag"] = ["x"]
        elif case == "seven-files":
            del files[7]
        elif case == "repeated-file":
            # ran to exit 0, training and testing on the same recording
            entry["files"] = [files[0]] * 8 + [files[1]]
        elif case == "missing-file":
            (ds / files[4]).unlink()
        else:
            shutil.move(ds / files[1], tmp_path / "outside.json")
            files[1] = str(tmp_path / "outside.json")
        path.write_text(json.dumps(manifest))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.run_config(ds)))
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 3
        assert f"error: {path}: field '{field}'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["run", "score"])
    @pytest.mark.parametrize("subject_id", ["s01", "s03"])
    def test_manifest_subject_id_conflict_exits_3(self, dataset_dir, tmp_path, command,
                                                  subject_id):
        # "s01" repeats the first entry's id and "s03" disagrees with the trial
        # files; both used to load, and ``score`` let the later subject win
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["subjects"][1]["subject_id"] = subject_id
        (ds / "manifest.json").write_text(json.dumps(manifest))
        if command == "run":
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(self.run_config(ds)))
            args = ("--config", str(cfg), "--out", str(tmp_path / "r.json"))
        else:
            # a non-empty list: an empty one is refused before the dataset is read
            entry = {"subject_id": "s01", "trial_index": 0, "bins": [0]}
            pred = tmp_path / "pred.json"
            pred.write_text(json.dumps({"trials": [entry]}))
            args = ("--pred", str(pred), "--dataset", str(ds))
        proc = run_cli(command, *args)
        assert proc.returncode == 3
        assert "manifest.json" in proc.stderr and "subjects[1].subject_id" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["generate", "run", "score"])
    @pytest.mark.parametrize("content,message", [
        # past Python's 4300-digit integer limit
        (b'{"seed": ' + b"9" * 5000 + b"}", "not valid JSON"),
        # UTF-16, not UTF-8
        (b"\xff\xfe" + b'{"seed": 1}'.decode().encode("utf-16-le"), "not valid JSON"),
        (None, "file not found"),  # no document at all
        (b"[1]", "must be an? (JSON )?object"),  # a document that is no object
    ], ids=["long-integer", "utf16-bytes", "missing-file", "json-array"])
    def test_undecodable_json_exits_2(self, dataset_dir, tmp_path, command, content, message):
        doc = tmp_path / "doc.json"
        if content is not None:
            doc.write_bytes(content)
        if command == "generate":
            args = ("--config", str(doc), "--out", str(tmp_path / "ds"))
        elif command == "run":
            args = ("--config", str(doc), "--out", str(tmp_path / "r.json"))
        else:
            args = ("--pred", str(doc), "--dataset", str(dataset_dir))
        proc = run_cli(command, *args)
        assert proc.returncode == 2
        assert re.search(message, proc.stderr) and "Traceback" not in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == (["doc.json"] if content else [])

    def test_zero_jobs_exits_2(self, dataset_dir, tmp_path):
        # refused before the config's dataset is read, so also when it is missing
        for dataset in (dataset_dir, tmp_path / "nowhere"):
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(self.run_config(dataset)))
            proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"),
                           "--jobs", "0")
            assert_config_error(proc, "jobs must be >= 1, got 0")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_csv_report_path_exits_2_and_writes_nothing(self, dataset_dir, tmp_path):
        # the CSV summary goes to the report path with a .csv suffix: here, the report itself
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.run_config(dataset_dir)))
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert_config_error(proc, "--out")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize("out", ["missing/r.json", "existing"],
                             ids=["missing-parent", "directory"])
    def test_unwritable_report_path_exits_2_and_writes_nothing(self, dataset_dir, tmp_path,
                                                                out):
        # refused before the dataset is read, not after the whole run
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.run_config(dataset_dir)))
        (tmp_path / "existing").mkdir()
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / out))
        assert_config_error(proc, "--out")
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
            "existing", "run.json"]

    def test_missing_dataset_exits_3(self, tmp_path):
        doc = self.run_config(tmp_path / "nowhere")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 3


class TestScore:
    def make_predictions(self, dataset_dir, perfect=True):
        from iws.data import read_dataset
        from iws.postprocess import truth_bins

        entries = []
        for ds in read_dataset(dataset_dir):
            for i, trial in enumerate(ds.trials):
                bins = truth_bins(trial)
                if not perfect:
                    bins = [0] * len(bins)
                entries.append({"subject_id": ds.subject_id, "trial_index": i,
                                "bins": bins})
        return {"trials": entries}

    def test_perfect_predictions_score_one(self, dataset_dir, tmp_path):
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(self.make_predictions(dataset_dir)))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == 0, proc.stderr
        assert "aggregate: P=1.0000 R=1.0000 F1=1.0000" in proc.stdout

    def test_all_zero_predictions_score_zero(self, dataset_dir, tmp_path):
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(self.make_predictions(dataset_dir, perfect=False)))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == 0
        assert "F1=0.0000" in proc.stdout

    def test_hand_counted_vector_prints_06(self, dataset_dir, tmp_path, monkeypatch):
        # exercise the same 0.6/0.6/0.6 oracle as score_trial via the CLI
        from iws.data import read_dataset

        ds = read_dataset(dataset_dir)[0]
        trial = ds.trials[0]
        from iws.postprocess import truth_bins

        truth = truth_bins(trial)
        ones = [b for b, v in enumerate(truth) if v == 1]
        # shift the predicted cluster so TP/FP/FN give 0.6 exactly: move 40%
        k = len(ones)
        shift = max(1, int(round(0.4 * k)))
        pred_bins = [0] * len(truth)
        for b in ones:
            pred_bins[b - shift] = 1
        tp = sum(1 for a, c in zip(pred_bins, truth) if a == c == 1)
        expected = tp / k
        doc = {"trials": [{"subject_id": ds.subject_id, "trial_index": 0,
                           "bins": pred_bins}]}
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(doc))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == 0
        assert f"F1={expected:.4f}" in proc.stdout

    def test_length_mismatch_exits_3(self, dataset_dir, tmp_path):
        doc = self.make_predictions(dataset_dir)
        doc["trials"][0]["bins"] = doc["trials"][0]["bins"][:-2]
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(doc))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == 3
        assert "error: predictions trials[0]: pred length" in proc.stderr

    @pytest.mark.parametrize("bad", [2, 0.7, 1.0, True, "1", None])
    def test_non_binary_bins_exit_2(self, dataset_dir, tmp_path, bad):
        doc = self.make_predictions(dataset_dir)
        doc["trials"][1]["bins"] = [bad] * len(doc["trials"][1]["bins"])
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(doc))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == 2
        assert "trials[1]" in proc.stderr and "bins" in proc.stderr

    @pytest.mark.parametrize("field,value", [
        ("trial_index", 1.5), ("trial_index", "1"), ("trial_index", True), ("subject_id", 1),
    ])
    def test_mistyped_entry_field_exits_2(self, dataset_dir, tmp_path, field, value):
        doc = self.make_predictions(dataset_dir)
        doc["trials"][1][field] = value
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(doc))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == 2
        assert "trials[1]" in proc.stderr and field in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("field,value", [
        ("samples", "abc"), ("samples", [1.0, 2.0]), ("samples", "1.5"), ("samples", True),
        ("onset_sample", True),
    ])
    def test_non_number_in_trial_file_exits_3(self, dataset_dir, tmp_path, field, value):
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(self.make_predictions(dataset_dir)))
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        trial = ds / "s01_000.json"
        doc = json.loads(trial.read_text())
        if field == "samples":
            doc["samples"][3][2] = value
        else:
            doc[field] = value
        trial.write_text(json.dumps(doc))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(ds))
        assert proc.returncode == 3
        assert "s01_000.json" in proc.stderr and field in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_empty_trials_exits_2(self, dataset_dir, tmp_path):
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"trials": []}))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == 2
        assert "trials" in proc.stderr and "Traceback" not in proc.stderr
        # the predictions file is checked before the dataset is read
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(tmp_path / "nowhere"))
        assert proc.returncode == 2
        assert proc.stderr == "error: predictions 'trials' list is empty\n"

    def test_repeated_trial_exits_2(self, dataset_dir, tmp_path):
        doc = self.make_predictions(dataset_dir)
        doc["trials"].append(dict(doc["trials"][1]))
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(doc))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == 2
        assert f"trials[{len(doc['trials']) - 1}]" in proc.stderr
        assert "aggregate" not in proc.stdout and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("bad,code", [
        ("repeat", 2), ("unknown subject", 3), ("trial index out of range", 3),
    ])
    def test_bad_last_entry_prints_no_score(self, dataset_dir, tmp_path, bad, code):
        doc = self.make_predictions(dataset_dir)
        last = dict(doc["trials"][0])
        if bad == "unknown subject":
            last["subject_id"] = "s99"
        elif bad == "trial index out of range":
            last["trial_index"] = 8
        doc["trials"].append(last)
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(doc))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == code
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert f"error: predictions trials[{len(doc['trials']) - 1}]: " in proc.stderr

    @pytest.mark.parametrize("trials", [5, [5]])
    def test_trials_not_a_list_of_objects_exits_2(self, dataset_dir, tmp_path, trials):
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"trials": trials}))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == 2
        assert "trials" in proc.stderr and "Traceback" not in proc.stderr


def _error_classes(cls=IwsError):
    return [cls] + [sub for child in cls.__subclasses__() for sub in _error_classes(child)]


class TestExitCodes:
    @pytest.mark.parametrize("cls", _error_classes() + [OSError], ids=lambda cls: cls.__name__)
    def test_exit_code_follows_the_error_family(self, cls, monkeypatch, capsys):
        assert cls is OSError or getattr(errors, cls.__name__) is cls

        def score(args):
            raise cls(f"stub {cls.__name__}")

        monkeypatch.setattr(cli, "cmd_score", score)
        code = cli.main(["score", "--pred", "p.json", "--dataset", "ds"])
        if issubclass(cls, ConfigError):
            assert code == 2
        elif issubclass(cls, NumericalFailure):
            assert code == 4
        else:
            assert code == 3
        assert capsys.readouterr().err == f"error: stub {cls.__name__}\n"


NUMPY_ONLY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from iws.cli import main

out = sys.argv[1]
synth = dict(n_subjects=1, trials_per_subject=8, trial_length_samples=320,
             iws_length_range=[96, 160], seed=3)
run = dict(dataset_path=out + "/ds", feature_set_ids=[1], classifiers=["knn"], folds=1)
for name, doc in (("synth", synth), ("run", run)):
    with open(f"{out}/{name}.json", "w") as fh:
        json.dump(doc, fh)
assert main(["generate", "--config", out + "/synth.json", "--out", out + "/ds"]) == 0
assert main(["run", "--config", out + "/run.json", "--out", out + "/report.json"]) == 0
"""


class TestNumpyOnlyRuntime:
    def test_pipeline_runs_without_scipy(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_SCRIPT, str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert [b["classifier"] for b in report["results"]] == ["knn"]

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, iws, iws.cli; print([m for m in sys.modules if m.startswith('scipy')])"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_process_pool(self):
        # the pool is imported only by a run with jobs > 1
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, iws, iws.cli; print('concurrent.futures.process' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestFileEncoding:
    """Every file the CLI reads or writes is UTF-8, whatever the locale."""

    def test_run_under_an_ascii_locale(self, dataset_dir, tmp_path):
        # subject s01 renamed to the raw UTF-8 id "sé" in the manifest and its
        # trial files, which keep their ASCII names
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        for path in ds.glob("*.json"):
            path.write_bytes(path.read_bytes().replace(
                b'"subject_id": "s01"', '"subject_id": "sé"'.encode("utf-8")))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dataset_path": str(ds), "feature_set_ids": [1],
                                   "classifiers": ["logreg"], "folds": 1}))
        out = tmp_path / "r.json"
        # a C locale that keeps ASCII: neither locale coercion (PEP 538) nor UTF-8 mode (PEP 540)
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        proc = subprocess.run(
            [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
            capture_output=True, text=True, env=env)
        assert proc.stdout.strip() in ("ANSI_X3.4-1968", "US-ASCII", "ascii"), proc.stdout
        proc = subprocess.run([sys.executable, "-m", "iws.cli", "run", "--config", str(cfg),
                               "--out", str(out)], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert [b["subject_id"] for b in json.loads(out.read_text())["results"][0]["subjects"]] \
            == ["sé", "s02"]
        assert ",sé," in out.with_suffix(".csv").read_bytes().decode("utf-8")

    def test_no_file_opened_in_the_locale_encoding(self, tmp_path):
        # PEP 597: each open() that names no encoding warns, here as an error
        def run(*args):
            return subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-m", "iws.cli", *args], capture_output=True, text=True)

        synth, cfg, pred, ds = (tmp_path / name for name in ("synth.json", "run.json",
                                                              "pred.json", "ds"))
        synth.write_text(json.dumps({"n_subjects": 1, "trials_per_subject": 8,
                                     "trial_length_samples": 224, "iws_length_range": [64, 96],
                                     "seed": 1}))
        cfg.write_text(json.dumps({"dataset_path": str(ds), "feature_set_ids": [1],
                                   "classifiers": ["logreg"], "folds": 1}))
        proc = run("generate", "--config", str(synth), "--out", str(ds))
        assert proc.returncode == 0, proc.stderr
        proc = run("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 0, proc.stderr
        trials = [{"subject_id": d.subject_id, "trial_index": i,
                   "bins": postprocess.truth_bins(t)}
                  for d in data.read_dataset(ds) for i, t in enumerate(d.trials)]
        pred.write_text(json.dumps({"trials": trials}))
        proc = run("score", "--pred", str(pred), "--dataset", str(ds))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].endswith("F1=1.0000")

    def test_score_escapes_what_stdout_cannot_encode(self, dataset_dir, tmp_path):
        ds, pred = tmp_path / "ds", tmp_path / "pred.json"
        shutil.copytree(dataset_dir, ds)
        for path in ds.glob("*.json"):
            path.write_bytes(path.read_bytes().replace(
                b'"subject_id": "s01"', '"subject_id": "sé"'.encode("utf-8")))
        trials = [{"subject_id": d.subject_id, "trial_index": i,
                   "bins": postprocess.truth_bins(t)}
                  for d in data.read_dataset(ds) for i, t in enumerate(d.trials)]
        pred.write_text(json.dumps({"trials": trials}))
        proc = subprocess.run([sys.executable, "-m", "iws.cli", "score", "--pred", str(pred),
                               "--dataset", str(ds)], capture_output=True,
                              env=dict(os.environ, PYTHONIOENCODING="ascii"))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.decode("ascii").splitlines()
        assert lines[0].startswith("s\\xe9 trial 0: P=1.0000 ")
        assert lines[-1].endswith("F1=1.0000")

    def test_file_names_are_utf8_under_an_ascii_locale(self, tmp_path):
        # a subject "sé" written under UTF-8 mode names its trial files in
        # UTF-8 bytes; under an ASCII filesystem encoding they are the same
        # names, read and written
        ascii_env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        utf8_env = dict(os.environ, PYTHONUTF8="1")
        write = ("import dataclasses, sys; from iws import data; "
                 "cfg = data.SynthConfig(n_subjects=1, trials_per_subject=8, "
                 "trial_length_samples=224, iws_length_range=(64, 96), seed=1); "
                 "[ds] = data.generate_synthetic_dataset(cfg); "
                 "trials = [dataclasses.replace(t, subject_id='s\\xe9') for t in ds.trials]; "
                 "data.write_dataset([data.SubjectDataset('s\\xe9', trials)], sys.argv[1]); "
                 "print(sys.getfilesystemencoding())")
        written = {}
        for name, env, encoding in (("utf8", utf8_env, "utf-8"), ("ascii", ascii_env, "ascii")):
            proc = subprocess.run([sys.executable, "-c", write, str(tmp_path / name)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == encoding
            folder = os.fsencode(tmp_path / name)
            written[name] = {f: Path(os.fsdecode(os.path.join(folder, f))).read_bytes()
                             for f in os.listdir(folder)}
        assert written["ascii"] == written["utf8"]
        assert "sé_000.json".encode("utf-8") in written["utf8"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dataset_path": str(tmp_path / "utf8"),
                                   "feature_set_ids": [1], "classifiers": ["logreg"],
                                   "folds": 1}))
        for name, env in (("utf8", utf8_env), ("ascii", ascii_env)):
            proc = subprocess.run([sys.executable, "-m", "iws.cli", "run", "--config", str(cfg),
                                   "--out", str(tmp_path / f"{name}-report.json")],
                                  capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
        for suffix in (".json", ".csv"):
            assert ((tmp_path / f"ascii-report{suffix}").read_bytes()
                    == (tmp_path / f"utf8-report{suffix}").read_bytes())


RUN_DOC = {"dataset_path": "ds", "feature_set_ids": [1, 5],
           "classifiers": ["random_forest", "logreg"], "folds": 4, "seed": 0}
MISSING = object()  # drops the field from the document


def odd_values():
    """Integers (negative, 0, 2**64) half of the time; otherwise floats, bools,
    strings, null or lists."""
    return st.one_of(
        st.sampled_from([-1, -(2**64), 0, 1, 2**64, 2**64 - 1]),
        st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none(),
                  st.lists(st.one_of(st.integers(-2, 6), st.sampled_from(["knn", "logreg"])),
                           max_size=3)),
    )


def documents(valid):
    """``valid`` with one or two fields replaced by odd values or dropped, or
    one extra field."""
    names = [*valid, "extra"]
    changes = st.dictionaries(st.sampled_from(names), st.one_of(odd_values(), st.just(MISSING)),
                              min_size=1, max_size=2)
    return changes.map(lambda change: {k: v for k, v in {**valid, **change}.items()
                                       if v is not MISSING})


class TestConfigBoundary:
    """Config documents either build a config whose seed seeds numpy or raise
    ``ConfigError``; none is generated from or run (a valid huge ``n_subjects``
    or ``folds`` would take hours)."""

    @pytest.mark.parametrize("seed", [-1, -(2**64)])
    def test_negative_seed_names_the_field(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            SynthConfig(**dict(SYNTH_CFG, seed=seed))
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(**dict(RUN_DOC, seed=seed))

    @pytest.mark.parametrize("seed", [0, 2**64])
    def test_seed_at_the_bounds_is_kept(self, seed):
        assert SynthConfig(**dict(SYNTH_CFG, seed=seed)).seed == seed
        assert RunConfig(**dict(RUN_DOC, seed=seed)).seed == seed

    @staticmethod
    def check(cls, doc):
        try:
            config = cli._build_config(cls, doc, "config")
        except ConfigError:
            return
        np.random.SeedSequence(config.seed)

    @settings(derandomize=True, max_examples=300)
    @given(doc=documents(SYNTH_CFG))
    def test_generator_documents(self, doc):
        self.check(SynthConfig, doc)

    @settings(derandomize=True, max_examples=300)
    @given(doc=documents(RUN_DOC))
    def test_run_documents(self, doc):
        self.check(RunConfig, doc)


def byte_edits():
    """One to three byte edits: (op, position, byte), op one of replace,
    insert or delete.  Half of the positions fall in a file's first 300 bytes,
    where the fields other than the samples are; half of the bytes are JSON
    syntax or number characters."""
    position = st.one_of(st.integers(0, 300), st.integers(0, 2**31))
    byte = st.one_of(st.sampled_from(b'{}[],:"-.0123456789eEtfnNI '), st.integers(0, 255))
    return st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete")), position, byte),
                    min_size=1, max_size=3)


def edited(content, edits):
    buf = bytearray(content)
    for op, position, byte in edits:
        position %= len(buf) + (op == "insert")
        if op == "replace":
            buf[position] = byte
        elif op == "insert":
            buf.insert(position, byte)
        else:
            del buf[position]
    return bytes(buf)


@pytest.fixture(scope="module")
def score_inputs(tmp_path_factory):
    """A tiny dataset (1 subject, 8 trials of 192 samples) and perfect
    predictions for it, in a directory for the mutants beside them."""
    root = tmp_path_factory.mktemp("fuzz")
    datasets = data.generate_synthetic_dataset(SynthConfig(
        n_subjects=1, trials_per_subject=8, trial_length_samples=192,
        iws_length_range=(64, 64), seed=3))
    data.write_dataset(datasets, root / "ds")
    trials = [{"subject_id": ds.subject_id, "trial_index": i, "bins": postprocess.truth_bins(t)}
              for ds in datasets for i, t in enumerate(ds.trials)]
    (root / "pred.json").write_text(json.dumps({"trials": trials}))
    return root


class TestScoreInputFuzz:
    """Byte edits of the manifest, of one trial file or of the predictions
    file that ``iws score`` reads end in exit 0 or in one ``error:`` line with
    exit 2, 3 or 4, never in an uncaught exception."""

    @pytest.mark.parametrize("target", ["manifest.json", "s01_005.json", "pred.json"])
    @settings(derandomize=True, max_examples=150)
    @given(edits=byte_edits())
    def test_edited_input_fails_cleanly(self, score_inputs, target, edits):
        # each mutant under new file names: rewriting a file is much slower
        work = Path(tempfile.mkdtemp(dir=score_inputs))
        pred, ds = score_inputs / "pred.json", score_inputs / "ds"
        if target == "pred.json":
            pred = work / target
            pred.write_bytes(edited((score_inputs / target).read_bytes(), edits))
        else:
            ds = work
            for path in (score_inputs / "ds").iterdir():
                if path.name == target:
                    (ds / target).write_bytes(edited(path.read_bytes(), edits))
                else:
                    os.link(path, ds / path.name)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["score", "--pred", str(pred), "--dataset", str(ds)])
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
        assert code in (0, 2, 3, 4)
        assert len(errors) == (code != 0)
        assert "Traceback" not in stderr.getvalue()
