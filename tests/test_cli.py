import json
import shutil
import subprocess
import sys

import pytest

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
            pred = tmp_path / "pred.json"
            pred.write_text(json.dumps({"trials": []}))
            args = ("--pred", str(pred), "--dataset", str(ds))
        proc = run_cli(command, *args)
        assert proc.returncode == 3
        assert "manifest.json" in proc.stderr and "subjects[1].subject_id" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["run", "score"])
    @pytest.mark.parametrize("content", [
        b'{"seed": ' + b"9" * 5000 + b"}",  # past Python's 4300-digit integer limit
        b"\xff\xfe" + b'{"seed": 1}'.decode().encode("utf-16-le"),  # UTF-16, not UTF-8
    ], ids=["long-integer", "utf16-bytes"])
    def test_undecodable_json_exits_2(self, dataset_dir, tmp_path, command, content):
        doc = tmp_path / "doc.json"
        doc.write_bytes(content)
        if command == "run":
            args = ("--config", str(doc), "--out", str(tmp_path / "r.json"))
        else:
            args = ("--pred", str(doc), "--dataset", str(dataset_dir))
        proc = run_cli(command, *args)
        assert proc.returncode == 2
        assert "not valid JSON" in proc.stderr and "Traceback" not in proc.stderr

    def test_zero_jobs_exits_2(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.run_config(dataset_dir)))
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"),
                       "--jobs", "0")
        assert proc.returncode == 2
        assert "jobs" in proc.stderr

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

    def test_repeated_trial_exits_2(self, dataset_dir, tmp_path):
        doc = self.make_predictions(dataset_dir)
        doc["trials"].append(dict(doc["trials"][1]))
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(doc))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == 2
        assert f"trials[{len(doc['trials']) - 1}]" in proc.stderr
        assert "aggregate" not in proc.stdout and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("bad,code", [("repeat", 2), ("unknown subject", 3)])
    def test_bad_last_entry_prints_no_score(self, dataset_dir, tmp_path, bad, code):
        doc = self.make_predictions(dataset_dir)
        last = dict(doc["trials"][0])
        if bad == "unknown subject":
            last["subject_id"] = "s99"
        doc["trials"].append(last)
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(doc))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == code
        assert proc.stdout == "" and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("trials", [5, [5]])
    def test_trials_not_a_list_of_objects_exits_2(self, dataset_dir, tmp_path, trials):
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"trials": trials}))
        proc = run_cli("score", "--pred", str(pred), "--dataset", str(dataset_dir))
        assert proc.returncode == 2
        assert "trials" in proc.stderr and "Traceback" not in proc.stderr


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
