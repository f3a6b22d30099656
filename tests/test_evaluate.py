import csv
import json
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iws.errors import InvariantViolation
from iws.evaluate import (
    REPORT_SCHEMA,
    TrialScore,
    aggregate,
    build_report,
    score_trial,
    write_report,
    write_report_csv,
)


class TestScoreTrial:
    def test_perfect_prediction(self):
        s = score_trial([0, 1, 1, 0], [0, 1, 1, 0])
        assert s.precision == s.recall == s.f1 == 1.0

    def test_all_zero_prediction(self):
        s = score_trial([0, 0, 0, 0], [0, 1, 1, 0])
        assert s.recall == 0.0 and s.f1 == 0.0

    def test_hand_counted_case(self):
        truth = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        pred = [0, 0, 0, 1, 1, 1, 1, 1, 0, 0]
        s = score_trial(pred, truth)
        assert s.precision == pytest.approx(0.6)
        assert s.recall == pytest.approx(0.6)
        assert s.f1 == pytest.approx(0.6)

    def test_length_mismatch(self):
        with pytest.raises(InvariantViolation, match="pred length 2 != truth length 3"):
            score_trial([0, 1], [0, 1, 0])

    def test_empty(self):
        with pytest.raises(InvariantViolation, match="cannot score empty vectors"):
            score_trial([], [])

    def test_labels_other_than_0_1_and_non_vectors_refused(self):
        # a bin labelled 2 is neither a hit nor a miss: it must not score
        for pred, truth, name in (([2, 1], [1, 1], "pred"), ([1, 1], [1, -1], "truth"),
                                  ([0.5, 1], [1, 1], "pred")):
            with pytest.raises(InvariantViolation, match=f"^{name} labels must be 0 or 1$"):
                score_trial(pred, truth)
        for pred, truth in (([[1]], [[1]]), ([1], [[1]]), (1, 1)):
            with pytest.raises(InvariantViolation, match="must be 1-D"):
                score_trial(pred, truth)
        assert score_trial([True, False], [1.0, 0.0]).f1 == 1.0

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40),
           st.integers(0, 2**31 - 1))
    def test_f1_symmetric_under_swap(self, truth, seed):
        gen = np.random.default_rng(seed)
        pred = list((gen.uniform(size=len(truth)) < 0.5).astype(int))
        a = score_trial(pred, truth)
        b = score_trial(truth, pred)
        assert a.f1 == pytest.approx(b.f1)
        assert a.precision == pytest.approx(b.recall)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40),
           st.lists(st.integers(0, 1), min_size=1, max_size=40))
    def test_f1_bounds(self, truth, pred):
        n = min(len(truth), len(pred))
        s = score_trial(pred[:n], truth[:n])
        assert 0.0 <= s.f1 <= 1.0
        assert s.f1 <= min(1.0, 2 * max(s.precision, s.recall))
        if s.precision + s.recall > 0:
            assert s.f1 == pytest.approx(
                2 * s.precision * s.recall / (s.precision + s.recall))


class TestAggregate:
    def test_single_score(self):
        agg = aggregate([TrialScore(0, 0.5, 0.5, 0.5)])
        assert agg["f1"]["std"] == 0.0
        assert agg["f1"]["mean"] == 0.5

    def test_hand_values(self):
        agg = aggregate([TrialScore(0, 0.6, 0.6, 0.6), TrialScore(1, 0.8, 0.8, 0.8)])
        assert agg["f1"]["mean"] == pytest.approx(0.7)
        assert agg["f1"]["std"] == pytest.approx(0.1)

    def test_equal_scores(self):
        agg = aggregate([TrialScore(i, 0.4, 0.4, 0.4) for i in range(5)])
        assert agg["precision"]["mean"] == pytest.approx(0.4)
        assert agg["precision"]["std"] == 0.0

    def test_empty(self):
        with pytest.raises(InvariantViolation, match="no scores to aggregate"):
            aggregate([])


def toy_results(n_subjects=5, f1s=None):
    f1s = f1s or [0.6, 0.62, 0.65, 0.61, 0.2]  # last one is an outlier
    results = {}
    subjects = []
    for i, f1 in enumerate(f1s[:n_subjects]):
        scores = [TrialScore(t, f1, f1, f1) for t in range(3)]
        subjects.append({"subject_id": f"s{i:02d}", "fold_scores": [scores, scores]})
    results[(1, "random_forest")] = subjects
    return results


class TestBuildReport:
    def test_single_subject_degenerate(self):
        report = build_report(toy_results(1), {"seed": 0}, 0)
        block = report["results"][0]
        assert len(block["subjects"]) == 1
        assert block["population"]["f1"]["std"] == 0.0
        assert block["subjects"][0]["aggregate"]["f1"]["mean"] == pytest.approx(0.6)

    def test_outlier_flagging(self):
        report = build_report(toy_results(5), {"seed": 0}, 0)
        pop = report["results"][0]["population"]["f1"]
        assert pop["outlier_subjects"] == ["s04"]

    def test_schema_validation(self):
        jsonschema = pytest.importorskip("jsonschema")
        report = build_report(toy_results(5), {"seed": 3}, 3)
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_reference_targets_present(self):
        report = build_report(toy_results(2), {}, 0)
        targets = report["reference_targets"]
        assert targets["dataset1"]["f1"] == 0.73
        assert targets["dataset2"]["f1"] == 0.79
        assert targets["dataset3"]["f1"] == 0.68

    def test_aggregates_recomputable(self):
        report = build_report(toy_results(3), {}, 0)
        for sub in report["results"][0]["subjects"]:
            f1s = [t["f1"] for fold in sub["folds"] for t in fold["trial_scores"]]
            assert sub["aggregate"]["f1"]["mean"] == pytest.approx(np.mean(f1s), abs=1e-12)
            assert sub["aggregate"]["f1"]["std"] == pytest.approx(np.std(f1s), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvariantViolation, match="no subject results"):
            build_report({}, {}, 0)


class TestReportFiles:
    def test_write_is_deterministic(self, tmp_path):
        report = build_report(toy_results(4), {"seed": 9}, 9)
        write_report(report, tmp_path / "a.json")
        write_report(report, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_written_report_parses(self, tmp_path):
        report = build_report(toy_results(2), {"seed": 1}, 1)
        write_report(report, tmp_path / "r.json")
        back = json.loads((tmp_path / "r.json").read_text())
        assert back["seed"] == 1

    def test_interrupted_csv_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        (tmp_path / "r.csv").write_bytes(b"an earlier run's summary\r\n")
        writer = csv.writer

        def failing_writer(fh):
            inner, rows = writer(fh), []

            class Failing:
                def writerow(self, row):
                    rows.append(row)
                    if len(rows) == 3:
                        raise KeyboardInterrupt
                    return inner.writerow(row)

            return Failing()

        monkeypatch.setattr(csv, "writer", failing_writer)
        with pytest.raises(KeyboardInterrupt):
            write_report_csv(build_report(toy_results(3), {"seed": 1}, 1), tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_bytes() == b"an earlier run's summary\r\n"
        assert not (tmp_path / "r.csv.tmp").exists()

    @pytest.mark.parametrize("write", [write_report, write_report_csv])
    def test_interrupted_rename_leaves_the_old_file(self, tmp_path, monkeypatch, write):
        target = tmp_path / "r.out"
        target.write_bytes(b"an earlier run's output\r\n")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write(build_report(toy_results(3), {"seed": 1}, 1), target)
        assert target.read_bytes() == b"an earlier run's output\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.out"]

    def test_csv_flattening(self, tmp_path):
        report = build_report(toy_results(3), {"seed": 1}, 1)
        write_report_csv(report, tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0].startswith("feature_set_id,classifier,subject_id")
        assert len(lines) == 1 + 3  # header + one row per subject
