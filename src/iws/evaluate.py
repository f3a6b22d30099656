"""Precision/Recall/F1 scoring of bin-label vectors and report assembly."""

import csv
import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import write_text
from .errors import InvariantViolation

REPORT_SCHEMA_VERSION = 1

# Best mean F1 reported for the original three recorded datasets; kept in the
# report so runs on converted original data can be compared against them.
REFERENCE_TARGETS = {
    "dataset1": {"f1": 0.73, "classifier": "random_forest", "feature_set_id": 5},
    "dataset2": {"f1": 0.79, "classifier": "random_forest", "feature_set_id": 5},
    "dataset3": {"f1": 0.68, "classifier": "logreg", "feature_set_id": 4},
}

METRICS = ("precision", "recall", "f1")


@dataclass(frozen=True)
class TrialScore:
    trial_id: int
    precision: float
    recall: float
    f1: float


def score_trial(pred, truth, trial_id=0) -> TrialScore:
    """Bin-wise precision/recall/F1 with 1 = IWS as the positive class.

    Zero-denominator cases score 0 (pessimistic convention).
    """
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.ndim != 1 or truth.ndim != 1:
        raise InvariantViolation(
            f"pred and truth must be 1-D, got shapes {pred.shape} and {truth.shape}")
    if pred.size != truth.size:
        raise InvariantViolation(f"pred length {pred.size} != truth length {truth.size}")
    if pred.size == 0:
        raise InvariantViolation("cannot score empty vectors")
    for name, labels in (("pred", pred), ("truth", truth)):
        if not ((labels == 0) | (labels == 1)).all():
            raise InvariantViolation(f"{name} labels must be 0 or 1")
    tp = int(np.sum((pred == 1) & (truth == 1)))
    fp = int(np.sum((pred == 1) & (truth == 0)))
    fn = int(np.sum((pred == 0) & (truth == 1)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return TrialScore(trial_id=trial_id, precision=precision, recall=recall, f1=f1)


def aggregate(scores):
    """Arithmetic mean and population standard deviation per metric."""
    if not scores:
        raise InvariantViolation("no scores to aggregate")
    out = {}
    for metric in METRICS:
        vals = np.array([getattr(s, metric) for s in scores], dtype=np.float64)
        out[metric] = {"mean": float(vals.mean()), "std": float(vals.std())}
    return out


def _iqr_outliers(subject_ids, values):
    """Subjects beyond 1.5x IQR of the per-subject means (box-plot convention)."""
    if len(values) < 4:
        return []
    q1, q3 = np.percentile(values, [25, 75])
    lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    return [sid for sid, v in zip(subject_ids, values) if v < lo or v > hi]


def build_report(subject_results, config_echo, seed) -> dict:
    """Assemble the machine-readable run report.

    ``subject_results`` maps (feature_set_id, classifier) to a list of
    per-subject dicts, each with 'subject_id', 'fold_scores' (list of lists of
    TrialScore) and optional extras such as retained PCA dimensions.
    """
    if not subject_results:
        raise InvariantViolation("no subject results to report")
    results = []
    for (fs_id, clf), subjects in sorted(subject_results.items()):
        subject_blocks = []
        per_subject_means = {metric: [] for metric in METRICS}
        for sub in subjects:
            all_scores = [s for fold in sub["fold_scores"] for s in fold]
            agg = aggregate(all_scores)
            block = {
                "subject_id": sub["subject_id"],
                "folds": [{"fold": i, "trial_scores": [asdict(s) for s in fold]}
                          for i, fold in enumerate(sub["fold_scores"])],
                "aggregate": agg,
            }
            if "pca_dims" in sub:
                block["pca_dims"] = sub["pca_dims"]
            subject_blocks.append(block)
            for metric in METRICS:
                per_subject_means[metric].append(agg[metric]["mean"])
        sids = [s["subject_id"] for s in subjects]
        population = {}
        for metric in METRICS:
            vals = np.array(per_subject_means[metric])
            population[metric] = {
                "mean": float(vals.mean()),
                "std": float(vals.std()),
                "outlier_subjects": _iqr_outliers(sids, vals),
            }
        results.append({
            "feature_set_id": fs_id,
            "classifier": clf,
            "subjects": subject_blocks,
            "population": population,
        })
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": config_echo,
        "seed": seed,
        "reference_targets": REFERENCE_TARGETS,
        "results": results,
    }


def write_report(report, path) -> None:
    """Write the report as indented, key-sorted JSON, atomically (``data.write_text``)."""
    write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_report_csv(report, path) -> None:
    """One row per subject x feature_set x classifier, for plotting; atomic like write_report."""
    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(["feature_set_id", "classifier", "subject_id",
                     "mean_f1", "std_f1", "mean_precision", "std_precision",
                     "mean_recall", "std_recall"])
    for block in report["results"]:
        for sub in block["subjects"]:
            agg = sub["aggregate"]
            writer.writerow([
                block["feature_set_id"], block["classifier"], sub["subject_id"],
                agg["f1"]["mean"], agg["f1"]["std"],
                agg["precision"]["mean"], agg["precision"]["std"],
                agg["recall"]["mean"], agg["recall"]["std"],
            ])
    write_text(path, rows.getvalue())


# JSON schema for the report document (draft-07 subset), used by tests and
# available to downstream tooling.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "config", "seed", "reference_targets", "results"],
    "properties": {
        "schema_version": {"const": REPORT_SCHEMA_VERSION},
        "config": {"type": "object"},
        "seed": {"type": "integer"},
        "reference_targets": {"type": "object"},
        "results": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["feature_set_id", "classifier", "subjects", "population"],
                "properties": {
                    "feature_set_id": {"type": "integer", "minimum": 1, "maximum": 5},
                    "classifier": {"enum": ["random_forest", "knn", "logreg"]},
                    "subjects": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["subject_id", "folds", "aggregate"],
                            "properties": {
                                "subject_id": {"type": "string"},
                                "folds": {"type": "array"},
                                "aggregate": {"type": "object"},
                            },
                        },
                    },
                    "population": {
                        "type": "object",
                        "required": ["precision", "recall", "f1"],
                        "additionalProperties": {
                            "type": "object",
                            "required": ["mean", "std", "outlier_subjects"],
                            "properties": {
                                "mean": {"type": "number", "minimum": 0, "maximum": 1},
                                "std": {"type": "number", "minimum": 0},
                                "outlier_subjects": {"type": "array"},
                            },
                        },
                    },
                },
            },
        },
    },
}
