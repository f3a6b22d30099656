"""Command-line interface: generate synthetic datasets, run experiments,
score external predictions.

Exit codes: 0 success, 2 configuration error, 3 dataset/input invariant
failure, 4 numerical failure.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

from . import data, evaluate, experiment, postprocess
from .errors import (
    ConfigError,
    DecompositionFailure,
    DegenerateScaling,
    InvariantViolation,
    IwsError,
    LengthMismatch,
    MalformedFile,
    NumericalFailure,
)

log = logging.getLogger(__name__)

EXIT_CONFIG = 2
EXIT_DATASET = 3
EXIT_NUMERICAL = 4


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except ValueError as exc:  # bad syntax, bad bytes or an over-long integer
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}")


def _build_config(cls, doc, what):
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    try:
        return cls(**doc)
    except TypeError as exc:
        raise ConfigError(f"{what}: {exc}")


def cmd_generate(args) -> int:
    doc = _load_json(args.config, "generator config")
    config = _build_config(data.SynthConfig, doc, "generator config")
    datasets = data.generate_synthetic_dataset(config)
    data.write_dataset(datasets, args.out)
    n_trials = sum(len(ds.trials) for ds in datasets)
    print(f"wrote {n_trials} trials for {len(datasets)} subjects to {args.out}")
    return 0


def cmd_run(args) -> int:
    doc = _load_json(args.config, "run config")
    config = _build_config(experiment.RunConfig, doc, "run config")
    datasets = data.read_dataset(config.dataset_path)
    report = experiment.run_experiment(datasets, config, jobs=args.jobs)
    out = Path(args.out)
    evaluate.write_report(report, out)
    evaluate.write_report_csv(report, out.with_suffix(".csv"))
    for block in report["results"]:
        pop = block["population"]["f1"]
        print(f"feature set {block['feature_set_id']} + {block['classifier']}: "
              f"mean F1 = {pop['mean']:.3f} +/- {pop['std']:.3f}")
    print(f"report written to {out}")
    return 0


def cmd_score(args) -> int:
    doc = _load_json(args.pred, "predictions")
    if not isinstance(doc, dict) or not isinstance(doc.get("trials"), list):
        raise ConfigError("predictions file must be an object with a 'trials' list")
    datasets = {ds.subject_id: ds for ds in data.read_dataset(args.dataset)}
    if not doc["trials"]:
        raise ConfigError("predictions 'trials' list is empty")
    scores, lines, seen = [], [], set()
    for i, entry in enumerate(doc["trials"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"predictions trials[{i}] must be an object")
        for key in ("subject_id", "trial_index", "bins"):
            if key not in entry:
                raise ConfigError(f"predictions trials[{i}]: missing field '{key}'")
        if not isinstance(entry["subject_id"], str):
            raise ConfigError(f"predictions trials[{i}]: 'subject_id' must be a string")
        data.check_int(f"predictions trials[{i}]: 'trial_index'", entry["trial_index"])
        key = (entry["subject_id"], entry["trial_index"])
        if key in seen:
            raise ConfigError(f"predictions trials[{i}]: subject {key[0]} trial {key[1]} "
                              "is already scored")
        seen.add(key)
        bins = entry["bins"]
        if not isinstance(bins, list) or any(type(b) is not int or b not in (0, 1) for b in bins):
            raise ConfigError(f"predictions trials[{i}]: 'bins' must be a list of 0/1 integers")
        ds = datasets.get(entry["subject_id"])
        if ds is None:
            raise InvariantViolation(f"unknown subject {entry['subject_id']!r}")
        if not 0 <= entry["trial_index"] < len(ds.trials):
            raise InvariantViolation(
                f"subject {entry['subject_id']}: trial index {entry['trial_index']} out of range")
        truth = postprocess.truth_bins(ds.trials[entry["trial_index"]])
        score = evaluate.score_trial(bins, truth, trial_id=entry["trial_index"])
        scores.append(score)
        lines.append(f"{entry['subject_id']} trial {entry['trial_index']}: "
                     f"P={score.precision:.4f} R={score.recall:.4f} F1={score.f1:.4f}")
    # nothing is printed until every entry has been checked and scored
    print("\n".join(lines))
    agg = evaluate.aggregate(scores)
    print(f"aggregate: P={agg['precision']['mean']:.4f} "
          f"R={agg['recall']['mean']:.4f} F1={agg['f1']['mean']:.4f}")
    return 0


def build_parser():
    # accepted both before and after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed by the main parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", default=argparse.SUPPRESS,
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    parser = argparse.ArgumentParser(
        prog="iws",
        description="Detect imagined-word segments in continuous EEG trials.",
    )
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="generate a synthetic dataset directory")
    p.add_argument("--config", required=True, help="SynthConfig JSON file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", parents=[common],
                       help="run the full pipeline and write a report")
    p.add_argument("--config", required=True, help="RunConfig JSON file")
    p.add_argument("--out", required=True, help="output report path (.json)")
    p.add_argument("--jobs", type=int, default=1, help="parallel subject workers")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("score", parents=[common],
                       help="score external per-trial bin predictions")
    p.add_argument("--pred", required=True, help="predictions JSON file")
    p.add_argument("--dataset", required=True, help="truth dataset directory")
    p.set_defaults(func=cmd_score)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MalformedFile, InvariantViolation, LengthMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except (NumericalFailure, DecompositionFailure, DegenerateScaling) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except IwsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATASET


if __name__ == "__main__":
    sys.exit(main())
