"""Smoke test of the benchmark on tiny inputs (about half a minute).

    python3 perfbench/smoke.py

Runs every workload once on a one-subject dataset with short trials, traces
one of them, and checks the result format against BENCHMARK.json, the
handling of a wrapped attribute that no longer exists, and the refusal to
run outside a checkout.  Exits non-zero on the first failed check.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracing

TINY = dict(n_subjects=1, trials_per_subject=8, trial_length_samples=192,
            iws_length_range=(64, 64), snr=5.0)


def expect(cond, what):
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")


def tiny(workload):
    synth = dict(TINY, snr=workload.synth["snr"])
    return dataclasses.replace(workload, synth=synth, f1_min={}, f1_max={})


def check_result(result, names, label):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] and result["failed"] == 0, f"{label}: not correct: {result}")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    got = set(result["metrics"])
    expect(got == names, f"{label}: metrics missing {names - got}, unexpected {got - names}")
    for name, value in result["metrics"].items():
        expect(isinstance(value, (int, float)), f"{label}: {name} is not a number")


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    for workload in run.WORKLOADS.values():
        # no reference F1 exists for the tiny datasets, so f1_agreement is absent
        result, _ = run.run_workload(tiny(workload), run.DATA_SEED, run.RUN_SEED, 0, 0, {})
        check_result(result, end_to_end - {"f1_agreement"}, workload.name)
        print(f"smoke: {workload.name} untraced ok ({result['attempted']} reps)")

    result, lines = run.run_workload(tiny(run.WORKLOADS["acceptance_fs1_rf"]),
                                     run.DATA_SEED, run.RUN_SEED, 0, 1, {})
    check_result(result, per_layer, "acceptance_fs1_rf traced")
    expect(result["metrics"]["decompose.emd_calls"] == 0, "emd ran on an FS1 workload")
    expect(result["metrics"]["decompose.dwt_calls"] > 0, "no DWT call was traced")
    expect(any(line.startswith("stress:") for line in lines), "no stress lines")
    print("smoke: traced run ok")

    tracer = tracing.Tracer()
    extra = (("features", "no_such_function", "features.none", None),)
    with tracing.installed(tracer, tracing.WRAPS + extra):
        pass
    expect(tracer.missing == {"features.no_such_function"}, f"missing = {tracer.missing}")
    tracer.missing.add("features.emd")
    metrics = tracing.layer_metrics(tracer)
    expect(not any(n.startswith("decompose.emd") for n in metrics), "emd metrics not absent")
    expect("decompose.dwt_s" in metrics, "dwt metrics dropped with emd")
    import iws.features

    expect(not hasattr(iws.features.dwt_bior22, "__wrapped__"), "wrappers not removed")
    print("smoke: absent attributes ok")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, Path(bare) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "acceptance_fs1_rf",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0, "ran without the program's sources")
    expect(not proc.stdout.strip(), f"printed a result without sources: {proc.stdout!r}")
    print("smoke: refuses to run without sources ok")
    print("smoke: ok")


if __name__ == "__main__":
    main()
