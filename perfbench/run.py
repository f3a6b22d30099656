"""Benchmark of the iws pipeline on fixed synthetic workloads.

Each workload generates a dataset from a seed, writes it, reads it back and
runs ``run_experiment`` on it through the public API, serially, one call after
the other (closed loop, one client), then checks the report.

    python3 perfbench/run.py --workload acceptance_fs1_rf --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run it from the root of a repository checkout; it imports ``iws`` from
``src/`` and writes its datasets under a temporary directory there.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every output check passed.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# --seed n runs with run seed RUN_SEED + n % RUN_SEED_POOL: it varies the fold
# splits and the forests' bootstraps, over a pool whose reference F1 values
# are recorded.  The dataset stays DATA_SEED: the EMD cost of the headline
# dataset differs by about 20% between data seeds, which would swamp the
# run-to-run spread that the benchmark's bounds are set against.
RUN_SEED = 99
RUN_SEED_POOL = 10
DATA_SEED = 424242
# Never used by default: re-check a claim on it with --data-seed and --seed 0.
HELD_OUT_DATA_SEED = 20210510
SETUPS = 3  # set-ups per run; setup_s is the import plus their median
TRACED_REPS = 2
# Largest allowed |population mean F1 - reference|; f1_agreement's bound in
# BENCHMARK.json is the same number.
F1_TOLERANCE = 0.02
# Window geometry of RunConfig's defaults, for the window count of a dataset.
WINDOW, STEP = 64, 13


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    feature_set_ids: tuple
    classifiers: tuple
    f1_min: dict = field(default_factory=dict)  # {(fs, clf): lowest allowed F1}
    f1_max: dict = field(default_factory=dict)  # {(fs, clf): highest allowed F1}
    stressed: tuple = ()  # per-layer metrics whose sum should dominate run_s
    stressed_share: float = 0.0
    unused: tuple = ()  # per-layer counts that must be 0 on this workload


WORKLOADS = {w.name: w for w in (
    # Acceptance config per subject (SNR 5, FS1 + random forest), on 2 of the
    # acceptance test's 5 subjects.  DWT/FS1 dominates and the forest is
    # shallow: exercises decompose.dwt and bypasses EMD entirely.
    Workload(
        "acceptance_fs1_rf",
        dict(n_subjects=2, trials_per_subject=8, trial_length_samples=768,
             iws_length_range=(192, 288), snr=5.0),
        (1,), ("random_forest",),
        f1_min={(1, "random_forest"): 0.85},
        stressed=("features.extract_s.fs1",), stressed_share=0.5,
        unused=("decompose.emd_calls",),
    ),
    # Same FS1 code on noise: the forest grows deep trees, so learn dominates.
    Workload(
        "control_snr0_fs1",
        dict(n_subjects=1, trials_per_subject=8, trial_length_samples=768,
             iws_length_range=(192, 288), snr=0.0),
        (1,), ("random_forest", "knn", "logreg"),
        f1_max={(1, "random_forest"): 0.35},
        stressed=("learn.train_s.random_forest",), stressed_share=0.5,
        unused=("decompose.emd_calls",),
    ),
    # The paper's best configs: the only workload that runs EMD, FS2/FS3, the
    # 266-wide scaler and PCA.
    Workload(
        "headline_fs45_rf_logreg",
        dict(n_subjects=1, trials_per_subject=8, trial_length_samples=224,
             iws_length_range=(64, 96), snr=5.0),
        (4, 5), ("random_forest", "logreg"),
        stressed=("features.extract_s.fs2",), stressed_share=0.8,
    ),
)}

# Per-layer metrics that are exact counts and must repeat across traced runs.
COUNT_METRICS = (
    "preprocess.train_windows", "preprocess.test_windows",
    "decompose.dwt_calls", "decompose.emd_calls", "decompose.emd_imfs_mean",
    "decompose.emd_fallbacks", "features.pca_dims", "learn.train_rows", "learn.rf_nodes",
) + tuple(f"decompose.emd_imf_hist.{k}" for k in range(1, 9))


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def load_references():
    with open(HERE / "references.json") as fh:
        return json.load(fh)["f1"]


def import_iws():
    """Import the package from the checkout's sources; returns (module, seconds)."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import iws
    import iws.errors
    import iws.evaluate
    return iws, time.perf_counter() - t0


def run_seed_for(seed):
    return RUN_SEED + seed % RUN_SEED_POOL


def count_windows(datasets):
    """Training plus test windows of every trial, from the trial geometry."""
    def fits(length):
        return (length - WINDOW) // STEP + 1 if length >= WINDOW else 0

    total = 0
    for ds in datasets:
        for t in ds.trials:
            total += fits(t.n_samples)
            total += fits(t.onset_sample) + fits(t.ending_sample - t.onset_sample)
            total += fits(t.n_samples - t.ending_sample)
    return total


def prepare(iws, workload, data_seed, out_dir):
    """Generate, write and read back one dataset, timing each step."""
    t0 = time.perf_counter()
    datasets = iws.generate_synthetic_dataset(iws.SynthConfig(seed=data_seed, **workload.synth))
    t1 = time.perf_counter()
    iws.write_dataset(datasets, out_dir)
    t2 = time.perf_counter()
    datasets = iws.read_dataset(out_dir)
    t3 = time.perf_counter()
    return datasets, {
        "data.generate_s": t1 - t0,
        "data.write_s": t2 - t1,
        "data.read_s": t3 - t2,
        "data.dataset_bytes": sum(p.stat().st_size for p in Path(out_dir).iterdir()),
    }


def run_config(iws, workload, dataset_path, run_seed):
    return iws.RunConfig(dataset_path=str(dataset_path), feature_set_ids=workload.feature_set_ids,
                         classifiers=workload.classifiers, seed=run_seed)


def population_f1(report):
    return {f"{b['feature_set_id']}/{b['classifier']}": b["population"]["f1"]["mean"]
            for b in report["results"]}


class OutputCheck:
    """Checks every report of one run; collects the problems it finds."""

    def __init__(self, iws, workload, reference, work_dir):
        import jsonschema

        self.iws = iws
        self.validator = jsonschema.Draft7Validator(iws.evaluate.REPORT_SCHEMA)
        self.workload = workload
        self.reference = reference  # {"fs/clf": F1} or None
        self.path = Path(work_dir) / "report.json"
        self.digest = None
        self.max_drift = 0.0

    def __call__(self, report):
        problems = [f"schema: {e.message}" for e in self.validator.iter_errors(report)]
        if problems:
            return problems
        f1 = population_f1(report)
        w = self.workload
        expected = {f"{fs}/{clf}" for fs in w.feature_set_ids for clf in w.classifiers}
        if set(f1) != expected:
            return [f"report pairs {sorted(f1)} != {sorted(expected)}"]
        for (fs, clf), lo in w.f1_min.items():
            if f1[f"{fs}/{clf}"] < lo:
                problems.append(f"F1 {f1[f'{fs}/{clf}']:.4f} of {fs}/{clf} below {lo}")
        for (fs, clf), hi in w.f1_max.items():
            if f1[f"{fs}/{clf}"] > hi:
                problems.append(f"F1 {f1[f'{fs}/{clf}']:.4f} of {fs}/{clf} above {hi}")
        if self.reference is not None:
            drift = max(abs(f1[k] - self.reference[k]) for k in expected)
            self.max_drift = max(self.max_drift, drift)
            if drift > F1_TOLERANCE:
                problems.append(f"F1 drift {drift:.4f} above {F1_TOLERANCE}: {f1}")
        self.iws.evaluate.write_report(report, self.path)
        digest = hashlib.sha256(self.path.read_bytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"report sha256 {digest[:12]} differs from the first {self.digest[:12]}")
        return problems


class Run:
    """Attempts, failures and timings of one benchmark run."""

    def __init__(self, iws, config, datasets, check):
        self.iws, self.config, self.datasets, self.check = iws, config, datasets, check
        self.attempted = self.failed = 0

    def rep(self, tracer=None):
        """One checked ``run_experiment`` call: (wall s, cpu s), or None if it failed."""
        self.attempted += 1
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                report = self.iws.run_experiment(self.datasets, self.config)
            else:
                with tracing.installed(tracer), tracer.span("experiment.run"):
                    t0 = time.perf_counter()
                    report = self.iws.run_experiment(self.datasets, self.config)
        except self.iws.errors.IwsError as exc:
            self.failed += 1
            print(f"rep {self.attempted}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        problems = self.check(report)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"rep {self.attempted}: {p}", file=sys.stderr)
        return wall, cpu


def measure(run, seconds):
    """Untraced reps until the next one would end past ``seconds``; at least one."""
    start, walls = time.perf_counter(), []
    while True:
        timing = run.rep()
        if timing is not None:
            walls.append(timing[0])
        elapsed = time.perf_counter() - start
        if elapsed + (walls[-1] if walls else elapsed) > seconds:
            return walls


def measure_traced(run):
    """One untraced rep, then TRACED_REPS traced ones.

    Returns (per-layer metrics, problems, median traced run_s).
    """
    base = run.rep()
    layers, traced_walls, absent = [], [], set()
    for _ in range(TRACED_REPS):
        tracer = tracing.Tracer()
        timing = run.rep(tracer)
        absent |= tracer.missing | tracer.unrecognised
        if timing is not None:
            traced_walls.append(timing[0])
            layers.append(tracing.layer_metrics(tracer))
    if absent:
        print(f"absent (wrapped attribute missing or unrecognised): {sorted(absent)}")
    if not layers:
        return {}, [], None
    problems = []
    for name in COUNT_METRICS:
        values = {m[name] for m in layers if name in m}
        if len(values) > 1:
            problems.append(f"count {name} differs across traced runs: {sorted(values)}")
    metrics = {name: layers[0][name] if name in COUNT_METRICS
               else statistics.median(m[name] for m in layers) for name in layers[0]}
    traced_s = statistics.median(traced_walls)
    if base is not None:
        metrics["experiment.cpu_s"] = base[1]
        metrics["trace.overhead_frac"] = traced_s / base[0] - 1.0
    return metrics, problems, traced_s


def stress_lines(workload, metrics, run_s):
    """Whether the traced run spends its time in the layer the workload is for."""
    lines = []
    if run_s and all(n in metrics for n in workload.stressed):
        share = sum(metrics[n] for n in workload.stressed) / run_s
        verdict = "yes" if share >= workload.stressed_share else "NO"
        lines.append(f"stress: {' + '.join(workload.stressed)} = {share:.1%} of traced run_s "
                     f"(chosen for >= {workload.stressed_share:.0%}): {verdict}")
    for name in workload.unused:
        if name in metrics:
            verdict = "yes" if metrics[name] == 0 else "NO"
            lines.append(f"stress: {name} = {metrics[name]} (must be 0): {verdict}")
    return lines


def run_workload(workload, data_seed, run_seed, seconds, trace, references):
    """One benchmark run: returns (result dict, human-readable lines)."""
    iws, import_s = import_iws()
    reference = references.get(workload.name, {}).get(f"{data_seed}/{run_seed}")
    lines = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        setups = [prepare(iws, workload, data_seed, Path(work) / f"dataset{i}")
                  for i in range(SETUPS)]
        datasets = setups[-1][0]
        config = run_config(iws, workload, Path(work) / f"dataset{SETUPS - 1}", run_seed)
        windows = count_windows(datasets)
        check = OutputCheck(iws, workload, reference, work)
        run = Run(iws, config, datasets, check)
        lines.append(f"workload {workload.name}: data seed {data_seed}, run seed {run_seed}, "
                     f"{windows} windows, reference F1 "
                     f"{'recorded' if reference else 'not recorded for this seed'}")
        if trace:
            metrics, problems, traced_s = measure_traced(run)
            for name in setups[0][1]:
                metrics[name] = statistics.median(s[1][name] for s in setups)
            if problems:
                run.failed += 1
                for p in problems:
                    print(p, file=sys.stderr)
            lines += stress_lines(workload, metrics, traced_s)
        else:
            walls = measure(run, seconds)
            metrics = {}
            if walls:
                run_s = statistics.median(walls)
                metrics["run_s"] = run_s
                metrics["windows_per_s"] = windows / run_s
                lines.append(f"run_s over {len(walls)} reps: "
                             + " ".join(f"{w:.3f}" for w in walls))
            metrics["setup_s"] = import_s + statistics.median(
                sum(v for k, v in s[1].items() if k.endswith("_s")) for s in setups)
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if reference is not None and check.digest is not None:
                metrics["f1_agreement"] = 1.0 - check.max_drift
            metrics["ok_frac"] = (run.attempted - run.failed) / run.attempted
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, lines


def machine_header():
    """nproc, interpreter and library versions, L2/L3 sizes of this machine."""
    import ctypes

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    caches = {}
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype, libc.sysconf.argtypes = ctypes.c_long, [ctypes.c_int]
        # glibc _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
        caches = {"l2_bytes": libc.sysconf(191), "l3_bytes": libc.sysconf(194)}
    except (OSError, AttributeError):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, **caches}


def format_metrics(metrics, units):
    return [f"  {name:<36} {metrics[name]:>14.6g} {unit}"
            for name, unit in units.items() if name in metrics]


def run_all(args):
    """Every workload in a fresh process of its own; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--data-seed", str(args.data_seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.splitlines()
        print("\n".join(out[:-1]))
        try:
            result = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help=f"selects run seed {RUN_SEED} + seed %% {RUN_SEED_POOL}")
    parser.add_argument("--data-seed", type=int, default=DATA_SEED,
                        help=f"dataset seed (held-out: {HELD_OUT_DATA_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iws" / "__init__.py").is_file():
        print(f"perfbench: no iws sources at {SRC}; run it from a repository checkout",
              file=sys.stderr)
        return 2
    units = load_spec()
    if args.workload == "all":
        result = run_all(args)
        for name, m in result["metrics"].items():
            print(f"  {name:<60} {m['value']:>14.6g} {m['unit']}")
    else:
        result, lines = run_workload(WORKLOADS[args.workload], args.data_seed,
                                     run_seed_for(args.seed), args.seconds, args.trace,
                                     load_references())
        print("machine: " + json.dumps(machine_header()))
        print("\n".join(lines + format_metrics(result["metrics"], units)))
        result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                             for name, unit in units.items() if name in result["metrics"]}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
