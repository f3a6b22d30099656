"""Record the reference population F1 of every workload into references.json.

    python3 perfbench/record_references.py

Runs each workload once per run seed of the --seed pool on the benchmark's
dataset, and once on the held-out dataset with the default run seed, and
stores the population mean F1 per (feature set, classifier).  Run it
only when a workload's definition changes; a change that claims a speed-up
keeps the recorded values.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main():
    iws, _ = run.import_iws()
    seeds = [(run.DATA_SEED, run.run_seed_for(s)) for s in range(run.RUN_SEED_POOL)]
    seeds.append((run.HELD_OUT_DATA_SEED, run.RUN_SEED))
    f1 = {}
    for workload in run.WORKLOADS.values():
        f1[workload.name] = {}
        for data_seed, run_seed in seeds:
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as work:
                datasets, _ = run.prepare(iws, workload, data_seed, Path(work) / "dataset")
                config = run.run_config(iws, workload, Path(work) / "dataset", run_seed)
                key = f"{data_seed}/{run_seed}"
                f1[workload.name][key] = run.population_f1(iws.run_experiment(datasets, config))
            print(workload.name, key, f1[workload.name][key], flush=True)
    doc = {
        "data_seed": run.DATA_SEED,
        "held_out_data_seed": run.HELD_OUT_DATA_SEED,
        "f1": f1,  # {workload: {"data_seed/run_seed": {"fs/classifier": F1}}}
    }
    with open(run.HERE / "references.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
