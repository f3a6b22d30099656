#!/usr/bin/env python3
"""Print the sha256 prefix of each of the 16 digest reports, one per line.

The reports are four configs (acceptance, control, headline, sets 1-5), each
on data seeds 424242 and 20210510 and run seeds 99 and 106, in that nesting
order: data seed, then run seed, then config.  Each is the ``write_report``
bytes of ``run_experiment`` on the generated dataset with
``RunConfig(dataset_path="fixed", folds=4, seed=<run seed>)``.  A change that
keeps the pipeline's arithmetic prints the same 16 lines; compare two runs of
it with ``cmp``.

    PYTHONPATH=src python scripts/report_digests.py
"""

import hashlib
import tempfile
from pathlib import Path

from iws.data import SynthConfig, generate_synthetic_dataset
from iws.evaluate import write_report
from iws.experiment import RunConfig, run_experiment

DATA_SEEDS = (424242, 20210510)
RUN_SEEDS = (99, 106)
# name: (synthetic geometry, feature sets, classifiers)
CONFIGS = {
    "acceptance": (dict(n_subjects=2, trials_per_subject=8, trial_length_samples=768,
                        iws_length_range=(192, 288), snr=5.0),
                   (1,), ("random_forest",)),
    "control": (dict(n_subjects=1, trials_per_subject=8, trial_length_samples=768,
                     iws_length_range=(192, 288), snr=0.0),
                (1,), ("random_forest", "knn", "logreg")),
    "headline": (dict(n_subjects=1, trials_per_subject=8, trial_length_samples=224,
                      iws_length_range=(64, 96), snr=5.0),
                 (4, 5), ("random_forest", "logreg")),
    "sets_1_5": (dict(n_subjects=2, trials_per_subject=8, trial_length_samples=320,
                      iws_length_range=(64, 128), snr=2.0),
                 (1, 2, 3, 4, 5), ("random_forest", "knn", "logreg")),
}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        for data_seed in DATA_SEEDS:
            for run_seed in RUN_SEEDS:
                for name, (synth, feature_set_ids, classifiers) in CONFIGS.items():
                    datasets = generate_synthetic_dataset(SynthConfig(seed=data_seed, **synth))
                    config = RunConfig(dataset_path="fixed", feature_set_ids=feature_set_ids,
                                       classifiers=classifiers, folds=4, seed=run_seed)
                    write_report(run_experiment(datasets, config), path)
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                    print(f"{data_seed} {run_seed} {name} {digest}", flush=True)


if __name__ == "__main__":
    main()
