"""Acceptance gate: every numbered criterion below prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools

import numpy as np
import pytest

from iws.data import SynthConfig, generate_synthetic_dataset
from iws.decompose import dwt_bior22, emd, idwt_bior22
from iws.errors import DecompositionFailure
from iws.evaluate import REFERENCE_TARGETS, write_report
from iws.experiment import RunConfig, run_experiment
from iws.features import (
    assemble_fs4,
    extract_features,
    ghe,
    higuchi_fd,
    instantaneous_energy,
    katz_fd,
    pca_apply,
    pca_fit,
    scaler_apply,
    scaler_fit,
    teager_energy,
)
from iws.postprocess import correct_errors, reduce_windows
from iws.preprocess import car_filter_trial, segment_training_trial


def _verdict(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


SNR5_SYNTH = SynthConfig(
    n_subjects=5, trials_per_subject=8, trial_length_samples=768,
    iws_length_range=(192, 288), carrier_band_hz=(8.0, 12.0), snr=5.0, seed=424242,
)
SNR0_SYNTH = SynthConfig(
    n_subjects=5, trials_per_subject=8, trial_length_samples=768,
    iws_length_range=(192, 288), carrier_band_hz=(8.0, 12.0), snr=0.0, seed=424242,
)
E2E_RUN = dict(dataset_path="synthetic", feature_set_ids=(1,),
               classifiers=("random_forest",), folds=4, seed=99)


@pytest.fixture(scope="module")
def snr5_report():
    datasets = generate_synthetic_dataset(SNR5_SYNTH)
    return run_experiment(datasets, RunConfig(**E2E_RUN))


def test_criterion_1_closed_form_feature_oracles():
    checks = [
        abs(instantaneous_energy([1.0, 2.0, 3.0, 4.0]) - np.log10(7.5)) <= 1e-9,
        abs(teager_energy([1.0, 2.0, 3.0, 4.0]) - np.log10(0.5)) <= 1e-9,
        teager_energy([1.0, 2.0, 4.0, 8.0]) == -12.0,
        teager_energy([5.0, 15.0, 45.0, 135.0, 405.0]) == -12.0,
        abs(katz_fd(3.7 * np.arange(50) - 11.0) - 1.0) <= 1e-9,
        abs(katz_fd([0.0, 1.0, 0.0, 1.0, 0.0]) - 1.2743) <= 1e-3,
    ]
    _verdict(1, all(checks),
             f"IE/TE/KFD closed forms ({sum(checks)}/{len(checks)} checks)")


def test_criterion_2_fractal_hurst_asymptotics():
    hfd_line = higuchi_fd(np.arange(64, dtype=float), k_max=10)
    hfd_noise = np.mean([higuchi_fd(np.random.default_rng(s).standard_normal(1024))
                         for s in range(20)])
    ghe_walk = np.mean([ghe(np.cumsum(np.random.default_rng(s).standard_normal(1024)), 1)
                        for s in range(50)])
    ghe_trend = ghe(np.arange(1024, dtype=float), 1)
    ghe_noise = np.mean([ghe(np.random.default_rng(s).standard_normal(1024), 1)
                         for s in range(50)])
    checks = [
        abs(hfd_line - 1.0) <= 0.05,
        abs(hfd_noise - 2.0) <= 0.15,
        abs(ghe_walk - 0.5) <= 0.1,
        abs(ghe_trend - 1.0) <= 0.05,
        abs(ghe_noise - 0.0) <= 0.1,
    ]
    _verdict(2, all(checks),
             f"HFD line={hfd_line:.3f} noise={hfd_noise:.3f}; "
             f"H(1) walk={ghe_walk:.3f} trend={ghe_trend:.3f} noise={ghe_noise:.3f}")


def test_criterion_3_dwt_bior22():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        x = rng.standard_normal(64) * rng.uniform(0.1, 10.0)
        worst = max(worst, float(np.max(np.abs(idwt_bior22(dwt_bior22(x)) - x))))
    const_detail = max(float(np.max(np.abs(band)))
                       for band in dwt_bior22(np.full(64, 2.5))[:4])
    ramp_detail = max(float(np.max(np.abs(band)))
                      for band in dwt_bior22(0.3 * np.arange(64) + 1.0)[:4])
    ok = worst <= 1e-8 and const_detail <= 1e-8 and ramp_detail <= 1e-8
    _verdict(3, ok, f"PR worst={worst:.2e}, const detail={const_detail:.2e}, "
                    f"ramp detail={ramp_detail:.2e}")


def test_criterion_4_emd():
    def count_condition(v):
        mid = v[1:-1]
        n_ext = int(np.sum((mid > v[:-2]) & (mid > v[2:])) +
                    np.sum((mid < v[:-2]) & (mid < v[2:])))
        s = np.sign(v)
        s = s[s != 0]
        n_zc = int(np.sum(s[1:] != s[:-1]))
        return abs(n_ext - n_zc) <= 1

    worst = 0.0
    violations = 0
    failures = 0
    for s in range(500):
        x = np.random.default_rng(s).standard_normal(64)
        try:
            imfs, resid = emd(x)
        except DecompositionFailure:
            failures += 1
            continue
        rec = np.sum(imfs, axis=0) + resid
        worst = max(worst, float(np.max(np.abs(rec - x))))
        violations += sum(0 if count_condition(imf) else 1 for imf in imfs)
    ok = worst <= 1e-8 and violations == 0 and failures == 0
    _verdict(4, ok, f"completeness worst={worst:.2e}, count violations={violations}, "
                    f"failures={failures} over 500 signals")


def test_criterion_5_postprocessing_brute_force():
    def reference_reduce(raw, n_bins):
        out = []
        for b in range(n_bins):
            bin_samples = set(range(13 * b, 13 * (b + 1)))
            votes = [lab for w, lab in enumerate(raw)
                     if bin_samples & set(range(13 * w, 13 * w + 64))]
            out.append(1 if 2 * sum(votes) > len(votes) else 0)
        return out

    def reference_correct(bins):
        out = list(bins)
        flipped = [False] * len(bins)
        for i in range(1, len(bins) - 1):
            if bins[i - 1] == bins[i + 1] != bins[i] and not flipped[i - 1]:
                out[i] = bins[i - 1]
                flipped[i] = True
        return out

    reduce_ok = correct_ok = idempotent_ok = True
    for w in range(1, 13):
        for raw in itertools.product((0, 1), repeat=w):
            if reduce_windows(list(raw), w + 4) != reference_reduce(list(raw), w + 4):
                reduce_ok = False
            if correct_errors(list(raw)) != reference_correct(list(raw)):
                correct_ok = False
    for n in range(1, 17):
        for bins in itertools.product((0, 1), repeat=n):
            once = correct_errors(list(bins))
            if correct_errors(once) != once:
                idempotent_ok = False
    ok = reduce_ok and correct_ok and idempotent_ok
    _verdict(5, ok, f"reduce equivalence={reduce_ok}, correct equivalence={correct_ok}, "
                    f"idempotence (<=16)={idempotent_ok}")


def test_criterion_6_feature_set_geometry():
    cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=192,
                      iws_length_range=(64, 64), snr=4.0, seed=6)
    dataset = generate_synthetic_dataset(cfg)[0]
    widths_ok = True
    fs4_vectors = []
    for trial in dataset.trials:
        for inst in segment_training_trial(car_filter_trial(trial)):
            v1, v2, v3 = (extract_features(inst, k) for k in (1, 2, 3))
            v4 = assemble_fs4(v1, v2, v3)
            fs4_vectors.append(v4)
            if (v1.size, v2.size, v3.size, v4.size) != (70, 168, 28, 266):
                widths_ok = False
    scaler = scaler_fit(fs4_vectors)
    scaled = [scaler_apply(scaler, v) for v in fs4_vectors]
    matrix = np.stack(scaled)
    model = pca_fit(matrix)
    projected = np.stack([pca_apply(model, v) for v in scaled])
    recomputed = projected.var(axis=0).sum() / (matrix - matrix.mean(axis=0)).var(axis=0).sum()
    fs5_ok = projected.shape[1] <= 266 and recomputed >= 0.90
    _verdict(6, widths_ok and fs5_ok,
             f"widths 70/168/28/266 on {len(fs4_vectors)} instances={widths_ok}, "
             f"FS5 width={projected.shape[1]}, recomputed ratio={recomputed:.4f}")


def test_criterion_7_end_to_end_detection(snr5_report):
    f1_snr5 = snr5_report["results"][0]["population"]["f1"]["mean"]
    datasets0 = generate_synthetic_dataset(SNR0_SYNTH)
    report0 = run_experiment(datasets0, RunConfig(**E2E_RUN))
    f1_snr0 = report0["results"][0]["population"]["f1"]["mean"]
    ok = f1_snr5 >= 0.85 and f1_snr0 <= 0.35
    _verdict(7, ok, f"mean F1: snr=5 -> {f1_snr5:.3f} (>= 0.85), "
                    f"snr=0 -> {f1_snr0:.3f} (<= 0.35)")


def test_criterion_8_reference_targets_recorded(snr5_report):
    targets = snr5_report["reference_targets"]
    ok = (targets == REFERENCE_TARGETS
          and targets["dataset1"]["f1"] == 0.73
          and targets["dataset2"]["f1"] == 0.79
          and targets["dataset3"]["f1"] == 0.68)
    # layout check: per-subject mean/std for every metric, as in the result tables
    for block in snr5_report["results"]:
        for sub in block["subjects"]:
            for metric in ("precision", "recall", "f1"):
                if not {"mean", "std"} <= set(sub["aggregate"][metric]):
                    ok = False
        for metric in ("precision", "recall", "f1"):
            if not {"mean", "std", "outlier_subjects"} <= set(block["population"][metric]):
                ok = False
    _verdict(8, ok, "reference F1 targets 0.73/0.79/0.68 recorded; "
                    "per-subject and population mean +/- std present "
                    "(no numeric tolerance asserted, original recordings not bundled)")


def test_criterion_9_determinism(snr5_report, tmp_path):
    datasets = generate_synthetic_dataset(SNR5_SYNTH)
    rerun = run_experiment(datasets, RunConfig(**E2E_RUN))
    a, b = tmp_path / "first.json", tmp_path / "second.json"
    write_report(snr5_report, a)
    write_report(rerun, b)
    ok = a.read_bytes() == b.read_bytes()
    _verdict(9, ok, f"two identically-seeded runs wrote byte-identical reports ({a.stat().st_size} bytes)")
