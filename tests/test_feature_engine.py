"""Equivalence of the batched feature engine with the per-window, per-channel
scalar implementation it replaced.

The oracles below are verbatim copies of that scalar code: the feature
functions and the FS1/FS2/FS3 channel loops of ``extract_features``.  They take
the GHE lag range from ``features.GHE_TAUS`` and the EMD rules from the
``decompose`` constants.
"""

import numpy as np
import pytest

from iws import features, preprocess
from iws.data import CHANNEL_COUNT, SignalInstance, SynthConfig, generate_synthetic_dataset
from iws.decompose import (
    dwt_bior22,
    emd,
    select_imfs_minkowski,
    sift_blocks,
)
from iws.errors import (
    DecompositionFailure,
    DegenerateScaling,
    InvariantViolation,
    IwsError,
)
from iws.features import (
    GHE_TAUS,
    LOG_CLAMP,
    extract_features,
    ghe,
    higuchi_fd,
    instantaneous_energy,
    katz_fd,
    stack_matrices,
    teager_energy,
)

TOL = 1e-12

# ---------------------------------------------------------------------------
# Oracles: the scalar implementation, verbatim
# ---------------------------------------------------------------------------

def oracle_instantaneous_energy(w) -> float:
    """log10 of the mean squared coefficient value."""
    x = np.asarray(w, dtype=np.float64)
    if x.size == 0:
        raise InvariantViolation("instantaneous_energy of empty set")
    ms = float(np.mean(x ** 2))
    return float(np.log10(max(ms, LOG_CLAMP)))


def oracle_teager_energy(w) -> float:
    x = np.asarray(w, dtype=np.float64)
    if x.size < 3:
        raise InvariantViolation(f"teager_energy needs >= 3 samples, got {x.size}")
    terms = np.abs(x[1:-1] ** 2 - x[:-2] * x[2:])
    val = float(np.sum(terms)) / x.size
    return float(np.log10(max(val, LOG_CLAMP)))


def oracle_higuchi_fd(x, k_max: int = 10) -> float:
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < k_max + 1:
        raise InvariantViolation(f"higuchi_fd needs >= {k_max + 1} samples, got {n}")
    log_inv_k, log_l = [], []
    for k in range(1, k_max + 1):
        lengths = []
        for m in range(k):
            n_seg = (n - 1 - m) // k
            if n_seg < 1:
                continue
            idx = m + np.arange(n_seg + 1) * k
            total = np.sum(np.abs(np.diff(x[idx])))
            lengths.append(total * (n - 1) / (n_seg * k) / k)
        mean_len = float(np.mean(lengths))
        if mean_len <= 0.0:
            return 0.0
        log_inv_k.append(np.log(1.0 / k))
        log_l.append(np.log(mean_len))
    slope = np.polyfit(log_inv_k, log_l, 1)[0]
    return float(slope)


def oracle_katz_fd(x) -> float:
    x = np.asarray(x, dtype=np.float64)
    m = x.size
    if m < 2:
        raise InvariantViolation(f"katz_fd needs >= 2 samples, got {m}")
    path = float(np.sum(np.sqrt(1.0 + np.diff(x) ** 2)))
    t = np.arange(m, dtype=np.float64)
    d = float(np.max(np.sqrt(t ** 2 + (x - x[0]) ** 2)))
    ratio = max(d / path, LOG_CLAMP)
    denom = np.log(m) + np.log(ratio)
    if denom == 0.0:
        return 1.0
    return float(np.log(m) / denom)


def oracle_ghe(x, q) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2 * GHE_TAUS[-1]:
        raise InvariantViolation(f"ghe needs >= {2 * GHE_TAUS[-1]} samples, got {x.size}")
    denom = float(np.mean(np.abs(x) ** q))
    log_tau, log_k = [], []
    for tau in GHE_TAUS:
        num = float(np.mean(np.abs(x[tau:] - x[:-tau]) ** q))
        if denom <= 0.0:
            continue
        k_val = num / denom
        if not np.isfinite(k_val) or k_val <= 0.0:
            continue
        log_tau.append(np.log(tau))
        log_k.append(np.log(k_val))
    if len(log_tau) < 3:
        raise DegenerateScaling(
            f"only {len(log_tau)} valid lag points (need >= 3) for q={q}"
        )
    slope = np.polyfit(log_tau, log_k, 1)[0]
    return float(slope) / q


def _fs1_channel(x):
    return [oracle_instantaneous_energy(s) for s in dwt_bior22(x)]


def _fs2_channel(x):
    try:
        imfs, _residual = emd(x)
        selected = select_imfs_minkowski(x, imfs)
    except DecompositionFailure:
        selected = [x, x]
    values = []
    for v in selected:
        values.extend([
            oracle_teager_energy(v),
            oracle_instantaneous_energy(v),
            oracle_higuchi_fd(v),
            oracle_katz_fd(v),
            oracle_ghe(v, 1),
            oracle_ghe(v, 2),
        ])
    return values


def _fs3_channel(x):
    return [oracle_ghe(x, 1), oracle_ghe(x, 2)]


def oracle_extract(instance, feature_set_id):
    """The feature values of one instance, channel-major."""
    values = []
    for ch in range(CHANNEL_COUNT):
        x = instance.samples[:, ch]
        try:
            if feature_set_id == 1:
                v = _fs1_channel(x)
            elif feature_set_id == 2:
                v = _fs2_channel(x)
            else:
                v = _fs3_channel(x)
        except IwsError as exc:
            raise type(exc)(
                f"channel {ch}, instance offset {instance.trial_offset}: {exc}"
            ) from exc
        values.extend(v)
    return np.asarray(values)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def eeg_like_windows(seed, n_windows):
    """Random walk plus white noise, the rough spectrum of the synthetic EEG."""
    gen = np.random.default_rng(seed)
    shape = (n_windows, 64, CHANNEL_COUNT)
    return np.cumsum(gen.standard_normal(shape), axis=1) + gen.standard_normal(shape)


def one_stack(windows, offsets, feature_set_ids):
    """The matrices of one stack of windows: ``stack_matrices`` fed one stack."""
    [matrices] = stack_matrices([(windows, offsets)], feature_set_ids)
    return matrices


def offsets_for(n_windows):
    return [13 * i for i in range(n_windows)]


def assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= TOL


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fs,n_windows", [(1, 12), (2, 2), (3, 12)])
def test_matrices_match_channel_loops(fs, n_windows):
    windows = eeg_like_windows(100 + fs, n_windows)
    offsets = offsets_for(n_windows)
    matrix = one_stack(windows, offsets, (fs,))[fs]
    for i, (w, off) in enumerate(zip(windows, offsets)):
        expected = oracle_extract(SignalInstance(samples=w, trial_offset=off), fs)
        assert_close(matrix[i], expected)
        row = extract_features(SignalInstance(samples=w, trial_offset=off, label=1), fs)
        assert_close(row, expected)


def test_fs1_matches_dwt_band_energies():
    windows = eeg_like_windows(7, 40)
    windows[3] *= 1e-3  # energies across several decades
    windows[4] *= 1e3
    matrix = one_stack(windows, offsets_for(40), (1,))[1]
    for i, w in enumerate(windows):
        expected = [oracle_instantaneous_energy(s)
                    for ch in range(CHANNEL_COUNT) for s in dwt_bior22(w[:, ch])]
        assert_close(matrix[i], expected)


@pytest.mark.parametrize("n", [4, 11, 38, 64, 257, 1024])
def test_scalar_features_match_oracles(n):
    gen = np.random.default_rng(n)
    for signal in (gen.standard_normal(n), np.cumsum(gen.standard_normal(n))):
        assert abs(instantaneous_energy(signal) - oracle_instantaneous_energy(signal)) <= TOL
        assert abs(teager_energy(signal) - oracle_teager_energy(signal)) <= TOL
        assert abs(katz_fd(signal) - oracle_katz_fd(signal)) <= TOL
        if n >= 11:
            assert abs(higuchi_fd(signal) - oracle_higuchi_fd(signal)) <= TOL
        if n >= 38:
            for q in (1, 2):
                assert abs(ghe(signal, q) - oracle_ghe(signal, q)) <= TOL


def test_ghe_skips_invalid_lags_like_the_oracle():
    # period-4 signal: the increments vanish at tau = 4, 8, ... and those lags
    # are skipped while the rest still give a fit
    x = np.tile([0.0, 1.0, 3.0, 2.0], 16)
    for q in (1, 2):
        assert abs(ghe(x, q) - oracle_ghe(x, q)) <= TOL


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

def test_constant_rows():
    windows = eeg_like_windows(3, 2)
    windows[1, :, 4] = 2.5
    fs1 = one_stack(windows, offsets_for(2), (1,))[1]
    expected = oracle_extract(SignalInstance(samples=windows[1], trial_offset=13), 1)
    assert_close(fs1[1], expected)
    detail_bands = fs1[1, 4 * 5:4 * 5 + 4]  # channel 4, w1..w4
    assert np.all(detail_bands == np.log10(LOG_CLAMP))
    assert higuchi_fd(np.full(64, 2.5)) == oracle_higuchi_fd(np.full(64, 2.5)) == 0.0
    assert instantaneous_energy(np.zeros(64)) == np.log10(LOG_CLAMP)


def test_too_few_lags_names_channel_and_offset():
    windows = eeg_like_windows(4, 3)
    windows[2, :, 5] = 1.0  # increments all zero: no valid lag
    with pytest.raises(DegenerateScaling) as engine_exc:
        one_stack(windows, [0, 13, 26], (3,))
    with pytest.raises(DegenerateScaling) as oracle_exc:
        oracle_extract(SignalInstance(samples=windows[2], trial_offset=26), 3)
    assert str(engine_exc.value) == str(oracle_exc.value)
    assert str(engine_exc.value).startswith("channel 5, instance offset 26:")
    with pytest.raises(DegenerateScaling, match="q=1"):
        ghe(np.ones(64), 1)


def test_non_finite_input_rejected():
    windows = eeg_like_windows(5, 2)
    windows[1, 10, 7] = np.nan
    for fs in (1, 2, 3):
        with pytest.raises(InvariantViolation, match="channel 7, instance offset 13"):
            one_stack(windows, offsets_for(2), (fs,))


def test_overflowing_feature_rejected():
    # finite samples whose squares overflow: band energies come out inf
    window = np.random.default_rng(0).standard_normal((64, CHANNEL_COUNT)) * 1e200
    with pytest.raises(InvariantViolation, match="channel 0, instance offset 13"):
        one_stack(window[None], [13], (1,))


def test_emd_fallback_fills_both_slots_from_window():
    windows = eeg_like_windows(6, 1)
    windows[0, :, 2] = 0.1 * np.arange(64) + 1.0  # monotonic: no IMF at all
    with pytest.raises(DecompositionFailure):
        emd(windows[0, :, 2])
    matrix = one_stack(windows, [0], (2,))[2]
    expected = oracle_extract(SignalInstance(samples=windows[0], trial_offset=0), 2)
    assert_close(matrix[0], expected)
    channel = matrix[0, 2 * 12:3 * 12]
    np.testing.assert_array_equal(channel[:6], channel[6:])
    assert channel[3] == pytest.approx(1.0, abs=1e-9)  # Katz of a straight line


def sift_stack(rows):
    """``sift_blocks`` on a feed of one stack, keeping every IMF."""
    return next(sift_blocks(iter([rows]), keep_all=True))


def test_emd_warns_once_per_stack_with_fallback_and_cap_counts(caplog):
    windows = eeg_like_windows(7, 3)
    windows[0, :, 2] = 0.1 * np.arange(64) + 1.0  # monotonic: no IMF at all
    windows[2, :, 5] = -0.2 * np.arange(64)
    rows = windows.transpose(0, 2, 1).reshape(-1, 64)
    capped = int(sift_stack(rows).capped.sum())
    assert capped > 0  # colored noise runs into the sift cap now and then
    with caplog.at_level("WARNING", logger="iws.features"):
        one_stack(windows, offsets_for(3), (2,))
    emd_records = [r for r in caplog.records if r.getMessage().startswith("emd")]
    assert len(emd_records) == 1
    assert emd_records[0].getMessage() == (
        f"emd on {3 * CHANNEL_COUNT} rows: 2 produced no IMF and use the window itself, "
        f"{capped} stopped at the sift-iteration cap")
    caplog.clear()  # one window through the per-instance form warns the same way
    with caplog.at_level("WARNING", logger="iws.features"):
        extract_features(SignalInstance(samples=windows[0], trial_offset=0), 2)
    [record] = [r for r in caplog.records if r.getMessage().startswith("emd")]
    assert record.getMessage().startswith(f"emd on {CHANNEL_COUNT} rows: 1 produced no IMF")


def test_emd_silent_without_fallback_or_cap(caplog):
    windows = eeg_like_windows(9, 1)
    dec = sift_stack(windows[0].T)
    assert not dec.capped.any() and dec.counts.min() > 0
    with caplog.at_level("WARNING", logger="iws.features"):
        one_stack(windows, offsets_for(1), (2,))
    assert not [r for r in caplog.records if r.getMessage().startswith("emd")]


def test_emd_cap_stops_alone_are_no_warning(caplog):
    # a capped row keeps the IMFs it has: only a row without IMFs changes its
    # features (its window stands in), so only that is worth a warning
    windows = eeg_like_windows(7, 3)
    dec = sift_stack(windows.transpose(0, 2, 1).reshape(-1, 64))
    assert dec.capped.any() and dec.counts.min() > 0
    with caplog.at_level("INFO", logger="iws.features"):
        one_stack(windows, offsets_for(3), (2,))
    [record] = [r for r in caplog.records if r.getMessage().startswith("emd")]
    assert record.levelname == "INFO"
    assert record.getMessage().startswith(f"emd on {3 * CHANNEL_COUNT} rows: 0 produced no IMF")


def test_window_stack_shape_checked():
    with pytest.raises(InvariantViolation):
        one_stack(np.zeros((2, 32, CHANNEL_COUNT)), [0, 13], (1,))
    with pytest.raises(InvariantViolation):
        one_stack(eeg_like_windows(0, 2), [0], (1,))
    with pytest.raises(InvariantViolation):
        one_stack(eeg_like_windows(0, 1), [0], (5,))


def test_set_4_is_sets_1_2_3_side_by_side():
    windows = eeg_like_windows(10, 3)
    base = one_stack(windows, offsets_for(3), (1, 2, 3))
    fs4 = one_stack(windows, offsets_for(3), (4,))
    assert set(fs4) == {4}
    assert np.array_equal(fs4[4], np.concatenate([base[1], base[2], base[3]], axis=1))


@pytest.mark.parametrize("feature_set_ids,fs1_calls,emd_calls", [
    ((1,), 1, 0), ((3,), 0, 0), ((2,), 0, 1), ((1, 3), 1, 0), ((4,), 1, 1), ((3, 4), 1, 1),
], ids=["1", "3", "2", "1+3", "4", "3+4"])
def test_only_the_sets_a_request_needs_run(monkeypatch, feature_set_ids, fs1_calls, emd_calls):
    calls = {"fs1": 0, "emd": 0}
    fs1_rows, sift_blocks = features._fs1_rows, features.sift_blocks

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(features, "_fs1_rows", counted("fs1", fs1_rows))
    monkeypatch.setattr(features, "sift_blocks", counted("emd", sift_blocks))
    out = one_stack(eeg_like_windows(11, 2), offsets_for(2), feature_set_ids)
    assert set(out) == set(feature_set_ids)
    assert calls == {"fs1": fs1_calls, "emd": emd_calls}


# ---------------------------------------------------------------------------
# Row independence: a window's rows do not depend on the windows stacked
# beside it, so neither on how the pipeline groups its windows nor on
# whether it featurizes one window alone
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trial_test_windows():
    """The 55 test windows of one 768-sample SNR-2 trial, with sets 1-3 of the whole stack."""
    cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=768,
                      iws_length_range=(192, 288), snr=2.0, seed=424242)
    trial = preprocess.car_filter_trial(generate_synthetic_dataset(cfg)[0].trials[0])
    offsets = preprocess.window_grid(trial).test_offsets
    windows = preprocess.window_stack(trial, offsets)
    return windows, offsets, one_stack(windows, offsets, (1, 2, 3))


def test_rows_do_not_depend_on_the_windows_beside_them(trial_test_windows):
    windows, offsets, whole = trial_test_windows
    gen = np.random.default_rng(13)
    n = len(offsets)
    picks = [gen.choice(n, size, replace=False) for size in gen.integers(2, n, 6)]
    picks += [[i] for i in gen.choice(n, 4, replace=False)]
    for pick in picks:  # in random order
        part = one_stack(windows[pick], offsets[pick], (1, 2, 3))
        for fs in (1, 2, 3):
            assert part[fs].tobytes() == whole[fs][pick].tobytes(), (fs, len(pick))


def test_extract_features_gives_the_stack_rows(trial_test_windows):
    windows, offsets, whole = trial_test_windows
    for i in (0, 21, len(offsets) - 1):
        instance = SignalInstance(samples=windows[i], trial_offset=int(offsets[i]))
        for fs in (1, 2, 3):
            assert extract_features(instance, fs).tobytes() == whole[fs][i].tobytes()


def test_slopes_do_not_depend_on_the_rows_beside_them():
    gen = np.random.default_rng(5)
    u = np.log(GHE_TAUS)
    v = gen.standard_normal((400, len(GHE_TAUS)))
    valid = gen.random(v.shape) < 0.8  # lags skipped at random, as GHE skips them
    whole = features._slopes(u, v, valid)
    for size in gen.integers(1, 400, 200):
        pick = gen.choice(400, size, replace=False)
        assert features._slopes(u, v[pick], valid[pick]).tobytes() == whole[pick].tobytes()
