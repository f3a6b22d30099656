"""Equivalence of the batched feature engine with the per-window, per-channel
scalar implementation it replaced.

The oracles below are verbatim copies of that scalar code: the feature
functions and the FS1/FS2/FS3 channel loops of ``extract_features``.  They take
the GHE lag range from ``features.GHE_TAUS`` and the EMD rules from the
``decompose`` constants.
"""

import numpy as np
import pytest

from iws.data import CHANNEL_COUNT, SignalInstance
from iws.decompose import (
    CoefficientSet,
    dwt_bior22,
    emd,
    emd_rows,
    select_imfs_minkowski,
)
from iws.errors import (
    DecompositionFailure,
    DegenerateScaling,
    EmptyInput,
    InputTooShort,
    InvariantViolation,
    IwsError,
)
from iws.features import (
    GHE_TAUS,
    LOG_CLAMP,
    extract_features,
    feature_matrices,
    ghe,
    higuchi_fd,
    instantaneous_energy,
    katz_fd,
    teager_energy,
)

TOL = 1e-12

# ---------------------------------------------------------------------------
# Oracles: the scalar implementation, verbatim
# ---------------------------------------------------------------------------

_BAND_TAGS = ("w1", "w2", "w3", "w4", "a5")
_FS2_FEATURES = ("TE", "IE", "HFD", "KFD", "GHE_q1", "GHE_q2")


def _values_of(w):
    return np.asarray(getattr(w, "values", w), dtype=np.float64)


def oracle_instantaneous_energy(w) -> float:
    """log10 of the mean squared coefficient value."""
    x = _values_of(w)
    if x.size == 0:
        raise EmptyInput("instantaneous_energy of empty set")
    ms = float(np.mean(x ** 2))
    return float(np.log10(max(ms, LOG_CLAMP)))


def oracle_teager_energy(w) -> float:
    x = _values_of(w)
    if x.size < 3:
        raise InputTooShort(f"teager_energy needs >= 3 samples, got {x.size}")
    terms = np.abs(x[1:-1] ** 2 - x[:-2] * x[2:])
    val = float(np.sum(terms)) / x.size
    return float(np.log10(max(val, LOG_CLAMP)))


def oracle_higuchi_fd(x, k_max: int = 10) -> float:
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < k_max + 1:
        raise InputTooShort(f"higuchi_fd needs >= {k_max + 1} samples, got {n}")
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
        raise InputTooShort(f"katz_fd needs >= 2 samples, got {m}")
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
        raise InputTooShort(f"ghe needs >= {2 * GHE_TAUS[-1]} samples, got {x.size}")
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


def _fs1_channel(x, ch):
    sets = dwt_bior22(x)
    values = [oracle_instantaneous_energy(s) for s in sets]
    layout = [(ch, tag, "IE") for tag in _BAND_TAGS]
    return values, layout


def _fs2_channel(x, ch):
    try:
        imfs, _residual = emd(x)
        selected = select_imfs_minkowski(x, imfs)
    except DecompositionFailure:
        pseudo = CoefficientSet(values=x, kind="imf")
        selected = [pseudo, pseudo]
    values, layout = [], []
    for slot, imf in enumerate(selected, start=1):
        v = imf.values
        values.extend([
            oracle_teager_energy(v),
            oracle_instantaneous_energy(v),
            oracle_higuchi_fd(v),
            oracle_katz_fd(v),
            oracle_ghe(v, 1),
            oracle_ghe(v, 2),
        ])
        layout.extend([(ch, f"imf{slot}", name) for name in _FS2_FEATURES])
    return values, layout


def _fs3_channel(x, ch):
    values = [oracle_ghe(x, 1), oracle_ghe(x, 2)]
    layout = [(ch, "signal", "GHE_q1"), (ch, "signal", "GHE_q2")]
    return values, layout


def oracle_extract(instance, feature_set_id):
    """(values, layout) of one instance, channel-major."""
    values, layout = [], []
    for ch in range(CHANNEL_COUNT):
        x = instance.samples[:, ch]
        try:
            if feature_set_id == 1:
                v, l = _fs1_channel(x, ch)
            elif feature_set_id == 2:
                v, l = _fs2_channel(x, ch)
            else:
                v, l = _fs3_channel(x, ch)
        except IwsError as exc:
            raise type(exc)(
                f"channel {ch}, instance offset {instance.trial_offset}: {exc}"
            ) from exc
        values.extend(v)
        layout.extend(l)
    return np.asarray(values), layout


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def eeg_like_windows(seed, n_windows):
    """Random walk plus white noise, the rough spectrum of the synthetic EEG."""
    gen = np.random.default_rng(seed)
    shape = (n_windows, 64, CHANNEL_COUNT)
    return np.cumsum(gen.standard_normal(shape), axis=1) + gen.standard_normal(shape)


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
    matrix = feature_matrices(windows, offsets, (fs,))[fs]
    for i, (w, off) in enumerate(zip(windows, offsets)):
        expected, layout = oracle_extract(SignalInstance(samples=w, trial_offset=off), fs)
        assert_close(matrix[i], expected)
        fv = extract_features(SignalInstance(samples=w, trial_offset=off, label=1), fs)
        assert fv.layout == tuple(layout)
        assert_close(fv.values, expected)


def test_fs1_matches_dwt_band_energies():
    windows = eeg_like_windows(7, 40)
    windows[3] *= 1e-3  # energies across several decades
    windows[4] *= 1e3
    matrix = feature_matrices(windows, offsets_for(40), (1,))[1]
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
    fs1 = feature_matrices(windows, offsets_for(2), (1,))[1]
    expected, _ = oracle_extract(SignalInstance(samples=windows[1], trial_offset=13), 1)
    assert_close(fs1[1], expected)
    detail_bands = fs1[1, 4 * 5:4 * 5 + 4]  # channel 4, w1..w4
    assert np.all(detail_bands == np.log10(LOG_CLAMP))
    assert higuchi_fd(np.full(64, 2.5)) == oracle_higuchi_fd(np.full(64, 2.5)) == 0.0
    assert instantaneous_energy(np.zeros(64)) == np.log10(LOG_CLAMP)


def test_too_few_lags_names_channel_and_offset():
    windows = eeg_like_windows(4, 3)
    windows[2, :, 5] = 1.0  # increments all zero: no valid lag
    with pytest.raises(DegenerateScaling) as engine_exc:
        feature_matrices(windows, [0, 13, 26], (3,))
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
            feature_matrices(windows, offsets_for(2), (fs,))


def test_emd_fallback_fills_both_slots_from_window():
    windows = eeg_like_windows(6, 1)
    windows[0, :, 2] = 0.1 * np.arange(64) + 1.0  # monotonic: no IMF at all
    with pytest.raises(DecompositionFailure):
        emd(windows[0, :, 2])
    matrix = feature_matrices(windows, [0], (2,))[2]
    expected, _ = oracle_extract(SignalInstance(samples=windows[0], trial_offset=0), 2)
    assert_close(matrix[0], expected)
    channel = matrix[0, 2 * 12:3 * 12]
    np.testing.assert_array_equal(channel[:6], channel[6:])
    assert channel[3] == pytest.approx(1.0, abs=1e-9)  # Katz of a straight line


def test_emd_warns_once_per_stack_with_fallback_and_cap_counts(caplog):
    windows = eeg_like_windows(7, 3)
    windows[0, :, 2] = 0.1 * np.arange(64) + 1.0  # monotonic: no IMF at all
    windows[2, :, 5] = -0.2 * np.arange(64)
    rows = windows.transpose(0, 2, 1).reshape(-1, 64)
    capped = int(emd_rows(rows).capped.sum())
    assert capped > 0  # colored noise runs into the sift cap now and then
    with caplog.at_level("WARNING", logger="iws.features"):
        feature_matrices(windows, offsets_for(3), (2,))
    emd_records = [r for r in caplog.records if r.getMessage().startswith("emd")]
    assert len(emd_records) == 1
    assert emd_records[0].getMessage() == (
        f"emd on {3 * CHANNEL_COUNT} rows: 2 produced no IMF and use the window itself, "
        f"{capped} stopped at the sift-iteration cap")


def test_emd_silent_without_fallback_or_cap(caplog):
    windows = eeg_like_windows(9, 1)
    dec = emd_rows(windows[0].T)
    assert not dec.capped.any() and dec.counts.min() > 0
    with caplog.at_level("WARNING", logger="iws.features"):
        feature_matrices(windows, offsets_for(1), (2,))
    assert not [r for r in caplog.records if r.getMessage().startswith("emd")]


def test_window_stack_shape_checked():
    with pytest.raises(InvariantViolation):
        feature_matrices(np.zeros((2, 32, CHANNEL_COUNT)), [0, 13], (1,))
    with pytest.raises(InvariantViolation):
        feature_matrices(eeg_like_windows(0, 2), [0], (1,))
    with pytest.raises(InvariantViolation):
        feature_matrices(eeg_like_windows(0, 1), [0], (4,))
