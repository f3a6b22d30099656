import numpy as np
import pytest
from hypothesis import given, strategies as st

from iws.data import Trial
from iws.errors import InvariantViolation, SegmentTooShort
from iws.preprocess import (
    _starts,
    car_filter,
    segment_test_trial,
    segment_training_trial,
    training_grid,
)


def trial_with_geometry(n, onset, ending, seed=0):
    gen = np.random.default_rng(seed)
    return Trial(subject_id="g", samples=gen.standard_normal((n, 14)),
                 onset_sample=onset, ending_sample=ending)


class TestCarFilter:
    def test_constant_row_zeroed(self):
        row = np.full((1, 14), 3.0)
        assert np.all(car_filter(row) == 0.0)

    def test_mean_subtraction_hand_case(self):
        row = np.array([[1.0, 3.0] + [2.0] * 12])  # mean 2
        out = car_filter(row)
        expected = np.array([[-1.0, 1.0] + [0.0] * 12])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_row_sums_vanish(self, rng):
        x = rng.standard_normal((320, 14)) * 50
        out = car_filter(x)
        assert np.max(np.abs(out.sum(axis=1))) < 1e-9

    def test_nonfinite_rejected(self):
        x = np.zeros((4, 14))
        x[2, 2] = np.inf
        with pytest.raises(InvariantViolation):
            car_filter(x)

    @given(st.integers(0, 2**31 - 1))
    def test_idempotent(self, seed):
        x = np.random.default_rng(seed).standard_normal((64, 14)) * 10
        once = car_filter(x)
        twice = car_filter(once)
        assert np.max(np.abs(twice - once)) < 1e-12


class TestTrainingSegmentation:
    def test_example_geometry(self):
        # n=320, onset=128, ending=192: 5 ISS + 1 IWS + 5 ISS
        trial = trial_with_geometry(320, 128, 192)
        instances = segment_training_trial(trial)
        starts = [i.trial_offset for i in instances]
        labels = [i.label for i in instances]
        assert starts == [0, 13, 26, 39, 52, 128, 192, 205, 218, 231, 244]
        assert labels == [0] * 5 + [1] + [0] * 5

    def test_minimal_geometry(self):
        trial = trial_with_geometry(192, 64, 128)
        instances = segment_training_trial(trial)
        assert [i.trial_offset for i in instances] == [0, 64, 128]
        assert [i.label for i in instances] == [0, 1, 0]

    def test_short_iws_rejected(self):
        trial = trial_with_geometry(320, 128, 191)  # IWS length 63
        with pytest.raises(SegmentTooShort):
            segment_training_trial(trial)

    def test_instances_carry_trial_data(self):
        trial = trial_with_geometry(320, 128, 192)
        inst = segment_training_trial(trial)[5]  # the IWS window
        np.testing.assert_array_equal(inst.samples, trial.samples[128:192])

    @given(st.integers(0, 5000))
    def test_no_instance_straddles_markers(self, seed):
        gen = np.random.default_rng(seed)
        onset = int(gen.integers(64, 150))
        length = int(gen.integers(64, 150))
        tail = int(gen.integers(64, 150))
        trial = trial_with_geometry(onset + length + tail, onset, onset + length, seed)
        for inst in segment_training_trial(trial):
            lo, hi = inst.trial_offset, inst.trial_offset + 64
            if inst.label == 1:
                assert onset <= lo and hi <= onset + length
            else:
                assert hi <= onset or lo >= onset + length

    @given(st.integers(0, 5000))
    def test_grid_matches_enumeration(self, seed):
        gen = np.random.default_rng(seed)
        onset = int(gen.integers(64, 150))
        ending = onset + int(gen.integers(64, 150))
        n = ending + int(gen.integers(64, 150))
        trial = trial_with_geometry(n, onset, ending, seed)
        # every 13-step start of each segment whose window stays inside it,
        # labeled by the class of each sample it covers
        expected = []
        for begin, end, label in ((0, onset, 0), (onset, ending, 1), (ending, n, 0)):
            for start in range(begin, end, 13):
                if start + 64 <= end:
                    covered = {int(onset <= i < ending) for i in range(start, start + 64)}
                    assert covered == {label}
                    expected.append((start, label))
        offsets, labels = training_grid(trial)
        assert list(zip(offsets, labels)) == expected
        assert [(i.trial_offset, i.label) for i in segment_training_trial(trial)] == expected


class TestTestSegmentation:
    def test_example_count(self):
        trial = trial_with_geometry(320, 128, 192)
        instances = segment_test_trial(trial)
        assert len(instances) == 20
        assert instances[0].trial_offset == 0
        assert instances[-1].trial_offset == 247
        assert all(i.label is None for i in instances)

    def test_closed_form_matches_enumeration(self):
        for n in range(64, 5001):
            enumerated = [s for s in range(0, n, 13) if s + 64 <= n]
            assert list(_starts(0, n)) == enumerated

    def test_single_window(self):
        gen = np.random.default_rng(0)
        trial = Trial(subject_id="g", samples=gen.standard_normal((192, 14)),
                      onset_sample=64, ending_sample=128)
        # 192 samples -> 10 windows; a 64-sample trial is below the Trial
        # minimum, so exercise the windowing math directly as well
        assert len(segment_test_trial(trial)) == 10
        assert list(_starts(0, 64)) == [0]
        assert list(_starts(0, 63)) == []
