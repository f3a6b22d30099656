import itertools

import numpy as np
import pytest

from iws.data import Trial
from iws.errors import InvariantViolation
from iws.postprocess import (
    correct_errors,
    n_bins_for,
    postprocess_trial,
    reduce_windows,
    truth_bins,
)


def reference_reduce(raw, n_bins, window=64, step=13):
    """Literal per-sample span intersection, independent of the index math."""
    out = []
    for b in range(n_bins):
        bin_samples = set(range(step * b, step * (b + 1)))
        votes = [label for w, label in enumerate(raw)
                 if bin_samples & set(range(step * w, step * w + window))]
        out.append(1 if 2 * sum(votes) > len(votes) else 0)
    return out


def reference_correct(bins):
    """Closed form over the original vector: an interior island flips unless
    its left neighbor was itself flipped."""
    out = list(bins)
    flipped = [False] * len(bins)
    for i in range(1, len(bins) - 1):
        if bins[i - 1] == bins[i + 1] != bins[i] and not flipped[i - 1]:
            out[i] = bins[i - 1]
            flipped[i] = True
    return out


class TestReduceWindows:
    def test_all_ones(self):
        assert reduce_windows([1] * 6, 10) == [1] * 10

    def test_left_edge_truth_table(self):
        raw = [1, 1, 0, 0, 0, 0, 0, 0, 0, 0]
        assert reduce_windows(raw, 14) == [1, 1, 1] + [0] * 11

    def test_interior_tie_goes_to_zero(self):
        # bin 3 of [1,1,0,0] is covered by windows 0..3 voting 1,1,0,0
        assert reduce_windows([1, 1, 0, 0], 8)[3] == 0

    def test_empty_rejected(self):
        with pytest.raises(InvariantViolation, match="no window labels"):
            reduce_windows([], 4)

    def test_coverage_counts(self):
        # an interior bin has 5 voters: bin 10 of 30 windows sees windows 6..10
        three = [0] * 6 + [1, 1, 1, 0, 0] + [0] * 19
        two = [0] * 6 + [1, 0, 1, 0, 0] + [0] * 19
        assert reduce_windows(three, 34)[10] == 1
        assert reduce_windows(two, 34)[10] == 0
        # the first bins have fewer: 2 ones of bin 2's 3 voters give 1, and
        # bin 1's 2 voters can tie
        assert reduce_windows([1, 1] + [0] * 28, 34)[:3] == [1, 1, 1]
        assert reduce_windows([0, 1] + [0] * 28, 34)[:2] == [0, 0]
        # bin 33 sees window 29 only; bin 34 lies past the last window's span
        assert reduce_windows([1] * 30, 35)[33:] == [1, 0]
        # the last bin of a 768-sample trial (55 windows, 60 bins) is such a bin
        assert (768 - 64) // 13 + 1 == 55 and n_bins_for(768) == 60
        assert reduce_windows([1] * 55, 60) == [1] * 59 + [0]
        # an n_bins shorter than the covered span truncates
        assert reduce_windows([1] * 30, 12) == [1] * 12

    def test_exhaustive_equivalence_up_to_length_12(self):
        for w in range(1, 13):
            n_bins = w + 4
            for raw in itertools.product((0, 1), repeat=w):
                assert reduce_windows(list(raw), n_bins) == \
                    reference_reduce(list(raw), n_bins), raw

    def test_random_longer_vectors_match_reference(self):
        # every trial length gives n_bins = n_windows + 4 or + 5
        for n in range(192, 5000):
            assert n_bins_for(n) - ((n - 64) // 13 + 1) in (4, 5), n
        gen = np.random.default_rng(25)
        for _ in range(50):
            w = int(gen.integers(13, 57))
            raw = gen.integers(0, 2, size=w).tolist()
            for n_bins in (w + 4, w + 5):
                assert reduce_windows(raw, n_bins) == reference_reduce(raw, n_bins), raw


class TestCorrectErrors:
    def test_isolated_false_positive(self):
        assert correct_errors([0, 1, 0]) == [0, 0, 0]

    def test_isolated_false_negative(self):
        assert correct_errors([1, 0, 1]) == [1, 1, 1]

    def test_two_sample_run_untouched(self):
        assert correct_errors([0, 1, 1, 0, 0]) == [0, 1, 1, 0, 0]

    def test_short_vectors_identity(self):
        assert correct_errors([1]) == [1]
        assert correct_errors([1, 0]) == [1, 0]

    def test_alternating(self):
        assert correct_errors([0, 1, 0, 1, 0]) == [0, 0, 0, 0, 0]

    def test_exhaustive_equivalence_up_to_length_12(self):
        for n in range(1, 13):
            for bins in itertools.product((0, 1), repeat=n):
                assert correct_errors(list(bins)) == reference_correct(list(bins)), bins

    def test_idempotent_up_to_length_16(self):
        for n in range(1, 17):
            for bins in itertools.product((0, 1), repeat=n):
                once = correct_errors(list(bins))
                assert correct_errors(once) == once, bins

    def test_never_flips_disagreeing_neighbors(self):
        for n in range(3, 13):
            for bins in itertools.product((0, 1), repeat=n):
                out = correct_errors(list(bins))
                for i in range(1, n - 1):
                    if bins[i - 1] != bins[i + 1]:
                        assert out[i] == bins[i], bins


class TestTruthBins:
    def make_trial(self, n, onset, ending):
        gen = np.random.default_rng(0)
        return Trial(subject_id="x", samples=gen.standard_normal((n, 14)),
                     onset_sample=onset, ending_sample=ending)

    def test_example_markers(self):
        # onset=130, ending=260: bins 10..19 are IWS
        trial = self.make_trial(390, 130, 260)
        bins = truth_bins(trial)
        expected = [1 if 10 <= b <= 19 else 0 for b in range(n_bins_for(390))]
        assert bins == expected

    def test_aligned_onset_clean_transition(self):
        trial = self.make_trial(390, 13 * 8, 13 * 16)
        bins = truth_bins(trial)
        assert bins[7] == 0 and bins[8] == 1
        assert bins[15] == 1 and bins[16] == 0

    def test_per_sample_membership_oracle(self):
        for n, onset, ending in [(320, 128, 192), (397, 70, 260), (401, 100, 333)]:
            trial = self.make_trial(n, onset, ending)
            bins = truth_bins(trial)
            for b, label in enumerate(bins):
                inside = sum(1 for s in range(13 * b, 13 * (b + 1))
                             if onset <= s < ending)
                assert label == (1 if inside > 6.5 else 0), (n, onset, ending, b)

    def test_majority_rule_at_boundary_bin(self):
        # onset = 135: bin 10 holds samples 130..142, 8 of 13 inside -> 1
        trial = self.make_trial(390, 135, 260)
        assert truth_bins(trial)[10] == 1
        # onset = 137: only 6 of 13 inside -> 0
        trial = self.make_trial(390, 137, 260)
        assert truth_bins(trial)[10] == 0
        # the smallest majority: onset = 136 leaves 7 of 13 inside -> 1, and
        # an exclusive ending = 136 leaves 6 (130..135) -> 0
        assert truth_bins(self.make_trial(390, 136, 260))[10] == 1
        assert truth_bins(self.make_trial(390, 60, 136))[10] == 0


class TestPostprocessTrial:
    def test_end_to_end_lengths_match(self):
        gen = np.random.default_rng(3)
        trial = Trial(subject_id="x", samples=gen.standard_normal((320, 14)),
                      onset_sample=128, ending_sample=192)
        raw = [0] * 20
        corrected, truth = postprocess_trial(raw, trial)
        assert len(corrected) == len(truth) == n_bins_for(320)
        for labels in (corrected, truth):
            assert type(labels) is list and all(type(v) is int for v in labels)

    def test_perfect_windows_give_high_overlap(self):
        gen = np.random.default_rng(3)
        trial = Trial(subject_id="x", samples=gen.standard_normal((320, 14)),
                      onset_sample=130, ending_sample=260)
        # ideal window labels: 1 when the window majority-overlaps the IWS
        raw = []
        for w in range(20):
            lo, hi = 13 * w, 13 * w + 64
            inside = max(0, min(hi, 260) - max(lo, 130))
            raw.append(1 if inside > 32 else 0)
        corrected, truth = postprocess_trial(np.array(raw), trial)
        for labels in (corrected, truth):
            assert type(labels) is list and all(type(v) is int for v in labels)
        agreement = np.mean(np.array(corrected) == np.array(truth))
        assert agreement >= 0.9
