"""The bounded EMD work queue: one sifting loop, fed stack by stack.

A row's decomposition does not depend on the rows sifting beside it, so the
queue's width, the order of the rows and the way they are cut into stacks
change nothing in its result.  The selection made when a row ends must pick
what the oracle below, ``select_imf_pairs``, picks from the full set of IMFs.
"""

import numpy as np
import pytest

from iws import decompose, experiment, features, learn, preprocess
from iws.data import CHANNEL_COUNT, SynthConfig, generate_synthetic_dataset
from iws.errors import InvariantViolation
from iws.experiment import RunConfig

FIELDS = ("counts", "capped", "selected", "finite")


def queue_rows(seed, n_rows):
    """Colored noise, some of which runs into the sift cap, with a monotonic
    ramp and a constant row mixed in."""
    gen = np.random.default_rng(seed)
    rows = np.cumsum(gen.standard_normal((n_rows, 64)), axis=1) + gen.standard_normal((n_rows, 64))
    rows[3] = np.linspace(-1.0, 2.0, 64)
    rows[7] = 4.0
    return rows


def select_imf_pairs(signals, imfs, counts):
    """Oracle: slots of the two IMFs closest to each row's signal, in input
    order, chosen once every IMF is known.

    ``imfs`` is (n_rows, n_slots, n) with row r's IMFs in its first
    ``counts[r]`` slots.  Ties keep the earlier IMF; a row with a single IMF
    gets it twice.  Rows without IMFs get meaningless slots.
    """
    n_rows, n_slots = imfs.shape[:2]
    dist = np.full((n_rows, max(n_slots, 2)), np.inf)
    for slot in range(n_slots):
        dist[:, slot] = decompose.minkowski_distance(signals, imfs[:, slot])
    dist[np.arange(dist.shape[1]) >= counts[:, None]] = np.inf
    pairs = np.sort(np.argsort(dist, axis=1, kind="stable")[:, :2], axis=1)
    pairs[counts == 1] = 0
    return pairs


def sift_stack(rows):
    """``sift_blocks`` on a feed of one stack, keeping every IMF."""
    return next(decompose.sift_blocks(iter([rows]), keep_all=True))


@pytest.fixture(scope="module")
def reference():
    rows = queue_rows(21, 96)
    return rows, sift_stack(rows)


def test_selection_matches_select_imf_pairs(reference):
    rows, ref = reference
    assert ref.capped.any() and (ref.counts == 0).sum() == 2 and ref.finite.all()
    pairs = select_imf_pairs(rows, ref.imfs, ref.counts)
    chosen = np.take_along_axis(ref.imfs, pairs[:, :, None], axis=1)
    has_imf = ref.counts > 0
    assert np.array_equal(ref.selected[has_imf], chosen[has_imf])
    # a row without IMFs, sifted (the ramp) or not (the constant), holds itself twice
    assert np.array_equal(ref.selected[~has_imf], np.stack([rows[~has_imf]] * 2, axis=1))


def test_closest_pairs_ties_keep_the_earlier_imf():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    far = np.zeros(4)  # distance sqrt(30)
    a = np.array([1.0, 2.0, 3.0, 5.0])  # distance 1
    c = np.array([1.0, 2.0, 2.0, 4.0])  # distance 1
    d = np.array([0.0, 2.0, 3.0, 4.0])  # distance 1
    # row k holds the first k + 1 IMFs; its slots past them hold x itself
    # (distance 0), which the selection must not see
    imfs = np.stack([far, a, c, d])
    slots = np.broadcast_to(x, (4, 4, 4)).copy()
    for k in range(4):
        slots[k, :k + 1] = imfs[:k + 1]
    counts = np.arange(1, 5)
    kept = decompose._closest_pairs(np.broadcast_to(x, (4, 4)), slots, counts).tolist()
    assert kept == [[far.tolist()] * 2, [far.tolist(), a.tolist()],
                    [a.tolist(), c.tolist()], [a.tolist(), c.tolist()]]
    pairs = select_imf_pairs(np.broadcast_to(x, (4, 4)), slots, counts)
    assert pairs.tolist() == [[0, 0], [0, 1], [1, 2], [1, 2]]
    none = decompose._closest_pairs(x[None], slots[:1], np.array([0]))
    assert none.tolist() == [[x.tolist()] * 2]  # a row without IMFs gets its signal


@pytest.mark.parametrize("budget,cuts", [(1, (5, 6, 60, 95)), (7, ()), (7, (30, 60)),
                                         (256, (5, 6, 60, 95))])
def test_result_independent_of_order_stacking_and_width(reference, monkeypatch, budget, cuts):
    rows, ref = reference
    monkeypatch.setattr(decompose, "EMD_QUEUE_ROWS", budget)
    order = np.random.default_rng(budget + len(cuts)).permutation(rows.shape[0])
    stacks = np.split(rows[order], cuts)
    out = list(decompose.sift_blocks(iter(stacks), keep_all=True))
    assert [o.counts.size for o in out] == [s.shape[0] for s in stacks]
    back = np.argsort(order)
    for field in FIELDS + ("imfs", "residuals"):
        got = np.concatenate([getattr(o, field) for o in out])[back]
        assert np.array_equal(got, getattr(ref, field)), field
    lean = list(decompose.sift_blocks(iter(stacks)))
    assert all(o.imfs is None and o.residuals is None for o in lean)
    for field in FIELDS:
        got = np.concatenate([getattr(o, field) for o in lean])[back]
        assert np.array_equal(got, getattr(ref, field)), field


def test_sift_step_writes_the_queue_in_place():
    # a step writes into the arrays of the slots it is given and binds none
    # anew, so the queue's own arrays hold every change
    rows = queue_rows(23, 12)[8:]  # colored noise only: the step sifts every row
    state = decompose._slots(64)
    decompose._start_rows(state, slice(0, 4), np.arange(4), rows,
                          decompose.SIFT_TOLERANCE * np.std(rows, axis=1))
    live = {key: value[:4] for key, value in state.items()}
    arrays = dict(live)
    decompose._sift_step(live)
    assert all(live[key] is arrays[key] for key in arrays)
    assert not np.array_equal(state["h"][:4], rows) and state["iterations"][:4].any()


def test_feed_read_as_the_queue_drains(monkeypatch):
    monkeypatch.setattr(decompose, "EMD_QUEUE_ROWS", 8)
    rows = queue_rows(22, 40)
    read = []

    def feed():
        for i in range(0, 40, 4):
            read.append(i)
            yield rows[i:i + 4]

    handed_back = []
    for out in decompose.sift_blocks(feed()):
        handed_back.append(len(read))
        assert out.counts.size == 4
    assert len(handed_back) == 10
    assert handed_back[0] < 10  # the first stack came back before the feed ran dry


def test_empty_feed_and_empty_stack():
    assert list(decompose.sift_blocks(iter([]))) == []
    [out] = decompose.sift_blocks(iter([np.zeros((0, 64))]))
    assert out.counts.shape == (0,) and out.selected.shape == (0, 2, 64)


# ---------------------------------------------------------------------------
# The subject pass of the pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def headline_subject():
    # the benchmark's headline geometry: 8 trials of 224 samples, 1750 EMD rows
    cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=224,
                      iws_length_range=(64, 96), snr=5.0, seed=424242)
    return generate_synthetic_dataset(cfg)[0]


def window_stacks(dataset):
    trials = [preprocess.car_filter_trial(t) for t in dataset.trials]
    grids = [preprocess.window_grid(t) for t in trials]
    every_offsets = [np.union1d(g.train_offsets, g.test_offsets) for g in grids]
    return [(preprocess.window_stack(t, o), o) for t, o in zip(trials, every_offsets)]


def test_subject_pass_equals_one_trial_calls(headline_subject, caplog):
    stacks = window_stacks(headline_subject)
    assert sum(len(offsets) for _, offsets in stacks) * CHANNEL_COUNT == 1750
    with caplog.at_level("INFO", logger="iws.features"):
        passed = list(features.stack_matrices(iter(stacks), (2,)))
    records = [(r.levelname, r.getMessage()) for r in caplog.records
               if r.getMessage().startswith("emd")]
    # capped rows keep their IMFs, so the summary is no warning
    assert records == [("INFO", "emd on 1750 rows: 0 produced no IMF and use the window "
                                "itself, 96 stopped at the sift-iteration cap")]
    assert len(passed) == len(stacks)
    for got, stack in zip(passed, stacks):
        [alone] = features.stack_matrices([stack], (2,))
        assert np.array_equal(got[2], alone[2])


def test_non_finite_imf_names_the_first_trial(headline_subject, monkeypatch):
    # the subject pass feeds each trial's windows that some fold reads, so
    # the queue ids number the rows of those windows only
    trials = [preprocess.car_filter_trial(t) for t in headline_subject.trials]
    grids = [preprocess.window_grid(t) for t in trials]
    folds = learn.make_fold_plan(len(grids), experiment._stable_seed(0, 0))
    reads = experiment._read_offsets(grids, folds)
    starts = np.cumsum([0] + [read.size * CHANNEL_COUNT for read in reads])
    # one IMF of a row in trial 5 and of one in trial 2 turn infinite
    bad = {starts[5] + 3, starts[2] + 20}
    sift_step = decompose._sift_step

    def poisoning(live):
        before = live["counts"].copy()
        result = sift_step(live)
        e = np.flatnonzero((live["counts"] > before) & np.isin(live["id"], list(bad)))
        live["imfs"][e, live["counts"][e] - 1] = np.inf  # the IMF just stored
        return result

    monkeypatch.setattr(decompose, "_sift_step", poisoning)
    config = RunConfig(dataset_path="mem", feature_set_ids=(2,), classifiers=("knn",))
    offset = reads[2][20 // CHANNEL_COUNT]
    with pytest.raises(InvariantViolation) as exc:
        experiment.run_subject(headline_subject, config, 0)
    assert str(exc.value) == (
        f"subject {headline_subject.subject_id} trial 2: channel {20 % CHANNEL_COUNT}, "
        f"instance offset {offset}: coefficient set imf: non-finite values")
