"""Per-layer tracing from outside the program.

The tracer swaps the module attributes that ``iws.experiment`` and
``iws.features`` call through for wrappers that record one span per call
(name, start, end, parent) plus a few exact counts taken from arguments and
return values.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics once the traced run has ended.  Nothing under ``src/`` is
changed, and the originals are put back when the ``installed`` block exits.

A wrapped attribute that no longer exists is skipped; every metric that
depends on it is then reported as absent instead of failing the run.
"""

import functools
import importlib
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

CLASSIFIERS = ("random_forest", "knn", "logreg")
BASE_SETS = (1, 2, 3)
MAX_IMFS = 8  # EmdParams.max_imfs: histogram buckets 1..8


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.counts = Counter()
        self.raised = Counter()  # (span name, exception class name) -> calls
        self.imf_hist = Counter()
        self.missing = set()  # "module.attr" entries that were not found
        self.unrecognised = set()  # metrics whose source value had an unknown shape

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)


# ---------------------------------------------------------------------------
# What to wrap.  Each entry: (module, attribute, span name or a function of
# the call's arguments giving it, optional hook(tracer, args, result)).
# ---------------------------------------------------------------------------

def _count_len(key):
    def hook(tracer, args, out):
        tracer.counts[key] += len(out)
    return hook


def _emd_hook(tracer, args, out):
    n = len(out[0])
    tracer.counts["emd_imfs"] += n
    tracer.imf_hist[n] += 1


def _pca_hook(tracer, args, out):
    try:
        tracer.counts["pca_dims"] += int(out.components.shape[0])
    except AttributeError:
        tracer.unrecognised.add("features.pca_dims")


def _tree_nodes(tree):
    n, todo = 0, [tree]
    while todo:
        node = todo.pop()
        n += 1
        if "feature" in node:
            todo.append(node["left"])
            todo.append(node["right"])
    return n


def _train_hook(tracer, args, out):
    tracer.counts["train_rows"] += len(args[1])
    if getattr(args[0], "kind", None) != "random_forest":
        return
    trees = getattr(out, "trees", None)
    if not isinstance(trees, list) or not all(isinstance(t, dict) for t in trees):
        tracer.unrecognised.add("learn.rf_nodes")
        return
    # walking the trees is tracing cost, kept out of every layer's self time
    with tracer.span("bench.walk"):
        tracer.counts["rf_nodes"] += sum(_tree_nodes(t) for t in trees)


def _by_kind(prefix):
    def name(args, kwargs):
        kind = getattr(args[0], "kind", "unknown")
        return f"{prefix}.{kind}"
    return name


def _by_feature_set(args, kwargs):
    fs = kwargs.get("feature_set_id", args[1] if len(args) > 1 else "unknown")
    return f"features.extract.fs{fs}"


WRAPS = (
    ("experiment", "run_subject", "experiment.subject", None),
    ("preprocess", "car_filter_trial", "preprocess.car", None),
    ("preprocess", "segment_training_trial", "preprocess.segment_train",
     _count_len("train_windows")),
    ("preprocess", "segment_test_trial", "preprocess.segment_test",
     _count_len("test_windows")),
    ("features", "extract_features", _by_feature_set, None),
    ("features", "dwt_bior22", "decompose.dwt", None),
    ("features", "emd", "decompose.emd", _emd_hook),
    ("features", "select_imfs_minkowski", "decompose.select", None),
    ("features", "instantaneous_energy", "features.ie", None),
    ("features", "teager_energy", "features.teager", None),
    ("features", "higuchi_fd", "features.higuchi", None),
    ("features", "katz_fd", "features.katz", None),
    ("features", "ghe", "features.ghe", None),
    ("features", "assemble_fs4", "features.assemble", None),
    ("features", "scaler_fit", "features.scaler_fit", None),
    ("features", "scaler_apply", "features.scaler_apply", None),
    ("features", "pca_fit", "features.pca_fit", _pca_hook),
    ("features", "pca_apply", "features.pca_apply", None),
    ("learn", "train", _by_kind("learn.train"), _train_hook),
    ("learn", "predict", _by_kind("learn.predict"), None),
    ("postprocess", "postprocess_trial", "postprocess.trial", None),
    ("evaluate", "score_trial", "evaluate.score", None),
    ("evaluate", "build_report", "evaluate.report", None),
)


def _wrap(tracer, fn, name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name(args, kwargs) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            tracer.end(idx)
            tracer.raised[(tracer.names[idx], type(exc).__name__)] += 1
            raise
        tracer.end(idx)
        if hook is not None:
            hook(tracer, args, out)
        return out
    return wrapper


@contextmanager
def installed(tracer, wraps=WRAPS):
    """Swap the wrappers into the ``iws`` modules for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, hook in wraps:
            module = importlib.import_module(f"iws.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.missing.add(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, name, hook))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced run
# ---------------------------------------------------------------------------

def _percentile_ms(durations, p):
    """Nearest-rank percentile of call durations, in ms (0 with no calls)."""
    if not durations:
        return 0.0
    xs = sorted(durations)
    return 1e3 * xs[min(len(xs) - 1, max(0, math.ceil(p / 100 * len(xs)) - 1))]


def layer_metrics(tracer, run_span="experiment.run"):
    """{metric name: value} from the spans and counts of one traced run.

    Metrics whose wrapped attribute was missing, or whose source value had an
    unrecognised shape, are left out.
    """
    n = len(tracer.names)
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child = [0.0] * n
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child[parent] += dur[i]
    total, self_t = defaultdict(float), defaultdict(float)
    calls, per_call = Counter(), defaultdict(list)
    for i, name in enumerate(tracer.names):
        total[name] += dur[i]
        self_t[name] += dur[i] - child[i]
        calls[name] += 1
        if name.startswith(("features.extract.", "experiment.subject")):
            per_call[name].append(dur[i])
    c = tracer.counts
    fallbacks = tracer.raised[("decompose.emd", "DecompositionFailure")]
    emd_ok = calls["decompose.emd"] - fallbacks

    rows = [
        ("preprocess.car_s", total["preprocess.car"], "preprocess.car_filter_trial"),
        ("preprocess.segment_s",
         total["preprocess.segment_train"] + total["preprocess.segment_test"],
         "preprocess.segment_training_trial", "preprocess.segment_test_trial"),
        ("preprocess.train_windows", c["train_windows"], "preprocess.segment_training_trial"),
        ("preprocess.test_windows", c["test_windows"], "preprocess.segment_test_trial"),
        ("decompose.dwt_calls", calls["decompose.dwt"], "features.dwt_bior22"),
        ("decompose.dwt_s", total["decompose.dwt"], "features.dwt_bior22"),
        ("decompose.emd_calls", calls["decompose.emd"], "features.emd"),
        ("decompose.emd_s", total["decompose.emd"], "features.emd"),
        ("decompose.emd_imfs_mean", c["emd_imfs"] / emd_ok if emd_ok else 0.0, "features.emd"),
        ("decompose.emd_fallbacks", fallbacks, "features.emd"),
    ]
    rows += [(f"decompose.emd_imf_hist.{k}", tracer.imf_hist[k], "features.emd")
             for k in range(1, MAX_IMFS + 1)]
    rows.append(("decompose.select_s", total["decompose.select"],
                 "features.select_imfs_minkowski"))
    for fs in BASE_SETS:
        span = f"features.extract.fs{fs}"
        rows += [
            (f"features.extract_s.fs{fs}", total[span], "features.extract_features"),
            (f"features.extract_self_s.fs{fs}", self_t[span], "features.extract_features"),
            (f"features.ms_per_window.fs{fs}.p50", _percentile_ms(per_call[span], 50),
             "features.extract_features"),
            (f"features.ms_per_window.fs{fs}.p99", _percentile_ms(per_call[span], 99),
             "features.extract_features"),
        ]
    rows += [
        ("features.higuchi_s", total["features.higuchi"], "features.higuchi_fd"),
        ("features.ghe_s", total["features.ghe"], "features.ghe"),
        ("features.katz_s", total["features.katz"], "features.katz_fd"),
        ("features.teager_s", total["features.teager"], "features.teager_energy"),
        ("features.ie_s", total["features.ie"], "features.instantaneous_energy"),
        ("features.assemble_s", total["features.assemble"], "features.assemble_fs4"),
        ("features.scaler_s",
         total["features.scaler_fit"] + total["features.scaler_apply"],
         "features.scaler_fit", "features.scaler_apply"),
        ("features.pca_s", total["features.pca_fit"] + total["features.pca_apply"],
         "features.pca_fit", "features.pca_apply"),
        ("features.pca_dims", c["pca_dims"], "features.pca_fit"),
    ]
    rows += [(f"learn.train_s.{k}", total[f"learn.train.{k}"], "learn.train")
             for k in CLASSIFIERS]
    rows += [(f"learn.predict_s.{k}", total[f"learn.predict.{k}"], "learn.predict")
             for k in CLASSIFIERS]
    rows += [
        ("learn.train_rows", c["train_rows"], "learn.train"),
        ("learn.rf_nodes", c["rf_nodes"], "learn.train"),
        ("postprocess.s", total["postprocess.trial"], "postprocess.postprocess_trial"),
        ("evaluate.score_s", total["evaluate.score"], "evaluate.score_trial"),
        ("evaluate.report_s", total["evaluate.report"], "evaluate.build_report"),
        ("experiment.self_s", self_t[run_span] + self_t["experiment.subject"],
         "experiment.run_subject"),
        ("experiment.subject_s_max", max(per_call["experiment.subject"], default=0.0),
         "experiment.run_subject"),
    ]
    return {
        name: value for name, value, *needs in rows
        if name not in tracer.unrecognised and not tracer.missing.intersection(needs)
    }
