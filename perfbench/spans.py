"""Span recorder that wraps critcf's layer calls from outside the package.

Each wrapped call records one span: name, start, end and the index of the
span that was open when it started (its parent).  Spans stay in memory and
are handed out at the end of the pipeline.  Untraced runs wrap only the few
stage-level calls the end-to-end metrics need; traced runs also wrap the
public call into every layer.
"""

import sys
import time
import tracemalloc
from statistics import median

# (module that defines the function, qualified name, span name).  install()
# rebinds every reference to the function in critcf's modules, so a call is
# recorded whichever module it is looked up through.
STAGE_CALLS = (
    ("critcf.training", "train_epoch", "training.train_epoch"),
    ("critcf.ranking", "evaluate", "ranking.evaluate"),
    ("critcf.models", "save_checkpoint", "models.save_checkpoint"),
    ("critcf.models", "load_checkpoint", "models.load_checkpoint"),
)

LAYER_CALLS = (
    ("critcf.synthetic", "generate", "synthetic.generate"),
    ("critcf.datasets", "parse_interactions", "datasets.parse_interactions"),
    ("critcf.datasets", "build_dataset", "datasets.build_dataset"),
    ("critcf.datasets", "leave_one_out_split", "datasets.leave_one_out_split"),
    ("critcf.datasets", "write_dataset_dir", "datasets.write_dataset_dir"),
    ("critcf.datasets", "read_dataset_dir", "datasets.read_dataset_dir"),
    ("critcf.config", "dataset_fingerprint", "config.dataset_fingerprint"),
    ("critcf.config", "apply_kv", "config.apply_kv"),
    ("critcf.config", "write_manifest", "config.write_manifest"),
    ("critcf.training", "train", "training.train"),
    ("critcf.models", "init_model", "models.init_model"),
    ("critcf.models", "init_bounds", "models.init_bounds"),
    ("critcf.models", "build_adjacency", "models.build_adjacency"),
    ("critcf.models", "project_rows", "models.project_rows"),
    ("critcf.training", "batch_gradients", "training.batch_gradients"),
    ("critcf.losses", "criterion_total_loss", "losses.loss"),
    ("critcf.losses", "bounded_regression_total_loss", "losses.loss"),
    ("critcf.training", "adagrad_step", "training.adagrad_step"),
    ("critcf.training", "_apply_constraints", "training.apply_constraints"),
    ("critcf.models", "MfModel.score_batch", "models.score_batch"),
    ("critcf.models", "GmfModel.score_batch", "models.score_batch"),
    ("critcf.models", "LightGcnModel.score_batch", "models.score_batch"),
    ("critcf.models", "MfModel.backward", "models.backward"),
    ("critcf.models", "GmfModel.backward", "models.backward"),
    ("critcf.models", "LightGcnModel.backward", "models.backward"),
    ("critcf.ranking", "predict_scores", "ranking.predict_scores"),
    ("critcf.ranking", "rank_in_candidates", "ranking.rank_in_candidates"),
    ("critcf.ranking", "_metrics_from_ranks", "ranking.metrics_from_ranks"),
)


class Recorder:
    """Collects spans and counts; install() patches, uninstall() restores."""

    def __init__(self, traced):
        self.traced = traced
        self.spans = []  # [name, start, end, parent]
        self.counts = {}
        self.last_report = None  # return value of the last ranking.evaluate
        self.alloc_peak_bytes = None
        self._open = []
        self._patched = []

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def _wrap(self, fn, name):
        recorder = self
        observe = OBSERVERS.get(name) if self.traced else None

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(recorder, args, kwargs)
            recorder.begin(name)
            try:
                if name == "losses.loss" and recorder.alloc_peak_bytes is None:
                    result = recorder._measure_alloc(fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                recorder.end()
            if name == "ranking.evaluate":
                recorder.last_report = result
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _measure_alloc(self, fn, args, kwargs):
        # tracemalloc is on around the first loss call only; it slows every
        # allocation while it runs.
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.alloc_peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    def install(self):
        """Wrap the calls; returns the layer calls this code base lacks.

        A missing stage-level call raises, because the end-to-end metrics
        cannot be measured without it.
        """
        missing = []
        for module_name, qualname, span in STAGE_CALLS + (LAYER_CALLS if self.traced else ()):
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                if self.traced and (module_name, qualname, span) in LAYER_CALLS:
                    missing.append("%s.%s" % (module_name, qualname))
                    continue
                raise LookupError("%s.%s not found" % (module_name, qualname))
            wrapper = self._wrap(original, span)
            if path:
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper)
            self._patched.append((owner, attr, original, wrapper))
        return missing

    def uninstall(self):
        for owner, attr, original, wrapper in reversed(self._patched):
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                _rebind(wrapper, original)
        self._patched = []


def _rebind(old, new):
    """Point every critcf module attribute that is ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("critcf"):
            for name, value in list(vars(module).items()):
                if value is old:
                    setattr(module, name, new)


# Observers read work counts off a call's arguments.  An argument list they
# do not recognise leaves the count out instead of failing the call.

def _observe_generate(recorder, args, kwargs):
    try:
        cfg = args[0]
        cells = cfg.num_users * cfg.num_items * cfg.num_behaviors
    except (IndexError, AttributeError):
        return
    recorder.count("synthetic.cells", cells)


def _observe_loss(recorder, args, kwargs):
    try:
        (batch, items), behaviors = args[0].shape, len(args[2])
    except (IndexError, AttributeError, TypeError, ValueError):
        return
    recorder.count("losses.cells", batch * items * behaviors)


OBSERVERS = {
    "synthetic.generate": _observe_generate,
    "losses.loss": _observe_loss,
}


def _durations(spans):
    """Per-span duration and the part of it its direct children cover."""
    duration = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += duration[i]
    return duration, child


def stage_timings(spans):
    """End-to-end timings of one pipeline, from the stage-level spans."""
    roots = [s for s in spans if s[3] < 0]
    epochs = [s for s in spans if s[0] == "training.train_epoch"]
    start = roots[0][1]

    def times(name):
        return [end - begin for span, begin, end, _ in spans if span == name]

    return {
        "setup_s": [epochs[0][1] - start],
        "epoch_s": times("training.train_epoch"),
        "eval_s": times("ranking.evaluate"),
        "ckpt_save_s": times("models.save_checkpoint"),
        "ckpt_load_s": times("models.load_checkpoint"),
        "total_s": [roots[-1][2] - start],
    }


def layer_metrics(recorder):
    """Per-layer metrics of one traced pipeline.

    A time named ``*_self_s`` excludes the span's children; every other time
    includes them.  Times sum over the whole pipeline.  The ``trace.*_cover``
    shares say how much of the setup, epoch and evaluation time lies inside
    spans one level below the call that owns that time.
    """
    spans = recorder.spans
    duration, child = _durations(spans)
    total, self_time, calls = {}, {}, {}
    for i, (name, _, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + duration[i]
        self_time[name] = self_time.get(name, 0.0) + duration[i] - child[i]
        calls[name] = calls.get(name, 0) + 1

    step_ms = []
    step_start = None
    for name, start, end, parent in spans:
        if parent >= 0 and spans[parent][0] == "training.train_epoch":
            if name == "training.batch_gradients":
                step_start = start
            elif name == "training.apply_constraints" and step_start is not None:
                step_ms.append(1e3 * (end - step_start))
                step_start = None

    def cover(owners):
        own = sum(duration[i] for i in owners)
        inner = sum(duration[i] for i, s in enumerate(spans) if s[3] in owners)
        return inner / own if own > 0 else 0.0

    # Setup runs from the first stage to the first epoch; the CLI stages and
    # training.train own it, everything they call counts as covered.
    setup_end = next(s[1] for s in spans if s[0] == "training.train_epoch")
    setup_start = spans[0][1]
    owners = {i for i, s in enumerate(spans) if s[3] < 0 or s[0] == "training.train"}
    inner = 0.0
    for name, start, end, parent in spans:
        if parent in owners and name != "training.train":
            inner += max(0.0, min(end, setup_end) - max(start, setup_start))

    loss_s = total.get("losses.loss", 0.0)
    cells = recorder.counts.get("losses.cells", 0)
    return {
        "synthetic.generate_s": (total.get("synthetic.generate", 0.0), "s"),
        "synthetic.cells": (recorder.counts.get("synthetic.cells", 0), "count"),
        "datasets.parse_s": (total.get("datasets.parse_interactions", 0.0), "s"),
        "datasets.build_s": (total.get("datasets.build_dataset", 0.0), "s"),
        "datasets.split_s": (total.get("datasets.leave_one_out_split", 0.0), "s"),
        "datasets.write_s": (total.get("datasets.write_dataset_dir", 0.0), "s"),
        "datasets.read_s": (total.get("datasets.read_dataset_dir", 0.0), "s"),
        "datasets.read_calls": (calls.get("datasets.read_dataset_dir", 0), "count"),
        "config.fingerprint_s": (total.get("config.dataset_fingerprint", 0.0), "s"),
        "losses.loss_s": (loss_s, "s"),
        "losses.cells_per_s": (cells / loss_s if loss_s > 0 else 0.0, "1/s"),
        "losses.alloc_peak_mb": ((recorder.alloc_peak_bytes or 0) / 2.0 ** 20, "MB"),
        "models.score_s": (total.get("models.score_batch", 0.0), "s"),
        "models.backward_s": (total.get("models.backward", 0.0), "s"),
        "models.score_calls": (calls.get("models.score_batch", 0), "count"),
        "models.build_adjacency_s": (total.get("models.build_adjacency", 0.0), "s"),
        "models.build_adjacency_calls": (calls.get("models.build_adjacency", 0), "count"),
        "models.project_rows_s": (total.get("models.project_rows", 0.0), "s"),
        "models.save_checkpoint_s": (total.get("models.save_checkpoint", 0.0), "s"),
        "models.load_checkpoint_s": (total.get("models.load_checkpoint", 0.0), "s"),
        "models.load_parse_s": (self_time.get("models.load_checkpoint", 0.0), "s"),
        "training.adagrad_s": (total.get("training.adagrad_step", 0.0), "s"),
        "training.constraints_s": (total.get("training.apply_constraints", 0.0), "s"),
        "training.batch_gradients_self_s":
            (self_time.get("training.batch_gradients", 0.0), "s"),
        "training.epoch_s": (total.get("training.train_epoch", 0.0), "s"),
        "training.epoch_self_s": (self_time.get("training.train_epoch", 0.0), "s"),
        "training.step_ms_p50": (median(step_ms) if step_ms else 0.0, "ms"),
        "training.steps": (len(step_ms), "count"),
        "ranking.evaluate_s": (total.get("ranking.evaluate", 0.0), "s"),
        "ranking.predict_s": (total.get("ranking.predict_scores", 0.0), "s"),
        "ranking.rank_s": (total.get("ranking.rank_in_candidates", 0.0), "s"),
        "ranking.rank_calls": (calls.get("ranking.rank_in_candidates", 0), "count"),
        "ranking.metrics_s": (total.get("ranking.metrics_from_ranks", 0.0), "s"),
        "ranking.evaluate_self_s": (self_time.get("ranking.evaluate", 0.0), "s"),
        "cli.self_s": (sum(duration[i] - child[i] for i, s in enumerate(spans) if s[3] < 0), "s"),
        "trace.setup_cover": (inner / (setup_end - setup_start), "frac"),
        "trace.epoch_cover": (cover({i for i, s in enumerate(spans)
                                     if s[0] == "training.train_epoch"}), "frac"),
        "trace.eval_cover": (cover({i for i, s in enumerate(spans)
                                    if s[0] == "ranking.evaluate"}), "frac"),
    }
