"""Span recorders wrapped around goe's public module attributes.

The benchmark installs these wrappers from the outside; goe itself carries
no tracing code. A wrapped function is rebound in every loaded ``goe.*``
module that holds the same object, so internal calls made through module
globals (``gcn.train_classifier`` calling ``forward``) and names imported
with ``from .graph import ...`` are both seen. Class attributes are replaced
on the class. A target whose attribute no longer exists is listed as missing
instead of failing, so a later refactor of goe degrades the trace, not the
run.
"""

from __future__ import annotations

import collections
import functools
import itertools
import statistics
import sys
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Spans and counters kept in memory until the run ends.

    A span is (id, parent id, name, start, end, workload, repeat). Spans
    opened in a worker thread with nothing open on that thread take the
    innermost span open on the thread that created the tracer as parent, so
    the chat pool's puts nest under ``llm.identify``.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.repeat: str | None = None
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._owner_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[(self.repeat, name)] += amount

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent_stack = stack if stack else self._owner_stack
        parent = parent_stack[-1] if parent_stack else None
        span_id = next(self._ids)
        repeat = self.repeat
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, self.workload, repeat))

    def span_records(self) -> list[dict]:
        keys = ("id", "parent", "name", "start", "end", "workload", "repeat")
        return [dict(zip(keys, rec)) for rec in self.spans]


# ---------------------------------------------------------------------------
# Wrapper factories: (tracer, original callable) -> replacement
# ---------------------------------------------------------------------------

def timed(name: str, counter: str | None = None):
    def make(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                tracer.count(counter)
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper
    return make


def _forward(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        training = bool(kwargs.get("training"))
        if training:
            tracer.count("gcn.epochs")
        with tracer.span("gcn.forward_train" if training else "gcn.forward_eval"):
            return fn(*args, **kwargs)
    return wrapper


def _cache_get(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hit = fn(*args, **kwargs)
        tracer.count("llm.cache_misses" if hit is None else "llm.cache_hits")
        return hit
    return wrapper


def _identify(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span("llm.identify"):
            pseudo, annotations = fn(*args, **kwargs)
        for ann in annotations:
            tracer.count(f"llm.parse_{ann.parsed}")
        return pseudo, annotations
    return wrapper


def _counted(counter: str):
    def make(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(counter)
            return fn(*args, **kwargs)
        return wrapper
    return make


# (module under goe, attribute path, wrapper factory)
TARGETS = [
    ("synthetic", "make_planted_tag", timed("synthetic.make_planted_tag")),
    ("synthetic", "CentroidEmbeddingProvider.embed", timed("synthetic.centroid_embed")),
    ("graph", "save_dataset", timed("graph.save_dataset")),
    ("graph", "load_dataset", timed("graph.load_dataset")),
    ("graph", "normalize_adjacency", timed("graph.normalize_adjacency")),
    ("graph", "row_stochastic_adjacency", timed("graph.row_stochastic_adjacency")),
    ("graph", "sample_data_split", timed("graph.sample_data_split")),
    ("gcn", "train_classifier", timed("gcn.train_classifier")),
    ("gcn", "train_binary_head", timed("gcn.train_binary_head")),
    ("gcn", "forward", _forward),
    ("gcn", "backward", timed("gcn.backward")),
    ("gcn", "adam_step", timed("gcn.adam_step")),
    ("objectives", "objective_loss", timed("objectives.objective_loss")),
    ("scoring", "score_nodes", timed("scoring.score_nodes", "scoring.score_nodes_calls")),
    ("metrics", "auroc", timed("metrics.auroc")),
    ("metrics", "aupr", timed("metrics.aupr")),
    ("metrics", "fpr_at_95_tpr", timed("metrics.fpr_at_95_tpr")),
    ("metrics", "id_accuracy", timed("metrics.id_accuracy")),
    ("llm", "ChatCache.__init__", timed("llm.chat_cache_open")),
    ("llm", "ChatCache.get", _cache_get),
    ("llm", "ChatCache.put", timed("llm.cache_put", "llm.cache_puts")),
    ("llm", "ReplayChatClient.__init__", timed("llm.replay_client_open")),
    ("llm", "MockChatClient.complete", _counted("llm.complete_calls")),
    ("llm", "ReplayChatClient.complete", _counted("llm.complete_calls")),
    ("llm", "identify_pseudo_ood", _identify),
    ("llm", "generate_pseudo_ood", timed("llm.generate")),
    ("llm", "embed_texts", timed("llm.embed_texts")),
    ("llm", "augment_graph", timed("llm.augment_graph")),
    ("harness", "run_experiment", timed("harness.run_experiment")),
    ("harness", "run_seed", timed("harness.run_seed")),
    ("harness", "build_pseudo_supervision", timed("harness.build_pseudo_supervision")),
    ("harness", "write_scores_csv", timed("harness.write_scores_csv")),
    ("harness", "write_report", timed("harness.write_report")),
]


def _goe_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "goe" or name.startswith("goe."))]


def install(tracer: Tracer) -> tuple[list[tuple], list[str]]:
    """Wrap every target that exists; return (undo records, missing targets)."""
    undo: list[tuple] = []
    missing: list[str] = []
    modules = _goe_modules()
    for module_name, path, make in TARGETS:
        owner = sys.modules.get(f"goe.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
            continue
        original = vars(owner)[attr]
        wrapper = make(tracer, original)
        if isinstance(owner, type):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, original))
                    setattr(mod, name, wrapper)
    return undo, missing


def uninstall(undo: list[tuple]) -> None:
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the spans
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for _, parent, _, start, end, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(children[sid], start, end)
            for sid, _, _, start, end, _, _ in spans}


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# Per-layer metrics taken over the set-ups rather than the repeats.
SETUP_METRICS = ("synthetic.make_planted_tag_s", "graph.save_dataset_s")


def layer_metrics(tracer: Tracer, repeats: list[str], setup_repeats: list[str]) -> dict:
    """Medians over ``repeats`` of per-repeat totals, plus call-time quantiles.

    Set-up spans (planted graph, dataset write) come from ``setup_repeats``.
    """
    selves = self_times(tracer.spans)
    per_repeat: dict[str, dict[str, float]] = {r: collections.Counter()
                                               for r in repeats + setup_repeats}
    calls: dict[str, list[float]] = collections.defaultdict(list)
    for sid, _, name, start, end, _, repeat in tracer.spans:
        if repeat not in per_repeat:
            continue
        totals = per_repeat[repeat]
        totals[f"{name}_s"] += end - start
        totals[f"{name.split('.')[0]}.self_s"] += selves[sid]
        if name in ("gcn.train_classifier", "harness.run_experiment"):
            totals[f"{name}_self_s"] += selves[sid]
        if repeat in repeats:
            calls[name].append((end - start) * 1e3)
    for (repeat, name), value in tracer.counts.items():
        if repeat in per_repeat:
            per_repeat[repeat][name] += value

    def median_of(name: str, source: list[str]) -> float:
        return statistics.median(per_repeat[r].get(name, 0) for r in source) if source else 0.0

    names = {name for r in repeats for name in per_repeat[r]}
    out = {name: median_of(name, repeats) for name in names}
    for name in SETUP_METRICS:
        out[name] = median_of(name, setup_repeats)
    for span_name in ("gcn.forward_train", "gcn.forward_eval", "gcn.backward",
                      "gcn.adam_step", "objectives.objective_loss"):
        for q in (0.5, 0.9):
            out[f"{span_name}_ms_p{round(q * 100)}"] = _quantile(calls[span_name], q)
    out["gcn.train_self_s"] = out.pop("gcn.train_classifier_self_s", 0.0)
    lookups = out.get("llm.cache_hits", 0) + out.get("llm.cache_misses", 0)
    out["llm.cache_hit_ratio"] = out.get("llm.cache_hits", 0) / lookups if lookups else 0.0
    return out
