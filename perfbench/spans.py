"""Span and count recording around the public entry points of each layer.

Nothing here edits the program: ``install`` rebinds the public functions
and methods listed in ``TARGETS`` to recording wrappers, in every
``admatch`` module that imported them by name, and the returned callable
puts the originals back. The untraced run never calls ``install``; it
only records the few benchmark-level spans (set-up stages, phases) that
``Recorder.span`` opens explicitly.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

from admatch import annindex, autodiff, cli, data, evaluation, model, pipeline, training

MODULES = (data, model, autodiff, training, evaluation, annindex, pipeline, cli)

SETUP, WRITE, WARMUP, MEASURE, REPLAY, PROBE, CHECK = (
    "setup", "write", "warmup", "measure", "replay", "probe", "check"
)
CLI_STAGES = ("gen-data", "build-vocab", "train", "export-vectors", "build-index",
              "precompute-ad-parts")


class Recorder:
    """In-memory spans (name, phase, start, end, parent) and counts.

    Spans nest through a stack, so a span's parent is the span open when
    it started; a layer's self time is its duration minus its children's.
    """

    def __init__(self) -> None:
        self.phase = SETUP
        self.spans: list[list] = []  # [name, phase, start, end, parent index]
        self.counts: dict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, n: int) -> None:
        self.counts[name].append(n)

    # -- queries ---------------------------------------------------------

    def durations(self, name: str, phases: tuple[str, ...] | None = None) -> list[float]:
        return [
            s[3] - s[2]
            for s in self.spans
            if s[0] == name and (phases is None or s[1] in phases)
        ]

    def self_times(self, name: str, phases: tuple[str, ...]) -> list[float]:
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        return [
            (s[3] - s[2]) - child_time[i]
            for i, s in enumerate(self.spans)
            if s[0] == name and s[1] in phases
        ]


def _wrap(rec: Recorder, fn: Callable, name: str) -> Callable:
    def wrapper(*args, **kwargs):
        idx = rec._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec._close(idx)

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_generator(rec: Recorder, fn: Callable, name: str) -> Callable:
    # the span must cover the consumption, not the creation, of the generator
    def wrapper(*args, **kwargs):
        idx = rec._open(name)
        try:
            items = list(fn(*args, **kwargs))
        finally:
            rec._close(idx)
        return iter(items)

    wrapper.__wrapped__ = fn
    return wrapper


def _backward_counting(rec: Recorder, fn: Callable) -> Callable:
    def backward(self, root):
        rec.count("tape_ops", len(self))
        return fn(self, root)

    return backward


def _search_counting(rec: Recorder, fn: Callable) -> Callable:
    def pq_search(self, *args, **kwargs):
        # the ADC pass scores every stored code once per query
        if self.codebooks is not None:
            rec.count(f"codes_scanned.{rec.phase}", len(self))
        return fn(self, *args, **kwargs)

    return pq_search


# (owner, attribute, span name); owners are modules or classes
TARGETS = (
    (data, "generate_synthetic", "data.generate"),
    (data, "write_jsonl", "data.write_jsonl"),
    (data, "read_log_records", "data.read_log"),
    (data, "build_vocab", "data.build_vocab"),
    (data, "make_instances", "data.make_instances"),
    (data, "request_from_record", "data.request_from_record"),
    (data.PlantedOracle, "click_prob", "data.click_prob"),
    (autodiff.Tape, "backward", "autodiff.backward"),
    (model.MatchingModel, "loss_for_mode", "model.loss_forward"),
    (model.MatchingModel, "qu_forward", "model.qu_forward"),
    (model.MatchingModel, "ad_forward", "model.ad_forward"),
    (model.MatchingModel, "predict", "evaluation.predict"),
    (training, "train", "training.train"),
    (training.Adam, "step", "training.adam_step"),
    (evaluation, "auc", "evaluation.auc"),
    (annindex, "pq_train", "annindex.pq_train"),
    (annindex, "pq_encode", "annindex.pq_encode"),
    (annindex.AnnIndex, "pq_search", "annindex.pq_search"),
    (annindex.AnnIndex, "add", "annindex.add"),
    (annindex.AnnIndex, "add_many", "annindex.export"),
    (annindex.AnnIndex, "load", "annindex.load"),
    (pipeline.BidwordIndex, "lookup", "pipeline.bidword_lookup"),
    (pipeline, "retrieve", "pipeline.retrieve"),
    (pipeline, "prerank", "pipeline.prerank"),
    (pipeline, "simulate", "pipeline.simulate"),
    (pipeline, "write_simulation", "pipeline.write_simulation"),
)


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every target; returns the function that restores the originals."""
    undo: list[tuple[object, str, object]] = []
    for owner, attr, name in TARGETS:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(rec, raw.__func__, name))
            else:
                fn = raw
                if attr == "backward":
                    fn = _backward_counting(rec, fn)
                elif attr == "pq_search":
                    fn = _search_counting(rec, fn)
                new = _wrap(rec, fn, name)
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            continue
        original = getattr(owner, attr)
        wrap = _wrap_generator if attr == "make_instances" else _wrap
        new = wrap(rec, original, name)
        for module in MODULES:
            if getattr(module, attr, None) is original:
                undo.append((module, attr, original))
                setattr(module, attr, new)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ----------------------------------------------------------------------
# per-layer metrics

ALL = (SETUP, WRITE, WARMUP, MEASURE, REPLAY, PROBE, CHECK)

# name -> (span, phases, scale, unit); the value is the median duration
# of one call over the phases, times scale
PER_CALL = {
    "data.request_from_record_us": ("data.request_from_record", ALL, 1e6, "us"),
    "data.click_prob_us": ("data.click_prob", ALL, 1e6, "us"),
    "autodiff.backward_ms": ("autodiff.backward", ALL, 1e3, "ms"),
    "model.loss_forward_ms": ("model.loss_forward", ALL, 1e3, "ms"),
    "model.qu_forward_ms": ("model.qu_forward", (MEASURE,), 1e3, "ms"),
    "model.ad_forward_ms": ("model.ad_forward", (WRITE, MEASURE), 1e3, "ms"),
    "training.adam_step_ms": ("training.adam_step", ALL, 1e3, "ms"),
    "evaluation.predict_s": ("evaluation.predict", ALL, 1.0, "s"),
    "evaluation.auc_ms": ("evaluation.auc", ALL, 1e3, "ms"),
    "annindex.pq_search_ms": ("annindex.pq_search", (MEASURE,), 1e3, "ms"),
    "annindex.add_ms": ("annindex.add", (WRITE,), 1e3, "ms"),
    "pipeline.bidword_lookup_us": ("pipeline.bidword_lookup", (MEASURE,), 1e6, "us"),
    "pipeline.prerank_ms": ("pipeline.prerank", (MEASURE,), 1e3, "ms"),
    "pipeline.simulate_s": ("pipeline.simulate", (REPLAY,), 1.0, "s"),
    # simulate on no requests: the catalog-wide work of every call
    "pipeline.simulate_fixed_s": ("pipeline.simulate", (PROBE,), 1.0, "s"),
    "pipeline.write_simulation_s": ("pipeline.write_simulation", (REPLAY,), 1.0, "s"),
}

# name -> span; the value is the span's total time per set-up repetition
PER_SETUP = {
    "data.generate_s": "data.generate",
    "data.write_jsonl_s": "data.write_jsonl",
    "data.read_log_s": "data.read_log",
    "data.build_vocab_s": "data.build_vocab",
    "data.make_instances_s": "data.make_instances",
    "annindex.export_s": "annindex.export",
    "annindex.pq_train_s": "annindex.pq_train",
    "annindex.pq_encode_s": "annindex.pq_encode",
    "annindex.load_s": "annindex.load",
    **{f"cli.{stage}_s": f"cli.{stage}" for stage in CLI_STAGES},
}

# counts taken from outside, over the first fixed pass of the serving loop
PASS_COUNTS = {
    "pipeline.candidates_per_request": "count",
    "pipeline.keyword_candidates": "count",
    "pipeline.vector_candidates": "count",
    "pipeline.path_overlap": "count",
    "pipeline.parts_misses": "count",
    "pipeline.empty_requests": "count",
    "pipeline.presented_ratio": "ratio",
    "pipeline.vector_presented_ratio": "ratio",
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(rec: Recorder, setup_repeats: int, pass_counts: dict) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    out: dict[str, dict] = {}
    for name, (span, phases, scale, unit) in PER_CALL.items():
        out[name] = {"value": _median(rec.durations(span, phases)) * scale, "unit": unit}
    retrieve_self = rec.self_times("pipeline.retrieve", (MEASURE,))
    out["pipeline.retrieve_self_ms"] = {"value": _median(retrieve_self) * 1e3, "unit": "ms"}
    for name, span in PER_SETUP.items():
        total = sum(rec.durations(span, (SETUP,)))
        out[name] = {"value": total / setup_repeats, "unit": "s"}
    out["autodiff.tape_ops"] = {"value": _median(rec.counts["tape_ops"]), "unit": "count"}
    steps = len(rec.durations("training.adam_step"))
    trains = len(rec.durations("training.train"))
    out["training.steps"] = {"value": steps / trains if trains else 0, "unit": "count"}
    codes = rec.counts[f"codes_scanned.{REPLAY}"]
    out["annindex.codes_scanned"] = {"value": _median(codes), "unit": "count"}
    for name, unit in PASS_COUNTS.items():
        out[name] = {"value": pass_counts.get(name, 0), "unit": unit}
    return out
