"""In-memory spans around the system's public calls, for the traced run.

The benchmark wraps the public callables listed in :data:`SPANS` at run
time, from its own files; nothing under ``src/`` is edited. A span has
a name, start, end, parent and op id. A layer's self time is its span
minus its direct children, so the self times of one op add up to the
op's wall time, less what ran outside every wrapped call (the op's own
self time, reported as ``1 - trace.coverage``).

Two kinds of child carry no exact interval and are recorded as
*aggregated* children (start = parent start, end = start + total):

- ``strace.tokenize``: the time spent inside ``TokenStream`` iteration,
  summed per ``merge_unfinished`` call (one span per token would cost
  more than the tokenizer);
- the live poll phases (``scan`` ... ``fold``), taken from the
  system's own ``PollSpan`` after each ``poll_once``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: (module, attribute path, span name): every public call the traced
#: run times. The span name is the per-layer metric name without its
#: ``_ms`` suffix.
SPANS = (
    ("repro.sources.strace_dir", "StraceDirSource.event_log", "ingest.cases"),
    ("repro.sources.store", "ElstoreSource.event_log", "elstore.read"),
    ("repro.elstore.convert", "convert_source", "elstore.write"),
    ("repro.strace.resume", "merge_unfinished", "strace.merge_parse"),
    ("repro.ingest.parallel", "case_to_columns", "ingest.columns"),
    ("repro.ingest.parallel", "frame_from_case_columns", "core.frame"),
    ("repro.core.eventlog", "EventLog.__init__", "core.frame"),
    ("repro.core.eventlog", "EventLog.apply_mapping_fn", "core.map"),
    ("repro.core.partition", "PartitionEL", "core.partition"),
    ("repro.core.dfg", "DFG.__init__", "core.dfg"),
    ("repro.core.statistics", "IOStatistics.__init__", "core.stats"),
    ("repro.core.coloring", "PartitionColoring.__init__", "core.diff"),
    ("repro.core.diff", "DFGDiff.between", "core.diff"),
    ("repro.pipeline.report", "comparison_report", "render"),
    ("repro.core.render.viewer", "DFGViewer.render", "render"),
    ("repro.pipeline.serialize", "diff_payload", "render"),
    ("repro.live.engine", "LiveIngest.poll", "live.poll"),
    ("repro.live.engine", "LiveIngest.statistics", "live.stats"),
    ("repro.live.engine", "LiveIngest.save_checkpoint", "live.checkpoint"),
    ("repro.live.engine", "LiveIngest.finalize", "live.finalize"),
    ("repro.alerts.engine", "AlertEngine.evaluate", "alerts.evaluate"),
    ("repro.live.watch", "WatchView.refresh", "fleet.render"),
    ("repro.fleet.job", "WatchJob.finalize", "catalog.record"),
)

#: Calls that are counted, not timed: (module, attribute path, count).
COUNTS = (
    ("repro.core.dfg", "DFG.__init__", "core.dfg_builds"),
    ("repro.core.statistics", "IOStatistics.__init__", "core.stats_builds"),
    ("repro.core.mapping", "CallTopDirs.map_call_fp", "core.map_keys"),
)

#: The live poll phases of ``PollSpan`` that belong to ``LiveIngest.poll``.
POLL_PHASES = ("scan", "tail", "decode", "seal", "emit", "fold")


class Tracer:
    """Spans and counts of one measured process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: Id of the op that new spans belong to (any hashable).
        self.op: object = None
        self._stack: list[int] = []
        self._aggregated: dict[tuple[int, str], float] = defaultdict(float)

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append({
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op})
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()
        for (parent, name), total in list(self._aggregated.items()):
            if parent == index:
                self.add_child(parent, name, total)
                del self._aggregated[(parent, name)]

    def add_child(self, parent: int, name: str, seconds: float) -> None:
        """Record an aggregated child of span ``parent``."""
        start = self.spans[parent]["start"]
        self.spans.append({"name": name, "start": start,
                           "end": start + seconds, "parent": parent,
                           "op": self.spans[parent]["op"],
                           "aggregated": True})

    def accumulate(self, name: str, seconds: float) -> None:
        """Add to the aggregated child ``name`` of the open span."""
        if self._stack:
            self._aggregated[(self._stack[-1], name)] += seconds

    def last(self, name: str, op) -> int | None:
        """Index of the latest span ``name`` of op ``op``, if any."""
        for index in range(len(self.spans) - 1, -1, -1):
            span = self.spans[index]
            if span["op"] != op:
                return None
            if span["name"] == name:
                return index
        return None

    # -- analysis ------------------------------------------------------

    def self_times(self, op) -> dict[str, float]:
        """Seconds of self time per span name within one op."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s["op"] == op]
        child_time: dict[int, float] = defaultdict(float)
        for _, span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        result: dict[str, float] = defaultdict(float)
        for index, span in spans:
            result[span["name"]] += (span["end"] - span["start"]
                                     - child_time[index])
        return dict(result)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name, raw attribute) of a patch target."""
    owner = importlib.import_module(module_name)
    *parents, name = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, vars(owner)[name]


def _sites(owner, name: str, raw) -> list[tuple[object, str]]:
    """Every namespace that must see the wrapper: the class itself for
    methods; for module functions, each module that bound the same
    object under some name (``from x import f``)."""
    if isinstance(owner, type):
        return [(owner, name)]
    sites = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is raw:
                sites.append((module, key))
    return sites


def _rewrap(raw, make):
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    return make(raw)


class Patches:
    """A reversible set of wrappers; ``install``/``remove`` only swap
    attributes, so alternating traced and untraced ops is cheap."""

    def __init__(self, tracer: Tracer, *, timed: bool) -> None:
        self.tracer = tracer
        self._swaps: list[tuple[object, str, object, object]] = []
        wrappers: dict[tuple[str, str], object] = {}
        if timed:
            for module, attr, span in SPANS:
                wrappers[(module, attr)] = (span, None)
        for module, attr, count in COUNTS:
            span, _ = wrappers.get((module, attr), (None, None))
            wrappers[(module, attr)] = (span, count)
        for (module, attr), (span, count) in wrappers.items():
            owner, name, raw = _resolve(module, attr)
            wrapper = _rewrap(raw, lambda fn, s=span, c=count:
                              self._wrap(fn, s, c))
            for site, key in _sites(owner, name, raw):
                self._swaps.append((site, key, raw, wrapper))
        if timed:
            owner, name, raw = _resolve("repro.ingest.streaming",
                                        "TokenStream.__iter__")
            self._swaps.append((owner, name, raw, self._wrap_tokens(raw)))

    def _wrap(self, fn, span: str | None, count: str | None):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.counts[count] += 1
            if span is None:
                return fn(*args, **kwargs)
            index = tracer.begin(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_tokens(self, iter_fn):
        tracer = self.tracer
        clock = time.perf_counter

        def traced_iter(stream):
            tokens = iter_fn(stream)
            while True:
                began = clock()
                try:
                    token = next(tokens)
                except StopIteration:
                    tracer.accumulate("strace.tokenize", clock() - began)
                    return
                tracer.accumulate("strace.tokenize", clock() - began)
                yield token

        return traced_iter

    def install(self) -> None:
        for site, key, _, wrapper in self._swaps:
            setattr(site, key, wrapper)

    def remove(self) -> None:
        for site, key, raw, _ in self._swaps:
            setattr(site, key, raw)
