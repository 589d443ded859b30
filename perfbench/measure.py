"""The measured process: import the system, set it up, run ops, report.

Started by ``perfbench/run.py`` after the generator has staged the
inputs; it writes no input of its own apart from live-watch's untimed
appends. Modes:

- ``run``: imports, set-up and the first op (one ``setup_s`` sample),
  then ops for ``--seconds`` (the end-to-end metrics);
- ``trace``: the same ops with spans around the public calls, with
  untraced ops interleaved for ``trace.overhead`` (the per-layer
  metrics).

The result is one JSON file (``--out``) of raw wall times, with the
calibration samples (see calibrate.py) taken between ops, untimed. All
timestamps come from ``time.monotonic()``, the clock the harness
started this process by.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
from tracing import POLL_PHASES, Patches, Tracer

#: Slices a replayed trace file is cut into (one per poll).
SLICES = 60

#: The compare ops run at CLI defaults: topdirs mapping with two
#: levels, auto workers, strict parsing, ascii render, ``--top 10``.
MAPPING, LEVELS, TOP = "topdirs", 2, 10

#: Per-layer metrics of the batch workloads: (metric, span); self time
#: per op, median over the traced ops.
BATCH_LAYERS = {
    "strace-compare": (("ingest.cases_ms", "ingest.cases"),),
    "elog-compare": (("elstore.read_ms", "elstore.read"),),
}
CORE_LAYERS = (("core.frame_ms", "core.frame"),
               ("core.map_ms", "core.map"),
               ("core.partition_ms", "core.partition"),
               ("core.dfg_ms", "core.dfg"),
               ("core.stats_ms", "core.stats"),
               ("core.diff_ms", "core.diff"),
               ("render.ms", "render"))

#: Per-layer metrics of live-watch: (metric, span); self time per poll,
#: median over the traced polls.
LIVE_LAYERS = (("live.poll_ms", "live.poll"),
               *((f"live.{p}_ms", f"live.{p}") for p in POLL_PHASES),
               ("live.stats_ms", "live.stats"),
               ("alerts.evaluate_ms", "alerts.evaluate"),
               ("live.checkpoint_ms", "live.checkpoint"),
               ("fleet.render_ms", "fleet.render"))


@dataclass
class Op:
    """What one compare op produced, checked after its timer stopped."""

    events: int
    dfgs: dict = field(default_factory=dict)
    stats: object = None
    out_bytes: int = 0


def _edges(dfg) -> list:
    return sorted([a, b, n] for (a, b), n in dfg.edges().items())


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    """Peak RSS so far of this process plus its largest ingest worker
    (pages a forked worker shares with this process count in both)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _timed(fn):
    """``fn()`` after a full collection: (value, wall s, start time)."""
    gc.collect()
    started = time.monotonic()
    began = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - began, started


class Result:
    """Everything the harness reads back from this process."""

    def __init__(self) -> None:
        self.data = {"ops_ms": [], "op_mid": [], "op_events": [],
                     "attempted": 0, "failed": 0, "problems": [],
                     "harness_s": 0.0, "first_op_end": None,
                     "calibration": [], "counts": {}, "layers": {}}

    def outcome(self, problems: list[str], n: int = 1) -> None:
        self.data["attempted"] += n
        if problems:
            self.data["failed"] += n
            self.data["problems"].extend(problems[:3])

    def timed(self, wall_s: float, events: int, started: float) -> None:
        self.data["ops_ms"].append(wall_s * 1e3)
        self.data["op_mid"].append(started + wall_s / 2)
        self.data["op_events"].append(events)

    def calibrate(self) -> None:
        self.data["calibration"].append(calibrate.sample())


def _traced(tracer: Tracer, patches: Patches, op_id, fn):
    """Run ``fn`` as one traced op: (value, root span index, wall s,
    start time)."""
    gc.collect()
    tracer.op = op_id
    patches.install()
    started = time.monotonic()
    root = tracer.begin("op")
    try:
        value = fn()
    finally:
        tracer.end(root)
        patches.remove()
    span = tracer.spans[root]
    return value, root, span["end"] - span["start"], started


def _factor(result: Result, started: float, seconds: float) -> float:
    """Rescales a time measured from ``started`` to the reference host
    speed, like the harness rescales the end-to-end times."""
    return calibrate.rescale(1.0, result.data["calibration"],
                             started + seconds / 2)


class TracedOps:
    """Per-op self times of the traced ops, rescaled, and the rescaled
    untraced ops interleaved with them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.pending = []

    def add(self, op_id, started: float, wall: float) -> None:
        self.pending.append((op_id, started, wall))

    def summary(self, result: Result, layers: dict, names) -> dict:
        """Adds the medians of ``names`` ((metric, span) pairs) and the
        ``trace.*`` metrics to ``layers``; returns the rescaled self
        times per op id."""
        selfs, traced_ms, coverage = {}, [], []
        for op_id, started, wall in self.pending:
            factor = _factor(result, started, wall)
            times = self.tracer.self_times(op_id)
            selfs[op_id] = {k: v * factor for k, v in times.items()}
            traced_ms.append(wall * factor * 1e3)
            coverage.append(1.0 - times["op"] / wall)
        for name, span in names:
            layers[name] = _median([t.get(span, 0.0) * 1e3
                                    for t in selfs.values()])
        untraced = [ms * _factor(result, mid, 0.0) for ms, mid in
                    zip(result.data["ops_ms"], result.data["op_mid"])]
        layers["trace.op_ms_p50"] = _median(traced_ms)
        layers["trace.overhead"] = _median(traced_ms) / _median(untraced) - 1
        layers["trace.coverage"] = _median(coverage)
        return selfs


# -- compare workloads -------------------------------------------------------


class Batch:
    """``compare --green G`` then ``diff --json`` on the same loaded log."""

    def __init__(self, workload: str, inputs: Path, work: Path) -> None:
        self.workload = workload
        self.st_dir = inputs / "st"
        self.work = work
        self.reference = json.loads(
            (inputs / "reference.json").read_text(encoding="utf-8"))
        self.green = self.reference["green"]
        self.red = self.reference["red"]
        self.spec = f"strace:{self.st_dir}"

    def setup(self) -> None:
        """elog-compare reads a store: users ``convert`` once, then
        compare many times."""
        if self.workload == "elog-compare":
            from repro.elstore.convert import convert_source

            path = self.work / "exp-b.elog"
            convert_source(self.spec, path)
            self.spec = f"elog:{path}"

    def op(self) -> Op:
        from repro.core.coloring import PartitionColoring
        from repro.core.dfg import DFG
        from repro.core.diff import DFGDiff
        from repro.core.partition import PartitionEL
        from repro.core.render.viewer import DFGViewer
        from repro.core.statistics import IOStatistics
        from repro.fleet.job import mapping_from_name
        from repro.pipeline.report import comparison_report
        from repro.pipeline.serialize import diff_payload
        from repro.sources import open_source

        log = open_source(self.spec, workers=None, strict=True).event_log()
        log.apply_mapping_fn(mapping_from_name(MAPPING, LEVELS))
        # compare --green
        green_log, red_log = PartitionEL(log, [self.green])
        stats = IOStatistics(log)
        green_dfg, red_dfg = DFG(green_log), DFG(red_log)
        coloring = PartitionColoring(green_dfg, red_dfg, stats)
        text = comparison_report(coloring, stats)
        whole = DFG(log)
        text += DFGViewer(whole, stats, coloring).render("ascii")
        # diff --json
        diff = DFGDiff.between(green_log, red_log)
        text += json.dumps(diff_payload(diff, top=TOP), sort_keys=True,
                           indent=2)
        return Op(events=log.n_events, stats=stats,
                  dfgs={"all": whole, self.green: green_dfg,
                        self.red: red_dfg},
                  out_bytes=len(text.encode("utf-8")))

    def check(self, op: Op) -> list[str]:
        problems = [f"{part}: DFG edges differ from the reference"
                    for part, dfg in op.dfgs.items()
                    if _edges(dfg) != self.reference[part]["edges"]]
        counts = {a: op.stats[a].event_count
                  for a in op.stats.activities()}
        if counts != self.reference["all"]["activity_events"]:
            problems.append("per-activity event counts differ from the "
                            "reference")
        return problems

    def exact_counts(self) -> dict:
        """Parser counts that must repeat exactly across runs."""
        from repro.sources import StraceDirSource
        from repro.sources.base import combine_merge_stats

        records, merges = 0, []
        for case in StraceDirSource(self.st_dir).iter_cases():
            records += len(case)
            merges.append(case.merge_stats)
        lines = sum(path.read_bytes().count(b"\n")
                    for path in sorted(self.st_dir.iterdir()))
        return {"strace.lines": lines, "strace.records": records,
                "strace.merged_pairs":
                    combine_merge_stats(merges).merged_pairs}

    def attempt(self, result: Result):
        """One op whose failure is counted, never fatal."""
        result.calibrate()
        try:
            op, wall, started = _timed(self.op)
        except Exception as exc:
            result.outcome([f"{type(exc).__name__}: {exc}"])
            return None
        result.outcome(self.check(op))
        result.timed(wall, op.events, started)
        return op


def run_batch(args, result: Result) -> None:
    began = time.perf_counter()
    bench = Batch(args.workload, args.inputs, args.work)
    result.data["harness_s"] += time.perf_counter() - began
    counter = Tracer()
    counting = Patches(counter, timed=False)
    counting.install()
    try:
        bench.setup()
        first = bench.op()
    except Exception as exc:
        result.outcome([f"set-up: {type(exc).__name__}: {exc}"])
        return
    finally:
        counting.remove()
    result.data["first_op_end"] = time.monotonic()
    result.calibrate()
    result.outcome(bench.check(first))
    result.data["counts"] = {**counter.counts, "events": first.events,
                             "core.dfg_edges": first.dfgs["all"].n_edges}
    del first
    if args.mode == "trace":
        trace_batch(args, bench, result)
    else:
        deadline = time.monotonic() + args.seconds
        while time.monotonic() < deadline or result.data["attempted"] < 3:
            bench.attempt(result)
        result.calibrate()
        result.data["peak_rss_mb"] = _peak_rss_mb()
    if args.counts or args.mode == "trace":
        try:
            result.data["counts"].update(bench.exact_counts())
        except Exception as exc:
            result.data["problems"].append(
                f"counts: {type(exc).__name__}: {exc}")


def trace_batch(args, bench: Batch, result: Result) -> None:
    import repro.elstore.convert  # called through the module: traced
    from repro.sources import StraceDirSource

    tracer = Tracer()
    patches = Patches(tracer, timed=True)
    ops = TracedOps(tracer)
    deadline = time.monotonic() + args.seconds
    n = 0
    while time.monotonic() < deadline or n < 3:
        n += 1
        bench.attempt(result)
        try:
            op, _, wall, started = _traced(tracer, patches, n, bench.op)
        except Exception as exc:
            result.outcome([f"{type(exc).__name__}: {exc}"])
            continue
        result.outcome(bench.check(op))
        ops.add(n, started, wall)
    result.calibrate()
    if result.data["failed"]:  # the layers of failed ops mean nothing
        return
    layers = {"render.bytes": op.out_bytes}
    for name in ("core.map_keys", "core.dfg_builds", "core.stats_builds"):
        layers[name] = tracer.counts[name] / n
    ops.summary(result, layers, BATCH_LAYERS[args.workload] + CORE_LAYERS)
    if args.workload == "strace-compare":
        # The parser's split needs the parse in this process.
        _, _, wall, started = _traced(
            tracer, patches, "workers=1",
            StraceDirSource(bench.st_dir, workers=1).event_log)
        result.calibrate()
        factor = _factor(result, started, wall)
        selfs = tracer.self_times("workers=1")
        for name in ("strace.tokenize", "strace.merge_parse",
                     "ingest.columns"):
            layers[f"{name}_ms"] = selfs.get(name, 0.0) * factor * 1e3
        sequential, pooled = [], []
        for _ in range(2):
            _, wall, started = _timed(
                StraceDirSource(bench.st_dir, workers=1).event_log)
            sequential.append((started, wall))
            _, wall, started = _timed(StraceDirSource(bench.st_dir).event_log)
            pooled.append((started, wall))
            result.calibrate()
        sequential, pooled = ([w * _factor(result, t, w) for t, w in timings]
                              for timings in (sequential, pooled))
        layers["ingest.pool_speedup"] = _median(sequential) / _median(pooled)
    else:
        elog = bench.work / "traced.elog"
        _, _, wall, started = _traced(
            tracer, patches, "convert",
            lambda: repro.elstore.convert.convert_source(
                f"strace:{bench.st_dir}", elog))
        result.calibrate()
        layers["elstore.write_ms"] = tracer.self_times("convert").get(
            "elstore.write", 0.0) * _factor(result, started, wall) * 1e3
        layers["elstore.bytes_per_event"] = (
            elog.stat().st_size / result.data["counts"]["events"])
    result.data["layers"] = layers
    tracer.write(args.work / "spans.json")


# -- live-watch ------------------------------------------------------------


class Live:
    """A durable watch, built as ``st-inspector watch DIR --rules R
    --checkpoint C --emit E --alert-log A --catalog D`` builds it, over
    a replay of a staged run."""

    def __init__(self, inputs: Path, work: Path) -> None:
        self.work = work
        self.rules = inputs / "rules.toml"
        self.reference = json.loads(
            (inputs / "reference.json").read_text(encoding="utf-8"))
        self.files = []
        for path in sorted((inputs / "replay").iterdir()):
            data = path.read_bytes()
            cuts = [len(data) * k // SLICES for k in range(SLICES + 1)]
            self.files.append((path.name, [data[a:b] for a, b in
                                           zip(cuts, cuts[1:])]))
        self.n_replays = 0

    def new_job(self, *, telemetry: bool):
        from repro.fleet.job import JobSpec

        self.n_replays += 1
        self.home = self.work / f"replay-{self.n_replays}"
        if self.home.exists():
            shutil.rmtree(self.home)
        self.watched = self.home / "traces"
        self.watched.mkdir(parents=True)
        return JobSpec(source=str(self.watched),
                       rules=str(self.rules),
                       checkpoint=str(self.home / "traces.ckpt.json"),
                       emit=str(self.home / "traces.elog"),
                       alert_log=str(self.home / "alerts.jsonl"),
                       catalog=str(self.home / "runs.db"),
                       run_name=self.watched.name,
                       telemetry=telemetry).build()

    def append(self, k: int) -> None:
        for name, parts in self.files:
            with open(self.watched / name, "ab") as handle:
                handle.write(parts[k])

    def check(self, job, packed: Path | None) -> list[str]:
        """The watcher must equal a batch ingest of the final directory,
        and its packed .elog must equal ``convert`` byte for byte."""
        from repro.core.dfg import DFG
        from repro.core.statistics import IOStatistics
        from repro.elstore.convert import convert_source
        from repro.fleet.job import mapping_from_name
        from repro.pipeline.serialize import stats_payload
        from repro.sources import open_source

        problems = []
        engine = job.engine
        live_dfg = engine.snapshot_dfg()
        if _edges(live_dfg) != self.reference["all"]["edges"]:
            problems.append("live DFG edges differ from the reference")
        log = open_source(f"strace:{self.watched}").event_log()
        log.apply_mapping_fn(mapping_from_name(MAPPING, LEVELS))
        if live_dfg != DFG(log):
            problems.append("live DFG differs from a batch ingest")
        if stats_payload(engine.statistics()) \
                != stats_payload(IOStatistics(log)):
            problems.append("live statistics differ from a batch ingest")
        batch = convert_source(f"strace:{self.watched}",
                               self.home / "batch.elog")
        if packed is None or packed.read_bytes() != batch.read_bytes():
            problems.append("packed .elog differs from convert")
        return problems

    def exact_counts(self, job) -> dict:
        engine = job.engine
        return {"events": engine.total_events,
                "core.dfg_edges": engine.snapshot_dfg().n_edges,
                "live.checkpoint_bytes":
                    engine.checkpoint_path.stat().st_size,
                "live.journal_bytes":
                    engine.emit_journal.journal_path.stat().st_size,
                "alerts.fired": engine.alerts.n_fired}


@dataclass
class Replay:
    """One replay's per-poll observations (index = poll - 1)."""

    id: int
    walls: list = field(default_factory=list)
    started: list = field(default_factory=list)
    sealed: list = field(default_factory=list)
    sidecar: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def replay(bench: Live, result: Result, *, first: bool = False,
           tracer: Tracer | None = None,
           patches: Patches | None = None) -> Replay:
    """Build a job, then 60 × (append the next slice of every file,
    ``poll_once``), then finalize and check. A failure anywhere fails
    every op of the run (the harness reads ``live_failed``)."""
    job = bench.new_job(telemetry=tracer is not None)
    seen = Replay(id=bench.n_replays)
    problems: list[str] = []
    try:
        for k in range(SLICES):
            if k % 10 == 0 and not (first and k == 0):
                result.calibrate()
            began = time.perf_counter()
            bench.append(k)
            if first and k == 0:
                result.data["harness_s"] += time.perf_counter() - began
            if tracer is None:
                outcome, wall, started = _timed(job.poll_once)
            else:
                outcome, _, wall, started = _traced(
                    tracer, patches, (seen.id, k), job.poll_once)
                _attach_phases(tracer, (seen.id, k), outcome.span)
            if first and k == 0:
                result.data["first_op_end"] = time.monotonic()
                result.calibrate()
            seen.walls.append(wall)
            seen.started.append(started)
            seen.sealed.append(outcome.result.n_sealed)
            seen.sidecar.append(job.engine.checkpoint_path.stat().st_size)
        result.calibrate()
        if first:
            result.data["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            tracer.op = (seen.id, "finalize")
            patches.install()
        try:
            job.engine.finalize()
            seen.counts = bench.exact_counts(job)
            packed = job.finalize()
        finally:
            if patches is not None:
                patches.remove()
        problems = bench.check(job, packed)
    except Exception as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    finally:
        job.close()
    result.outcome(problems, n=SLICES)
    if problems:
        result.data["live_failed"] = True
    shutil.rmtree(bench.home)
    return seen


def _attach_phases(tracer: Tracer, op_id, span) -> None:
    """The system's own poll phases become children of ``live.poll``."""
    parent = tracer.last("live.poll", op_id)
    if parent is None or span is None:
        return
    for phase in POLL_PHASES:
        timing = span.phases.get(phase)
        if timing is not None:
            tracer.add_child(parent, f"live.{phase}", timing.wall_s)


def _record_polls(result: Result, seen: Replay) -> None:
    # The first poll of every replay builds the job's lazy state (the
    # baseline); the ops are the polls after it.
    for wall, n, started in zip(seen.walls[1:], seen.sealed[1:],
                                seen.started[1:]):
        result.timed(wall, n, started)


def run_live(args, result: Result) -> None:
    began = time.perf_counter()
    bench = Live(args.inputs, args.work)
    result.data["harness_s"] += time.perf_counter() - began
    deadline = time.monotonic() + args.seconds
    if args.mode == "trace":
        trace_live(args, bench, result, deadline)
        return
    # A replay is the unit of work: start another only if it can end
    # by the deadline, so a run's length does not swing with host speed.
    last = 0.0
    while not last or time.monotonic() + last <= deadline:
        began = time.monotonic()
        seen = replay(bench, result, first=not last)
        if not last:
            result.data["counts"] = seen.counts
        last = time.monotonic() - began
        _record_polls(result, seen)
        if result.data.get("live_failed"):
            return


def trace_live(args, bench: Live, result: Result, deadline) -> None:
    tracer = Tracer()
    patches = Patches(tracer, timed=True)
    traced: list[Replay] = []
    while len(traced) < 2 or time.monotonic() < deadline:
        seen = replay(bench, result, first=not traced)
        if not traced:
            result.data["counts"] = seen.counts
        _record_polls(result, seen)
        traced.append(replay(bench, result, tracer=tracer,
                             patches=patches))
        if result.data.get("live_failed"):
            return
    ops = TracedOps(tracer)
    for seen in traced:
        for k in range(1, SLICES):
            ops.add((seen.id, k), seen.started[k], seen.walls[k])
    layers: dict = {}
    selfs = ops.summary(result, layers, LIVE_LAYERS)
    sidecar_per_event, first_decile, last_decile, finals = [], [], [], []
    for seen in traced:
        checkpoint_s = [selfs[(seen.id, k)].get("live.checkpoint", 0.0)
                        for k in range(1, SLICES)]
        decile = len(checkpoint_s) // 10
        first_decile += checkpoint_s[:decile]
        last_decile += checkpoint_s[-decile:]
        sidecar_per_event += [size / n for size, n in
                              zip(seen.sidecar[1:], seen.sealed[1:]) if n]
        factor = _factor(result, seen.started[-1], seen.walls[-1])
        finals.append({k: v * factor for k, v in
                       tracer.self_times((seen.id, "finalize")).items()})
    layers["live.finalize_ms"] = _median(
        [f.get("live.finalize", 0.0) * 1e3 for f in finals])
    layers["catalog.record_ms"] = _median(
        [f.get("catalog.record", 0.0) * 1e3 for f in finals])
    layers["live.checkpoint_growth"] = (statistics.fmean(last_decile)
                                        / statistics.fmean(first_decile))
    layers["live.checkpoint_bytes_per_event"] = _median(sidecar_per_event)
    counts = result.data["counts"]
    layers["live.emit_bytes_per_event"] = (
        counts["live.journal_bytes"] / counts["events"])
    layers["alerts.fired"] = counts["alerts.fired"]
    untraced = [ms * _factor(result, mid, 0.0) for ms, mid in
                zip(result.data["ops_ms"], result.data["op_mid"])]
    layers["live.poll_ms_p90"] = statistics.quantiles(untraced, n=10)[-1]
    result.data["layers"] = layers
    tracer.write(args.work / "spans.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--counts", action="store_true",
                        help="also count the parser's lines, records and "
                             "merged pairs (an untimed pass at the end)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    result = Result()
    if args.workload == "live-watch":
        run_live(args, result)
    else:
        run_batch(args, result)
    args.out.write_text(json.dumps(result.data), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
