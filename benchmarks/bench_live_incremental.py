"""Incremental live ingestion vs full re-ingest on a growing directory.

The scenario the live subsystem exists for: a trace directory fills up
over time (here, ``POLLS`` rounds of ``FILES_PER_POLL`` new files
each — one IOR rank's trace per file) and an observer wants the
current DFG after every round. Two strategies:

- **full re-ingest** — batch-parse the whole directory from scratch at
  every round (what the tooling forced before ``repro.live``): cost of
  round *k* grows with the *total* bytes, O(k · file);
- **incremental** — one :class:`~repro.live.engine.LiveIngest` polls
  the directory and folds only the delta: cost of round *k* is the
  *new* bytes, O(file).

The bench times both, asserts the incremental DFG equals the batch one
*after every round* (equivalence first, throughput second), and
reports the totals: summed over n rounds the full-re-ingest strategy
does O(n²/2) file-parses against the incremental O(n), so the expected
advantage at 10 rounds is ~5x and grows linearly with the horizon.

The same comparison is made for the *render path*: per refresh, the
watch display needs the Sec. IV-B statistics of the standing graph.
``engine.statistics()`` assembles them from the seal-time accumulators
at O(delta); the pre-accumulator strategy recomputed ``IOStatistics``
over the whole log at O(total events) per refresh — here over the
batch log each round re-reads for its DFG check. Both are timed every
round and asserted field-identical (floats included).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_live_incremental.py
    PYTHONPATH=src python benchmarks/bench_live_incremental.py --polls 20

or through pytest (excluded from tier-1; the files are bench_*.py)::

    PYTHONPATH=src python -m pytest benchmarks/bench_live_incremental.py -s
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import time
from pathlib import Path

import pytest

from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.core.statistics import IOStatistics
from repro.live.engine import LiveIngest

from conftest import paper_vs_measured

#: Directory growth schedule: POLLS rounds x FILES_PER_POLL new files.
POLLS = 10
FILES_PER_POLL = 10

MAPPING = CallTopDirs(levels=2)


def build_source(directory: Path, *, polls: int,
                 files_per_poll: int) -> list[Path]:
    """Simulate one IOR rank per eventual file; returns sorted paths."""
    from repro.simulate.strace_writer import (
        EXPERIMENT_A_CALLS,
        write_trace_files,
    )
    from repro.simulate.workloads.ior import IORConfig, simulate_ior

    ranks = polls * files_per_poll
    result = simulate_ior(IORConfig(
        ranks=ranks, ranks_per_node=files_per_poll, segments=2,
        cid="ior", seed=4242))
    return sorted(write_trace_files(
        result.recorders, directory, trace_calls=EXPERIMENT_A_CALLS,
        unfinished_probability=0.1, seed=7))


def run_growth(source_files: list[Path], live_dir: Path, *,
               polls: int, files_per_poll: int) -> dict:
    """Replay the growth schedule, timing both strategies per round."""
    engine = LiveIngest(live_dir, mapping=MAPPING)
    incremental_s = 0.0
    full_s = 0.0
    stats_inc_s = 0.0
    stats_full_s = 0.0
    batch_dfg = None
    for round_index in range(polls):
        batch = source_files[round_index * files_per_poll:
                             (round_index + 1) * files_per_poll]
        for path in batch:
            shutil.copy(path, live_dir / path.name)

        begin = time.perf_counter()
        engine.poll()
        live_dfg = engine.snapshot_dfg()
        incremental_s += time.perf_counter() - begin

        # Render path, new: statistics assembled from the seal-time
        # accumulators — O(delta events) per refresh.
        begin = time.perf_counter()
        live_stats = engine.statistics()
        stats_inc_s += time.perf_counter() - begin

        begin = time.perf_counter()
        log = EventLog.from_source(live_dir, workers=1) \
            .with_mapping(MAPPING)
        batch_dfg = DFG(log)
        full_s += time.perf_counter() - begin

        assert live_dfg == batch_dfg, (
            f"round {round_index + 1}: incremental DFG diverged "
            f"from full re-ingest")

        # Render path, old: recompute IOStatistics over the whole log
        # (the batch log just re-read) — O(total events) per refresh.
        begin = time.perf_counter()
        rebuilt = IOStatistics(log)
        stats_full_s += time.perf_counter() - begin

        for activity in rebuilt.activities():
            assert live_stats[activity] == rebuilt[activity], (
                f"round {round_index + 1}: incremental statistics "
                f"diverged on {activity!r}")
    return {
        "polls": polls,
        "files": polls * files_per_poll,
        "events": engine.total_events,
        "edges": batch_dfg.n_edges,
        "incremental_s": incremental_s,
        "full_s": full_s,
        "advantage": full_s / incremental_s,
        "stats_inc_s": stats_inc_s,
        "stats_full_s": stats_full_s,
        "stats_advantage": stats_full_s / stats_inc_s,
    }


#: Fresh-engine repetitions per arm of the overhead comparison; the
#: minimum over repeats filters scheduler noise out of a ms-scale loop.
OVERHEAD_REPEATS = 5

#: Absolute slack (seconds) added to the overhead guard so that clock
#: resolution on a near-zero baseline cannot fail a healthy build.
OVERHEAD_SLACK_S = 0.005

_overhead_run = itertools.count()


def measure_telemetry_overhead(source_files: list[Path], work_dir: Path,
                               *, polls: int, files_per_poll: int,
                               repeats: int = OVERHEAD_REPEATS) -> dict:
    """Time the poll loop with telemetry off vs on, best-of-``repeats``.

    Each run gets a fresh directory and a fresh engine so neither arm
    benefits from warm page caches of the other's files; only the
    ``engine.poll()`` calls are timed (copying the source files in is
    setup, not pipeline work). The ratio bounds the cost of the span
    and counter bookkeeping that ``--metrics-port``/``--metrics-log``
    switch on — the docs promise it stays within 5%.
    """
    from repro.telemetry import Telemetry

    def timed_loop(telemetry) -> float:
        live = work_dir / f"overhead-{next(_overhead_run)}"
        live.mkdir()
        engine = LiveIngest(live, mapping=MAPPING, telemetry=telemetry)
        total = 0.0
        for round_index in range(polls):
            batch = source_files[round_index * files_per_poll:
                                 (round_index + 1) * files_per_poll]
            for path in batch:
                shutil.copy(path, live / path.name)
            begin = time.perf_counter()
            engine.poll()
            total += time.perf_counter() - begin
        return total

    off_s = min(timed_loop(None) for _ in range(repeats))
    on_s = min(timed_loop(Telemetry()) for _ in range(repeats))
    return {
        "off_s": off_s,
        "on_s": on_s,
        "overhead": on_s / off_s - 1.0,
        "repeats": repeats,
    }


def report(result: dict) -> None:
    paper_vs_measured(
        f"live growth: {result['polls']} polls x "
        f"{result['files'] // result['polls']} files "
        f"({result['events']} events, {result['edges']} edges)",
        [
            ("full re-ingest / round", "O(total so far)",
             f"{result['full_s'] * 1e3:.0f} ms total"),
            ("incremental poll", "O(delta)",
             f"{result['incremental_s'] * 1e3:.0f} ms total"),
            ("advantage", f"~{result['polls'] / 2:.0f}x "
                          f"(n/2 at n rounds)",
             f"{result['advantage']:.2f}x"),
            ("stats rebuild / refresh", "O(total events)",
             f"{result['stats_full_s'] * 1e3:.0f} ms total"),
            ("incremental statistics", "O(delta)",
             f"{result['stats_inc_s'] * 1e3:.0f} ms total"),
            ("render advantage", "grows with the horizon",
             f"{result['stats_advantage']:.2f}x"),
        ])


@pytest.mark.bench
def test_incremental_beats_full_reingest(tmp_path):
    source = tmp_path / "source"
    live = tmp_path / "live"
    source.mkdir()
    live.mkdir()
    files = build_source(source, polls=POLLS,
                         files_per_poll=FILES_PER_POLL)
    result = run_growth(files, live, polls=POLLS,
                        files_per_poll=FILES_PER_POLL)
    report(result)
    # Equivalence is asserted per round inside run_growth; the
    # throughput claims are conservative (theory says ~POLLS/2).
    assert result["advantage"] >= 2.0, (
        f"incremental polling should amortize far below repeated "
        f"re-ingest, got {result['advantage']:.2f}x")
    assert result["stats_advantage"] >= 2.0, (
        f"the O(delta) statistics render path should amortize far "
        f"below per-refresh recomputation, got "
        f"{result['stats_advantage']:.2f}x")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--polls", type=int, default=POLLS)
    parser.add_argument("--files-per-poll", type=int,
                        default=FILES_PER_POLL)
    parser.add_argument(
        "--min-advantage", type=float, default=None, metavar="X",
        help="fail (exit 1) unless both the incremental-poll and the "
             "statistics-render advantage reach X — the CI smoke "
             "guard against either path regressing to O(total)")
    parser.add_argument(
        "--max-telemetry-overhead", type=float, default=None,
        metavar="X",
        help="also time the poll loop with telemetry on vs off and "
             "fail (exit 1) when the instrumented loop exceeds the "
             "uninstrumented one by more than the fraction X (plus "
             f"{OVERHEAD_SLACK_S * 1e3:.0f} ms absolute slack for "
             "clock resolution)")
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the raw results as a JSON document to PATH "
             "(e.g. BENCH_live.json) for machine consumption")
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "source"
        live = Path(tmp) / "live"
        source.mkdir()
        live.mkdir()
        files = build_source(source, polls=args.polls,
                             files_per_poll=args.files_per_poll)
        result = run_growth(files, live, polls=args.polls,
                            files_per_poll=args.files_per_poll)
        if args.max_telemetry_overhead is not None:
            result["telemetry"] = measure_telemetry_overhead(
                files, Path(tmp), polls=args.polls,
                files_per_poll=args.files_per_poll)
    report(result)
    if "telemetry" in result:
        overhead = result["telemetry"]
        print(f"telemetry overhead: poll loop "
              f"{overhead['off_s'] * 1e3:.1f} ms off -> "
              f"{overhead['on_s'] * 1e3:.1f} ms on "
              f"({overhead['overhead'] * 100:+.1f}%, best of "
              f"{overhead['repeats']})")
    if args.json is not None:
        args.json.write_text(json.dumps({
            "bench": "live_incremental",
            "params": {"polls": args.polls,
                       "files_per_poll": args.files_per_poll},
            "results": result,
        }, indent=2) + "\n")
        print(f"wrote {args.json}")
    failures = []
    if args.min_advantage is not None:
        failures += [
            f"{name} advantage {value:.2f}x below "
            f"{args.min_advantage:.2f}x — the O(delta) path "
            f"regressed toward O(total)"
            for name, value
            in (("poll", result["advantage"]),
                ("statistics render", result["stats_advantage"]))
            if value < args.min_advantage]
    if args.max_telemetry_overhead is not None:
        overhead = result["telemetry"]
        budget = (overhead["off_s"] * (1.0 + args.max_telemetry_overhead)
                  + OVERHEAD_SLACK_S)
        if overhead["on_s"] > budget:
            failures.append(
                f"telemetry overhead {overhead['overhead'] * 100:.1f}% "
                f"exceeds the {args.max_telemetry_overhead * 100:.0f}% "
                f"budget ({overhead['on_s'] * 1e3:.1f} ms on vs "
                f"{overhead['off_s'] * 1e3:.1f} ms off)")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
