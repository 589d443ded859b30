"""Sequential vs parallel ingestion throughput (repro.ingest).

Each simulate workload is written as a ≥100-file trace directory and
ingested end-to-end (``EventLog.from_source``) sequentially
(``workers=1``) and on a process pool (``workers=4`` by default). The
bench reports events/s and the speedup, and *always* verifies the two
paths produce the same DFG — throughput without equivalence is not a
result.

The ≥2× speedup criterion is asserted when the machine actually has
≥ 4 usable CPUs; on smaller hosts (CI sandboxes) the numbers are still
printed but the assertion is skipped — a process pool cannot beat the
GIL-free sequential path without physical parallelism.

The full ``IOStatistics`` pass over the ingested log is timed too.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_ingest_parallel.py
    PYTHONPATH=src python benchmarks/bench_ingest_parallel.py --workers 8

or through pytest (excluded from tier-1; the files are bench_*.py)::

    PYTHONPATH=src python -m pytest benchmarks/bench_ingest_parallel.py -s
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import pytest

from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.ingest.parallel import available_cpus

from conftest import paper_vs_measured

#: Workload name → builder writing a ≥100-file trace directory.
WORKLOAD_BUILDERS = {}
#: Workloads with enough per-file parse work that the ≥2× criterion is
#: asserted (the tiny-file ``ls`` dir measures fan-out overhead only).
ASSERTED_WORKLOADS = frozenset({"ior", "checkpoint"})


def _workload(fn):
    WORKLOAD_BUILDERS[fn.__name__] = fn
    return fn


@_workload
def ior(directory: Path) -> int:
    """104 ranks of the paper's experiment-A IOR run: one mid-sized
    trace file per rank."""
    from repro.simulate.strace_writer import (
        EXPERIMENT_A_CALLS,
        write_trace_files,
    )
    from repro.simulate.workloads.ior import IORConfig, simulate_ior

    result = simulate_ior(IORConfig(
        ranks=104, ranks_per_node=52, segments=2, cid="ior", seed=4242))
    return len(write_trace_files(result.recorders, directory,
                                 trace_calls=EXPERIMENT_A_CALLS,
                                 unfinished_probability=0.1, seed=7))


@_workload
def checkpoint(directory: Path) -> int:
    """100 ranks × 5 checkpoint steps with restart reads."""
    from repro.simulate.strace_writer import write_trace_files
    from repro.simulate.workloads.checkpoint import (
        CheckpointConfig,
        simulate_checkpoint,
    )

    result = simulate_checkpoint(CheckpointConfig(
        ranks=100, ranks_per_node=50, steps=5, shard_bytes=8 << 20,
        transfer_bytes=1 << 20, seed=303))
    return len(write_trace_files(result.recorders, directory,
                                 unfinished_probability=0.1, seed=7))


@_workload
def ls(directory: Path) -> int:
    """100 tiny ls/ls -l traces: stresses per-file fan-out overhead
    rather than parse volume."""
    from repro._util.timefmt import parse_wallclock
    from repro.simulate.strace_writer import write_trace_files
    from repro.simulate.workloads.ls import LsConfig, simulate_ls

    n = 0
    n += len(write_trace_files(simulate_ls(LsConfig(
        rids=tuple(range(9000, 9050)))), directory))
    n += len(write_trace_files(simulate_ls(LsConfig(
        cid="b", long_format=True, rids=tuple(range(9500, 9550)),
        pid_offset=16,
        start_wallclock_us=parse_wallclock("08:56:04.731999"))),
        directory))
    return n


def _time_ingest(directory: Path, workers: int, repeats: int = 2):
    """Best-of-N wall time and the resulting log."""
    best, log = float("inf"), None
    for _ in range(repeats):
        begin = time.perf_counter()
        log = EventLog.from_source(directory, workers=workers)
        best = min(best, time.perf_counter() - begin)
    return best, log


def _time_statistics(log: EventLog, repeats: int = 2) -> dict:
    """Best-of-N wall time of the full IOStatistics pass."""
    from repro.core.statistics import IOStatistics

    mapped = log.with_mapping(CallTopDirs(levels=2))
    full_time = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        IOStatistics(mapped)
        full_time = min(full_time, time.perf_counter() - begin)
    return {"stats_full_s": full_time}


def run_workload(name: str, directory: Path, *, workers: int = 4,
                 repeats: int = 2) -> dict:
    n_files = WORKLOAD_BUILDERS[name](directory)
    assert n_files >= 100, f"{name}: benchmark needs >=100 files"
    seq_time, seq_log = _time_ingest(directory, 1, repeats)
    par_time, par_log = _time_ingest(directory, workers, repeats)
    mapping = CallTopDirs(levels=2)
    assert DFG(seq_log.with_mapping(mapping)) == \
        DFG(par_log.with_mapping(mapping)), \
        f"{name}: parallel ingestion diverged from sequential"
    events = seq_log.n_events
    return {
        "workload": name,
        "files": n_files,
        "events": events,
        "seq_s": seq_time,
        "par_s": par_time,
        "seq_eps": events / seq_time,
        "par_eps": events / par_time,
        "speedup": seq_time / par_time,
        **_time_statistics(seq_log, repeats),
    }


def report(result: dict, workers: int) -> None:
    paper_vs_measured(
        f"ingest {result['workload']} ({result['files']} files, "
        f"{result['events']} events, {available_cpus()} CPUs)",
        [
            ("sequential", "baseline",
             f"{result['seq_s'] * 1e3:.0f} ms "
             f"({result['seq_eps']:,.0f} ev/s)"),
            (f"workers={workers}", ">= 2x on >=4 CPUs",
             f"{result['par_s'] * 1e3:.0f} ms "
             f"({result['par_eps']:,.0f} ev/s)"),
            ("speedup", ">= 2.00", f"{result['speedup']:.2f}x"),
            ("full statistics pass", "O(m + cases) Python",
             f"{result['stats_full_s'] * 1e3:.1f} ms"),
        ])


@pytest.fixture(params=sorted(WORKLOAD_BUILDERS))
def workload_name(request):
    return request.param


@pytest.mark.bench
def test_parallel_ingest_throughput(workload_name, tmp_path):
    workers = 4
    result = run_workload(workload_name, tmp_path, workers=workers)
    report(result, workers)
    if available_cpus() >= workers and \
            workload_name in ASSERTED_WORKLOADS:
        assert result["speedup"] >= 2.0, (
            f"{workload_name}: expected >= 2x at workers={workers}, "
            f"got {result['speedup']:.2f}x")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--keep-dir", default=None,
                        help="build trace dirs here and keep them")
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the raw results (one entry per workload) as "
             "a JSON document to PATH (e.g. BENCH_ingest.json) for "
             "machine consumption")
    args = parser.parse_args(argv)

    import tempfile

    results = []
    for name in sorted(WORKLOAD_BUILDERS):
        if args.keep_dir:
            directory = Path(args.keep_dir) / name
            directory.mkdir(parents=True, exist_ok=True)
            result = run_workload(name, directory, workers=args.workers,
                                  repeats=args.repeats)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                result = run_workload(name, Path(tmp),
                                      workers=args.workers,
                                      repeats=args.repeats)
        report(result, args.workers)
        results.append(result)
    if args.json is not None:
        args.json.write_text(json.dumps({
            "bench": "ingest_parallel",
            "params": {"workers": args.workers,
                       "repeats": args.repeats,
                       "cpus": available_cpus()},
            "results": results,
        }, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
