"""The benchmark harness: generate, measure, check, report.

Run from the repository root (the system is imported from ``src/``)::

    python3 perfbench/run.py --workload strace-compare --seed 1 \
        --seconds 15 --trace 0

``--workload all`` runs every workload and prints each one's metrics.
``--trace 1`` runs the traced pass of every workload, ``--seconds``
each, and reports the per-layer metrics of BENCHMARK.json.
``--scale toy`` shrinks the inputs so a run with all its checks takes
seconds (the benchmark's own tests).

For each run the harness starts, one after another: the generator,
which stages every input, then ``PROCESSES`` measured processes. Each
sets up (one ``setup_s`` sample) and runs ops for its share of
``--seconds``; the ops of all of them are pooled, which averages out
how fast one process happens to run (memory layout differs per
process). Nothing the generator does is timed or counted against the
system. The last line of standard output is the result as one JSON
object; every line before it is for people. See perfbench/README.md
for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
WORKLOADS = ("strace-compare", "elog-compare", "live-watch")
#: Fixed so that dict/set iteration order, and with it every count the
#: run prints, repeats exactly from run to run.
HASH_SEED = "0"
#: Every run must end within this many seconds.
RUN_LIMIT_S = 170.0
#: Measured processes per ``--trace 0`` run: each gives one ``setup_s``
#: sample and runs ops for its share of ``--seconds``.
PROCESSES = 5


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def _run_child(argv: list[str], root: Path, deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before " + argv[1])
    try:
        done = subprocess.run([sys.executable, *argv], cwd=root,
                              env=_child_env(root), timeout=remaining,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{argv[1]} did not finish in time") from None
    if done.returncode != 0:
        raise BenchmarkError(f"{' '.join(argv[:3])} exited "
                             f"{done.returncode}:\n{done.stderr[-2000:]}")


def generate(workload: str, args, work: Path, deadline: float) -> float:
    began = time.monotonic()
    _run_child([str(HERE / "generate.py"), "--workload", workload,
                "--seed", str(args.seed), "--out", str(work / "inputs"),
                "--scale", args.scale], args.root, deadline)
    return time.monotonic() - began


def measure(workload: str, mode: str, args, work: Path, index: int,
            deadline: float, *, seconds: float, counts: bool) -> dict:
    """One measured process, with its timings rescaled to the reference
    host speed (calibrate.py): ``setup_s`` and ``ops_ms``."""
    out = work / f"result-{index}.json"
    before = calibrate.sample()
    spawned = time.monotonic()
    _run_child([str(HERE / "measure.py"), "--workload", workload,
                "--inputs", str(work / "inputs"),
                "--work", str(work / f"proc-{index}"),
                "--seconds", str(seconds), "--mode", mode,
                "--out", str(out), *(["--counts"] if counts else [])],
               args.root, deadline)
    result = json.loads(out.read_text(encoding="utf-8"))
    samples = [before, *map(tuple, result["calibration"])]
    if result["first_op_end"] is not None:
        wall = result["first_op_end"] - spawned - result["harness_s"]
        result["setup_wall_s"] = wall
        result["setup_s"] = calibrate.rescale(wall, samples,
                                              spawned + wall / 2)
    result["wall_ms"] = result["ops_ms"]
    result["ops_ms"] = [calibrate.rescale(ms, samples, mid) for ms, mid
                        in zip(result["ops_ms"], result["op_mid"])]
    spans = work / f"proc-{index}" / "spans.json"
    if spans.exists():  # kept: the work directory goes at exit
        result["spans"] = args.work.parent / f"spans-{workload}.json"
        shutil.move(spans, result["spans"])
    shutil.rmtree(work / f"proc-{index}", ignore_errors=True)
    return result


def _verdict(results: list[dict]) -> tuple[bool, int, int, list[str]]:
    """Failed ops against attempted ops; any count that differs between
    the processes of one run is a benchmark bug and fails the run."""
    attempted = sum(r["attempted"] for r in results)
    failed = 0
    for r in results:
        failed += r["attempted"] if r.get("live_failed") else r["failed"]
    problems = [p for r in results for p in r["problems"]]
    shared = set.intersection(*(set(r["counts"]) for r in results))
    first = {key: results[0]["counts"][key] for key in sorted(shared)}
    for r in results[1:]:
        other = {key: r["counts"][key] for key in sorted(shared)}
        if other != first:
            problems.append(f"counts differ between processes: "
                            f"{other} != {first}")
    return not failed and not problems, attempted, failed, problems


def run_workload(workload: str, args, deadline: float) -> dict:
    """End-to-end metrics of one workload (``--trace 0``)."""
    work = args.work / workload
    generator_s = generate(workload, args, work, deadline)
    n = PROCESSES
    results = [measure(workload, "run", args, work, i, deadline,
                       seconds=args.seconds / n, counts=i == n - 1)
               for i in range(n)]
    correct, attempted, failed, problems = _verdict(results)
    setups = [r["setup_s"] for r in results if "setup_s" in r]
    ops = [ms for r in results for ms in r["ops_ms"]]
    events = sum(e for r in results for e in r["op_events"])
    walls = [ms for r in results for ms in r["wall_ms"]]
    raw = [r["setup_wall_s"] for r in results if "setup_wall_s" in r]
    kernel = [k for r in results for _, k in r["calibration"]]
    rss = [r["peak_rss_mb"] for r in results if "peak_rss_mb" in r]
    metrics = {
        "setup_s": (statistics.median(setups) if setups else 0.0,
                    "s", f"median of {len(setups)} processes"),
        "op_ms_p50": (statistics.median(ops) if ops else 0.0, "ms",
                      f"median of {len(ops)} ops"),
        "events_per_s": (events / (sum(ops) / 1e3) if ops else 0.0,
                         "1/s", f"{events} events over {len(ops)} ops"),
        "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB",
                        f"median of {len(rss)} processes, each + its "
                        f"largest ingest worker"),
    }
    print(f"== {workload} (seed {args.seed}, scale {args.scale}): "
          f"generator {generator_s:.2f} s, harness time, not set-up; "
          f"work dir {work.relative_to(args.root)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"   {name:<13} {value:>14.4f} {unit:<4} ({samples})")
    if walls and raw:
        print(f"   unscaled wall time: setup {statistics.median(raw):.4f} s,"
              f" op p50 {statistics.median(walls):.4f} ms; host kernel "
              f"{statistics.median(kernel) * 1e3:.2f} ms (reference "
              f"{calibrate.KERNEL_REF_S * 1e3:.0f} ms)")
    counts = results[-1]["counts"]
    print(f"   counts: {json.dumps(counts, sort_keys=True)}")
    print(f"   ops: {failed} failed of {attempted} attempted")
    for problem in problems[:5]:
        print(f"   FAILED: {problem}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def trace_workload(workload: str, args, deadline: float) -> dict:
    """Per-layer metrics of one workload (``--trace 1``)."""
    work = args.work / workload
    generate(workload, args, work, deadline)
    result = measure(workload, "trace", args, work, 0, deadline,
                     seconds=args.seconds, counts=True)
    correct, attempted, failed, problems = _verdict([result])
    metrics = {f"{workload}.{name}": value
               for name, value in {**result["counts"],
                                   **result["layers"]}.items()
               if f"{workload}.{name}" in args.layer_units}
    spans = result.get("spans")
    print(f"== {workload} traced (seed {args.seed}): "
          + (f"spans in {spans.relative_to(args.root)}" if spans
             else "no spans written"))
    for name, value in sorted(metrics.items()):
        print(f"   {name:<55} {value:>14.4f} {args.layer_units[name]}")
    print(f"   ops: {failed} failed of {attempted} attempted")
    for problem in problems[:5]:
        print(f"   FAILED: {problem}")
    missing = sorted(name for name in args.layer_units
                     if name.startswith(f"{workload}.")
                     and name not in metrics)
    if missing and not correct:
        print(f"   not measured, because ops failed: {', '.join(missing)}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value,
                               "unit": args.layer_units[name]}
                        for name, value in metrics.items()}}


def _combine(parts: list[dict], prefix: bool) -> dict:
    metrics = {}
    for workload, part in parts:
        for name, value in part["metrics"].items():
            metrics[f"{workload}.{name}" if prefix else name] = value
    return {"correct": all(p["correct"] for _, p in parts),
            "attempted": sum(p["attempted"] for _, p in parts),
            "failed": sum(p["failed"] for _, p in parts),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "toy"),
                        default="paper")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    args.root = Path.cwd()
    if not (args.root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/repro is "
              "missing here", file=sys.stderr)
        return 2
    spec = json.loads((args.root / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    args.layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    args.work = (args.root / ".bench_work"
                 / f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            parts = [(w, trace_workload(w, args, deadline))
                     for w in WORKLOADS]
            result = _combine(parts, prefix=False)
            missing = sorted(set(args.layer_units) - set(result["metrics"]))
            if missing and result["correct"]:
                raise BenchmarkError(f"per-layer metrics not measured: "
                                     f"{missing}")
        else:
            chosen = WORKLOADS if args.workload == "all" \
                else (args.workload,)
            parts = [(w, run_workload(w, args, deadline)) for w in chosen]
            result = _combine(parts, prefix=args.workload == "all")
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
