"""Stage one workload's inputs, in a process of their own.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/generate.py --workload strace-compare --seed 1 \
        --out .bench_work/inputs [--scale paper|toy]

Everything the measured process reads is written here, before it
starts: the ``.st`` trace directories, the live baseline ``.elog``, the
rules file and ``reference.json``. The measured process then only
imports and runs the system, so generator time and memory never reach
``setup_s`` or ``peak_rss_mb``.

The reference DFG edge weights and per-activity event counts are
computed from the simulator's own records with the mapping's public
``map_call_fp``; they do not go through the strace parser or the DFG
code they are compared against.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from collections import Counter
from pathlib import Path

#: IOR geometry per workload and scale: (ranks, ranks_per_node, segments).
#: Paper scale is the paper's Fig. 7b command (``-s 3``, 48 ranks per
#: node); experiment B runs at twice the paper's 96 ranks.
SCALES = {
    "paper": {"a": (96, 48, 3), "b": (192, 48, 3)},
    "toy": {"a": (4, 2, 1), "b": (4, 2, 1)},
}

#: Share of records written as unfinished/resumed pairs.
SPLIT_PROBABILITY = 0.1

#: The five-rule starter set of docs/rules.md, minus its sinks: the
#: benchmark's watch gets its one jsonl sink from ``--alert-log``.
RULES_TOML = """\
baseline = "elog:{baseline}"
history_limit = 500

[[rule]]
name = "unexpected-relations"
type = "new_edge"
absent_from_baseline = true

[[rule]]
name = "scratch-load-doubled"
type = "activity_load_ratio"
ratio = 2.0
against = "previous"
pattern = "/p/scratch"

[[rule]]
name = "read-rate-collapse"
type = "stat_threshold"
metric = "process_data_rate"
op = "<"
value = 1e6
pattern = "read"
cooldown = 300

[[rule]]
name = "edge-outgrew-baseline"
type = "edge_weight_ratio"
ratio = 4.0
against = "baseline"

[[rule]]
name = "sealing-starved"
type = "watermark_age"
max_age = 30.0
cooldown = 600
"""


def _simulate(cid: str, geometry, *, seed: int, **options):
    from repro.simulate.filesystem import FSConfig
    from repro.simulate.workloads.ior import IORConfig, simulate_ior

    ranks, per_node, segments = geometry
    config = IORConfig(ranks=ranks, ranks_per_node=per_node,
                       segments=segments, cid=cid, seed=seed, **options)
    return simulate_ior(config, FSConfig(seed=seed + 1)).recorders


def _write(recorders, directory: Path, calls, split_seed: int) -> None:
    """Write the trace files. The split pattern has a seed of its own,
    fixed, so ``--seed`` moves only timing values and the structural
    counts (lines, merged pairs, ...) repeat for every seed."""
    from repro.simulate.strace_writer import write_trace_files

    write_trace_files(recorders, directory, trace_calls=calls,
                      unfinished_probability=SPLIT_PROBABILITY,
                      seed=split_seed)


def _reference(recorders, calls) -> dict:
    """DFG edges and per-activity event counts straight from the
    simulator's records (the sentinels of the DFG included)."""
    from repro.core.activity import END_ACTIVITY, START_ACTIVITY
    from repro.core.mapping import CallTopDirs

    mapping = CallTopDirs(levels=2)
    edges: Counter = Counter()
    counts: Counter = Counter()
    events = 0
    for recorder in recorders:
        trace = [START_ACTIVITY]
        for record in recorder.sorted_records():
            if record.call not in calls:
                continue
            events += 1
            activity = mapping.map_call_fp(record.call, record.path)
            if activity is not None:
                trace.append(activity)
                counts[activity] += 1
        trace.append(END_ACTIVITY)
        edges.update(zip(trace, trace[1:]))
    return {
        "events": events,
        "edges": sorted([a, b, n] for (a, b), n in edges.items()),
        "activity_events": dict(sorted(counts.items())),
    }


def _merge(*references: dict) -> dict:
    edges: Counter = Counter()
    counts: Counter = Counter()
    for ref in references:
        edges.update({(a, b): n for a, b, n in ref["edges"]})
        counts.update(ref["activity_events"])
    return {
        "events": sum(ref["events"] for ref in references),
        "edges": sorted([a, b, n] for (a, b), n in edges.items()),
        "activity_events": dict(sorted(counts.items())),
    }


def generate(workload: str, seed: int, out: Path, scale: str) -> None:
    from repro.simulate.strace_writer import (EXPERIMENT_A_CALLS,
                                              EXPERIMENT_B_CALLS)

    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    geometry = SCALES[scale]
    base = seed * 16
    if workload in ("strace-compare", "live-watch"):
        calls = EXPERIMENT_A_CALLS
        ssf = _simulate("ssf", geometry["a"], seed=base + 1,
                        test_file="/p/scratch/ssf/test")
        fpp = _simulate("fpp", geometry["a"], seed=base + 3,
                        file_per_process=True,
                        test_file="/p/scratch/fpp/test", base_rid=30000)
        green, red = ("ssf", ssf), ("fpp", fpp)
    elif workload == "elog-compare":
        calls = EXPERIMENT_B_CALLS
        posix = _simulate("posix", geometry["b"], seed=base + 5,
                          test_file="/p/scratch/ssf/test")
        mpiio = _simulate("mpiio", geometry["b"], seed=base + 7,
                          api="mpiio", test_file="/p/scratch/ssf/test2",
                          base_rid=40000)
        green, red = ("posix", posix), ("mpiio", mpiio)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    refs = {cid: _reference(recorders, calls)
            for cid, recorders in (green, red)}
    if workload == "live-watch":
        # The replayed run is staged apart from the watched directory;
        # the baseline is the other run, packed once like `convert`.
        from repro.elstore.convert import convert_source

        _write(red[1], out / "replay", calls, split_seed=9)
        _write(green[1], out / "baseline-st", calls, split_seed=11)
        convert_source(f"strace:{out / 'baseline-st'}",
                       out / "baseline.elog", workers=1)
        shutil.rmtree(out / "baseline-st")
        (out / "rules.toml").write_text(
            RULES_TOML.format(baseline=(out / "baseline.elog").resolve()),
            encoding="utf-8")
        reference = {"green": green[0], "all": refs[red[0]]}
    else:
        _write(green[1], out / "st", calls, split_seed=9)
        _write(red[1], out / "st", calls, split_seed=11)
        reference = {"green": green[0], "red": red[0],
                     "all": _merge(refs[green[0]], refs[red[0]]),
                     green[0]: refs[green[0]], red[0]: refs[red[0]]}
    (out / "reference.json").write_text(json.dumps(reference),
                                        encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
