"""Golden regression tests for the strace parser + ingestion engine.

Each simulate workload is generated with a fixed seed and reduced to a
compact fingerprint (:func:`repro.ingest.summary.cases_summary`):
record counts, merge statistics, DFG shape, top activities. The
fingerprints are checked into ``tests/test_golden/golden/`` — any
drift in the tokenizer, parser, unfinished/resumed merger, mapping or
DFG synthesis fails these tests with a field-level diff.

After an *intended* behavior change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden --update-golden

and review the JSON diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.ingest.parallel import frame_from_case_columns
from repro.ingest.summary import trace_dir_summary
from repro.sources import StraceDirSource, combine_merge_stats

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Workload name → trace-dir builder. Seeds are pinned; the writer adds
#: unfinished/resumed splitting where the workload supports it so the
#: merge path is part of the fingerprint.
WORKLOADS = {}


def workload(fn):
    WORKLOADS[fn.__name__] = fn
    return fn


@workload
def ls(directory: Path) -> None:
    from repro.simulate.workloads.ls import generate_fig1_traces

    generate_fig1_traces(directory)


@workload
def ior(directory: Path) -> None:
    from repro.simulate.strace_writer import (
        EXPERIMENT_A_CALLS,
        write_trace_files,
    )
    from repro.simulate.workloads.ior import IORConfig, simulate_ior

    result = simulate_ior(IORConfig(
        ranks=6, ranks_per_node=3, segments=2, cid="ior", seed=4242))
    write_trace_files(result.recorders, directory,
                      trace_calls=EXPERIMENT_A_CALLS,
                      unfinished_probability=0.15, seed=7)


@workload
def checkpoint(directory: Path) -> None:
    from repro.simulate.strace_writer import write_trace_files
    from repro.simulate.workloads.checkpoint import (
        CheckpointConfig,
        simulate_checkpoint,
    )

    result = simulate_checkpoint(CheckpointConfig(
        ranks=4, ranks_per_node=2, steps=2, shard_bytes=2 << 20,
        transfer_bytes=1 << 20, seed=303))
    write_trace_files(result.recorders, directory,
                      unfinished_probability=0.15, seed=7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_fingerprint_matches_golden(name, tmp_path, request):
    directory = tmp_path / name
    directory.mkdir()
    WORKLOADS[name](directory)
    summary = json.loads(json.dumps(trace_dir_summary(directory)))

    golden_path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(
            json.dumps(summary, indent=2, ensure_ascii=False,
                       sort_keys=True) + "\n",
            encoding="utf-8")
        pytest.skip(f"golden updated: {golden_path}")
    assert golden_path.exists(), \
        f"no golden for {name!r}; run with --update-golden to create it"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    assert summary == golden, (
        f"{name} ingestion fingerprint drifted from "
        f"{golden_path.name}; if intended, rerun with --update-golden")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fingerprint_stable_across_workers(name, tmp_path):
    """The fingerprint (hence the golden) is worker-count independent:
    taken by the sequential record reader, it also describes the
    pooled column road — the same cases, events, merge diagnostics and
    DFG at ``workers=2``."""
    directory = tmp_path / name
    directory.mkdir()
    WORKLOADS[name](directory)
    summary = trace_dir_summary(directory)
    cases = list(StraceDirSource(directory, workers=2).iter_cases())
    merge = combine_merge_stats(case.merge_stats for case in cases)
    log = EventLog(frame_from_case_columns(cases)) \
        .with_mapping(CallTopDirs(levels=2))
    dfg = DFG(log)
    assert (len(cases), log.n_cases, log.n_events) == \
        (summary["n_files"], summary["n_cases"], summary["n_events"])
    assert dataclasses.asdict(merge) == summary["merge"]
    assert {"nodes": dfg.n_nodes, "edges": dfg.n_edges,
            "observations": dfg.total_observations()} == summary["dfg"]
