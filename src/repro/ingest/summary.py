"""Compact ingestion summaries — the golden-test fingerprint.

A summary reduces a whole trace directory to a small, JSON-stable dict:
file/case/event counts, per-cid totals, aggregated merge diagnostics,
DFG shape and the top activities by frequency. It is deliberately
*compact* — golden regression tests check these fingerprints into the
repository and fail on drift, without storing megabytes of parsed
records — while still covering every ingestion stage: discovery,
tokenizing, the unfinished/resumed merge, mapping, and DFG synthesis.
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING

from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.strace.reader import TraceCase


def cases_summary(cases: "list[TraceCase]", *,
                  mapping: Mapping | None = None,
                  top: int = 5) -> dict:
    """Summarize parsed cases (see :func:`trace_dir_summary`)."""
    mapping = mapping or CallTopDirs(levels=2)
    per_cid: dict[str, dict[str, int]] = {}
    merge: dict[str, int] = {}
    for case in cases:
        bucket = per_cid.setdefault(case.name.cid,
                                    {"files": 0, "events": 0})
        bucket["files"] += 1
        bucket["events"] += len(case)
        for key, value in dataclasses.asdict(case.merge_stats).items():
            merge[key] = merge.get(key, 0) + value
    log = EventLog.from_cases(cases).with_mapping(mapping)
    dfg = DFG(log)
    frequencies = sorted(
        ((activity, dfg.node_frequency(activity))
         for activity in dfg.activities()),
        key=lambda item: (-item[1], item[0]))
    return {
        "n_files": len(cases),
        "n_cases": log.n_cases,
        "n_events": log.n_events,
        "per_cid": {cid: per_cid[cid] for cid in sorted(per_cid)},
        "merge": merge,
        "dfg": {
            "nodes": dfg.n_nodes,
            "edges": dfg.n_edges,
            "observations": dfg.total_observations(),
        },
        "top_activities": [[activity, freq]
                           for activity, freq in frequencies[:top]],
    }


def trace_dir_summary(
    directory: str | os.PathLike[str],
    *,
    mapping: Mapping | None = None,
    top: int = 5,
    strict: bool = True,
    recursive: bool = False,
) -> dict:
    """Fingerprint a trace directory for golden regression testing.

    The result is plain JSON-serializable data; ``mapping`` defaults to
    the paper's f̂ (call + top-2 directories).
    """
    from repro.strace.reader import read_trace_dir

    cases = read_trace_dir(directory, strict=strict, recursive=recursive)
    return cases_summary(cases, mapping=mapping, top=top)
