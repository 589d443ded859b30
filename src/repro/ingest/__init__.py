"""Parallel, streaming trace ingestion (the scale-out substrate).

The paper treats ingestion as a preprocessing detail; at production
scale it is the bottleneck — multi-GB trace directories with one file
per rank. This subsystem makes ingestion scale along three independent
axes, all of which preserve the sequential semantics *exactly*:

- :mod:`repro.ingest.streaming` — a generator pipeline
  (file → lines → merged rows) that holds one line at a time
  instead of a per-file token list, and diagnoses undecodable bytes
  instead of silently replacing them;
- :mod:`repro.ingest.parallel` — a ``ProcessPoolExecutor`` fan-out of
  per-file parsing, auto-sized to the available CPUs
  (``workers=1`` recovers today's sequential path, bit for bit);
- :mod:`repro.ingest.shards` — sharded DFG construction: per-case
  graphs built where the records are and merged with the union
  algebra, so ``union(shards) == DFG(whole log)`` by Sec. IV-A.

:mod:`repro.ingest.summary` fingerprints a trace directory for the
golden regression tests that lock all of this equivalence in.

Entry points elsewhere accept ``workers=`` / ``recursive=`` and route
through here: :func:`repro.strace.reader.read_trace_dir`,
:class:`repro.sources.StraceDirSource` (behind
``EventLog.from_source``), :func:`repro.elstore.convert.convert_source`
and the CLI's ``--workers`` / ``--recursive`` flags.
"""

from repro.ingest.streaming import TokenStream, TraceLines
from repro.ingest.parallel import (
    MAX_AUTO_WORKERS,
    CaseColumns,
    available_cpus,
    case_to_columns,
    frame_from_case_columns,
    ingest_event_frame,
    iter_case_columns,
    read_cases,
    resolve_workers,
    rows_to_columns,
)
from repro.ingest.shards import (
    case_dfg,
    dfg_from_trace_dir,
    iter_case_dfgs,
)
from repro.ingest.summary import cases_summary, trace_dir_summary

__all__ = [
    "TokenStream",
    "TraceLines",
    "MAX_AUTO_WORKERS",
    "CaseColumns",
    "available_cpus",
    "case_to_columns",
    "frame_from_case_columns",
    "ingest_event_frame",
    "iter_case_columns",
    "read_cases",
    "resolve_workers",
    "rows_to_columns",
    "case_dfg",
    "dfg_from_trace_dir",
    "iter_case_dfgs",
    "cases_summary",
    "trace_dir_summary",
]
