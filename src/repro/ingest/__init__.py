"""Parallel, streaming trace ingestion (the scale-out substrate).

The paper treats ingestion as a preprocessing detail; at production
scale it is the bottleneck — multi-GB trace directories with one file
per rank. This subsystem makes ingestion scale along two independent
axes, both of which preserve the sequential semantics *exactly*:

- :mod:`repro.ingest.streaming` — a generator pipeline
  (file → lines → merged rows) that holds one line at a time
  instead of a per-file token list, and diagnoses undecodable bytes
  instead of silently replacing them;
- :mod:`repro.ingest.parallel` — the one fan-out of per-file parsing:
  a process pool, auto-sized to the available CPUs, that streams
  :class:`CaseColumns` in sorted-path order with one wire format and
  one fallback rule (``workers=1`` is the in-process loop, and every
  worker count yields the same bytes).

:mod:`repro.ingest.summary` fingerprints a trace directory for the
golden regression tests that lock all of this equivalence in.

Every strace consumer routes through :func:`iter_case_columns`:
:class:`repro.sources.StraceDirSource` (``iter_cases`` and, behind
``EventLog.from_source``, ``event_log``),
:func:`repro.elstore.convert.convert_source` and the CLI's
``--workers`` / ``--recursive`` flags.
:func:`repro.strace.reader.read_trace_dir` stays the sequential record
reader.
"""

from repro.ingest.streaming import TokenStream, TraceLines
from repro.ingest.parallel import (
    MAX_AUTO_WORKERS,
    CaseColumns,
    available_cpus,
    case_to_columns,
    frame_from_case_columns,
    iter_case_columns,
    resolve_workers,
    rows_to_columns,
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
    "iter_case_columns",
    "resolve_workers",
    "rows_to_columns",
    "cases_summary",
    "trace_dir_summary",
]
