"""Pluggable trace sources — one API for batch, store, foreign formats
and synthetic workloads.

Every consumer of events (``EventLog.from_source``,
``InspectionSession.from_source``, ``convert``, every CLI subcommand)
goes through one resolver::

    from repro.sources import open_source

    open_source("strace:traces/")     # directory of .st files
    open_source("elog:run.elog")      # columnar store
    open_source("csv:events.csv")     # delimited dump of any tracer
    open_source("sim:ior?ranks=4")    # simulated workload, no temp dir
    open_source("traces/")            # bare paths are autodetected

A source yields :class:`~repro.ingest.parallel.CaseColumns` (the
parallel engine's columnar wire format, also the ``.elog`` writer's
input shape) via :meth:`TraceSource.iter_cases`, or a whole
:class:`~repro.core.eventlog.EventLog` via
:meth:`TraceSource.event_log`. Capability flags (``supports_workers``,
``supports_recursive``, ``supports_strict``) declare which ingest
options a source honors; unsupported requests warn instead of being
silently ignored.

New backends (an inotify live source, a remote batch fetcher, another
tracer's format) are a :class:`TraceSource` subclass plus one
:func:`register_source` call — the registry makes them reachable from
every entry point at once.
"""

from repro.sources.base import (
    SourceOptions,
    TraceSource,
    UnsupportedSourceOptionWarning,
    case_columns_from_text,
    combine_merge_stats,
    iter_cases_of_log,
)
from repro.sources.registry import (
    SourceSpec,
    open_source,
    parse_source_spec,
    register_source,
    registered_schemes,
    resolve_source,
)
from repro.sources.csv_log import (
    CSV_COLUMNS,
    CsvLogSource,
    read_csv_log,
    write_csv_log,
)
from repro.sources.simulation import SimulationSource
from repro.sources.store import ElstoreSource
from repro.sources.strace_dir import StraceDirSource

def _catalog_factory(target, options, opts):
    # Imported lazily: repro.catalog itself imports TraceSource from
    # this package, so a module-level import here would be a cycle.
    from repro.catalog.source import CatalogSource

    return CatalogSource.from_uri(target, options, opts)


register_source(StraceDirSource.scheme, StraceDirSource.from_uri)
register_source(ElstoreSource.scheme, ElstoreSource.from_uri)
register_source(CsvLogSource.scheme, CsvLogSource.from_uri)
register_source(SimulationSource.scheme, SimulationSource.from_uri)
register_source("catalog", _catalog_factory)

__all__ = [
    "CSV_COLUMNS",
    "CsvLogSource",
    "ElstoreSource",
    "SimulationSource",
    "SourceOptions",
    "SourceSpec",
    "StraceDirSource",
    "TraceSource",
    "UnsupportedSourceOptionWarning",
    "case_columns_from_text",
    "combine_merge_stats",
    "iter_cases_of_log",
    "open_source",
    "parse_source_spec",
    "read_csv_log",
    "register_source",
    "registered_schemes",
    "resolve_source",
    "write_csv_log",
]
