"""Reproduction of *Inspection of I/O Operations from System Call Traces
using Directly-Follows-Graph* (Sankaran, Zhukov, Frings, Bientinesi —
SC-W 2024, arXiv:2408.07378).

The library synthesizes I/O system-call traces into Directly-Follows
Graphs (DFGs) annotated with I/O statistics, and compares programs or
configurations via graph coloring. Subpackages:

- :mod:`repro.strace` — strace trace parsing (Sec. III).
- :mod:`repro.ingest` — the scale-out ingestion engine: streaming
  line reading and one process-pool fan-out (``workers=``) shipping
  columnar cases.
- :mod:`repro.sources` — the pluggable trace-source API: one registry
  (``open_source``) behind every entry point, with batch strace
  directories, ``.elog`` stores, CSV dumps and simulated workloads as
  first-class schemes (``strace:``, ``elog:``, ``csv:``, ``sim:``).
- :mod:`repro.elstore` — the single-file event-log container (the
  paper's HDF5 store, reimplemented with the same per-case table
  contract).
- :mod:`repro.core` — event-log formalism, DFG synthesis, statistics,
  coloring, rendering (Sec. IV).
- :mod:`repro.live` — incremental ingestion of *growing* trace
  directories: byte-offset tailing with carry-over merge state, an
  incrementally folded DFG, resumable checkpoints, and the
  ``st-inspector watch`` refresh loop.
- :mod:`repro.alerts` — live alerting over the refresh deltas:
  declarative threshold rules (new edges, weight/load ratios, Sec.
  IV-B metric bounds, sealing starvation) fired into pluggable sinks,
  with latches and history surviving checkpoint restarts.
- :mod:`repro.simulate` — discrete-event simulator of HPC I/O workloads
  (IOR, ``ls``) over a GPFS-like filesystem model, emitting authentic
  strace text (substitute for the paper's JUWELS testbed).
- :mod:`repro.pipeline` — end-to-end sessions, reports.
- :mod:`repro.st_inspector` — facade exposing the paper's exact Fig. 6
  API names.

Quickstart::

    from repro import EventLog, CallTopDirs, DFG, IOStatistics, DFGViewer
    log = EventLog.from_source("traces/")        # or "strace:traces/",
    #   "elog:run.elog", "csv:events.csv", "sim:ior?ranks=4" — every
    #   input goes through the same trace-source registry.
    log.apply_mapping_fn(CallTopDirs(levels=2))
    dfg = DFG(log)
    stats = IOStatistics(log)
    print(DFGViewer(dfg, stats).render("ascii"))
"""

__version__ = "1.1.0"

__all__ = [
    "Alert",
    "AlertEngine",
    "DFG",
    "ActivityLog",
    "CallOnly",
    "CallPath",
    "CallPathTail",
    "CallTopDirs",
    "END_ACTIVITY",
    "Event",
    "EventFrame",
    "EventLog",
    "IOStatistics",
    "Mapping",
    "NewEdgeRule",
    "PartitionColoring",
    "PartitionEL",
    "PlainColoring",
    "RegexMapping",
    "RestrictedMapping",
    "START_ACTIVITY",
    "SiteVariables",
    "StatThresholdRule",
    "StatisticsColoring",
    "Style",
    "mapping_from_callable",
    "DFGViewer",
    "render_ascii",
    "render_dot",
    "render_svg",
    "render_timeline_ascii",
    "render_timeline_svg",
    "EventLogStore",
    "convert_source",
    "read_event_log",
    "write_event_log",
    "CsvLogSource",
    "ElstoreSource",
    "SimulationSource",
    "StraceDirSource",
    "TraceSource",
    "UnsupportedSourceOptionWarning",
    "open_source",
    "register_source",
    "registered_schemes",
    "__version__",
]

#: Where each exported name lives; :func:`__getattr__` imports the
#: module on the name's first lookup.
_EXPORTS = {
    "repro.alerts": ("Alert", "AlertEngine", "NewEdgeRule",
                     "StatThresholdRule"),
    "repro.core": ("DFG", "ActivityLog", "CallOnly", "CallPath",
                   "CallPathTail", "CallTopDirs", "END_ACTIVITY", "Event",
                   "EventFrame", "EventLog", "IOStatistics", "Mapping",
                   "PartitionColoring", "PartitionEL", "PlainColoring",
                   "RegexMapping", "RestrictedMapping", "START_ACTIVITY",
                   "SiteVariables", "StatisticsColoring", "Style",
                   "mapping_from_callable"),
    "repro.core.render": ("DFGViewer", "render_ascii", "render_dot",
                          "render_svg", "render_timeline_ascii",
                          "render_timeline_svg"),
    "repro.elstore": ("EventLogStore", "convert_source", "read_event_log",
                      "write_event_log"),
    "repro.sources": ("CsvLogSource", "ElstoreSource", "SimulationSource",
                      "StraceDirSource", "TraceSource",
                      "UnsupportedSourceOptionWarning", "open_source",
                      "register_source", "registered_schemes"),
}


def __getattr__(name: str):
    # The export helper is imported on first use, so that ``import
    # repro`` loads no other module of the package.
    from repro._util.lazy import resolve

    return resolve(__name__, _EXPORTS, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
