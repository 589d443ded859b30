"""The paper's primary contribution: event-log formalism → DFG synthesis.

This package implements Sec. IV of the paper end to end:

- :mod:`repro.core.frame` — columnar event storage (NumPy-backed
  substitute for the pandas DataFrame of the paper's Fig. 6 listing).
- :mod:`repro.core.event` — the event record
  ``e = [cid, host, rid, pid, call, start, dur, fp, size]`` (Eq. 1).
- :mod:`repro.core.eventlog` — cases and event-logs (Eq. 2-3) with the
  paper's ``apply_fp_filter`` / ``apply_mapping_fn`` query interface.
- :mod:`repro.core.mapping` — mappings ``f : E ⇀ A_f`` (Eq. 4) with the
  built-in f̂ (call + top-2 directories) and f̄ (site variables).
- :mod:`repro.core.activity` — activity traces σ_f(c) (Eq. 5) and
  activity-logs L_f(C) ∈ B(A_f*) with • / ■ sentinels.
- :mod:`repro.core.dfg` — Directly-Follows-Graph construction
  (Sec. IV-A) and graph algebra for comparisons.
- :mod:`repro.core.incremental` — the union algebra applied as a
  running fold: a standing DFG absorbing per-case deltas in O(delta)
  (the engine behind :mod:`repro.live`).
- :mod:`repro.core.statistics` — rd_f, b_f, dr̄_f, mc_f (Sec. IV-B).
- :mod:`repro.core.partition` — event-log partitioning (Sec. IV-C).
- :mod:`repro.core.coloring` — statistics- and partition-based stylers.
- :mod:`repro.core.render` — DOT / SVG / ASCII / timeline renderers.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "Event",
    "EventFrame",
    "FramePools",
    "EventLog",
    "Mapping",
    "CallTopDirs",
    "CallPath",
    "CallPathTail",
    "CallOnly",
    "SiteVariables",
    "RegexMapping",
    "RestrictedMapping",
    "ComposedMapping",
    "mapping_from_callable",
    "START_ACTIVITY",
    "END_ACTIVITY",
    "ActivityLog",
    "DFG",
    "ActivityStats",
    "IOStatistics",
    "StatsAccumulator",
    "PartitionEL",
    "partition_by_cid",
    "partition_by_predicate",
    "Style",
    "StatisticsColoring",
    "PartitionColoring",
    "PlainColoring",
    "ActivityDelta",
    "DFGDiff",
    "EdgeDelta",
    "IncrementalDFG",
    "bottleneck_activities",
    "dominant_path",
    "edge_probabilities",
    "entropy_of_successors",
    "find_cycles",
    "reachable_activities",
    "variant_coverage",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.event": ("Event",),
    "repro.core.frame": ("EventFrame", "FramePools"),
    "repro.core.eventlog": ("EventLog",),
    "repro.core.mapping": ("Mapping", "CallTopDirs", "CallPath",
                           "CallPathTail", "CallOnly", "SiteVariables",
                           "RegexMapping", "RestrictedMapping",
                           "ComposedMapping", "mapping_from_callable"),
    "repro.core.activity": ("START_ACTIVITY", "END_ACTIVITY", "ActivityLog"),
    "repro.core.dfg": ("DFG",),
    "repro.core.statistics": ("ActivityStats", "IOStatistics",
                              "StatsAccumulator"),
    "repro.core.partition": ("PartitionEL", "partition_by_cid",
                             "partition_by_predicate"),
    "repro.core.coloring": ("Style", "StatisticsColoring", "PartitionColoring",
                            "PlainColoring"),
    "repro.core.diff": ("ActivityDelta", "DFGDiff", "EdgeDelta"),
    "repro.core.incremental": ("IncrementalDFG",),
    "repro.core.analysis": ("bottleneck_activities", "dominant_path",
                            "edge_probabilities", "entropy_of_successors",
                            "find_cycles", "reachable_activities",
                            "variant_coverage"),
})
