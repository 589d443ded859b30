"""End-to-end orchestration: sessions, queries, reports.

- :class:`~repro.pipeline.session.InspectionSession` — one object from
  trace directory (or ``.elog`` store) to rendered, colored DFG; the
  programmatic equivalent of the paper's Fig. 6 listing.
- :mod:`repro.pipeline.query` — composable event-log filters.
- :mod:`repro.pipeline.report` — plain-text activity/statistics/
  comparison reports for terminals and CI logs.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "CaseCounters",
    "case_counters",
    "counters_report",
    "InspectionSession",
    "Query",
    "activity_report",
    "comparison_report",
    "variants_report",
    "render_html_report",
    "save_html_report",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.pipeline.session": ("InspectionSession",),
    "repro.pipeline.query": ("Query",),
    "repro.pipeline.report": ("activity_report", "comparison_report",
                              "variants_report"),
    "repro.pipeline.html": ("render_html_report", "save_html_report"),
    "repro.pipeline.counters": ("CaseCounters", "case_counters",
                                "counters_report"),
})
