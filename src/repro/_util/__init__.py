"""Shared low-level helpers for the st_inspector reproduction.

This subpackage hosts the small, dependency-free building blocks used
across the library:

- :mod:`repro._util.errors` — the exception hierarchy.
- :mod:`repro._util.sizes` — byte/rate formatting exactly as rendered in
  the paper's DFG node labels (``Load: 0.22 (14.98 KB)``,
  ``DR: 2x10.15 MB/s``).
- :mod:`repro._util.timefmt` — wall-clock (``HH:MM:SS.ffffff``) and
  duration (``<0.000203>``) parsing/formatting used by the strace layer.
- :mod:`repro._util.multiset` — the :class:`~repro._util.multiset.Bag`
  used to represent activity-logs ``L_f(C) ∈ B(A_f*)``.
- :mod:`repro._util.intervals` — interval arithmetic incl. the
  max-concurrency sweep-line (Eq. 16 of the paper).
- :mod:`repro._util.strings` — interned string pools backing the
  columnar :class:`~repro.core.frame.EventFrame`.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "ReproError",
    "TraceParseError",
    "StoreFormatError",
    "MappingError",
    "PartitionError",
    "SimulationError",
    "RenderError",
    "format_bytes",
    "format_rate",
    "parse_size",
    "parse_wallclock",
    "format_wallclock",
    "parse_duration",
    "format_duration",
    "Bag",
    "max_concurrency",
    "max_concurrency_naive",
    "total_covered",
    "merge_intervals",
    "StringPool",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro._util.errors": ("ReproError", "TraceParseError", "StoreFormatError",
                           "MappingError", "PartitionError", "SimulationError",
                           "RenderError"),
    "repro._util.sizes": ("format_bytes", "format_rate", "parse_size"),
    "repro._util.timefmt": ("parse_wallclock", "format_wallclock",
                            "parse_duration", "format_duration"),
    "repro._util.multiset": ("Bag",),
    "repro._util.intervals": ("max_concurrency", "max_concurrency_naive",
                              "total_covered", "merge_intervals"),
    "repro._util.strings": ("StringPool",),
})
