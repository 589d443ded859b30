"""Composable event-log queries.

The paper frames filtering as "a query and an abstraction applied to an
event-log" (Sec. IV). :class:`Query` makes the query half first-class:
a conjunction of predicates over the columnar frame, evaluated
vectorized, reusable across logs.

>>> q = Query().fp_contains("/p/scratch").calls("read", "write")
>>> scratch_rw = q.apply(log)                      # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.eventlog import EventLog
from repro.core.frame import EventFrame

#: A frame-level predicate producing a boolean row mask.
FramePredicate = Callable[[EventFrame], np.ndarray]


@dataclass
class Query:
    """An immutable conjunction of event filters."""

    _predicates: tuple[FramePredicate, ...] = ()
    _description: tuple[str, ...] = ()

    def _extended(self, predicate: FramePredicate,
                  description: str) -> "Query":
        return Query(self._predicates + (predicate,),
                     self._description + (description,))

    # -- builders -----------------------------------------------------------

    def fp_contains(self, substring: str) -> "Query":
        """Keep events whose file path contains ``substring``."""
        return self._extended(
            lambda frame: frame.fp_contains(substring),
            f"fp~{substring!r}")

    def fp_matches(self, predicate: Callable[[str], bool],
                   label: str = "fp-predicate") -> "Query":
        """Keep events whose path satisfies an arbitrary predicate."""
        return self._extended(
            lambda frame: frame.fp_matches(predicate), label)

    def calls(self, *names: str) -> "Query":
        """Keep events whose syscall is one of ``names``."""
        return self._extended(
            lambda frame: frame.call_in(names), f"call∈{sorted(names)}")

    def cids(self, *cids: str) -> "Query":
        """Keep events of the given command identifiers."""
        return self._extended(
            lambda frame: frame.cid_in(cids), f"cid∈{sorted(cids)}")

    def time_window(self, start_us: int, end_us: int) -> "Query":
        """Keep events starting within [start_us, end_us)."""
        return self._extended(
            lambda frame: frame.time_window(start_us, end_us),
            f"start∈[{start_us},{end_us})")

    def where(self, predicate: FramePredicate,
              label: str = "custom") -> "Query":
        """Attach a raw frame-level predicate."""
        return self._extended(predicate, label)

    # -- evaluation -------------------------------------------------------------

    def mask(self, frame: EventFrame) -> np.ndarray:
        """The conjunction of all predicates as a boolean mask."""
        result = np.ones(len(frame), dtype=bool)
        for predicate in self._predicates:
            result &= predicate(frame)
        return result

    def apply(self, event_log: EventLog) -> EventLog:
        """A new event-log containing only the matching events."""
        if not self._predicates:
            return event_log
        return event_log.filtered(self.mask(event_log.frame))

    def describe(self) -> str:
        """Human-readable conjunction, for reports."""
        return " AND ".join(self._description) if self._description \
            else "(all events)"

    def __len__(self) -> int:
        return len(self._predicates)
