"""Quantitative DFG comparison beyond green/red coloring.

Partition coloring (Sec. IV-C) shows *which* elements are exclusive to
one run; it deliberately leaves shared elements uncolored. For shared
elements the interesting question is *how much they changed* — edge
counts, loads, rates. :class:`DFGDiff` computes exactly that, giving
the comparison workflow a numeric companion to the colored graph:

>>> diff = DFGDiff.between(green_log, red_log)      # doctest: +SKIP
>>> diff.edge_deltas()[:3]                          # doctest: +SKIP
>>> print(diff.report())                            # doctest: +SKIP

All deltas are reported green-minus-red, matching the coloring's
orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.activity import SENTINELS
from repro.core.dfg import DFG, Edge
from repro.core.statistics import IOStatistics

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.eventlog import EventLog


@dataclass(frozen=True, slots=True)
class EdgeDelta:
    """Observation-count change of one directly-follows relation."""

    edge: Edge
    green_count: int
    red_count: int

    @property
    def delta(self) -> int:
        return self.green_count - self.red_count

    @property
    def status(self) -> str:
        if self.red_count == 0:
            return "green-only"
        if self.green_count == 0:
            return "red-only"
        return "shared"


@dataclass(frozen=True, slots=True)
class ActivityDelta:
    """Per-activity statistic changes between the two sub-logs."""

    activity: str
    green_events: int
    red_events: int
    green_rd: float
    red_rd: float
    green_bytes: int
    red_bytes: int
    green_rate: float | None
    red_rate: float | None

    @property
    def event_delta(self) -> int:
        return self.green_events - self.red_events

    @property
    def rd_delta(self) -> float:
        return self.green_rd - self.red_rd

    @property
    def rate_ratio(self) -> float | None:
        """green/red process-data-rate ratio.

        None if either rate is absent (no transfers) or the red rate
        is 0.0. A green rate of 0.0 is a measurement — zero-byte
        transfers, a total collapse — and gives 0.0.
        """
        if self.green_rate is None or not self.red_rate:
            return None
        return self.green_rate / self.red_rate


class DFGDiff:
    """The structured difference of two event-log halves."""

    def __init__(self, green_dfg: DFG, red_dfg: DFG,
                 green_stats: IOStatistics | None = None,
                 red_stats: IOStatistics | None = None) -> None:
        self.green_dfg = green_dfg
        self.red_dfg = red_dfg
        self.green_stats = green_stats
        self.red_stats = red_stats

    @classmethod
    def between(cls, green_log: "EventLog",
                red_log: "EventLog") -> "DFGDiff":
        """Build the diff from two mapped event-logs (e.g. the output
        of :func:`~repro.core.partition.PartitionEL`)."""
        return cls(DFG(green_log), DFG(red_log),
                   IOStatistics(green_log), IOStatistics(red_log))

    # -- structure --------------------------------------------------------

    def edge_deltas(self) -> list[EdgeDelta]:
        """Every edge of either graph, largest |delta| first."""
        edges = set(self.green_dfg.edges()) | set(self.red_dfg.edges())
        deltas = [
            EdgeDelta(edge=edge,
                      green_count=self.green_dfg.edge_count(*edge),
                      red_count=self.red_dfg.edge_count(*edge))
            for edge in edges
        ]
        deltas.sort(key=lambda d: (-abs(d.delta), d.edge))
        return deltas

    def activity_deltas(self) -> list[ActivityDelta]:
        """Per-activity stat changes, largest |rd delta| first.

        Requires statistics (use :meth:`between`); raises otherwise.
        """
        if self.green_stats is None or self.red_stats is None:
            raise ValueError("DFGDiff built without statistics; "
                             "use DFGDiff.between(...)")
        activities = (self.green_dfg.activities()
                      | self.red_dfg.activities()) - SENTINELS

        def stat(stats: IOStatistics, activity: str):
            return stats.get(activity)

        deltas = []
        for activity in activities:
            green = stat(self.green_stats, activity)
            red = stat(self.red_stats, activity)
            deltas.append(ActivityDelta(
                activity=activity,
                green_events=green.event_count if green else 0,
                red_events=red.event_count if red else 0,
                green_rd=green.relative_duration if green else 0.0,
                red_rd=red.relative_duration if red else 0.0,
                green_bytes=green.total_bytes if green else 0,
                red_bytes=red.total_bytes if red else 0,
                green_rate=green.process_data_rate if green else None,
                red_rate=red.process_data_rate if red else None,
            ))
        deltas.sort(key=lambda d: (-abs(d.rd_delta), d.activity))
        return deltas

    def added_edges(self) -> list[Edge]:
        """Green-exclusive edges, sorted — for ``diff_since(baseline)``
        diffs (green = now) these are exactly the directly-follows
        relations that appeared since the baseline snapshot.
        """
        return sorted(set(self.green_dfg.edges())
                      - set(self.red_dfg.edges()))

    def vanished_edges(self) -> list[Edge]:
        """Red-exclusive edges, sorted — relations present in the
        baseline but gone from the current graph (live, only a case's
        closing ``(a, ■)`` edge can vanish: it moves when the case
        grows)."""
        return sorted(set(self.red_dfg.edges())
                      - set(self.green_dfg.edges()))

    # -- scalar summaries ---------------------------------------------------------

    def jaccard_nodes(self) -> float:
        """Node-set similarity in [0, 1] (1 = identical activity sets)."""
        green = self.green_dfg.activities()
        red = self.red_dfg.activities()
        union = green | red
        if not union:
            return 1.0
        return len(green & red) / len(union)

    def jaccard_edges(self) -> float:
        """Edge-set similarity in [0, 1]."""
        green = set(self.green_dfg.edges())
        red = set(self.red_dfg.edges())
        union = green | red
        if not union:
            return 1.0
        return len(green & red) / len(union)

    def total_count_delta(self) -> int:
        """Difference in total directly-follows observations."""
        return (self.green_dfg.total_observations()
                - self.red_dfg.total_observations())

    # -- report ---------------------------------------------------------------------

    def report(self, *, top: int = 10) -> str:
        """Human-readable diff summary."""
        lines = ["DFG DIFF (green - red)"]
        lines.append(
            f"  node similarity (Jaccard): {self.jaccard_nodes():.2f}; "
            f"edge similarity: {self.jaccard_edges():.2f}; "
            f"observation delta: {self.total_count_delta():+d}")
        lines.append(f"  top edge deltas:")
        for delta in self.edge_deltas()[:top]:
            a1, a2 = delta.edge
            display = (f"{a1} -> {a2}").replace("\n", " ")
            lines.append(
                f"    {delta.delta:+7d}  [{delta.status:>10s}] {display} "
                f"({delta.green_count} vs {delta.red_count})")
        if self.green_stats is not None and self.red_stats is not None:
            lines.append("  top activity load deltas:")
            for delta in self.activity_deltas()[:top]:
                rate = (f", rate x{delta.rate_ratio:.2f}"
                        if delta.rate_ratio is not None else "")
                lines.append(
                    f"    {delta.rd_delta:+.3f}  "
                    f"{delta.activity.replace(chr(10), ' ')} "
                    f"(events {delta.green_events} vs "
                    f"{delta.red_events}{rate})")
        return "\n".join(lines) + "\n"
