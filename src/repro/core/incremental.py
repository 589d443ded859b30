"""Incrementally maintained DFGs under per-case appends.

The paper's union algebra (Sec. IV-A) makes DFG construction not just
shardable but *incremental*: ``G[L(Ca ∪ Cb)] = G[L(Ca)] ∪ G[L(Cb)]``
with summed weights, so a delta of newly observed events folds into a
standing graph without a rebuild. For a *new* case the fold is the
union with the case's single-trace graph verbatim. For a *growing*
case — the live-monitoring situation, where a trace file gains events
while the application runs — the delta attaches at the case boundary:
with previous last activity ``p`` and appended activities
``a1 … ak``, the update removes the old closing edge ``(p, ■)``, adds
the chain ``(p, a1), (a1, a2), …``, and closes again with
``(ak, ■)``. Everything else in the graph is untouched, so the cost of
a poll is O(|delta|) — never O(|log|).

:class:`IncrementalDFG` maintains exactly that state and guarantees the
invariant the live subsystem is built on: after any sequence of
``extend_case`` calls that in total replay each case's activity
sequence in order, :meth:`snapshot` equals the batch-built
:class:`~repro.core.dfg.DFG` of the same log — pinned by hypothesis
property tests over randomized increment schedules.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from repro._util.errors import ReproError
from repro.core.activity import END_ACTIVITY, START_ACTIVITY
from repro.core.dfg import DFG, Edge
from repro.core.diff import DFGDiff


class IncrementalDFG:
    """A standing DFG that absorbs per-case activity deltas in O(delta).

    Parameters
    ----------
    add_endpoints:
        Wrap every case in the artificial ● / ■ sentinels, exactly like
        batch construction (the default everywhere in the library).
        With ``False`` the graph holds only real directly-follows
        pairs; single-activity cases then contribute a node but no
        edge, again matching :class:`~repro.core.activity.ActivityLog`.
    """

    __slots__ = ("add_endpoints", "_edges", "_node_freq", "_last")

    def __init__(self, *, add_endpoints: bool = True) -> None:
        self.add_endpoints = add_endpoints
        self._edges: dict[Edge, int] = {}
        self._node_freq: dict[str, int] = {}
        # case_id -> last activity of the case so far (● right after
        # registration of an endpoint-wrapped empty case; None for a
        # still-empty case without endpoints).
        self._last: dict[str, str | None] = {}

    # -- folding -----------------------------------------------------------

    def extend_case(self, case_id: str,
                    activities: Iterable[str]) -> None:
        """Fold newly observed activities of one case into the graph.

        Call this once per case per poll with the case's new *mapped*
        activities in event order (possibly empty — a case whose new
        events all fall outside the partial mapping still registers,
        contributing the ``⟨●, ■⟩`` trace until it gains a mapped
        event, just as in batch construction). Calls for different
        cases commute — the union algebra at work.
        """
        acts = list(activities)
        if self.add_endpoints:
            self._extend_with_endpoints(case_id, acts)
        else:
            self._extend_plain(case_id, acts)

    def _extend_with_endpoints(self, case_id: str,
                               acts: list[str]) -> None:
        last = self._last.get(case_id)
        if last is None:
            self._bump_node(START_ACTIVITY, 1)
            prev = START_ACTIVITY
        else:
            if not acts:
                return
            # Re-open the case: its old closing edge moves to the new
            # tail. This is the only subtraction incrementality needs.
            self._bump_edge((last, END_ACTIVITY), -1)
            self._bump_node(END_ACTIVITY, -1)
            prev = last
        for activity in acts:
            self._bump_edge((prev, activity), 1)
            self._bump_node(activity, 1)
            prev = activity
        self._bump_edge((prev, END_ACTIVITY), 1)
        self._bump_node(END_ACTIVITY, 1)
        self._last[case_id] = prev

    def _extend_plain(self, case_id: str, acts: list[str]) -> None:
        registered = case_id in self._last
        prev = self._last.get(case_id)
        for activity in acts:
            if prev is not None:
                self._bump_edge((prev, activity), 1)
            self._bump_node(activity, 1)
            prev = activity
        if acts or not registered:
            self._last[case_id] = prev

    def _bump_edge(self, edge: Edge, delta: int) -> None:
        count = self._edges.get(edge, 0) + delta
        if count < 0:
            raise ReproError(
                f"incremental DFG edge {edge!r} went negative — "
                f"extend_case replayed out of order")
        if count:
            self._edges[edge] = count
        else:
            self._edges.pop(edge, None)

    def _bump_node(self, activity: str, delta: int) -> None:
        count = self._node_freq.get(activity, 0) + delta
        if count < 0:
            raise ReproError(
                f"incremental DFG node {activity!r} frequency went "
                f"negative — extend_case replayed out of order")
        if count:
            self._node_freq[activity] = count
        else:
            self._node_freq.pop(activity, None)

    # -- views -------------------------------------------------------------

    def snapshot(self) -> DFG:
        """An immutable :class:`DFG` copy of the current graph.

        Equal to batch construction over the events folded so far; safe
        to keep as a baseline while the incremental graph keeps moving.
        """
        return DFG.from_counts(self._edges, self._node_freq)

    def diff_since(self, baseline: DFG) -> DFGDiff:
        """Structured diff current-minus-``baseline`` (green = now).

        ``baseline`` is typically the :meth:`snapshot` taken at the
        previous refresh; the diff's green-exclusive edges are exactly
        the directly-follows relations that appeared since.
        """
        return DFGDiff(self.snapshot(), baseline)

    @property
    def n_cases(self) -> int:
        """Cases folded so far."""
        return len(self._last)

    @property
    def n_nodes(self) -> int:
        return len(self._node_freq)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def total_observations(self) -> int:
        """Sum of all edge counts (matches ``DFG.total_observations``)."""
        return sum(self._edges.values())

    # -- checkpoint state --------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable state (live checkpoint sidecars)."""
        return {
            "add_endpoints": self.add_endpoints,
            "edges": [[a1, a2, count]
                      for (a1, a2), count in sorted(self._edges.items())],
            "node_freq": dict(sorted(self._node_freq.items())),
            "last": {case: last for case, last
                     in sorted(self._last.items())},
        }

    def check_laws(self, event_counts: Mapping[str, int]) -> None:
        """Raise :class:`ValueError`, naming the activity, unless the
        graph keeps the laws every fold keeps — a check for state read
        back from disk. Each activity occurs as often as
        ``event_counts`` (the statistics' events per activity) says.
        With endpoints, each node is entered, occurs and is left
        equally often, where each case of the ``last`` table enters ●
        and leaves ■ once; and each ``(x, ■)`` count is the number of
        cases whose last activity is x."""
        for activity in sorted({*event_counts, *self._node_freq}
                               - {START_ACTIVITY, END_ACTIVITY}):
            occurs = self._node_freq.get(activity, 0)
            counted = event_counts.get(activity, 0)
            if occurs != counted:
                raise ValueError(
                    f"activity {activity!r} occurs {occurs} times in the "
                    f"graph but {counted} times in the statistics")
        if not self.add_endpoints:
            return
        entered: Counter[str] = Counter()
        left: Counter[str] = Counter()
        for (source, target), count in self._edges.items():
            left[source] += count
            entered[target] += count
        entered[START_ACTIVITY] += len(self._last)
        left[END_ACTIVITY] += len(self._last)
        for activity in sorted({*entered, *left, *self._node_freq}):
            counts = (entered[activity], self._node_freq.get(activity, 0),
                      left[activity])
            if len(set(counts)) > 1:
                raise ValueError(
                    f"activity {activity!r} is entered {counts[0]} times, "
                    f"occurs {counts[1]} times and is left {counts[2]} "
                    f"times")
        closing = Counter({source: count for (source, target), count
                           in self._edges.items() if target == END_ACTIVITY})
        ending = Counter(self._last.values())
        for activity in sorted({*closing, *ending}):
            if closing[activity] != ending[activity]:
                raise ValueError(
                    f"edge ({activity!r}, {END_ACTIVITY!r}) counts "
                    f"{closing[activity]} but {ending[activity]} case(s) "
                    f"end at {activity!r}")

    @classmethod
    def from_state(cls, state: dict) -> "IncrementalDFG":
        """Rebuild from :meth:`to_state` output; a non-positive edge
        count, which no fold makes, raises :class:`ValueError`, as
        :meth:`check_laws` does."""
        graph = cls(add_endpoints=bool(state["add_endpoints"]))
        for a1, a2, count in state["edges"]:
            if count <= 0:
                raise ValueError(
                    f"checkpointed edge ({a1!r}, {a2!r}) has "
                    f"non-positive count {count}")
            graph._edges[(a1, a2)] = int(count)
        graph._node_freq = {str(node): int(freq)
                            for node, freq in state["node_freq"].items()}
        graph._last = {str(case): last
                       for case, last in state["last"].items()}
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IncrementalDFG({self.n_cases} cases, "
                f"{self.n_nodes} nodes, {self.n_edges} edges)")
