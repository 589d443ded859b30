"""The Directly-Follows-Graph (Sec. IV-A).

Given an activity-log ``L_f(C)``, the DFG ``G[L_f(C)]`` has the
activities as nodes and an edge ``(a1, a2)`` iff some trace contains
``a1`` immediately before ``a2``; self-loops arise from repeated
activities (``read:/usr/lib`` three times in a row → a self-edge of
weight 2 per trace). Edge weights count how often the directly-follows
relation was observed — the numbers on the edges of Fig. 3.

Besides construction, this module provides the graph algebra that the
comparison technique of Sec. IV-C builds on: union (``G[L(Ca ∪ Cb)]``
equals ``G[L(Ca)] ∪ G[L(Cb)]`` with summed weights — a property our
hypothesis tests check), and exclusive-node/edge queries used by
partition coloring.

Construction is a single O(n) pass, as the paper notes in Sec. V. On an
event-log it runs on the frame's ``case`` and ``activity`` code columns
(pair keys through one ``np.unique``, node frequencies through one
``np.bincount``) and decodes only the distinct edges; on an activity-log
distinct traces are processed once and weighted by multiplicity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping as TMapping

import numpy as np

from repro._util.errors import ReproError
from repro.core.activity import (
    END_ACTIVITY,
    SENTINELS,
    START_ACTIVITY,
    ActivityLog,
)
from repro.core.frame import MISSING

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.core.eventlog import EventLog
    from repro.core.frame import EventFrame

Edge = tuple[str, str]


class DFG:
    """A Directly-Follows-Graph with observation-count edge weights.

    The constructor accepts an :class:`~repro.core.eventlog.EventLog`
    (with an applied mapping — this matches the paper's Fig. 6 step 3,
    ``dfg = DFG(event_log)``) or an
    :class:`~repro.core.activity.ActivityLog`. Both give the graph of
    ``ActivityLog.from_event_log(event_log, add_endpoints=...)``; the
    event-log road counts it from the frame columns without building
    the traces.
    """

    __slots__ = ("_edges", "_node_freq")

    def __init__(self, source: "EventLog | ActivityLog | None" = None,
                 *, add_endpoints: bool = True) -> None:
        self._edges: dict[Edge, int] = {}
        self._node_freq: dict[str, int] = {}
        if source is None:
            return
        if isinstance(source, ActivityLog):
            self._edges = source.directly_follows_counts()
            self._node_freq = source.activity_frequencies()
        else:
            source._require_mapping()
            self._count_frame(source.frame, add_endpoints)

    def _count_frame(self, frame: "EventFrame",
                     add_endpoints: bool) -> None:
        """Count edges and node frequencies from the code columns.

        A case's trace is its mapped activity codes in frame order; the
        case column is argsorted (stably) only if it is not already
        non-decreasing, which it is for every :class:`EventLog` frame.
        Pairs of adjacent mapped rows of one case become int64 keys
        ``a * width + b``; ● / ■ edges come from each case's first and
        last mapped code, and a case without one counts as ⟨●, ■⟩.
        Everything but the pair keys is dropped before their sort, the
        one O(n) int64 temporary.
        """
        case = frame.column("case")
        activity = frame.column("activity")
        if (case[1:] < case[:-1]).any():
            order = np.argsort(case, kind="stable")
            case, activity = case[order], activity[order]
        mapped = activity != MISSING
        codes = activity[mapped]
        mapped_case = case[mapped]
        boundary = mapped_case[1:] != mapped_case[:-1]
        n_cases = (1 + int(np.count_nonzero(case[1:] != case[:-1]))
                   if len(case) else 0)
        del case, activity, mapped, mapped_case
        decode = frame.pools.activities.decode
        for code, count in enumerate(np.bincount(codes).tolist()):
            if count:
                self._node_freq[decode(code)] = count
        # Sentinel counts are added, not assigned, after the activities'
        # own: an activity literally named like a sentinel merges with
        # it, as on the activity-log road.
        endpoint_edges = []
        if add_endpoints and n_cases:
            first = np.ones(len(codes), dtype=bool)
            first[1:] = boundary
            last = np.ones(len(codes), dtype=bool)
            last[:-1] = boundary
            endpoint_edges = [
                *(((START_ACTIVITY, decode(code)), count) for code, count
                  in enumerate(np.bincount(codes[first]).tolist())),
                *(((decode(code), END_ACTIVITY), count) for code, count
                  in enumerate(np.bincount(codes[last]).tolist())),
                ((START_ACTIVITY, END_ACTIVITY),
                 n_cases - int(np.count_nonzero(first))),
            ]
            del first, last
            for sentinel in (START_ACTIVITY, END_ACTIVITY):
                self._node_freq[sentinel] = \
                    self._node_freq.get(sentinel, 0) + n_cases
        width = len(frame.pools.activities)
        inner = ~boundary
        keys = codes[:-1][inner].astype(np.int64)
        keys *= width
        keys += codes[1:][inner]
        del codes, boundary, inner
        pair_keys, pair_counts = np.unique(keys, return_counts=True)
        del keys
        for key, count in zip(pair_keys.tolist(), pair_counts.tolist()):
            a1, a2 = divmod(key, width)
            self._edges[(decode(a1), decode(a2))] = count
        for edge, count in endpoint_edges:
            if count:
                self._edges[edge] = self._edges.get(edge, 0) + count

    @classmethod
    def from_counts(cls, edges: TMapping[Edge, int],
                    node_freq: TMapping[str, int] | None = None) -> "DFG":
        """Build directly from edge counts (tests / deserialization).

        Node frequencies default to 0 for nodes only seen in edges.
        """
        dfg = cls()
        for (a1, a2), count in edges.items():
            if count <= 0:
                raise ReproError(
                    f"edge ({a1!r}, {a2!r}) has non-positive count {count}")
            dfg._edges[(a1, a2)] = int(count)
        freq = dict(node_freq or {})
        for a1, a2 in dfg._edges:
            freq.setdefault(a1, 0)
            freq.setdefault(a2, 0)
        dfg._node_freq = freq
        return dfg

    # -- structure queries ------------------------------------------------------

    def nodes(self) -> set[str]:
        """All nodes, sentinels included."""
        return set(self._node_freq)

    def activities(self) -> set[str]:
        """Nodes excluding the ● / ■ sentinels."""
        return set(self._node_freq) - SENTINELS

    def edges(self) -> dict[Edge, int]:
        """Copy of the ``{(a1, a2): count}`` edge map."""
        return dict(self._edges)

    def edge_count(self, a1: str, a2: str) -> int:
        """Observation count of edge (a1, a2); 0 if absent."""
        return self._edges.get((a1, a2), 0)

    def has_edge(self, a1: str, a2: str) -> bool:
        return (a1, a2) in self._edges

    def node_frequency(self, activity: str) -> int:
        """Occurrences of the activity across traces (|f⁻¹(a)| for real
        activities; the trace count for ● / ■)."""
        return self._node_freq.get(activity, 0)

    def successors(self, activity: str) -> dict[str, int]:
        """``{a2: count}`` for all edges leaving ``activity``."""
        return {a2: c for (a1, a2), c in self._edges.items()
                if a1 == activity}

    def predecessors(self, activity: str) -> dict[str, int]:
        """``{a1: count}`` for all edges entering ``activity``."""
        return {a1: c for (a1, a2), c in self._edges.items()
                if a2 == activity}

    def self_loops(self) -> dict[str, int]:
        """``{a: count}`` for all self-edges."""
        return {a1: c for (a1, a2), c in self._edges.items() if a1 == a2}

    @property
    def n_nodes(self) -> int:
        return len(self._node_freq)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def total_observations(self) -> int:
        """Sum of all edge counts.

        For an endpoint-wrapped log this equals Σ over traces of
        (trace length + 1) — an invariant the property tests verify.
        """
        return sum(self._edges.values())

    # -- algebra ---------------------------------------------------------------------

    def union(self, other: "DFG") -> "DFG":
        """Merged graph with summed edge counts and node frequencies.

        Satisfies ``DFG(L1 ⊎ L2) == DFG(L1) | DFG(L2)``.
        """
        return DFG.union_all((self, other))

    def __or__(self, other: "DFG") -> "DFG":
        return self.union(other)

    @classmethod
    def union_all(cls, dfgs: "Iterable[DFG]") -> "DFG":
        """Fold any number of shard graphs into one (n-ary union).

        ``DFG.union_all(DFG(L(c)) for c in cases) == DFG(L(C))`` — the
        Sec. IV-A law the union property tests check.
        Accumulates in place, so folding k shards with e edges each is
        O(k·e) rather than the O(k²·e) of repeated binary union.
        """
        merged = cls()
        for dfg in dfgs:
            for edge, count in dfg._edges.items():
                merged._edges[edge] = merged._edges.get(edge, 0) + count
            for node, freq in dfg._node_freq.items():
                merged._node_freq[node] = \
                    merged._node_freq.get(node, 0) + freq
        return merged

    def exclusive_nodes(self, other: "DFG") -> set[str]:
        """Nodes present here but not in ``other`` (sentinels excluded —
        both graphs of a partition share ● / ■ by construction)."""
        return self.activities() - other.activities()

    def exclusive_edges(self, other: "DFG") -> set[Edge]:
        """Edges present here but absent from ``other``."""
        return set(self._edges) - set(other._edges)

    def shared_nodes(self, other: "DFG") -> set[str]:
        """Activities occurring in both graphs."""
        return self.activities() & other.activities()

    def shared_edges(self, other: "DFG") -> set[Edge]:
        """Edges occurring in both graphs."""
        return set(self._edges) & set(other._edges)

    # -- filtering (process-mining DFG simplification) ---------------------------------

    def filtered_by_count(self, min_count: int) -> "DFG":
        """Keep only edges observed at least ``min_count`` times.

        The standard process-mining simplification for hairball DFGs:
        rare transitions drop out, the dominant flow remains. Nodes
        that lose all their edges disappear; node frequencies are
        preserved for the survivors.
        """
        if min_count < 1:
            raise ReproError("min_count must be >= 1")
        kept = {edge: count for edge, count in self._edges.items()
                if count >= min_count}
        nodes = {a for edge in kept for a in edge}
        result = DFG()
        result._edges = kept
        result._node_freq = {node: self._node_freq.get(node, 0)
                             for node in nodes}
        return result

    def subgraph(self, nodes: "Iterable[str]") -> "DFG":
        """The induced sub-DFG on the given nodes (plus ● / ■ if
        present) — slicing the graph around suspect activities."""
        wanted = set(nodes) | (SENTINELS & set(self._node_freq))
        kept = {(a1, a2): count for (a1, a2), count
                in self._edges.items()
                if a1 in wanted and a2 in wanted}
        result = DFG()
        result._edges = kept
        result._node_freq = {node: self._node_freq[node]
                             for node in wanted
                             if node in self._node_freq}
        return result

    # -- export ----------------------------------------------------------------------------

    def to_networkx(self) -> nx.DiGraph:
        """Export as a networkx DiGraph (edge attr ``count``, node attr
        ``frequency``) for downstream graph analytics — the package's
        one use of networkx, imported on call."""
        import networkx as nx

        graph = nx.DiGraph()
        for node, freq in self._node_freq.items():
            graph.add_node(node, frequency=freq)
        for (a1, a2), count in self._edges.items():
            graph.add_edge(a1, a2, count=count)
        return graph

    def start_node(self) -> str:
        """The ● sentinel name (present iff built with endpoints)."""
        return START_ACTIVITY

    # -- identity -----------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DFG):
            return NotImplemented
        return (self._edges == other._edges
                and self._node_freq == other._node_freq)

    def __hash__(self) -> int:
        return hash(frozenset(self._edges.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DFG({self.n_nodes} nodes, {self.n_edges} edges)"
