"""Graph analytics over DFGs.

The DFG is a plain weighted digraph, so standard graph questions have
direct I/O interpretations:

- :func:`dominant_path` — the highest-probability walk ● → ■: "what
  does a typical case do, in order?"
- :func:`variant_coverage` — how many cases the k most frequent trace
  variants explain (process-mining's classic 80/20 check; a DFG of a
  log with low coverage at small k mixes heterogeneous behaviours and
  may deserve partitioning).
- :func:`find_cycles` — repeated-phase structure (segment loops in IOR
  show up as cycles through the write/read nodes).
- :func:`reachable_activities` — everything downstream of a node.
- :func:`edge_probabilities` — outgoing-edge transition probabilities,
  turning the DFG into a Markov-chain view.
- :func:`bottleneck_activities` — activities ranked by share of total
  I/O time (rd_f), with cumulative share, for "where do I look first".

Each helper walks the DFG's own edge map, so none needs a graph
library; :meth:`~repro.core.dfg.DFG.to_networkx` exports the graph for
analyses beyond these.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import TYPE_CHECKING, Iterator

from repro.core.activity import END_ACTIVITY, START_ACTIVITY, ActivityLog
from repro.core.dfg import DFG, Edge
from repro.core.statistics import IOStatistics

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.eventlog import EventLog


def edge_probabilities(dfg: DFG) -> dict[Edge, float]:
    """P(next = a2 | current = a1) for every edge.

    Probabilities over each node's outgoing edges sum to 1 (■ has no
    outgoing edges).
    """
    totals: dict[str, int] = {}
    for (a1, _a2), count in dfg.edges().items():
        totals[a1] = totals.get(a1, 0) + count
    return {edge: count / totals[edge[0]]
            for edge, count in dfg.edges().items()}


def dominant_path(dfg: DFG, *, max_length: int = 200) -> list[str]:
    """The most probable ● → ■ walk (greedy on transition probability,
    avoiding node revisits so self-loops/cycles cannot trap it).

    Returns the node sequence including the sentinels; an empty list if
    the DFG has no start node.
    """
    if START_ACTIVITY not in dfg.nodes():
        return []
    probs = edge_probabilities(dfg)
    path = [START_ACTIVITY]
    visited = {START_ACTIVITY}
    current = START_ACTIVITY
    while current != END_ACTIVITY and len(path) < max_length:
        candidates = [
            (probs[(current, nxt)], nxt)
            for nxt in dfg.successors(current)
            if nxt not in visited or nxt == END_ACTIVITY
        ]
        if not candidates:
            break
        _, best = max(candidates, key=lambda pn: (pn[0], pn[1]))
        path.append(best)
        visited.add(best)
        current = best
    return path


def variant_coverage(log: ActivityLog | "EventLog",
                     k: int | None = None) -> list[tuple[int, float]]:
    """Cumulative case coverage of the k most frequent variants.

    Returns ``[(k, coverage_fraction), ...]`` for k = 1..K (or up to the
    given k). A log where ``coverage[0]`` is already high is homogeneous
    (the paper's ls example: one variant covers 100 %).
    """
    activity_log = _as_activity_log(log)
    total = activity_log.n_traces()
    if total == 0:
        return []
    coverage: list[tuple[int, float]] = []
    cumulative = 0
    for i, (_trace, multiplicity) in enumerate(
            activity_log.variants(), start=1):
        cumulative += multiplicity
        coverage.append((i, cumulative / total))
        if k is not None and i >= k:
            break
    return coverage


def find_cycles(dfg: DFG, *, max_cycles: int = 100) -> list[list[str]]:
    """Simple cycles through the DFG (self-loops excluded) — the
    repeated-phase structure of the traced program.

    Each cycle starts at its least node. The cycles come shortest
    first, ties broken by the node list; past ``max_cycles`` the result
    is the ``max_cycles`` first cycles of that order.
    """
    return list(itertools.islice(_cycles_in_order(dfg), max(max_cycles, 0)))


def _cycles_in_order(dfg: DFG) -> Iterator[list[str]]:
    """Every simple cycle in :func:`find_cycles`' order, lazily.

    The search deepens one length at a time. A cycle of a given length
    from its least node ``s`` grows by a depth-first walk over nodes
    greater than ``s`` in sorted order, which yields the cycles in list
    order; a walk stops where it can no longer get back to ``s`` in the
    nodes it has left.
    """
    successors = _successors(dfg)
    predecessors: dict[str, list[str]] = {node: [] for node in successors}
    for node, nexts in successors.items():
        for nxt in nexts:
            predecessors[nxt].append(node)
    # Per start: the nodes that can return to it through nodes greater
    # than it, with the fewest edges they need (the start itself: 0).
    returns = {}
    for start in sorted(successors):
        distance = {start: 0}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for previous in predecessors[node]:
                if previous > start and previous not in distance:
                    distance[previous] = distance[node] + 1
                    queue.append(previous)
        if len(distance) > 1:
            returns[start] = distance
    longest = max(map(len, returns.values()), default=0)
    for length in range(2, longest + 1):
        for start, distance in returns.items():
            if len(distance) >= length:
                yield from _cycles_of_length(successors, start, distance,
                                             length)


def _successors(dfg: DFG) -> dict[str, list[str]]:
    """Each node's successors in sorted order, self-loops excluded."""
    successors: dict[str, list[str]] = {node: [] for node in dfg.nodes()}
    for a1, a2 in sorted(dfg.edges()):
        if a1 != a2:
            successors[a1].append(a2)
    return successors


def _cycles_of_length(successors: dict[str, list[str]], start: str,
                      distance: dict[str, int], length: int,
                      ) -> Iterator[list[str]]:
    """The cycles of ``length`` nodes from ``start`` through nodes of
    ``distance`` (see :func:`find_cycles`), in list order."""
    path, on_path = [start], {start}
    walks = [iter(successors[start])]
    while walks:
        room = length - len(path)  # nodes still to add, the next included
        for nxt in walks[-1]:
            if (nxt in on_path or nxt not in distance
                    or distance[nxt] > room):
                continue
            if room == 1:  # distance 1: ``nxt`` closes the cycle
                yield path + [nxt]
                continue
            path.append(nxt)
            on_path.add(nxt)
            walks.append(iter(successors[nxt]))
            break
        else:
            walks.pop()
            on_path.discard(path.pop())


def bottleneck_activities(
    stats: IOStatistics, *, threshold: float = 0.9,
) -> list[tuple[str, float, float]]:
    """Activities by descending rd_f with cumulative share, truncated
    once the cumulative share passes ``threshold``.

    The Fig. 8 reading in one call: for the SSF/FPP log this returns
    [(openat:$SCRATCH, 0.55, 0.55), (write:$SCRATCH, 0.43, 0.98)].
    """
    result = []
    cumulative = 0.0
    for activity in stats.activities():
        rd = stats[activity].relative_duration
        cumulative += rd
        result.append((activity, rd, cumulative))
        if cumulative >= threshold:
            break
    return result


def reachable_activities(dfg: DFG, origin: str) -> set[str]:
    """All activities reachable from ``origin`` by directly-follows
    edges (useful for slicing the graph under a suspect node).
    ``origin`` itself is not among them, even on a cycle through it."""
    successors = _successors(dfg)
    if origin not in successors:
        return set()
    seen = {origin}
    queue = deque([origin])
    while queue:
        for nxt in successors[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen - {origin}


def entropy_of_successors(dfg: DFG, activity: str) -> float:
    """Shannon entropy (bits) of the successor distribution of a node.

    0 = deterministic continuation; high entropy marks branch points
    where cases diverge (candidates for partition-based comparison).
    """
    successors = dfg.successors(activity)
    total = sum(successors.values())
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in successors.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def _as_activity_log(log: "ActivityLog | EventLog") -> ActivityLog:
    if isinstance(log, ActivityLog):
        return log
    return ActivityLog.from_event_log(log)
