"""Event-log partitioning for partition-based coloring (Sec. IV-C).

Step (a) of the comparison technique: "From the event-log C, identify
two mutually exclusive subsets G and R". The paper's IOR experiment
partitions by *command identifier* (the run with MPI-IO vs the run
without); the general mechanism also supports arbitrary predicates
(e.g. by host, by rank parity, by time window).

Partitions are *case-level*: a case belongs wholly to G or wholly to R,
because traces — and therefore DFGs — are per-case sequences; splitting
a case between subsets would fabricate directly-follows relations that
never happened. That is also what makes each half's Sec. IV-B
statistics cheap: a half keeps its parent's frame and case mask
(:meth:`~repro.core.eventlog.EventLog.case_child`), and its
statistics restrict the parent's per-(activity, case) cells.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro._util.errors import PartitionError
from repro.core.eventlog import EventLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.event import Event


def partition_by_cid(
    event_log: EventLog,
    green_cids: Iterable[str],
    red_cids: Iterable[str] | None = None,
) -> tuple[EventLog, EventLog]:
    """Split by command identifier: G = given cids, R = the rest.

    This realizes the paper's Eq. 18-style partitions (G = the MPI-IO
    run, R = the POSIX run). ``red_cids`` may be given explicitly to
    restrict R; cids in neither set are dropped (with a validity check
    that at least G and R are non-empty and disjoint).
    """
    green_set = set(green_cids)
    present = set(event_log.cids())
    unknown = green_set - present
    if unknown:
        raise PartitionError(
            f"green cids not present in the log: {sorted(unknown)}")
    if red_cids is None:
        red_set = present - green_set
    else:
        red_set = set(red_cids)
        if red_set & green_set:
            raise PartitionError(
                f"green and red cids overlap: {sorted(red_set & green_set)}")
        unknown = red_set - present
        if unknown:
            raise PartitionError(
                f"red cids not present in the log: {sorted(unknown)}")
    if not red_set:
        raise PartitionError(
            "red partition is empty; need at least two distinct cids")
    frame = event_log.frame
    green_log = event_log.case_child(frame.cid_in(green_set))
    red_log = event_log.case_child(frame.cid_in(red_set))
    return green_log, red_log


def partition_by_predicate(
    event_log: EventLog,
    case_predicate: Callable[[str], bool],
) -> tuple[EventLog, EventLog]:
    """Split by a predicate over *case ids* (e.g. ``lambda c:
    c.startswith('mpiio')``). True → green, False → red."""
    frame = event_log.frame
    pool = frame.pools.cases
    case_col = frame.column("case")
    green_codes = {code for code in np.unique(case_col)
                   if case_predicate(pool.decode(int(code)))}
    mask = np.isin(case_col,
                   np.array(sorted(green_codes), dtype=np.int32))
    if not mask.any() or mask.all():
        raise PartitionError(
            "predicate produced an empty partition "
            f"(green={int(mask.sum())} of {len(mask)} events)")
    return event_log.case_child(mask), event_log.case_child(~mask)


def PartitionEL(
    event_log: EventLog,
    green_cids: Iterable[str] | None = None,
    *,
    predicate: Callable[[str], bool] | None = None,
) -> tuple[EventLog, EventLog]:
    """The paper's ``PartitionEL`` (Fig. 6, step 5b).

    Called with no arguments beyond the log, it requires the log to
    contain exactly two cids and makes the lexicographically first one
    green — the deterministic counterpart of the paper's implicit
    split. Pass ``green_cids`` or ``predicate`` for explicit control.

    Returns ``(green_event_log, red_event_log)``.
    """
    if predicate is not None:
        if green_cids is not None:
            raise PartitionError("pass green_cids or predicate, not both")
        return partition_by_predicate(event_log, predicate)
    if green_cids is not None:
        return partition_by_cid(event_log, green_cids)
    cids = event_log.cids()
    if len(cids) != 2:
        raise PartitionError(
            f"implicit partition needs exactly two cids, log has {cids}; "
            f"pass green_cids= explicitly")
    return partition_by_cid(event_log, [cids[0]])
