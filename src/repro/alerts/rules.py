"""The alerting rule vocabulary: predicates over one refresh delta.

Every rule sees a :class:`RefreshContext` — the point-in-time snapshot
the watch loop already computes (current/previous DFG, assembled
statistics, optional baseline, per-file watermark ages) — and returns
the :class:`~repro.alerts.model.Alert` records its condition fired
this refresh. Evaluation cost rides on the structures PR 2/3 made
cheap: graphs are O(edges), statistics are the O(delta)-assembled
:class:`~repro.core.statistics.IOStatistics`, so a rules file adds
O(edges + activities) per refresh, never O(events).

**Latching.** Each rule keeps a *tripped set* of subjects whose
condition currently holds: a subject fires when its condition becomes
true and re-arms when it becomes false. For monotone conditions — a
non-sentinel edge exists (edge counts only grow), ``event_count`` /
``total_bytes`` above a bound, an edge reaching a multiple of its
baseline weight — a subject can trip at most once, which makes the
fired-alert identity multiset a deterministic function of the final
directory regardless of the poll schedule, and the tripped set is
persisted in checkpoint sidecars so restarts never re-fire.
Conditions over non-monotone measurements (``relative_duration``
ratios, ``process_data_rate`` bounds, watermark ages) sample the live
state and are inherently poll-schedule-sensitive; they re-fire after
re-arming by design — that oscillation *is* the signal.

**Cooldown.** A week-long watcher cannot afford a flapping subject
paging on every oscillation: every rule accepts ``cooldown`` (seconds
of wall clock, default 0 = off) and a subject that re-trips within
its cooldown of the last *delivered* firing is silently suppressed —
the latch still updates (so checkpoint restarts stay honest about
what the condition did), only the alert record is withheld and
counted in :attr:`Rule.n_suppressed`. Last-fired timestamps persist
in the sidecar, so a restart inside the cooldown window stays
quiet too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

from repro._util.errors import ReproError
from repro.alerts.model import Alert
from repro.core.activity import SENTINELS
from repro.core.dfg import DFG, Edge
from repro.core.statistics import METRIC_NAMES, IOStatistics


class AlertConfigError(ReproError):
    """An alerting rule (or rules file) is malformed.

    Messages always name the offending rule, so ``st-inspector watch
    --rules`` failures point at the exact table to fix.
    """


#: Comparison operators accepted by ``stat_threshold``.
OPS: dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def edge_label(edge: Edge) -> str:
    """Canonical one-line name of an edge (activities may hold
    newlines; subjects and latch keys must not)."""
    a1, a2 = edge
    return f"{a1} -> {a2}".replace("\n", " ")


def activity_label(activity: str) -> str:
    """Canonical one-line name of an activity."""
    return activity.replace("\n", " ")


@dataclass
class RefreshContext:
    """Everything one refresh exposes to the rules.

    Built once per poll by :meth:`~repro.alerts.engine.AlertEngine.
    evaluate` and shared across every rule, so no rule re-snapshots
    the live engine.
    """

    #: Poll sequence number (counts across checkpoint restarts).
    n_poll: int
    #: Records sealed so far.
    total_events: int
    #: The standing graph after this poll.
    current: DFG
    #: The graph after the previous evaluated refresh (None on the
    #: first refresh of this process — ``against="previous"`` rules
    #: skip it; the previous-process snapshot is deliberately not
    #: checkpointed, deltas are a per-process notion).
    previous: DFG | None
    #: Full-history statistics after this poll.
    stats: IOStatistics
    #: Statistics of the previous evaluated refresh.
    previous_stats: IOStatistics | None
    #: Graph/statistics of the configured baseline run, if any.
    baseline_dfg: DFG | None
    baseline_stats: IOStatistics | None
    #: Per-case sealing-starvation ages in µs of trace time
    #: (:meth:`~repro.live.engine.LiveIngest.watermark_ages`).
    watermark_ages: dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds at evaluation time (the alert engine's
    #: injectable clock) — what ``cooldown`` windows are measured
    #: against. ``None`` disables cooldown gating for this refresh.
    now: float | None = None


class Rule:
    """Base class: a named predicate with a persistent tripped set."""

    #: Rule type tag — the ``type =`` of the rules file.
    kind: str = ""

    def __init__(self, name: str, *, cooldown: float = 0.0) -> None:
        if not name:
            raise AlertConfigError("rule without a name")
        if cooldown < 0:
            raise AlertConfigError(
                f"rule {name!r}: cooldown must be >= 0 seconds "
                f"(got {cooldown})")
        self.name = name
        self.cooldown = float(cooldown)
        self._tripped: set[str] = set()
        #: subject -> wall-clock time of its last delivered firing
        #: (tracked only when a cooldown is configured).
        self._last_fired: dict[str, float] = {}
        #: Firings withheld by the cooldown over this life.
        self.n_suppressed = 0

    @property
    def needs_baseline(self) -> bool:
        """Whether this rule's configuration references the baseline
        run — checked eagerly at startup so a rules file that cannot
        ever evaluate fails before the first (possibly huge) poll."""
        return False

    # -- evaluation --------------------------------------------------------

    def evaluate(self, ctx: RefreshContext) -> list[Alert]:
        """Alerts fired by this refresh (may be empty)."""
        raise NotImplementedError

    def _trip(self, subject: str, condition: bool,
              now: float | None = None) -> bool:
        """Latch helper: True exactly when ``subject`` newly trips
        *and* its cooldown window allows a delivery."""
        if condition:
            if subject in self._tripped:
                return False
            self._tripped.add(subject)
            return self._fire_allowed(subject, now)
        self._tripped.discard(subject)
        return False

    def _fire_allowed(self, subject: str, now: float | None) -> bool:
        """Cooldown gate: record/refuse a delivery for ``subject``."""
        if self.cooldown <= 0 or now is None:
            return True
        last = self._last_fired.get(subject)
        if last is not None and now - last < self.cooldown:
            self.n_suppressed += 1
            return False
        self._last_fired[subject] = now
        return True

    # -- checkpoint state --------------------------------------------------

    def latch_state(self) -> dict:
        """JSON-serializable latch state (checkpoint sidecars;
        ``last_fired`` appears only when cooldown tracking recorded
        anything)."""
        state: dict = {"tripped": sorted(self._tripped)}
        if self._last_fired:
            state["last_fired"] = dict(sorted(self._last_fired.items()))
        return state

    def restore_latch(self, state: dict) -> None:
        """Inverse of :meth:`latch_state`."""
        self._tripped = {str(key) for key in state.get("tripped", [])}
        self._last_fired = {
            str(subject): float(when)
            for subject, when in state.get("last_fired", {}).items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}({self.name!r}, "
                f"{len(self._tripped)} tripped)")


class NewEdgeRule(Rule):
    """Fire once per directly-follows relation entering the graph.

    Options
    -------
    pattern:
        Substring filter on the ``"a -> b"`` edge label.
    include_sentinels:
        Also consider ● / ■ edges. Off by default: closing ``(a, ■)``
        edges move as cases grow, so they are poll-schedule noise;
        without them the fired set is exactly the non-sentinel edge
        set of the final graph, schedule-independent.
    absent_from_baseline:
        Only fire for edges the baseline run never produced — the
        ROADMAP's "new red-only edge": with the baseline as the green
        (known-good) half, these are the red-exclusive relations of
        the partition coloring. Requires a configured baseline.
    """

    kind = "new_edge"

    def __init__(self, name: str, *, pattern: str | None = None,
                 include_sentinels: bool = False,
                 absent_from_baseline: bool = False,
                 cooldown: float = 0.0) -> None:
        super().__init__(name, cooldown=cooldown)
        self.pattern = pattern
        self.include_sentinels = include_sentinels
        self.absent_from_baseline = absent_from_baseline

    @property
    def needs_baseline(self) -> bool:
        return self.absent_from_baseline

    def evaluate(self, ctx: RefreshContext) -> list[Alert]:
        if self.absent_from_baseline and ctx.baseline_dfg is None:
            raise AlertConfigError(
                f"rule {self.name!r}: absent_from_baseline requires a "
                f"baseline source (set baseline = \"...\" in the rules "
                f"file or AlertEngine(baseline=...))")
        baseline_edges = (set(ctx.baseline_dfg.edges())
                          if self.absent_from_baseline else None)
        fired: list[Alert] = []
        present: set[str] = set()
        for edge in sorted(ctx.current.edges()):
            if not self.include_sentinels \
                    and (edge[0] in SENTINELS or edge[1] in SENTINELS):
                continue
            label = edge_label(edge)
            if self.pattern is not None and self.pattern not in label:
                continue
            if baseline_edges is not None and edge in baseline_edges:
                continue
            present.add(label)
            if self._trip(label, True, ctx.now):
                suffix = (" (not in baseline)"
                          if self.absent_from_baseline else "")
                fired.append(Alert(
                    rule=self.name, kind=self.kind, subject=label,
                    message=f"new edge {label}{suffix}",
                    value=float(ctx.current.edge_count(*edge)),
                    n_poll=ctx.n_poll, total_events=ctx.total_events))
        # Edges gone from the graph re-arm (only ■-closing edges can
        # vanish; real edges stay tripped forever).
        self._tripped &= present
        return fired


class EdgeWeightRatioRule(Rule):
    """Fire when an edge's observation count reaches a multiple of its
    reference count.

    Options
    -------
    ratio:
        The multiple. ``ratio >= 1`` detects growth (``current >=
        ratio × reference``); ``ratio < 1`` detects collapse
        (``current <= ratio × reference``).
    against:
        ``"previous"`` (the snapshot of the previous refresh — a
        per-refresh spike detector) or ``"baseline"`` (a configured
        known-good run — monotone, fires at most once per edge).
    min_count:
        Reference counts below this are ignored (suppresses 0 → 1
        noise). Default 1.
    pattern, include_sentinels:
        As for :class:`NewEdgeRule`.
    """

    kind = "edge_weight_ratio"

    def __init__(self, name: str, *, ratio: float,
                 against: str = "previous", min_count: int = 1,
                 pattern: str | None = None,
                 include_sentinels: bool = False,
                 cooldown: float = 0.0) -> None:
        super().__init__(name, cooldown=cooldown)
        if ratio <= 0:
            raise AlertConfigError(
                f"rule {name!r}: ratio must be > 0 (got {ratio})")
        if against not in ("previous", "baseline"):
            raise AlertConfigError(
                f"rule {name!r}: against must be 'previous' or "
                f"'baseline' (got {against!r})")
        if min_count < 1:
            raise AlertConfigError(
                f"rule {name!r}: min_count must be >= 1 (got {min_count})")
        self.ratio = ratio
        self.against = against
        self.min_count = min_count
        self.pattern = pattern
        self.include_sentinels = include_sentinels

    @property
    def needs_baseline(self) -> bool:
        return self.against == "baseline"

    def _reference(self, ctx: RefreshContext) -> DFG | None:
        if self.against == "baseline":
            if ctx.baseline_dfg is None:
                raise AlertConfigError(
                    f"rule {self.name!r}: against = 'baseline' requires "
                    f"a baseline source (set baseline = \"...\" in the "
                    f"rules file or AlertEngine(baseline=...))")
            return ctx.baseline_dfg
        return ctx.previous

    def evaluate(self, ctx: RefreshContext) -> list[Alert]:
        reference = self._reference(ctx)
        if reference is None:  # first refresh, nothing to compare yet
            return []
        fired: list[Alert] = []
        for edge in sorted(ctx.current.edges()):
            if not self.include_sentinels \
                    and (edge[0] in SENTINELS or edge[1] in SENTINELS):
                continue
            label = edge_label(edge)
            if self.pattern is not None and self.pattern not in label:
                continue
            ref = reference.edge_count(*edge)
            if ref < self.min_count:
                self._tripped.discard(label)
                continue
            cur = ctx.current.edge_count(*edge)
            observed = cur / ref
            crossed = (observed >= self.ratio if self.ratio >= 1
                       else observed <= self.ratio)
            if self._trip(label, crossed, ctx.now):
                fired.append(Alert(
                    rule=self.name, kind=self.kind, subject=label,
                    message=(f"edge {label} weight x{observed:.2f} vs "
                             f"{self.against} ({cur} vs {ref})"),
                    value=observed, threshold=self.ratio,
                    n_poll=ctx.n_poll, total_events=ctx.total_events))
        return fired


class ActivityLoadRatioRule(Rule):
    """Fire when an activity's statistic reaches a multiple of its
    reference value — "activity load doubled", "data rate collapsed".

    Options
    -------
    ratio:
        ``>= 1`` detects growth, ``< 1`` detects collapse (e.g.
        ``ratio = 0.5`` on ``process_data_rate`` pages when a rate
        halves).
    against:
        ``"previous"`` refresh or configured ``"baseline"`` run.
    metric:
        Any of :data:`~repro.core.statistics.METRIC_NAMES`; default
        ``relative_duration`` (the paper's Load).
    min_value:
        Reference values at or below this are ignored (avoids
        divide-by-nothing noise for activities just appearing).
    pattern:
        Substring filter on the activity name.
    """

    kind = "activity_load_ratio"

    def __init__(self, name: str, *, ratio: float,
                 against: str = "previous",
                 metric: str = "relative_duration",
                 min_value: float = 0.0,
                 pattern: str | None = None,
                 cooldown: float = 0.0) -> None:
        super().__init__(name, cooldown=cooldown)
        if ratio <= 0:
            raise AlertConfigError(
                f"rule {name!r}: ratio must be > 0 (got {ratio})")
        if against not in ("previous", "baseline"):
            raise AlertConfigError(
                f"rule {name!r}: against must be 'previous' or "
                f"'baseline' (got {against!r})")
        if metric not in METRIC_NAMES:
            raise AlertConfigError(
                f"rule {name!r}: unknown metric {metric!r} "
                f"(known: {', '.join(METRIC_NAMES)})")
        self.ratio = ratio
        self.against = against
        self.metric = metric
        self.min_value = min_value
        self.pattern = pattern

    @property
    def needs_baseline(self) -> bool:
        return self.against == "baseline"

    def evaluate(self, ctx: RefreshContext) -> list[Alert]:
        if self.against == "baseline":
            reference = ctx.baseline_stats
            if reference is None:
                raise AlertConfigError(
                    f"rule {self.name!r}: against = 'baseline' requires "
                    f"a baseline source (set baseline = \"...\" in the "
                    f"rules file or AlertEngine(baseline=...))")
        else:
            reference = ctx.previous_stats
            if reference is None:
                return []
        fired: list[Alert] = []
        for activity in sorted(ctx.stats.activities()):
            label = activity_label(activity)
            if self.pattern is not None and self.pattern not in label:
                continue
            if activity not in reference:
                self._tripped.discard(label)
                continue
            ref = reference.metric(activity, self.metric)
            if ref <= self.min_value:
                self._tripped.discard(label)
                continue
            cur = ctx.stats.metric(activity, self.metric)
            observed = cur / ref
            crossed = (observed >= self.ratio if self.ratio >= 1
                       else observed <= self.ratio)
            if self._trip(label, crossed, ctx.now):
                fired.append(Alert(
                    rule=self.name, kind=self.kind, subject=label,
                    message=(f"activity {label}: {self.metric} "
                             f"x{observed:.2f} vs {self.against} "
                             f"({cur:.4g} vs {ref:.4g})"),
                    value=observed, threshold=self.ratio,
                    n_poll=ctx.n_poll, total_events=ctx.total_events))
        return fired


class StatThresholdRule(Rule):
    """Fire when a Sec. IV-B metric crosses an absolute bound —
    ``process_data_rate < 1e6``, ``event_count > 10000``.

    Options
    -------
    metric:
        Any of :data:`~repro.core.statistics.METRIC_NAMES`.
    op:
        One of ``<  <=  >  >=  ==  !=``.
    value:
        The bound.
    pattern:
        Substring filter on the activity name (default: every
        activity with statistics).
    """

    kind = "stat_threshold"

    def __init__(self, name: str, *, metric: str, op: str,
                 value: float, pattern: str | None = None,
                 cooldown: float = 0.0) -> None:
        super().__init__(name, cooldown=cooldown)
        if metric not in METRIC_NAMES:
            raise AlertConfigError(
                f"rule {name!r}: unknown metric {metric!r} "
                f"(known: {', '.join(METRIC_NAMES)})")
        if op not in OPS:
            raise AlertConfigError(
                f"rule {name!r}: unknown op {op!r} "
                f"(known: {' '.join(OPS)})")
        self.metric = metric
        self.op = op
        self.value = value
        self.pattern = pattern

    def evaluate(self, ctx: RefreshContext) -> list[Alert]:
        compare = OPS[self.op]
        fired: list[Alert] = []
        for activity in sorted(ctx.stats.activities()):
            label = activity_label(activity)
            if self.pattern is not None and self.pattern not in label:
                continue
            observed = ctx.stats.metric(activity, self.metric)
            if self._trip(label, compare(observed, self.value),
                          ctx.now):
                fired.append(Alert(
                    rule=self.name, kind=self.kind, subject=label,
                    message=(f"activity {label}: {self.metric} "
                             f"{observed:.4g} {self.op} {self.value:g}"),
                    value=observed, threshold=self.value,
                    n_poll=ctx.n_poll, total_events=ctx.total_events))
        return fired


class WatermarkAgeRule(Rule):
    """Fire when a file's sealing starves — an in-flight
    ``<unfinished ...>`` call is holding later records back for more
    than ``max_age`` seconds of *trace* time (the ROADMAP's sealing
    starvation diagnostic; the measurement is
    :meth:`~repro.live.engine.LiveIngest.watermark_ages`, the same
    accessor the watch status line renders).

    Options
    -------
    max_age:
        Starvation bound in seconds (trace time, not wall clock —
        the measurement is a function of the bytes consumed, not of
        the polling cadence of the watcher host).
    """

    kind = "watermark_age"

    def __init__(self, name: str, *, max_age: float,
                 cooldown: float = 0.0) -> None:
        super().__init__(name, cooldown=cooldown)
        if max_age < 0:
            raise AlertConfigError(
                f"rule {name!r}: max_age must be >= 0 (got {max_age})")
        self.max_age = max_age

    def evaluate(self, ctx: RefreshContext) -> list[Alert]:
        threshold_us = self.max_age * 1e6
        fired: list[Alert] = []
        over: set[str] = set()
        for case_id in sorted(ctx.watermark_ages):
            age = ctx.watermark_ages[case_id]
            if age <= threshold_us:
                continue
            over.add(case_id)
            if case_id not in self._tripped \
                    and self._fire_allowed(case_id, ctx.now):
                fired.append(Alert(
                    rule=self.name, kind=self.kind, subject=case_id,
                    message=(f"case {case_id}: sealing starved for "
                             f"{age / 1e6:.3f}s of trace time "
                             f"(> {self.max_age:g}s)"),
                    value=float(age), threshold=threshold_us,
                    n_poll=ctx.n_poll, total_events=ctx.total_events))
        self._tripped = over  # cases that recovered re-arm
        return fired


#: type tag → rule class, the registry the rules-file loader resolves
#: against (:mod:`repro.alerts.config`).
RULE_TYPES: dict[str, type[Rule]] = {
    cls.kind: cls
    for cls in (NewEdgeRule, EdgeWeightRatioRule, ActivityLoadRatioRule,
                StatThresholdRule, WatermarkAgeRule)
}
