"""Live ingestion: tail growing trace directories into a standing DFG.

The batch pipeline is post-mortem — it parses a finished trace
directory in one shot. This subsystem makes the same directory a
*live* input: ``strace -f -tt -T -y -o traces/<cid>_<host>_<rid>.st``
on a running job produces files that grow and multiply, and
:class:`~repro.live.engine.LiveIngest` keeps an always-current
event-log and DFG over them with bounded per-poll cost. The invariant
everything here is built around: after any sequence of polls over a
directory that grew to final state D, the live log and graph equal
one-shot batch ingestion of D (pinned by randomized-schedule property
tests in ``tests/test_live/``).

Layering (bottom → top):

- :mod:`repro.live.tail` — :class:`~repro.live.tail.FileTail` follows
  one file from a byte offset, carrying the partial-last-line remainder
  and the unfinished/resumed merge state
  (:class:`~repro.strace.resume.IncrementalMerger`) between polls, so
  a syscall split across two polls merges exactly as in batch.
- :mod:`repro.live.engine` — :class:`~repro.live.engine.LiveIngest`
  polls the directory for new files and appended bytes, maps sealed
  records, and folds them into a
  :class:`~repro.core.incremental.IncrementalDFG` via the union
  algebra *and* into per-activity statistics accumulators
  (:class:`~repro.core.statistics.StatsAccumulator`), so
  :meth:`~repro.live.engine.LiveIngest.statistics` serves full-history
  Sec. IV-B node annotations at O(delta); snapshot/diff views reuse
  :mod:`repro.core.diff` and :mod:`repro.core.coloring`.
- :mod:`repro.live.checkpoint` — JSON sidecar serialization of the
  full follower + graph + statistics state, so a killed watcher
  restarts from the recorded byte offsets instead of re-parsing
  gigabytes, with statistics still covering the full run. The
  per-event interval buffers go to an append-only segment beside the
  sidecar, so a save writes only what grew since the last one.
- :mod:`repro.live.watch` — the ``st-inspector watch`` refresh view:
  ASCII summary with change highlighting, an alert pane, and a
  sealing-starvation note in the status line. The loop driving it is
  a one-job :class:`~repro.fleet.scheduler.FleetScheduler`.
- :mod:`repro.live.options` — the engine's option rules, which a watch
  job's validation checks without loading the engine.

Sitting on top (separate packages, wired in by the watch job):
:mod:`repro.alerts` turns refresh deltas into *pages* — declarative
threshold rules (``watch --rules rules.toml``) whose latches and fired
history persist in the same checkpoint sidecar — and
:mod:`repro.telemetry` makes the watcher itself observable: per-phase
poll spans, a Prometheus-scrapeable metrics registry whose monotonic
counters also persist in the sidecar, and a ``/healthz`` verdict
(``watch --metrics-port``).
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "FileTail",
    "LiveIngest",
    "PollResult",
    "CHECKPOINT_VERSION",
    "load_checkpoint",
    "save_checkpoint",
    "WatchView",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.live.tail": ("FileTail",),
    "repro.live.engine": ("LiveIngest", "PollResult"),
    "repro.live.checkpoint": ("CHECKPOINT_VERSION", "load_checkpoint",
                              "save_checkpoint"),
    "repro.live.watch": ("WatchView",),
})
