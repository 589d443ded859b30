"""Reusable fault-injection harness for the durability suites.

Every crash-consistency suite in this repo plays the same adversary:
*kill the process at a specific durability step* (by making that step
raise, which aborts the operation exactly where a SIGKILL would),
restart, and assert the on-disk state is one of the complete states —
never torn. This module is that adversary, extracted from the ad-hoc
copies that grew in ``test_live``/``test_alerts``/``test_catalog``:

- :func:`kill_call` — generic nth-call kill switch for a module-level
  seam (``os.fsync``, ``os.replace``, a ``_fsync_directory`` helper).
- :func:`kill_checkpoint_at` / :data:`CHECKPOINT_KILL_POINTS` — the
  checkpoint save steps (segment write → segment fsync → temp fsync →
  replace → dir fsync).
- :func:`kill_compaction_at` / :data:`COMPACTION_KILL_POINTS` — the
  six durability steps of one emit-journal compaction (three for the
  ``.elog`` rewrite, three for the journal rewrite).
- :func:`kill_method` — object-level kill (the catalog suite's
  pattern: die inside a named method).
- Sink fakes for the alert-delivery suites: :class:`RecordingSink`,
  :class:`FailingSink`, :class:`FlakySink`, :class:`SlowSink`,
  :class:`BlockingSink`.
- :func:`tear_tail` — torn-write simulation (drop the last N bytes of
  a file, as a crash mid-write would).

The kill is an ``OSError`` so production code cannot accidentally
catch it as a domain error; tests assert ``pytest.raises(OSError)``
around the killed operation.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from repro.live import checkpoint as checkpoint_module
from repro.live import emit as emit_module


class SimulatedKill(OSError):
    """The injected failure: the process 'died' at this step."""


def kill_call(monkeypatch, module, attr: str, *, nth: int = 1,
              message: str | None = None):
    """Make the ``nth`` call of ``module.attr`` raise, earlier calls
    passing through to the real implementation.

    Returns the counting wrapper; its ``.calls`` attribute holds the
    number of invocations seen (including the killed one), so tests
    can assert the seam was actually reached.
    """
    real = getattr(module, attr)
    text = message or f"killed at {attr} call #{nth}"

    def dying(*args, **kwargs):
        dying.calls += 1
        if dying.calls == nth:
            raise SimulatedKill(text)
        return real(*args, **kwargs)

    dying.calls = 0
    monkeypatch.setattr(module, attr, dying)
    return dying


def kill_method(monkeypatch, owner, method: str, *,
                message: str | None = None):
    """Kill inside a named method of a class (before it runs) — the
    catalog suite's object-level pattern."""
    text = message or f"killed in {owner.__name__}.{method}"

    def dying(self, *args, **kwargs):
        raise SimulatedKill(text)

    monkeypatch.setattr(owner, method, dying)


# -- checkpoint save kill points -------------------------------------------

#: The durability steps of one checkpoint save, in order: the interval
#: segment's append and its fsync, then the sidecar's temp fsync,
#: replace and directory fsync.
CHECKPOINT_KILL_POINTS = ("segment_write", "segment_fsync", "temp_fsync",
                          "replace", "dir_fsync")


def kill_checkpoint_at(monkeypatch, point: str) -> None:
    """Abort the next checkpoint save at one of its durability steps
    (see :data:`CHECKPOINT_KILL_POINTS`). The segment steps are reached
    only by a save that grew an interval buffer."""
    if point == "segment_write":
        kill_call(monkeypatch, checkpoint_module, "_write_segment",
                  message="killed during segment write")
    elif point == "segment_fsync":
        kill_call(monkeypatch, checkpoint_module, "_fsync_segment",
                  message="killed during segment fsync")
    elif point == "temp_fsync":
        # The segment's fsync seam calls os.fsync too, earlier in the
        # save: keep it on the real call so the kill lands on the
        # temp file's.
        real_fsync = os.fsync
        monkeypatch.setattr(checkpoint_module, "_fsync_segment",
                            lambda handle: real_fsync(handle.fileno()))
        kill_call(monkeypatch, checkpoint_module.os, "fsync",
                  message="killed during temp fsync")
    elif point == "replace":
        kill_call(monkeypatch, checkpoint_module.os, "replace",
                  message="killed before replace")
    elif point == "dir_fsync":
        kill_call(monkeypatch, checkpoint_module, "_fsync_directory",
                  message="killed before directory fsync")
    else:  # pragma: no cover - harness misuse
        raise ValueError(f"unknown checkpoint kill point {point!r}")


# -- emit-journal compaction kill points -----------------------------------

#: The durability steps of one journal compaction, in order: the
#: ``.elog`` rewrite (tmp fsync → replace → dir fsync), then the
#: journal rewrite (same three). A kill at any of them must leave the
#: journal+elog pair replayable to the exact same record multiset.
COMPACTION_KILL_POINTS = (
    "elog_fsync", "elog_replace", "elog_dir_fsync",
    "journal_fsync", "journal_replace", "journal_dir_fsync")

_COMPACTION_SEAMS = {"fsync": "_fsync_handle", "replace": "_replace",
                     "dir_fsync": "_fsync_directory"}


def kill_compaction_at(monkeypatch, point: str) -> None:
    """Abort the next :meth:`EmitJournal.compact` at one durability
    step (see :data:`COMPACTION_KILL_POINTS`).

    Each seam fires once for the ``.elog`` and once for the journal,
    so the ``journal_*`` points kill the *second* call of their seam.
    Activate immediately before the operation under test — a
    ``sync()`` on the way in would consume fsync counts of its own
    (it uses ``os.fsync`` directly, not the seam, so it does not).
    """
    kind = point.removeprefix("elog_").removeprefix("journal_")
    seam = _COMPACTION_SEAMS.get(kind)
    if seam is None or point not in COMPACTION_KILL_POINTS:
        raise ValueError(f"unknown compaction kill point {point!r}")
    nth = 1 if point.startswith("elog_") else 2
    kill_call(monkeypatch, emit_module, seam, nth=nth,
              message=f"killed at compaction step {point}")


# -- torn writes -----------------------------------------------------------

def tear_tail(path: str | Path, n_bytes: int) -> int:
    """Drop the last ``n_bytes`` of a file (a crash mid-append); the
    file must stay non-negative in size. Returns the new size."""
    target = Path(path)
    size = target.stat().st_size
    keep = max(size - n_bytes, 0)
    with open(target, "r+b") as handle:
        handle.truncate(keep)
    return keep


# -- sink fakes ------------------------------------------------------------

class RecordingSink:
    """Collects delivered alerts (thread-safe: queue workers emit from
    a background thread)."""

    def __init__(self) -> None:
        self.alerts = []
        self._lock = threading.Lock()

    def emit(self, alert) -> None:
        with self._lock:
            self.alerts.append(alert)

    @property
    def n_emitted(self) -> int:
        with self._lock:
            return len(self.alerts)


class FailingSink:
    """Raises on every delivery — the dead-pager adversary."""

    def __init__(self, message: str = "sink is down") -> None:
        self.message = message
        self.attempts = 0

    def emit(self, alert) -> None:
        self.attempts += 1
        raise RuntimeError(self.message)


class FlakySink(RecordingSink):
    """Fails the first ``fail_first`` deliveries, then recovers."""

    def __init__(self, fail_first: int) -> None:
        super().__init__()
        self.fail_first = fail_first
        self.attempts = 0

    def emit(self, alert) -> None:
        self.attempts += 1
        if self.attempts <= self.fail_first:
            raise RuntimeError(
                f"flaky failure {self.attempts}/{self.fail_first}")
        super().emit(alert)


class SlowSink(RecordingSink):
    """Sleeps ``delay`` seconds per delivery — the latency adversary
    behind the poll-time-independence property."""

    def __init__(self, delay: float) -> None:
        super().__init__()
        self.delay = delay

    def emit(self, alert) -> None:
        time.sleep(self.delay)
        super().emit(alert)


class BlockingSink(RecordingSink):
    """Blocks every delivery until :attr:`release` is set — for
    asserting that submission does not wait on delivery. Always set
    ``release`` before draining/closing the engine, or the drain will
    block with the sink."""

    def __init__(self) -> None:
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()

    def emit(self, alert) -> None:
        self.entered.set()
        if not self.release.wait(timeout=30.0):  # pragma: no cover
            raise RuntimeError("BlockingSink was never released")
        super().emit(alert)
