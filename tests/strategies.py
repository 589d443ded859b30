"""Shared hypothesis strategies + replay machinery for live suites.

The live, alerting and compaction property suites all drive the same
adversary: a finished trace directory revealed to a watcher in
randomized increments — which file grows when, how many bytes land per
step (cut at *arbitrary* positions, so lines and unfinished/resumed
pairs split across polls), where polls and kill/restart cycles happen.
This module holds the one schedule strategy and the byte-cutting
replay helper those suites used to copy, plus the small random event
rows (:data:`EVENT_ROWS`, :func:`mapped_log`) that the batch-side
properties build logs from without any trace text.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

#: One event row: case index, call, path (None → unmapped under
#: ``CallPath``), start, dur and size (None → missing, 0 allowed), rid.
EVENT_ROWS = st.lists(st.tuples(
    st.integers(0, 5),
    st.sampled_from(("read", "write", "openat")),
    st.one_of(st.none(), st.sampled_from(("/p/a", "/p/b", "/etc/c"))),
    st.integers(0, 10_000),
    st.one_of(st.none(), st.integers(0, 300)),
    st.one_of(st.none(), st.just(0), st.integers(0, 1 << 20)),
    st.integers(0, 3),
), max_size=40)


def mapped_log(rows):
    """A ``CallPath``-mapped event-log of :data:`EVENT_ROWS` rows.

    Even case indices run cid ``g``, odd ones ``r``. Cases are interned
    in row order, so their codes do not follow their names.
    """
    from repro.core.eventlog import EventLog
    from repro.core.frame import MISSING, EventFrame, FramePools
    from repro.core.mapping import CallPath

    pools = FramePools()

    def codes(pool, values):
        return np.array([MISSING if v is None else pool.intern(v)
                         for v in values], dtype=np.int32)

    def ints(values):
        return np.array([MISSING if v is None else v for v in values],
                        dtype=np.int64)

    cases, calls, paths, starts, durs, sizes, rids = \
        zip(*rows) if rows else ((),) * 7
    columns = {
        "case": codes(pools.cases, [f"c{c}" for c in cases]),
        "cid": codes(pools.cids, ["r" if c % 2 else "g" for c in cases]),
        "host": codes(pools.hosts, ["h"] * len(rows)),
        "rid": ints(rids),
        "pid": ints(rids),
        "call": codes(pools.calls, calls),
        "start": ints(starts),
        "dur": ints(durs),
        "fp": codes(pools.paths, paths),
        "size": ints(sizes),
        "activity": np.full(len(rows), MISSING, dtype=np.int32),
    }
    log = EventLog(EventFrame(pools, columns))
    log.apply_mapping_fn(CallPath())
    return log


def growth_steps(n_files: int = 4, max_steps: int = 30):
    """A growth schedule: per step ``(file index, percent of the
    file's remaining bytes to append, poll-after-this-step?)``.
    Percentages are drawn as integers to keep shrinking effective."""
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=n_files - 1),
                  st.integers(min_value=1, max_value=100),
                  st.booleans()),
        min_size=1, max_size=max_steps)


def write_all(directory: Path | str,
              file_bytes: dict[str, bytes]) -> None:
    """Write a rendered workload's files into a directory at once."""
    directory = Path(directory)
    for filename, content in file_bytes.items():
        (directory / filename).write_bytes(content)


class DirectoryGrower:
    """Reveals ``file_bytes`` into ``live_dir`` incrementally.

    Owns the offset arithmetic every replay loop used to duplicate:
    :meth:`apply` appends one schedule step's chunk (at least one byte
    while any remain, so schedules always make progress);
    :meth:`finish` appends every file's unrevealed tail. File names
    are addressed by index modulo the file count, matching the
    ``growth_steps`` strategy.
    """

    def __init__(self, live_dir: Path | str,
                 file_bytes: dict[str, bytes]) -> None:
        self.live_dir = Path(live_dir)
        self.file_bytes = dict(file_bytes)
        self.names = sorted(file_bytes)
        self.offsets = {name: 0 for name in self.names}

    def _append(self, name: str, chunk: int) -> int:
        if chunk <= 0:
            return 0
        offset = self.offsets[name]
        with open(self.live_dir / name, "ab") as handle:
            handle.write(self.file_bytes[name][offset:offset + chunk])
        self.offsets[name] = offset + chunk
        return chunk

    def apply(self, file_index: int, percent: int) -> int:
        """One schedule step: append ``percent`` of the file's
        remaining bytes (>= 1 while any remain); returns bytes
        appended."""
        name = self.names[file_index % len(self.names)]
        remaining = len(self.file_bytes[name]) - self.offsets[name]
        chunk = max(1, remaining * percent // 100) if remaining else 0
        return self._append(name, chunk)

    def finish_file(self, name: str) -> int:
        """Append everything still unrevealed of one file."""
        return self._append(
            name, len(self.file_bytes[name]) - self.offsets[name])

    def finish(self) -> int:
        """Append every file's unrevealed tail; returns total bytes."""
        return sum(self.finish_file(name) for name in self.names)

    def each_finished(self):
        """Yield every file name after appending its tail (for suites
        that poll between per-file reveals)."""
        for name in self.names:
            self.finish_file(name)
            yield name

    @property
    def done(self) -> bool:
        return all(self.offsets[name] == len(self.file_bytes[name])
                   for name in self.names)


def replay_schedule(file_bytes: dict[str, bytes], schedule, *,
                    live_dir: Path | str, poll, on_step=None) -> None:
    """Run one growth schedule to completion.

    ``poll()`` is called after every step whose flag is set and once
    at the end (with everything revealed). ``on_step(step_index)``,
    when given, runs after each schedule step — the hook where suites
    place kill/restart cycles.
    """
    grower = DirectoryGrower(live_dir, file_bytes)
    for step_index, (file_index, percent, do_poll) in \
            enumerate(schedule):
        grower.apply(file_index, percent)
        if do_poll:
            poll()
        if on_step is not None:
            on_step(step_index)
    grower.finish()
    poll()
