"""The emit journal's column blocks, on the journal alone.

One poll's sealed rows are one CRC-checked block
(:mod:`repro.live.emit`). Packed, the blocks give the bytes
:meth:`~repro.elstore.writer.EventLogWriter.add_case_records` writes
for the same rows per case — compacted or not; a restore cuts only at
block boundaries; and a damaged durable prefix either packs the clean
bytes or is a located ``corrupt emit journal PATH: …`` error — never a
traceback, never a different ``.elog``.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util.errors import ReproError
from repro.elstore.writer import EventLogWriter
from repro.live.emit import EmitJournal, journal_path
from repro.strace.naming import TraceFileName
from repro.strace.parser import ParsedRecord

#: The followed files; the last one never seals anything in some runs
#: (packed empty, as batch packs an empty trace).
NAMES = (TraceFileName(cid="ior", host="n1", rid=0),
         TraceFileName(cid="ior", host="n1", rid=1),
         TraceFileName(cid="ls", host="hôte", rid=2),
         TraceFileName(cid="app", host="n2", rid=3))
#: Batch (sorted-path) case order.
ORDER = sorted(NAMES, key=lambda name: name.filename())
#: What :meth:`EmitJournal.pack` reads of an engine: the followed
#: files, for the case order.
ENGINE = SimpleNamespace(_tails={Path(name.filename()): SimpleNamespace(
    name=name) for name in NAMES})

PATHS = st.one_of(st.none(), st.sampled_from(("", "/a/b", "/dätä/ü",
                                              "/usr/lib/x")),
                  st.text(max_size=6))
RECORDS = st.lists(st.builds(
    ParsedRecord,
    pid=st.integers(0, 1 << 31),
    start_us=st.integers(0, 1 << 50),
    call=st.one_of(st.sampled_from(("read", "write", "openat")),
                   st.text(min_size=1, max_size=4)),
    fp=PATHS,
    size=st.one_of(st.none(), st.integers(0, 1 << 40)),
    dur_us=st.one_of(st.none(), st.integers(0, 1 << 30)),
    errno=st.one_of(st.none(), st.just("ENOENT"))),
    min_size=1, max_size=5)
#: Polls: the cases that sealed rows, each with its rows. A case may be
#: absent from any poll and present in many.
POLLS = st.lists(st.dictionaries(st.integers(0, len(NAMES) - 1), RECORDS,
                                 max_size=len(NAMES)),
                 min_size=1, max_size=10)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _batch(poll: dict) -> list:
    return [(NAMES[index], poll[index]) for index in sorted(poll)]


def _expected(directory: Path, polls: list[dict]) -> bytes:
    """``add_case_records`` over each case's rows, in batch order."""
    rows: dict[str, list] = {}
    for poll in polls:
        for name, records in _batch(poll):
            rows.setdefault(name.case_id, []).extend(records)
    dest = directory / "expected.elog"
    with EventLogWriter(dest) as writer:
        for name in ORDER:
            writer.add_case_records(name, rows.get(name.case_id, []))
    return dest.read_bytes()


def _journaled(directory: Path, polls: list[dict],
               compact_at: int | None = None) -> tuple[EmitJournal, list]:
    """A journal holding ``polls`` (compacted after poll ``compact_at``,
    if given), synced; returns it with the durable offset after each
    block, the empty journal's 0 first."""
    journal = EmitJournal(directory / "run.elog")
    journal.reset()
    boundaries = [journal.sync()]
    for index, poll in enumerate(polls):
        if poll:
            journal.append(_batch(poll))
            boundaries.append(journal.sync())
        if index == compact_at:
            journal.compact(ENGINE, up_to=boundaries[-1])
    journal.close()
    return journal, boundaries


@SETTINGS
@given(polls=POLLS, compact_at=st.one_of(st.none(), st.integers(0, 9)))
def test_pack_equals_add_case_records(polls, compact_at,
                                      tmp_path_factory):
    directory = tmp_path_factory.mktemp("journal")
    journal, _ = _journaled(directory, polls, compact_at)
    packed = journal.pack(ENGINE)
    assert packed.read_bytes() == _expected(directory, polls)


@SETTINGS
@given(polls=POLLS, data=st.data())
def test_truncate_cuts_only_at_block_boundaries(polls, data,
                                                tmp_path_factory):
    directory = tmp_path_factory.mktemp("journal")
    _, boundaries = _journaled(directory, polls)
    offset = data.draw(st.one_of(st.sampled_from(boundaries),
                                 st.integers(0, boundaries[-1])))
    restored = EmitJournal(directory / "run.elog")
    if offset not in boundaries:
        with pytest.raises(ReproError, match="is cut short"):
            restored.truncate_to(offset)
        return
    restored.truncate_to(offset)
    kept = [poll for poll in polls if poll][:boundaries.index(offset)]
    assert restored.pack(ENGINE).read_bytes() \
        == _expected(directory, kept)


def _flip(data: bytearray, at: int, end: int, mask: int) -> None:
    data[at] ^= mask


def _cut(data: bytearray, at: int, end: int, mask: int) -> None:
    del data[at:]


def _duplicate(data: bytearray, at: int, end: int, mask: int) -> None:
    data[end:end] = data[at:end]


@SETTINGS
@given(polls=POLLS.filter(any),
       compact_at=st.one_of(st.none(), st.integers(0, 9)),
       mutate=st.sampled_from((_flip, _cut, _duplicate)),
       data=st.data())
def test_damaged_prefix_packs_clean_or_fails_located(
        polls, compact_at, mutate, data, tmp_path_factory):
    """A flipped byte, a cut, or a span copied in anywhere in the
    durable prefix — the header included."""
    directory = tmp_path_factory.mktemp("journal")
    journal, boundaries = _journaled(directory, polls, compact_at)
    clean = journal.pack(ENGINE).read_bytes()
    path = journal_path(directory / "run.elog")
    damaged = bytearray(path.read_bytes())
    at = data.draw(st.integers(0, len(damaged) - 1))
    end = data.draw(st.integers(at, len(damaged)))
    mutate(damaged, at, end, data.draw(st.integers(1, 255)))
    path.write_bytes(damaged)
    restored = EmitJournal(directory / "run.elog")
    try:
        restored.truncate_to(boundaries[-1])
        packed = restored.pack(ENGINE).read_bytes()
    except ReproError as exc:
        assert str(exc).startswith(f"corrupt emit journal {path}: ")
    else:
        assert packed == clean


def test_block_copied_out_of_place_is_refused(tmp_path):
    """Two equal blocks, the first copied over the second: every CRC
    and length still checks out, so only the offset each block records
    tells the copy from the original."""
    poll = {0: [ParsedRecord(100, 5, "read", "/a", 3, 1, None)]}
    journal, boundaries = _journaled(tmp_path, [poll, poll])
    path = journal_path(tmp_path / "run.elog")
    data = bytearray(path.read_bytes())
    header = len(data) - boundaries[-1]
    size = boundaries[1]
    assert boundaries == [0, size, 2 * size]
    data[header + size:] = data[header:header + size]
    path.write_bytes(data)
    with pytest.raises(ReproError, match=f"block at offset {size} "
                                         f"records offset 0"):
        EmitJournal(tmp_path / "run.elog").truncate_to(2 * size)
