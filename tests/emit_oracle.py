"""The live ≡ batch oracle: the packed ``--emit`` ``.elog``.

The live engine keeps no sealed record; the event log of a watched run
is what its ``--emit`` journal packs. These assertions hold a
:class:`~repro.live.engine.LiveIngest` built with ``emit=`` to batch
ingestion of its directory:

- :func:`assert_pack_is_batch` — once the directory is final and the
  engine finalized, the packed ``.elog`` equals ``convert_source`` of
  the directory byte for byte: case table, pools and every column;
- :func:`assert_pack_agrees` — after any poll, the packed ``.elog``
  read back under the engine's mapping gives the standing DFG and
  statistics (the pack is batch-identical in its current sealed
  state);
- :func:`assert_merge_stats_match_batch` — each followed file's merge
  diagnostics, as the checkpoint state records them, equal the
  per-case ``merge_stats`` of ``read_trace_dir``.
"""

from __future__ import annotations

import dataclasses

from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.statistics import IOStatistics
from repro.elstore.convert import convert_source
from repro.live.checkpoint import engine_state
from repro.live.engine import LiveIngest
from repro.strace.reader import read_trace_dir


def assert_stats_equal(live: IOStatistics, batch: IOStatistics) -> None:
    """Field-exact equality of two IOStatistics (floats included)."""
    assert set(live.activities()) == set(batch.activities())
    assert live.activities() == batch.activities()
    assert live.total_duration_us == batch.total_duration_us
    for activity in batch.activities():
        assert live[activity] == batch[activity], activity
        assert live.timeline(activity) == batch.timeline(activity), \
            activity


def assert_pack_is_batch(engine: LiveIngest) -> None:
    """The packed ``.elog`` is batch conversion of the directory."""
    packed = engine.pack_emit()
    batch = convert_source(
        engine.directory, packed.with_name(packed.name + ".batch"),
        cids=engine.cids, strict=engine.strict,
        recursive=engine.recursive, workers=1)
    assert packed.read_bytes() == batch.read_bytes()


def assert_pack_agrees(engine: LiveIngest) -> None:
    """The packed ``.elog`` gives the standing graph and statistics."""
    log = EventLog.from_source(f"elog:{engine.pack_emit()}") \
        .with_mapping(engine.mapping)
    assert engine.snapshot_dfg() == DFG(log)
    assert_stats_equal(engine.statistics(), IOStatistics(log))


def assert_merge_stats_match_batch(engine: LiveIngest) -> None:
    """Per-file merge diagnostics equal batch reading's, case by case
    (files with no sealed record included)."""
    live = {(state["cid"], state["host"], state["rid"]): state["stats"]
            for state in engine_state(engine)["files"]}
    batch = {(case.name.cid, case.name.host, case.name.rid):
             dataclasses.asdict(case.merge_stats)
             for case in read_trace_dir(
                 engine.directory, cids=engine.cids,
                 strict=engine.strict, recursive=engine.recursive)}
    assert live == batch
