"""The catalog's SQLite schema: versioned, WAL, multi-writer safe.

One ``.db`` file holds every recorded run. The layout is deliberately
relational rather than blob-shaped so ``runs list/trend`` stay one
``SELECT`` each:

- ``runs`` — one row of metadata per recorded run (source URI, mapping,
  window, wall-clock span, tool version, the deterministic content
  fingerprint, counts);
- ``edges`` / ``nodes`` — the DFG edge list with observation counts and
  the node frequencies (together they rebuild the exact
  :class:`~repro.core.dfg.DFG` via :meth:`DFG.from_counts`);
- ``stats`` — the full Sec. IV-B per-activity vector (every
  :data:`~repro.core.statistics.METRIC_NAMES` metric plus the
  ranks/cases/approximate fields of
  :class:`~repro.core.statistics.ActivityStats`). SQLite ``REAL`` is an
  IEEE-754 double, so floats round-trip bit-identically;
- ``alerts`` — the fired-alert history, full detail (what
  ``history_limit`` compaction would otherwise degrade to counts).

Versioning follows the checkpoint-sidecar discipline
(:mod:`repro.live.checkpoint`): ``PRAGMA user_version`` stamps every
catalog at creation, loadable versions are an explicit set, and an
unknown *newer* version is rejected with a :class:`CatalogError` — the
CLI maps it to exit 2, same as an unsupported sidecar.

Concurrency: the catalog is opened in WAL mode with a busy timeout, and
every write runs inside one ``BEGIN IMMEDIATE`` transaction retried on
``database is locked`` — several fleet jobs appending runs to one
shared catalog serialize cleanly, and a reader never observes a
half-written run.
"""

from __future__ import annotations

import os
import sqlite3
import time
from pathlib import Path

from repro._util.errors import ReproError

#: Schema version stamped into ``PRAGMA user_version`` at creation.
CATALOG_VERSION = 1

#: Versions this build can read. An unknown (newer) stamp is rejected
#: rather than guessed at.
LOADABLE_VERSIONS = frozenset({CATALOG_VERSION})

#: Seconds SQLite itself waits on a locked database before raising.
_BUSY_TIMEOUT_S = 5.0

#: Extra retry loop on top of the busy timeout (fleet jobs committing
#: their runs at the same finalize instant).
_BUSY_RETRIES = 6
_BUSY_BACKOFF_S = 0.05

_SCHEMA_DDL = """
CREATE TABLE IF NOT EXISTS runs (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    name          TEXT NOT NULL,
    source        TEXT NOT NULL,
    mapping       TEXT NOT NULL,
    levels        INTEGER NOT NULL,
    window        INTEGER,
    recorded_at   REAL NOT NULL,
    wall_span_s   REAL,
    tool_version  TEXT NOT NULL,
    fingerprint   TEXT NOT NULL,
    n_events      INTEGER NOT NULL,
    n_cases       INTEGER NOT NULL,
    n_polls       INTEGER,
    total_dur_us  INTEGER NOT NULL,
    n_nodes       INTEGER NOT NULL,
    n_edges       INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS edges (
    run_id  INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    src     TEXT NOT NULL,
    dst     TEXT NOT NULL,
    count   INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS nodes (
    run_id     INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    activity   TEXT NOT NULL,
    frequency  INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS stats (
    run_id             INTEGER NOT NULL
                       REFERENCES runs(id) ON DELETE CASCADE,
    activity           TEXT NOT NULL,
    event_count        INTEGER NOT NULL,
    total_dur_us       INTEGER NOT NULL,
    relative_duration  REAL NOT NULL,
    total_bytes        INTEGER NOT NULL,
    has_transfers      INTEGER NOT NULL,
    process_data_rate  REAL,
    max_concurrency    INTEGER NOT NULL,
    ranks              INTEGER NOT NULL,
    cases              INTEGER NOT NULL,
    approximate        INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS alerts (
    run_id        INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    seq           INTEGER NOT NULL,
    rule          TEXT NOT NULL,
    kind          TEXT NOT NULL,
    subject       TEXT NOT NULL,
    message       TEXT NOT NULL,
    value         REAL,
    threshold     REAL,
    n_poll        INTEGER NOT NULL,
    total_events  INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_name ON runs(name, id);
CREATE INDEX IF NOT EXISTS idx_edges_run ON edges(run_id);
CREATE INDEX IF NOT EXISTS idx_nodes_run ON nodes(run_id);
CREATE INDEX IF NOT EXISTS idx_stats_run ON stats(run_id);
CREATE INDEX IF NOT EXISTS idx_alerts_run ON alerts(run_id);
"""


class CatalogError(ReproError):
    """A run-catalog problem: missing file, foreign format, version
    mismatch, or an unresolvable run reference. The CLI maps it to
    exit 2 (a configuration error, like a malformed rules file)."""


def connect(path: str | os.PathLike[str], *,
            create: bool = False) -> sqlite3.Connection:
    """Open (and on ``create=True`` initialize) a catalog connection.

    Every open checks ``PRAGMA user_version``: a fresh file is stamped
    with :data:`CATALOG_VERSION`, a known version passes, an unknown —
    necessarily newer — version raises :class:`CatalogError` with the
    same shape of message the checkpoint loader uses. A SQLite file
    that carries tables but no version stamp is some *other* database,
    not a catalog, and is rejected too.
    """
    db = Path(path)
    if not create and not db.exists():
        raise CatalogError(
            f"no such run catalog: {db} (record a run first: "
            f"--catalog {db} on convert/report/watch, or a fleet "
            f"job's catalog key)")
    try:
        conn = sqlite3.connect(db, timeout=_BUSY_TIMEOUT_S)
    except sqlite3.Error as exc:  # pragma: no cover - unopenable path
        raise CatalogError(f"cannot open run catalog {db}: {exc}") from exc
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA foreign_keys=ON")
        conn.execute("PRAGMA synchronous=NORMAL")
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            populated = conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type='table' "
                "LIMIT 1").fetchone()
            if populated is not None:
                raise CatalogError(
                    f"{db} is a SQLite database but not a run catalog "
                    f"(it has tables yet no catalog version stamp)")
            if not create:
                raise CatalogError(
                    f"{db} is empty — not a run catalog (record a run "
                    f"first)")
            # IF NOT EXISTS keeps a two-writer initialization race
            # benign: both arrive at the same schema and stamp.
            conn.executescript(_SCHEMA_DDL)
            conn.execute(f"PRAGMA user_version = {CATALOG_VERSION}")
            conn.commit()
        elif version not in LOADABLE_VERSIONS:
            raise CatalogError(
                f"unsupported catalog version {version!r} in {db} "
                f"(this build writes {CATALOG_VERSION}) — the catalog "
                f"was written by a newer st-inspector; upgrade, or "
                f"point at a compatible catalog")
    except sqlite3.DatabaseError as exc:
        conn.close()
        raise CatalogError(
            f"{db} is not a run catalog: {exc}") from exc
    except BaseException:
        conn.close()
        raise
    return conn


def write_transaction(path: str | os.PathLike[str], work, *,
                      sleep=time.sleep):
    """Run ``work(conn)`` inside one immediate transaction, retrying on
    lock contention.

    ``BEGIN IMMEDIATE`` takes the write lock up front so the whole run
    insert is a single atomic unit: a crash (or a monkeypatched kill —
    the crash-consistency tests) anywhere between the first and the
    last ``INSERT`` rolls back to "run never happened"; readers under
    WAL keep seeing the previous committed state throughout. Retries
    cover sibling fleet jobs committing concurrently; anything other
    than lock contention propagates after a rollback.
    """
    last: sqlite3.OperationalError | None = None
    for attempt in range(_BUSY_RETRIES):
        conn = connect(path, create=True)
        try:
            conn.execute("BEGIN IMMEDIATE")
            result = work(conn)
            conn.commit()
            return result
        except sqlite3.OperationalError as exc:
            conn.rollback()
            message = str(exc).lower()
            if "locked" not in message and "busy" not in message:
                raise CatalogError(
                    f"catalog write to {path} failed: {exc}") from exc
            last = exc
        finally:
            conn.close()
        sleep(_BUSY_BACKOFF_S * (attempt + 1))
    raise CatalogError(
        f"catalog {path} stayed locked after {_BUSY_RETRIES} "
        f"attempts: {last}") from last
