"""``fleet.toml`` — the declarative fleet definition.

One file describes N watch jobs: top-level keys are *defaults* that
fan out to every job (the shared rules file of the CI e2e, a common
interval), ``[jobs.NAME]`` tables declare the jobs, and any key
repeated inside a job table overrides the default for that job only.
JSON is accepted for ``*.json`` paths (same shape), mirroring the
rules loader.

::

    interval = 1.0
    rules = "rules.toml"          # fans out to every job

    [jobs.app1]
    source = "traces/app1"
    checkpoint = "app1.ckpt.json"

    [jobs.app2]
    source = "strace:traces/app2"
    interval = 5.0                # override wins
    emit = "app2.elog"

Relative paths — ``source``, ``checkpoint``, ``emit``, ``alert_log``,
``rules``, and path-shaped ``baseline`` specs — resolve against the
directory of the config file, not the CWD, so a fleet file can live
next to its trace tree and be launched from anywhere.

Every validation error is a :class:`FleetConfigError` (a
:class:`~repro._util.errors.ReproError`, so the CLI maps it to exit
2) naming the offending job and key. The rules of one job — each
key's type and bound, the keys another key needs, one file per write
path — are :meth:`~repro.fleet.job.JobSpec.validate`'s, the same
``st-inspector watch`` applies; this module adds the rules across
jobs. Jobs writing to the same ``checkpoint``/``emit``/journal/
``alert_log`` path are rejected up front — two engines appending to
one journal corrupt it quietly. A shared ``catalog`` is the exception
(the run catalog is multi-writer by design), but a catalog path
doubling as an exclusive write path, or two jobs recording under one
run name into one catalog, is rejected.
"""

from __future__ import annotations

import json
import os
import re
import tomllib
from pathlib import Path

from repro._util.errors import ReproError
from repro.fleet.job import JobSpec

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")

#: Keys allowed at the top level (defaults fanning out to every job).
#: ``catalog`` fans out deliberately: the run catalog is multi-writer,
#: so one shared ``catalog = "runs.db"`` is the normal fleet setup.
DEFAULT_KEYS = ("interval", "rules", "baseline", "window", "mapping",
                "levels", "recursive", "lenient", "dfg", "top",
                "catalog", "memory_budget")

#: Keys allowed inside a ``[jobs.NAME]`` table. ``run_name`` is
#: job-level only — a default run name shared by every job would make
#: their cataloged histories indistinguishable; ``compact_emit`` is
#: job-level only because it is meaningless without that job's own
#: ``emit``/``checkpoint`` pair.
JOB_KEYS = DEFAULT_KEYS + ("source", "checkpoint", "emit", "alert_log",
                           "run_name", "compact_emit")

#: Fleet keys spelled differently from the :class:`JobSpec` field
#: they set.
_FIELDS = {"dfg": "show_dfg"}


class FleetConfigError(ReproError):
    """A malformed fleet config — message names the job and key."""


def _resolve_path(base: Path, value):
    """Join a relative path onto the config directory; anything not a
    string passes through for :meth:`JobSpec.validate` to reject."""
    if not isinstance(value, str) or os.path.isabs(value):
        return value
    return str(base / value)


def _resolve_source(base: Path, value):
    """Join a path-shaped source spec onto the config directory,
    preserving the scheme spelling (``strace:traces/a`` stays a
    ``strace:`` URI; ``sim:`` and friends pass through untouched)."""
    from repro.sources import parse_source_spec

    if not isinstance(value, str):
        return value
    spec = parse_source_spec(value)
    if spec.scheme is None:
        return _resolve_path(base, spec.target)
    if spec.scheme in ("strace", "elog", "csv") \
            and not os.path.isabs(spec.target):
        options = "&".join(f"{k}={v}" for k, v in spec.options.items())
        joined = f"{spec.scheme}:{base / spec.target}"
        return f"{joined}?{options}" if options else joined
    return value


def parse_fleet_data(data: dict, *, where: str,
                     base_dir: str | os.PathLike[str] = ".",
                     ) -> list[JobSpec]:
    """Validate an already-parsed config mapping into job specs.

    Split from :func:`load_fleet_config` so the docs example in
    ``docs/fleet.md`` can be parsed by the test suite without a file
    on disk (the ``rules.md`` pattern).
    """
    base = Path(base_dir)
    if not isinstance(data, dict):
        raise FleetConfigError(
            f"{where}: top level must be a table/object, "
            f"got {type(data).__name__}")
    unknown = sorted(set(data) - set(DEFAULT_KEYS) - {"jobs"})
    if unknown:
        raise FleetConfigError(
            f"{where}: unknown top-level key(s) {unknown} — defaults "
            f"are {sorted(DEFAULT_KEYS)}, jobs live under [jobs.NAME]")
    defaults = {key: data[key] for key in DEFAULT_KEYS if key in data}
    jobs_table = data.get("jobs")
    if not isinstance(jobs_table, dict) or not jobs_table:
        raise FleetConfigError(
            f"{where}: no jobs — declare at least one [jobs.NAME] "
            f"table with a source")
    specs: list[JobSpec] = []
    writers: dict[str, tuple[str, str]] = {}
    catalogs: dict[str, str] = {}
    run_names: dict[tuple[str, str], str] = {}
    for name, entry in jobs_table.items():
        if not _NAME_RE.match(name):
            raise FleetConfigError(
                f"{where}: invalid job name {name!r} — use letters, "
                f"digits, '.', '_' or '-'")
        if not isinstance(entry, dict):
            raise FleetConfigError(
                f"{where}: job {name!r} must be a table/object, "
                f"got {type(entry).__name__}")
        unknown = sorted(set(entry) - set(JOB_KEYS))
        if unknown:
            raise FleetConfigError(
                f"{where}: job {name!r}: unknown key(s) {unknown} — "
                f"job keys are {sorted(JOB_KEYS)}")
        merged = {_FIELDS.get(key, key): value
                  for key, value in {**defaults, **entry}.items()}
        if "source" not in merged:
            raise FleetConfigError(
                f"{where}: job {name!r} has no source (the trace "
                f"directory to watch)")
        for key in ("checkpoint", "rules", "alert_log", "emit",
                    "catalog"):
            if key in merged:
                merged[key] = _resolve_path(base, merged[key])
        merged["source"] = _resolve_source(base, merged["source"])
        if merged.get("baseline"):
            merged["baseline"] = _resolve_source(base, merged["baseline"])
        if "catalog" in merged:
            # Cataloged runs default to the job name so every job's
            # history stays separable (runs list --app NAME).
            merged.setdefault("run_name", name)
        spec = JobSpec(name=name, **merged)
        try:
            spec.validate()
        except ReproError as exc:
            raise FleetConfigError(f"{where}: {exc}") from None
        paths = spec.write_paths()
        catalog = paths.pop("catalog", None)
        for key, resolved in paths.items():
            if resolved in writers:
                other, other_key = writers[resolved]
                raise FleetConfigError(
                    f"{where}: job {name!r} {key} {resolved!r} collides "
                    f"with job {other!r} {other_key} — each job needs "
                    f"its own write paths")
            writers[resolved] = (name, key)
        if catalog is not None:
            # The catalog is multi-writer (WAL + transactional
            # appends): jobs *sharing* a catalog is the point. What is
            # rejected is a catalog path doubling as some job's
            # exclusive write path (checked once all jobs are in), and
            # two jobs recording under one run name into one catalog —
            # their histories would interleave indistinguishably.
            catalogs[catalog] = name
            key = (catalog, spec.run_name)
            if key in run_names:
                raise FleetConfigError(
                    f"{where}: job {name!r} records run name "
                    f"{spec.run_name!r} into the same catalog as job "
                    f"{run_names[key]!r} — run names within one fleet "
                    f"must be unique per catalog (set run_name)")
            run_names[key] = name
        specs.append(spec)
    for resolved, (job, key) in writers.items():
        if resolved in catalogs:
            raise FleetConfigError(
                f"{where}: job {job!r} {key} {resolved!r} collides "
                f"with job {catalogs[resolved]!r} catalog — a run "
                f"catalog cannot double as a "
                f"checkpoint/emit/journal/alert_log path")
    return specs


def load_fleet_config(path: str | os.PathLike[str]) -> list[JobSpec]:
    """Load and validate a fleet file (TOML, or ``*.json``)."""
    config_path = Path(path)
    if not config_path.exists():
        raise FleetConfigError(f"no such fleet config: {config_path}")
    where = f"fleet config {config_path}"
    try:
        if config_path.suffix.lower() == ".json":
            data = json.loads(config_path.read_text(encoding="utf-8"))
        else:
            with open(config_path, "rb") as handle:
                data = tomllib.load(handle)
    except (tomllib.TOMLDecodeError, json.JSONDecodeError) as exc:
        raise FleetConfigError(f"{where}: parse error: {exc}") from exc
    return parse_fleet_data(data, where=where,
                            base_dir=config_path.parent)
