"""Command-line interface: ``st-inspector`` / ``python -m repro``.

Subcommands cover the full paper pipeline plus the simulator:

- ``simulate-ls <dir>`` — generate the Fig. 1 example traces.
- ``simulate-ior <dir>`` — run the IOR simulator (Fig. 7 options) and
  write strace files.
- ``convert <source> <out.elog>`` — pack any source into the columnar
  store (the paper's HDF5 step).
- ``synthesize <source>`` — build the DFG and print it (ascii/dot/svg),
  with filtering, mapping and coloring options.
- ``report <source>`` — per-activity statistics table.
- ``compare <source> --green <cid>`` — partition-colored comparison.
- ``timeline <source> --activity <a>`` — the Fig. 5 plot.
- ``watch <dir>`` — live-monitor a growing trace directory
  (incremental ingestion, resumable ``--checkpoint``, declarative
  ``--rules`` alerting, Prometheus/health exposition via
  ``--metrics-port`` / ``--metrics-log``).
- ``fleet --jobs fleet.toml`` — live-monitor many trace directories
  on one cooperative scheduler (:mod:`repro.fleet`): per-job
  checkpoints/rules/emit, fault isolation with backoff restarts, one
  shared metrics port with ``job``-labelled series.
- ``health <checkpoint> [<checkpoint> ...]`` — offline health verdict
  from the telemetry snapshots instrumented watches persisted in
  their checkpoints; several paths aggregate worst-of (the fleet's
  ``/healthz`` semantics).
- ``runs list/show/diff/trend <cat.db>`` — query a run catalog
  (:mod:`repro.catalog`): runs are recorded by ``convert``/``report``
  ``--catalog``, ``watch --catalog``, or a fleet job's ``catalog``
  key, and mined back as alert baselines via the ``catalog:`` source
  scheme.

Exit codes: 0 success (for ``health``: every verdict ok), 2 a
configuration/usage error (bad flags, missing files, malformed
rules/fleet configs), 1 a runtime failure — a live loop that died
mid-run (e.g. a tracked trace file vanished) or a non-ok health
verdict.

The full subcommand/flag reference lives in ``docs/cli.md``.

``<source>`` is any registered trace source
(:func:`repro.sources.open_source`): a directory of ``.st`` files, an
``.elog`` store, a ``.csv`` dump, or a scheme URI like
``strace:traces/``, ``elog:run.elog``, ``csv:log.csv``,
``sim:ior?ranks=4`` — every analysis subcommand accepts every scheme.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro._util.errors import ReproError
from repro.core.coloring import PartitionColoring, StatisticsColoring
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.partition import PartitionEL
from repro.core.render.viewer import DFGViewer
from repro.core.statistics import IOStatistics
from repro.pipeline.report import activity_report, comparison_report


#: Help text for every subcommand's ``source`` positional.
SOURCE_HELP = (".st directory, .elog store, .csv log, or scheme URI "
               "(strace:, elog:, csv:, sim:workload?opt=val)")


def _open_source_args(args: argparse.Namespace):
    """Resolve ``args.source`` honoring the ingest flags when present."""
    from repro.sources import open_source

    return open_source(args.source,
                       workers=getattr(args, "workers", None),
                       recursive=getattr(args, "recursive", False),
                       strict=not getattr(args, "lenient", False))


def _load_args(args: argparse.Namespace) -> EventLog:
    """Load ``args.source`` through the trace-source registry."""
    return _open_source_args(args).event_log()


def _workers_arg(text: str) -> int:
    """argparse type for ``--workers``: a positive integer, rejected at
    parse time with a readable message instead of a pool failure."""
    try:
        return _positive_int_arg(text)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(
            f"{exc}; omit the flag to auto-detect") from None


def _nonneg_float_arg(text: str) -> float:
    """argparse type for ``--interval``: a non-negative number
    (``time.sleep`` rejects negatives with a raw traceback)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {value})")
    return value


def _positive_int_arg(text: str) -> int:
    """argparse type for ``--polls``: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def _nonneg_int_arg(text: str) -> int:
    """argparse type for ``--max-restarts``: an integer >= 0 (0 means
    a failed job stops on its first failure, no restart attempts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {value})")
    return value


def _port_arg(text: str) -> int:
    """argparse type for ``--metrics-port``: 0 (ephemeral) – 65535."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port number 0-65535 (got {value}; 0 binds an "
            f"ephemeral port)")
    return value


def _window_arg(text: str) -> int:
    """argparse type for ``--window``: an integer >= 2 (a coarsening
    pass merges adjacent pairs — below two entries there is nothing to
    merge into)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2 (got {value})")
    return value


def _add_ingest_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_workers_arg, default=None,
                        metavar="N",
                        help="parse trace files on N processes when the "
                             "source is a directory (default: auto-detect "
                             "from the available CPUs; 1 = sequential; "
                             "sources that cannot parallelize warn)")
    parser.add_argument("--recursive", action="store_true",
                        help="also discover .st files in nested "
                             "subdirectories (per-host trace layouts)")
    parser.add_argument("--lenient", action="store_true",
                        help="tolerate corrupt input: undecodable bytes "
                             "become U+FFFD (counted, warned) and orphan "
                             "resumed records are skipped instead of "
                             "aborting the parse")


def _mapping(args: argparse.Namespace):
    from repro.fleet.job import mapping_from_name

    return mapping_from_name(args.mapping, args.levels)


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source", help=SOURCE_HELP)
    _add_ingest_options(parser)
    parser.add_argument("--filter", default=None, metavar="SUBSTR",
                        help="keep only events whose path contains SUBSTR")
    parser.add_argument("--mapping", default="topdirs",
                        choices=("topdirs", "path", "call", "site"),
                        help="event→activity mapping (default: the "
                             "paper's call+top-2-dirs)")
    parser.add_argument("--levels", type=int, default=2,
                        help="directory levels for the mapping")
    parser.add_argument("--exclude-calls", default=None, metavar="A,B",
                        help="drop these syscalls before synthesis "
                             "(Fig. 9 skips openat)")


def _default_run_name(source) -> str:
    """Run name when ``--run-name`` is omitted: the source target's
    basename (``traces/app1`` → ``app1``, ``run.elog`` → ``run.elog``)."""
    from repro.sources import parse_source_spec

    target = parse_source_spec(str(source)).target
    return os.path.basename(os.path.normpath(target)) or str(target)


def _record_batch_run(args: argparse.Namespace, log: EventLog,
                      mapping, levels: int) -> None:
    """Commit a batch-layer run to ``--catalog`` (no-op without it)."""
    if not getattr(args, "catalog", None):
        return
    from repro.catalog import RunCatalog, RunRecord

    record = RunRecord.from_log(
        log,
        name=(getattr(args, "run_name", None)
              or _default_run_name(args.source)),
        source=str(args.source), mapping=mapping.name, levels=levels)
    run_id = RunCatalog(args.catalog).record_run(record)
    print(f"cataloged run {run_id} ({record.name!r}) in {args.catalog}")


def _add_catalog_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--catalog", default=None, metavar="FILE",
                        help="record this run (DFG, per-activity "
                             "statistics, metadata, fingerprint) into "
                             "a run catalog (created if missing; see "
                             "docs/catalog.md and `st-inspector runs`)")
    parser.add_argument("--run-name", default=None, metavar="NAME",
                        help="name the cataloged run is recorded "
                             "under (default: the source's basename); "
                             "`runs list --app NAME` and catalog: "
                             "baselines filter on it")


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _prepared_log(args: argparse.Namespace) -> EventLog:
    log = _load_args(args)
    if args.filter:
        log.apply_fp_filter(args.filter)
    if args.exclude_calls:
        names = [n.strip() for n in args.exclude_calls.split(",") if n]
        log = log.filtered(~log.frame.call_in(names))
    log.apply_mapping_fn(_mapping(args))
    return log


def cmd_simulate_ls(args: argparse.Namespace) -> int:
    from repro.simulate.workloads.ls import generate_fig1_traces

    ls_paths, lsl_paths = generate_fig1_traces(args.directory)
    print(f"wrote {len(ls_paths)} 'ls' traces and {len(lsl_paths)} "
          f"'ls -l' traces to {args.directory}")
    return 0


def cmd_simulate_ior(args: argparse.Namespace) -> int:
    from repro.simulate.strace_writer import (
        EXPERIMENT_A_CALLS,
        EXPERIMENT_B_CALLS,
        write_trace_files,
    )
    from repro.simulate.workloads.ior import IORConfig, simulate_ior

    config = IORConfig(
        ranks=args.ranks,
        ranks_per_node=args.ranks_per_node,
        transfer_size=args.transfer_kib << 10,
        block_size=args.block_mib << 20,
        segments=args.segments,
        file_per_process=args.fpp,
        api=args.api,
        cid=args.cid,
        test_file=args.test_file,
        seed=args.seed,
    )
    result = simulate_ior(config)
    calls = (EXPERIMENT_B_CALLS if args.trace_lseek
             else EXPERIMENT_A_CALLS)
    paths = write_trace_files(result.recorders, args.directory,
                              trace_calls=calls)
    print(f"simulated {config.ranks} ranks "
          f"({result.total_syscalls()} syscalls, makespan "
          f"{result.makespan_us / 1e6:.2f} s); wrote {len(paths)} "
          f"trace files to {args.directory}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    from repro.elstore.convert import convert_source

    out = convert_source(_open_source_args(args), args.output)
    from repro.elstore.reader import EventLogStore

    store = EventLogStore(out)
    print(f"wrote {out} ({store.n_cases} cases, "
          f"{store.n_events} events)")
    if args.catalog:
        # Catalog the packed artifact under the default mapping (the
        # paper's call+top-2-dirs — `report --catalog` records under
        # whatever --mapping it was given instead).
        from repro.fleet.job import mapping_from_name
        from repro.sources import ElstoreSource

        log = ElstoreSource(out).event_log()
        mapping = mapping_from_name("topdirs", 2)
        log.apply_mapping_fn(mapping)
        _record_batch_run(args, log, mapping, 2)
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    log = _prepared_log(args)
    dfg = DFG(log)
    stats = IOStatistics(log)
    viewer = DFGViewer(dfg, stats, StatisticsColoring(stats),
                       show_ranks=args.show_ranks)
    text = viewer.render(args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    log = _prepared_log(args)
    stats = IOStatistics(log)
    if args.json:
        from repro.pipeline.serialize import stats_payload

        _print_json(stats_payload(stats, top=args.top))
    else:
        print(activity_report(stats, top=args.top), end="")
    _record_batch_run(args, log, _mapping(args), args.levels)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    log = _prepared_log(args)
    green = [c.strip() for c in args.green.split(",") if c.strip()]
    green_log, red_log = PartitionEL(log, green)
    stats = IOStatistics(log)
    coloring = PartitionColoring(DFG(green_log), DFG(red_log), stats)
    print(comparison_report(coloring, stats), end="")
    viewer = DFGViewer(DFG(log), stats, coloring)
    text = viewer.render(args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_variants(args: argparse.Namespace) -> int:
    from repro.pipeline.report import variants_report

    log = _prepared_log(args)
    print(variants_report(log, top=args.top), end="")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.core.diff import DFGDiff

    log = _prepared_log(args)
    green = [c.strip() for c in args.green.split(",") if c.strip()]
    green_log, red_log = PartitionEL(log, green)
    diff = DFGDiff.between(green_log, red_log)
    if args.json:
        from repro.pipeline.serialize import diff_payload

        _print_json(diff_payload(diff, top=args.top))
    else:
        print(diff.report(top=args.top), end="")
    return 0


def cmd_html_report(args: argparse.Namespace) -> int:
    from repro.pipeline.html import save_html_report

    log = _prepared_log(args)
    styler = None
    if args.green:
        from repro.core.coloring import PartitionColoring

        green = [c.strip() for c in args.green.split(",") if c.strip()]
        green_log, red_log = PartitionEL(log, green)
        styler = PartitionColoring(DFG(green_log), DFG(red_log),
                                   IOStatistics(log))
    else:
        styler = StatisticsColoring(IOStatistics(log))
    timelines = ([a.strip() for a in args.timelines.split(",")]
                 if args.timelines else None)
    out = save_html_report(log, args.output, title=args.title,
                           styler=styler,
                           timeline_activities=timelines)
    print(f"wrote {out}")
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.core.render.timeline import (
        render_timeline_ascii,
        render_timeline_svg,
    )

    log = _prepared_log(args)
    stats = IOStatistics(log)
    rows = stats.timeline(args.activity)
    if args.format == "svg":
        text = render_timeline_svg(rows, activity=args.activity)
    else:
        text = render_timeline_ascii(rows, activity=args.activity)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.render.profile import (
        render_profile_ascii,
        render_profile_svg,
    )

    log = _prepared_log(args)
    stats = IOStatistics(log)
    rows = stats.timeline(args.activity)
    if args.format == "svg":
        text = render_profile_svg(rows, activity=args.activity)
    else:
        text = render_profile_ascii(rows, activity=args.activity)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_counters(args: argparse.Namespace) -> int:
    from repro.pipeline.counters import counters_report

    log = _load_args(args)
    if args.filter:
        log.apply_fp_filter(args.filter)
    print(counters_report(log, top=args.top), end="")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    from repro.fleet import FleetScheduler, JobSpec

    # JobSpec.build wires rules (a malformed file raises
    # AlertConfigError naming the offending rule), sink flags,
    # telemetry and checkpoint restore. Anything it raises is a
    # *configuration* error → main() → exit 2.
    spec = JobSpec(
        source=args.directory,
        interval=args.interval,
        polls=1 if args.once else args.polls,
        checkpoint=args.checkpoint,
        rules=args.rules,
        baseline=args.baseline,
        alert_log=args.alert_log,
        emit=args.emit,
        window=args.window,
        memory_budget=args.memory_budget,
        compact_emit=args.compact_emit,
        mapping=args.mapping,
        levels=args.levels,
        recursive=args.recursive,
        lenient=args.lenient,
        show_dfg=not args.no_dfg,
        top=args.top,
        telemetry=(args.metrics_port is not None
                   or args.metrics_log is not None),
        metrics_log=args.metrics_log,
        catalog=args.catalog,
        run_name=(args.run_name or _default_run_name(args.directory)
                  if args.catalog else None),
    )
    job = spec.build()
    server = None
    if args.metrics_port is not None:
        from repro.telemetry.exposition import MetricsServer

        server = MetricsServer(job.engine.telemetry, args.metrics_port)
        print(f"serving metrics on http://{server.host}:{server.port}"
              f"/metrics (health: /healthz)")
    try:
        return FleetScheduler([job]).run()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        # Deliberately no save here: a ^C landing inside poll() can
        # leave byte offsets advanced past records not yet folded into
        # the graph, and persisting that torn state would break
        # restart ≡ batch. The last post-poll sidecar is consistent.
        checkpoint = job.engine.checkpoint_path
        print(f"stopped after {job.completed} poll(s); "
              + (f"checkpoint as of the last completed poll: "
                 f"{checkpoint}"
                 if checkpoint is not None and job.completed
                 else "no checkpoint written"))
        return 0
    except ReproError as exc:
        # A failure *inside* the live loop (a tracked file vanishing,
        # a torn trace) is a runtime error, not a usage error: exit 1,
        # message instead of a traceback. The scheduler already packed
        # the emit journal and closed the job.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if server is not None:
            server.close()


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import load_fleet_config, run_fleet

    # Config problems (missing file, bad keys, colliding write paths,
    # missing trace directories, malformed rules) all surface here,
    # before any poll → main() → exit 2.
    specs = load_fleet_config(args.jobs)
    polls = 1 if args.once else args.polls
    jobs = []
    for spec in specs:
        spec = spec.with_overrides(
            polls=polls,
            telemetry=spec.telemetry or args.metrics_port is not None)
        jobs.append(spec.build())
    try:
        return run_fleet(jobs, metrics_port=args.metrics_port,
                         max_restarts=args.max_restarts)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _health_verdict(path: Path) -> dict:
    import json

    from repro.telemetry import health_from_snapshot, render_health

    if not path.exists():
        raise ReproError(f"no such checkpoint: {path}")
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ReproError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(state, dict):
        raise ReproError(f"corrupt checkpoint {path}: top-level "
                         f"{type(state).__name__}, not an object")
    # A "telemetry" value of the wrong shape, at any depth, is as
    # corrupt as a torn file: rendering the verdict once here checks
    # the last poll's shape too.
    try:
        snapshot = (state.get("telemetry") or {}).get("snapshot")
        if snapshot:
            verdict = health_from_snapshot(snapshot)
            render_health(verdict)
            return verdict
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"corrupt checkpoint {path}: {exc}") from exc
    raise ReproError(
        f"checkpoint {path} holds no telemetry snapshot — run the "
        f"watch with --metrics-port or --metrics-log so polls are "
        f"instrumented (sidecar version {state.get('version')!r})")


def cmd_health(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import render_health

    verdicts = {str(path): _health_verdict(Path(path))
                for path in args.checkpoints}
    if len(verdicts) == 1:
        # Single-checkpoint behavior is unchanged: plain verdict,
        # no aggregation wrapper.
        verdict = next(iter(verdicts.values()))
        if args.json:
            print(json.dumps(verdict, sort_keys=True, indent=2))
        else:
            print(render_health(verdict))
        return 0 if verdict["status"] == "ok" else 1
    from repro.telemetry.health import aggregate_health

    combined = aggregate_health(verdicts)
    if args.json:
        print(json.dumps(combined, sort_keys=True, indent=2))
    else:
        for name, verdict in verdicts.items():
            print(f"== {name}")
            print(render_health(verdict))
        print(f"fleet status: {combined['status']} "
              f"({len(verdicts)} checkpoint(s), worst wins)")
    return 0 if combined["status"] == "ok" else 1


def _open_catalog(args: argparse.Namespace):
    """Query-side catalog open: the file must already exist."""
    from repro.catalog import RunCatalog

    return RunCatalog(args.catalog, create=False)


def cmd_runs_list(args: argparse.Namespace) -> int:
    from repro.catalog import runs_table

    catalog = _open_catalog(args)
    rows = catalog.list_runs(app=args.app, source=args.source,
                             mapping=args.mapping, limit=args.limit)
    if args.json:
        _print_json([row.to_json() for row in rows])
    else:
        print(runs_table(rows), end="")
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    from repro.catalog import show_run

    catalog = _open_catalog(args)
    row = catalog.resolve(args.run)
    if args.json:
        from repro.pipeline.serialize import stats_payload

        _print_json({
            "run": row.to_json(),
            "statistics": stats_payload(catalog.statistics(row.id),
                                        top=args.top),
            "alerts": [alert.to_json()
                       for alert in catalog.alerts(row.id)],
        })
    else:
        print(show_run(catalog, row, top=args.top), end="")
    return 0


def cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.catalog import diff_runs

    catalog = _open_catalog(args)
    green, red, diff = diff_runs(catalog, args.green, args.red)
    if args.json:
        from repro.pipeline.serialize import diff_payload

        _print_json({
            "green": green.to_json(),
            "red": red.to_json(),
            "diff": diff_payload(diff, top=args.top),
        })
    else:
        print(f"green: run {green.id} ({green.name!r}), "
              f"red: run {red.id} ({red.name!r})")
        print(diff.report(top=args.top), end="")
    return 0


def cmd_runs_trend(args: argparse.Namespace) -> int:
    from repro.catalog import render_trend, trend_payload

    catalog = _open_catalog(args)
    payload = trend_payload(catalog, args.metric, app=args.app,
                            limit=args.limit, activity=args.activity)
    if args.json:
        _print_json(payload)
    else:
        print(render_trend(payload), end="")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.pipeline.validate import validate_event_log, \
        validation_report

    log = _load_args(args)
    print(validation_report(log), end="")
    issues = validate_event_log(log)
    return 1 if any(i.severity == "error" for i in issues) else 0


def cmd_export_csv(args: argparse.Namespace) -> int:
    from repro.sources.csv_log import write_csv_log

    log = _load_args(args)
    out = write_csv_log(log, args.output)
    print(f"wrote {out} ({log.n_events} events)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="st-inspector",
        description="DFG synthesis of I/O system-call traces "
                    "(SC-W 2024 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-ls",
                       help="generate the paper's Fig. 1 example traces")
    p.add_argument("directory")
    p.set_defaults(fn=cmd_simulate_ls)

    p = sub.add_parser("simulate-ior", help="run the IOR simulator")
    p.add_argument("directory")
    p.add_argument("--ranks", type=int, default=96)
    p.add_argument("--ranks-per-node", type=int, default=48)
    p.add_argument("--transfer-kib", type=int, default=1024,
                   help="-t, in KiB (default 1m)")
    p.add_argument("--block-mib", type=int, default=16,
                   help="-b, in MiB (default 16m)")
    p.add_argument("--segments", type=int, default=3, help="-s")
    p.add_argument("--fpp", action="store_true", help="-F")
    p.add_argument("--api", choices=("posix", "mpiio"), default="posix")
    p.add_argument("--cid", default="ior")
    p.add_argument("--test-file", default="/p/scratch/ssf/test")
    p.add_argument("--trace-lseek", action="store_true",
                   help="include lseek in the -e set (experiment B)")
    p.add_argument("--seed", type=int, default=4242)
    p.set_defaults(fn=cmd_simulate_ior)

    p = sub.add_parser("convert",
                       help="pack any trace source into an .elog store")
    p.add_argument("source", help=SOURCE_HELP)
    p.add_argument("output")
    _add_ingest_options(p)
    _add_catalog_options(p)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("synthesize", help="build and render the DFG")
    _add_pipeline_options(p)
    p.add_argument("--format", choices=("ascii", "dot", "svg"),
                   default="ascii")
    p.add_argument("--show-ranks", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("report", help="per-activity statistics table")
    _add_pipeline_options(p)
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--json", action="store_true",
                   help="emit the statistics as JSON (the same shape "
                        "`runs show --json` uses) instead of the table")
    _add_catalog_options(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("compare",
                       help="partition-colored comparison of cids")
    _add_pipeline_options(p)
    p.add_argument("--green", required=True,
                   help="comma-separated cids for the green subset")
    p.add_argument("--format", choices=("ascii", "dot", "svg"),
                   default="ascii")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("timeline", help="Fig. 5 timeline of an activity")
    _add_pipeline_options(p)
    p.add_argument("--activity", required=True)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_timeline)

    p = sub.add_parser("profile",
                       help="concurrency-over-time profile of an activity")
    _add_pipeline_options(p)
    p.add_argument("--activity", required=True)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("counters",
                       help="Darshan-style per-case counters")
    p.add_argument("source", help=SOURCE_HELP)
    _add_ingest_options(p)
    p.add_argument("--filter", default=None, metavar="SUBSTR")
    p.add_argument("--top", type=int, default=None)
    p.set_defaults(fn=cmd_counters)

    p = sub.add_parser("watch",
                       help="live-monitor a growing trace directory "
                            "(incremental ingestion + standing DFG)")
    p.add_argument("directory", help="trace directory being written "
                                     "(may still be empty)")
    p.add_argument("--interval", type=_nonneg_float_arg, default=2.0,
                   metavar="SEC",
                   help="seconds between polls (default: 2)")
    p.add_argument("--once", action="store_true",
                   help="poll a single time and exit")
    p.add_argument("--polls", type=_positive_int_arg, default=None,
                   metavar="N",
                   help="stop after N polls (default: run until ^C)")
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="JSON sidecar making ingestion resumable: "
                        "loaded if present, rewritten after every poll")
    p.add_argument("--window", type=_window_arg, default=None,
                   metavar="N",
                   help="bound per-case statistics memory: coarsen "
                        "interval/rate buffers past N entries "
                        "(scalar stats stay exact; merge counts and "
                        "timelines become upper bounds, marked '~'; "
                        "default: unbounded)")
    p.add_argument("--memory-budget", type=_positive_int_arg,
                   default=None, metavar="BYTES",
                   help="adaptive --window: derive and re-derive the "
                        "per-case interval-buffer cap each poll so "
                        "the measured buffer footprint stays under "
                        "BYTES (mutually exclusive with --window)")
    p.add_argument("--emit", default=None, metavar="FILE",
                   help="stream sealed records to a durable journal "
                        "next to FILE and pack FILE as an .elog on "
                        "exit — byte-identical to batch `convert` of "
                        "the directory, surviving kill/restart cycles "
                        "(combine with --checkpoint)")
    p.add_argument("--compact-emit", type=_positive_int_arg,
                   default=None, metavar="BYTES",
                   help="rolling journal compaction: whenever the "
                        "checkpointed part of the --emit journal "
                        "exceeds BYTES, pack it into FILE and "
                        "truncate the journal, keeping disk usage "
                        "O(window) over a week-long watch (requires "
                        "--emit and --checkpoint; the final .elog "
                        "stays byte-identical to batch `convert`)")
    p.add_argument("--rules", default=None, metavar="FILE",
                   help="alerting rules file (TOML, or *.json): "
                        "threshold rules over the refresh deltas, "
                        "evaluated every poll (see docs/rules.md); "
                        "fired alerts render as a pane and route to "
                        "the configured sinks")
    p.add_argument("--alert-log", default=None, metavar="FILE",
                   help="append fired alerts as JSON lines to FILE "
                        "(adds a jsonl sink on top of the rules "
                        "file's [sinks]); requires --rules")
    p.add_argument("--baseline", default=None, metavar="SOURCE",
                   help="reference run for against='baseline' and "
                        "absent_from_baseline rules — any trace "
                        "source (elog:good.elog, sim:ior?ranks=4, a "
                        "bare path); overrides the rules file's "
                        "baseline entry; requires --rules")
    p.add_argument("--recursive", action="store_true",
                   help="also follow .st files in nested subdirectories")
    p.add_argument("--lenient", action="store_true",
                   help="tolerate corrupt input (as for batch ingestion)")
    p.add_argument("--mapping", default="topdirs",
                   choices=("topdirs", "path", "call", "site"),
                   help="event→activity mapping (default: the paper's "
                        "call+top-2-dirs)")
    p.add_argument("--levels", type=int, default=2,
                   help="directory levels for the mapping")
    p.add_argument("--no-dfg", action="store_true",
                   help="print the status/diff summary only, skip the "
                        "ASCII DFG")
    p.add_argument("--top", type=int, default=5,
                   help="rows in the change-diff summary")
    p.add_argument("--metrics-port", type=_port_arg, default=None,
                   metavar="PORT",
                   help="serve Prometheus text on 127.0.0.1:PORT"
                        "/metrics and a JSON health verdict on "
                        "/healthz for the life of the watch (0 binds "
                        "an ephemeral port, announced on stdout); "
                        "turns telemetry on")
    p.add_argument("--metrics-log", default=None, metavar="FILE",
                   help="append one JSON telemetry snapshot per poll "
                        "to FILE (the offline twin of --metrics-port "
                        "for hosts nothing scrapes); turns telemetry "
                        "on")
    _add_catalog_options(p)
    p.set_defaults(fn=cmd_watch)

    p = sub.add_parser("fleet",
                       help="run many watch jobs on one cooperative "
                            "scheduler, from a fleet.toml")
    p.add_argument("--jobs", required=True, metavar="FILE",
                   help="fleet config (TOML, or *.json): top-level "
                        "defaults fan out to every [jobs.NAME] table, "
                        "per-job keys override (see docs/fleet.md)")
    p.add_argument("--once", action="store_true",
                   help="poll every job a single time and exit")
    p.add_argument("--polls", type=_positive_int_arg, default=None,
                   metavar="N",
                   help="stop each job after N polls (default: run "
                        "until ^C)")
    p.add_argument("--metrics-port", type=_port_arg, default=None,
                   metavar="PORT",
                   help="serve every job's Prometheus series (tagged "
                        "with a job=\"NAME\" label) on 127.0.0.1:PORT"
                        "/metrics and the worst-of-jobs verdict on "
                        "/healthz (0 binds an ephemeral port); turns "
                        "telemetry on for every job")
    p.add_argument("--max-restarts", type=_nonneg_int_arg,
                   default=None, metavar="N",
                   help="stop a job after N consecutive failed "
                        "restart cycles instead of backing off "
                        "forever (siblings keep running either way; "
                        "default: unbounded)")
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser("health",
                       help="render the health verdict from watch "
                            "checkpoints' persisted telemetry "
                            "snapshots")
    p.add_argument("checkpoints", nargs="+", metavar="checkpoint",
                   help="checkpoint sidecar(s) written by "
                        "instrumented watches (v5+); several "
                        "aggregate worst-of, matching the fleet's "
                        "/healthz")
    p.add_argument("--json", action="store_true",
                   help="print the raw JSON verdict instead of the "
                        "readable rendering")
    p.set_defaults(fn=cmd_health)

    p = sub.add_parser("runs",
                       help="query a run catalog: list, show, diff "
                            "and trend over recorded runs")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    q = runs_sub.add_parser("list", help="list cataloged runs with "
                                         "metadata filters")
    q.add_argument("catalog", help="run catalog (.db) written by "
                                   "--catalog / a fleet catalog key")
    q.add_argument("--app", default=None, metavar="NAME",
                   help="only runs recorded under this run name")
    q.add_argument("--source", default=None, metavar="SUBSTR",
                   help="only runs whose source URI contains SUBSTR")
    q.add_argument("--mapping", default=None, metavar="NAME",
                   help="only runs recorded under this mapping name "
                        "(e.g. call+top2dirs)")
    q.add_argument("--limit", type=_positive_int_arg, default=None,
                   metavar="N", help="newest N matching runs")
    q.add_argument("--json", action="store_true",
                   help="emit the metadata rows as JSON")
    q.set_defaults(fn=cmd_runs_list)

    q = runs_sub.add_parser("show", help="one run in full: metadata, "
                                         "statistics, fired alerts")
    q.add_argument("catalog", help="run catalog (.db)")
    q.add_argument("run", help="run reference: a numeric catalog id, "
                               "or a run name (resolves to that "
                               "app's newest run)")
    q.add_argument("--top", type=int, default=None,
                   help="rows in the statistics table")
    q.add_argument("--json", action="store_true",
                   help="emit run + statistics + alerts as JSON "
                        "(statistics share `report --json`'s shape)")
    q.set_defaults(fn=cmd_runs_show)

    q = runs_sub.add_parser("diff", help="DFG diff between two "
                                         "cataloged runs (green - red)")
    q.add_argument("catalog", help="run catalog (.db)")
    q.add_argument("green", help="run reference for the green side")
    q.add_argument("red", help="run reference for the red side")
    q.add_argument("--top", type=int, default=10)
    q.add_argument("--json", action="store_true",
                   help="emit the diff as JSON (the same shape "
                        "`diff --json` uses)")
    q.set_defaults(fn=cmd_runs_diff)

    q = runs_sub.add_parser("trend", help="one metric across a run "
                                          "history, per activity")
    q.add_argument("catalog", help="run catalog (.db)")
    q.add_argument("--metric", default="relative_duration",
                   choices=("relative_duration", "total_bytes",
                            "max_concurrency", "event_count",
                            "process_data_rate"),
                   help="Sec. IV-B metric to trend (default: "
                        "relative_duration)")
    q.add_argument("--app", default=None, metavar="NAME",
                   help="only runs recorded under this run name")
    q.add_argument("--limit", type=_positive_int_arg, default=None,
                   metavar="N", help="newest N matching runs")
    q.add_argument("--activity", default=None,
                   help="restrict the table to one activity row")
    q.add_argument("--json", action="store_true",
                   help="emit the trend series as JSON")
    q.set_defaults(fn=cmd_runs_trend)

    p = sub.add_parser("validate",
                       help="check the log against the Sec. III/IV "
                            "preconditions")
    p.add_argument("source", help=SOURCE_HELP)
    _add_ingest_options(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("export-csv",
                       help="export the event-log as CSV (tool-agnostic)")
    p.add_argument("source", help=SOURCE_HELP)
    p.add_argument("output")
    _add_ingest_options(p)
    p.set_defaults(fn=cmd_export_csv)

    p = sub.add_parser("variants",
                       help="trace variants with multiplicities")
    _add_pipeline_options(p)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(fn=cmd_variants)

    p = sub.add_parser("diff",
                       help="quantitative DFG diff between cid groups")
    _add_pipeline_options(p)
    p.add_argument("--green", required=True,
                   help="comma-separated cids for the green subset")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--json", action="store_true",
                   help="emit the diff as JSON (the same shape "
                        "`runs diff --json` uses) instead of the "
                        "text report")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("html-report",
                       help="standalone HTML report (SVG + tables)")
    _add_pipeline_options(p)
    p.add_argument("--output", required=True)
    p.add_argument("--title", default="st_inspector report")
    p.add_argument("--green", default=None,
                   help="optional: partition-color by these cids")
    p.add_argument("--timelines", default=None,
                   help="comma-separated activities to add timelines for")
    p.set_defaults(fn=cmd_html_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
