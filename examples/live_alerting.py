#!/usr/bin/env python3
"""Live alerting: watch a growing trace directory with a rules file.

Simulates an IOR run, reveals its strace files to a watcher in
increments (the way a running job's traces grow), and evaluates a
declarative rules file after every poll — exactly what
``st-inspector watch traces/ --rules rules.toml`` does, driven here
through the library so the growth can be scripted.

Rules demonstrated:

- ``new_edge`` with ``absent_from_baseline``: page only on
  directly-follows relations a known-good baseline run (here: a plain
  ``ls`` workload) never produced;
- ``stat_threshold``: page when an activity's ``event_count`` passes a
  bound (any Sec. IV-B metric works: ``process_data_rate < 1e6``, ...);
- ``watermark_age``: page when a file's sealing starves behind an
  unfinished syscall.

The script exits non-zero if no alert fires — CI runs it, so the
example cannot rot.

Run:
    python examples/live_alerting.py [output-dir]
"""

import sys
import tempfile
from pathlib import Path

from repro.alerts import AlertEngine
from repro.live import LiveIngest
from repro.simulate.strace_writer import (
    EXPERIMENT_A_CALLS,
    write_trace_files,
)
from repro.simulate.workloads.ior import IORConfig, simulate_ior

RULES_TOML = """\
baseline = "sim:ls"

[sinks]
stderr = true

[[rule]]
name = "not-in-baseline"
type = "new_edge"
absent_from_baseline = true

[[rule]]
name = "busy-activity"
type = "stat_threshold"
metric = "event_count"
op = ">"
value = 20

[[rule]]
name = "sealing-starved"
type = "watermark_age"
max_age = 5.0
"""


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(tempfile.mkdtemp(prefix="st-inspector-alerting-"))
    trace_dir = out_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    rules_path = out_dir / "rules.toml"
    rules_path.write_text(RULES_TOML)
    print(f"rules file: {rules_path}\n")

    # Render a small IOR run to trace bytes (with unfinished/resumed
    # splits, as real strace output has).
    result = simulate_ior(IORConfig(ranks=4, ranks_per_node=2,
                                    segments=2, cid="ior", seed=7))
    with tempfile.TemporaryDirectory() as scratch:
        paths = write_trace_files(result.recorders, scratch,
                                  trace_calls=EXPERIMENT_A_CALLS,
                                  unfinished_probability=0.2, seed=7)
        file_bytes = {path.name: path.read_bytes() for path in paths}

    # The watcher: rules attached to the engine so a --checkpoint
    # sidecar would persist latches and history too.
    alerts = AlertEngine.from_rules_file(rules_path)
    engine = LiveIngest(trace_dir, alerts=alerts)

    # Reveal each file in two halves, polling in between — six
    # refreshes of a growing directory.
    for cut in (0.5, 1.0):
        for name, content in sorted(file_bytes.items()):
            upto = int(len(content) * cut)
            with open(trace_dir / name, "ab") as handle:
                written = (trace_dir / name).stat().st_size
                handle.write(content[written:upto])
            fired = alerts.evaluate(engine, engine.poll())
            for alert in fired:
                print(f"  poll {alert.n_poll}: {alert.render_line()}")

    fired = alerts.evaluate(engine, engine.finalize())
    for alert in fired:
        print(f"  finalize: {alert.render_line()}")

    by_rule = {}
    for alert in alerts.history:
        by_rule.setdefault(alert.rule, []).append(alert)
    print(f"\n{alerts.n_fired} alert(s) from {len(by_rule)} rule(s):")
    for rule, fired in sorted(by_rule.items()):
        print(f"  [{rule}] x{len(fired)}, e.g. {fired[0].message}")

    if not alerts.n_fired:
        print("error: expected the IOR run to trip the rules",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
