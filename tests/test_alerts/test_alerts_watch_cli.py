"""Alerting through the watch loop and the ``st-inspector watch`` CLI."""

from __future__ import annotations

import json
from pathlib import Path

from repro.alerts import AlertEngine, NewEdgeRule, WatermarkAgeRule
from repro.cli import main
from repro.fleet import FleetScheduler, WatchJob
from repro.live.engine import LiveIngest

RULES = """
[[rule]]
name = "any-edge"
type = "new_edge"
"""


def write_rules(tmp_path: Path, text: str = RULES) -> Path:
    path = tmp_path / "rules.toml"
    path.write_text(text)
    return path


class TestRunWatchAlerts:
    def test_alert_pane_rendered_first_refresh_only(self, tmp_path,
                                                    ls_file_bytes,
                                                    write_files):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        write_files(trace_dir, ls_file_bytes)
        alerts = AlertEngine([NewEdgeRule("edges")])
        engine = LiveIngest(trace_dir, alerts=alerts)
        outputs: list[str] = []
        FleetScheduler([WatchJob(engine, polls=2, interval=0)],
                       out=outputs.append, sleep=lambda _: None).run()
        assert "ALERTS:" in outputs[0]
        assert "!! [edges] new edge" in outputs[0]
        # The pane leads the refresh: alerts come before diff/graph.
        assert outputs[0].index("ALERTS:") < outputs[0].index("NODES")
        # Nothing new on the idle poll: no pane.
        assert "ALERTS:" not in outputs[1]

    def test_starvation_note_in_status_line(self, starved_dir):
        engine = LiveIngest(starved_dir)
        outputs: list[str] = []
        FleetScheduler([WatchJob(engine, polls=1)],
                       out=outputs.append, sleep=lambda _: None).run()
        assert "sealing starved: 1 file(s), worst job0 at 5.000s" \
            in outputs[0]

    def test_watermark_rule_and_status_share_the_number(self,
                                                        starved_dir):
        alerts = AlertEngine([WatermarkAgeRule("starved", max_age=2.0)])
        engine = LiveIngest(starved_dir, alerts=alerts)
        outputs: list[str] = []
        FleetScheduler([WatchJob(engine, polls=1)],
                       out=outputs.append, sleep=lambda _: None).run()
        assert "!! [starved] case job0: sealing starved for 5.000s" \
            in outputs[0]
        assert "worst job0 at 5.000s" in outputs[0]


class TestCli:
    def test_watch_rules_renders_and_logs(self, tmp_path, ls_file_bytes,
                                          write_files, capsys):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        write_files(trace_dir, ls_file_bytes)
        rules = write_rules(tmp_path)
        alert_log = tmp_path / "alerts.jsonl"
        assert main(["watch", str(trace_dir), "--once",
                     "--rules", str(rules),
                     "--alert-log", str(alert_log)]) == 0
        out = capsys.readouterr().out
        assert "ALERTS:" in out
        rows = [json.loads(line)
                for line in alert_log.read_text().splitlines()]
        assert rows and all(row["rule"] == "any-edge" for row in rows)

    def test_malformed_rules_exit_nonzero_naming_rule(self, tmp_path,
                                                      capsys):
        rules = write_rules(tmp_path, """
[[rule]]
name = "bad-metric"
type = "stat_threshold"
metric = "nope"
op = ">"
value = 1
""")
        assert main(["watch", str(tmp_path), "--once",
                     "--rules", str(rules)]) == 2
        err = capsys.readouterr().err
        assert "bad-metric" in err
        assert "unknown metric" in err

    def test_unparseable_rules_exit_nonzero(self, tmp_path, capsys):
        rules = tmp_path / "rules.toml"
        rules.write_text("[[rule]\n")
        assert main(["watch", str(tmp_path), "--once",
                     "--rules", str(rules)]) == 2
        assert "malformed rules" in capsys.readouterr().err

    def test_alert_flags_require_rules(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path), "--once",
                     "--alert-log", str(tmp_path / "a.jsonl")]) == 2
        assert "--rules" in capsys.readouterr().err

    def test_restart_does_not_refire(self, tmp_path, ls_file_bytes,
                                     write_files, capsys):
        """Kill/restart with --checkpoint: the second life sees the
        same directory and fires nothing new."""
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        write_files(trace_dir, ls_file_bytes)
        rules = write_rules(tmp_path)
        sidecar = tmp_path / "ckpt.json"
        assert main(["watch", str(trace_dir), "--once",
                     "--rules", str(rules),
                     "--checkpoint", str(sidecar)]) == 0
        first = capsys.readouterr().out
        assert "ALERTS:" in first
        assert main(["watch", str(trace_dir), "--once",
                     "--rules", str(rules),
                     "--checkpoint", str(sidecar)]) == 0
        second = capsys.readouterr().out
        assert "ALERTS:" not in second

    def test_baseline_flag_quiets_known_edges(self, tmp_path,
                                              ls_file_bytes,
                                              write_files, capsys):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        write_files(trace_dir, ls_file_bytes)
        rules = write_rules(tmp_path, """
[[rule]]
name = "red-only"
type = "new_edge"
absent_from_baseline = true
""")
        assert main(["watch", str(trace_dir), "--once",
                     "--rules", str(rules),
                     "--baseline", str(trace_dir)]) == 0
        assert "ALERTS:" not in capsys.readouterr().out
