"""Cooldown windows and alert-history compaction — the week-long-watch
bounds.

Cooldown: a subject that re-trips inside ``cooldown`` seconds of its
last *delivered* firing is suppressed — the latch still tracks the
condition (the rule's state stays correct), delivery is withheld and
counted in ``n_suppressed``, and the timestamps persist in the sidecar
so a restart does not re-page mid-cooldown.

Compaction: ``history_limit`` keeps the newest N alerts full-fidelity
and folds older ones into per-identity counts; ``n_fired`` (and
restart dedup) stay exact while the checkpoint stops growing with a
flapping rule.
"""

from __future__ import annotations

import json

import pytest

from repro.alerts import (
    AlertConfigError,
    AlertEngine,
    NewEdgeRule,
    StatThresholdRule,
    WatermarkAgeRule,
)
from repro.alerts.rules import RULE_TYPES, RefreshContext
from repro.core.dfg import DFG
from repro.core.statistics import IOStatistics
from repro.live.checkpoint import CHECKPOINT_VERSION
from repro.live.engine import LiveIngest


def _context(ages: dict[str, int], now: float | None,
             n_poll: int = 1) -> RefreshContext:
    """A minimal refresh for watermark rules (the oscillating kind)."""
    empty = IOStatistics()
    return RefreshContext(
        n_poll=n_poll, total_events=0, current=DFG(), previous=None,
        stats=empty, previous_stats=None, baseline_dfg=None,
        baseline_stats=None, watermark_ages=ages, now=now)


STARVED = {"case": 5_000_000}  # 5 s of trace time
HEALTHY: dict[str, int] = {}


class TestCooldown:
    def test_refire_inside_cooldown_is_suppressed(self):
        rule = WatermarkAgeRule("starved", max_age=1.0, cooldown=60.0)
        assert rule.evaluate(_context(STARVED, now=0.0))  # fires
        rule.evaluate(_context(HEALTHY, now=10.0))        # re-arms
        assert rule.evaluate(_context(STARVED, now=20.0)) == []
        assert rule.n_suppressed == 1
        # The latch still tracked the re-trip: staying starved does
        # not fire again once the cooldown elapses...
        assert rule.evaluate(_context(STARVED, now=100.0)) == []
        # ...but a fresh oscillation past the window delivers.
        rule.evaluate(_context(HEALTHY, now=110.0))
        fired = rule.evaluate(_context(STARVED, now=120.0))
        assert [alert.subject for alert in fired] == ["case"]
        assert rule.n_suppressed == 1

    def test_suppression_does_not_extend_the_window(self):
        """Cooldown runs from the last *delivered* firing; suppressed
        attempts must not push it out."""
        rule = WatermarkAgeRule("starved", max_age=1.0, cooldown=60.0)
        rule.evaluate(_context(STARVED, now=0.0))
        for when in (10.0, 30.0, 50.0):
            rule.evaluate(_context(HEALTHY, now=when - 5))
            assert rule.evaluate(_context(STARVED, now=when)) == []
        rule.evaluate(_context(HEALTHY, now=59.0))
        assert rule.evaluate(_context(STARVED, now=61.0))
        assert rule.n_suppressed == 3

    def test_zero_cooldown_never_suppresses(self):
        rule = WatermarkAgeRule("starved", max_age=1.0)
        for when in (0.0, 1.0, 2.0):
            assert rule.evaluate(_context(STARVED, now=when))
            rule.evaluate(_context(HEALTHY, now=when + 0.5))
        assert rule.n_suppressed == 0

    def test_no_clock_disables_gating(self):
        """``now=None`` (an AlertEngine built with ``clock=None``)
        must deliver rather than silently drop."""
        rule = WatermarkAgeRule("starved", max_age=1.0, cooldown=60.0)
        assert rule.evaluate(_context(STARVED, now=None))
        rule.evaluate(_context(HEALTHY, now=None))
        assert rule.evaluate(_context(STARVED, now=None))
        assert rule.n_suppressed == 0

    def test_negative_cooldown_rejected(self):
        with pytest.raises(AlertConfigError, match="cooldown"):
            NewEdgeRule("edges", cooldown=-1.0)

    def test_every_rule_type_accepts_cooldown(self):
        from repro.alerts.config import _accepted_options

        for kind, cls in RULE_TYPES.items():
            assert "cooldown" in _accepted_options(cls), kind

    def test_timestamps_survive_latch_roundtrip(self):
        rule = WatermarkAgeRule("starved", max_age=1.0, cooldown=60.0)
        rule.evaluate(_context(STARVED, now=7.5))
        state = json.loads(json.dumps(rule.latch_state()))
        revived = WatermarkAgeRule("starved", max_age=1.0,
                                   cooldown=60.0)
        revived.restore_latch(state)
        # Mid-cooldown after the restart: re-trip stays suppressed.
        revived.evaluate(_context(HEALTHY, now=10.0))
        assert revived.evaluate(_context(STARVED, now=20.0)) == []
        assert revived.n_suppressed == 1

    def test_empty_latch_keeps_v3_shape(self):
        """No cooldown activity → no ``last_fired`` key, so pre-v4
        sidecar fixtures keep validating."""
        assert NewEdgeRule("edges").latch_state() == {"tripped": []}

    def test_cooldown_loads_from_rules_file(self, tmp_path):
        from repro.alerts import load_rules_file

        path = tmp_path / "rules.toml"
        path.write_text("[[rule]]\nname='x'\ntype='watermark_age'\n"
                        "max_age=1.0\ncooldown=300\n")
        config = load_rules_file(path)
        assert config.rules[0].cooldown == 300


class TestCompaction:
    def _fired_engine(self, tmp_path, ls_file_bytes, write_files,
                      history_limit):
        write_files(tmp_path, ls_file_bytes)
        alerts = AlertEngine([NewEdgeRule("edges")],
                             history_limit=history_limit)
        engine = LiveIngest(tmp_path, alerts=alerts)
        fired = alerts.evaluate(engine, engine.poll())
        return alerts, fired

    def test_history_is_bounded_but_n_fired_exact(self, tmp_path,
                                                  ls_file_bytes,
                                                  write_files):
        alerts, fired = self._fired_engine(tmp_path, ls_file_bytes,
                                           write_files,
                                           history_limit=3)
        assert len(fired) > 3  # the ls graph has more edges than that
        assert len(alerts.history) == 3
        assert alerts.n_fired == len(fired)
        assert sum(alerts.compacted.values()) == len(fired) - 3
        # The newest records survive full-fidelity.
        assert alerts.history == fired[-3:]

    def test_unbounded_engine_keeps_everything(self, tmp_path,
                                               ls_file_bytes,
                                               write_files):
        alerts, fired = self._fired_engine(tmp_path, ls_file_bytes,
                                           write_files,
                                           history_limit=None)
        assert alerts.history == fired
        assert alerts.compacted == {}

    def test_compacted_counts_survive_state_roundtrip(self, tmp_path,
                                                      ls_file_bytes,
                                                      write_files):
        alerts, fired = self._fired_engine(tmp_path, ls_file_bytes,
                                           write_files,
                                           history_limit=2)
        state = json.loads(json.dumps(alerts.to_state()))
        revived = AlertEngine([NewEdgeRule("edges")], history_limit=2)
        revived.restore_state(state)
        assert revived.n_fired == len(fired)
        assert revived.history == fired[-2:]
        assert revived.compacted == alerts.compacted

    def test_no_overflow_keeps_v3_state_shape(self, tmp_path,
                                              ls_file_bytes,
                                              write_files):
        alerts, _ = self._fired_engine(tmp_path, ls_file_bytes,
                                       write_files,
                                       history_limit=None)
        assert "compacted" not in alerts.to_state()

    def test_restore_recompacts_under_a_tighter_limit(self, tmp_path,
                                                      ls_file_bytes,
                                                      write_files):
        """Lowering history_limit between lives compacts the restored
        history down — totals still exact."""
        alerts, fired = self._fired_engine(tmp_path, ls_file_bytes,
                                           write_files,
                                           history_limit=None)
        tighter = AlertEngine([NewEdgeRule("edges")], history_limit=1)
        tighter.restore_state(
            json.loads(json.dumps(alerts.to_state())))
        assert len(tighter.history) == 1
        assert tighter.n_fired == len(fired)

    def test_bad_history_limit_rejected(self):
        with pytest.raises(AlertConfigError, match="history_limit"):
            AlertEngine([], history_limit=0)

    def test_history_limit_parses_from_rules_file(self, tmp_path):
        from repro.alerts import load_rules_file

        path = tmp_path / "rules.toml"
        path.write_text("history_limit = 10\n"
                        "[[rule]]\nname='x'\ntype='new_edge'\n")
        assert load_rules_file(path).history_limit == 10

    def test_bad_history_limit_in_file_names_itself(self, tmp_path):
        from repro.alerts import load_rules_file

        path = tmp_path / "rules.toml"
        path.write_text("history_limit = true\n"
                        "[[rule]]\nname='x'\ntype='new_edge'\n")
        with pytest.raises(AlertConfigError, match="history_limit"):
            load_rules_file(path)


class TestCheckpointIntegration:
    def test_compaction_and_cooldown_ride_the_sidecar(self, tmp_path,
                                                      ls_file_bytes,
                                                      write_files):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        write_files(trace_dir, ls_file_bytes)
        sidecar = tmp_path / "ckpt.json"
        alerts = AlertEngine(
            [NewEdgeRule("edges"),
             StatThresholdRule("busy", metric="event_count", op=">",
                               value=5, cooldown=60.0)],
            history_limit=2)
        engine = LiveIngest(trace_dir, checkpoint=sidecar,
                            alerts=alerts)
        fired = alerts.evaluate(engine, engine.poll())
        assert fired
        engine.save_checkpoint()
        state = json.loads(sidecar.read_text())
        assert state["version"] == CHECKPOINT_VERSION
        assert len(state["alerts"]["history"]) == 2
        assert state["alerts"]["compacted"]
        revived_rules = AlertEngine(
            [NewEdgeRule("edges"),
             StatThresholdRule("busy", metric="event_count", op=">",
                               value=5, cooldown=60.0)],
            history_limit=2)
        life2 = LiveIngest(trace_dir, checkpoint=sidecar,
                           alerts=revived_rules)
        assert revived_rules.n_fired == len(fired)
        assert revived_rules.evaluate(life2, life2.poll()) == []
