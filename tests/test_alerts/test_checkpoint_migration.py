"""Sidecar version migration: v2/v3/v6 upgrade in place, v1 stays
rejected, alert state round-trips across kill/restart."""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro._util.errors import ReproError
from repro.alerts import AlertEngine, NewEdgeRule
from repro.live.checkpoint import CHECKPOINT_VERSION
from repro.live.engine import LiveIngest
from tests.test_live.test_statistics_live import assert_stats_equal


def checkpointed(tmp_path: Path, ls_file_bytes, write_files) -> Path:
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    write_files(trace_dir, ls_file_bytes)
    sidecar = tmp_path / "ckpt.json"
    engine = LiveIngest(trace_dir, checkpoint=sidecar)
    engine.poll()
    engine.save_checkpoint()
    return sidecar


def _intervals_to_timelines(stats_state: dict) -> None:
    """Rewrite v7 base64 ``intervals`` (little-endian int64 pairs) as
    the ``timeline`` lists of ``[start, end]`` that v2–v6 carried."""
    for acc_state in stats_state["activities"].values():
        for case_state in acc_state["cases"].values():
            flat = np.frombuffer(
                base64.b64decode(case_state.pop("intervals")),
                dtype="<i8").tolist()
            case_state["timeline"] = [list(pair) for pair
                                      in zip(flat[::2], flat[1::2])]


def _downgrade_stats(stats_state: dict) -> None:
    """Rewrite v4 exact-sum partials as the legacy per-case ``rates``
    lists v2/v3 sidecars carried. ``[fsum(partials), 0, 0, ...]``
    preserves both the count and the exact sum, so the upgrade on load
    must reproduce the v4 state bit-identically."""
    _intervals_to_timelines(stats_state)
    for acc_state in stats_state["activities"].values():
        partials = acc_state.pop("rate_partials")
        count = acc_state.pop("rate_count")
        del acc_state["approximate"]
        if count:
            first = min(acc_state["cases"])
            acc_state["cases"][first]["rates"] = \
                [math.fsum(partials)] + [0.0] * (count - 1)


def downgrade_to_v2(sidecar: Path) -> None:
    state = json.loads(sidecar.read_text())
    assert state["version"] == CHECKPOINT_VERSION
    state["version"] = 2
    del state["alerts"]
    del state["window"]
    del state["emit_offset"]
    del state["emit_packed"]
    del state["telemetry"]
    _downgrade_stats(state["stats"])
    sidecar.write_text(json.dumps(state))


def downgrade_to_v3(sidecar: Path) -> None:
    state = json.loads(sidecar.read_text())
    assert state["version"] == CHECKPOINT_VERSION
    state["version"] = 3
    del state["window"]
    del state["emit_offset"]
    del state["emit_packed"]
    del state["telemetry"]
    _downgrade_stats(state["stats"])
    sidecar.write_text(json.dumps(state))


def downgrade_to_v6(sidecar: Path) -> None:
    state = json.loads(sidecar.read_text())
    assert state["version"] == CHECKPOINT_VERSION
    state["version"] = 6
    _intervals_to_timelines(state["stats"])
    sidecar.write_text(json.dumps(state))


class TestV2Migration:
    def test_v2_loads_with_empty_alert_state(self, tmp_path,
                                             ls_file_bytes,
                                             write_files):
        sidecar = checkpointed(tmp_path, ls_file_bytes, write_files)
        events = LiveIngest(tmp_path / "traces",
                            checkpoint=sidecar).total_events
        downgrade_to_v2(sidecar)
        alerts = AlertEngine([NewEdgeRule("edges")])
        revived = LiveIngest(tmp_path / "traces", checkpoint=sidecar,
                             alerts=alerts)
        # Full engine state restored; alert state starts empty.
        assert revived.total_events == events
        assert alerts.n_fired == 0
        assert all(rule.latch_state() == {"tripped": []}
                   for rule in alerts.rules)

    def test_v2_upgrade_persists_as_current_after_restart(
            self, tmp_path, ls_file_bytes, write_files):
        """The restart test pinning the migration: resume a v2
        sidecar, poll, save — the rewritten sidecar is current-version
        with alert state, and a third life restores it."""
        sidecar = checkpointed(tmp_path, ls_file_bytes, write_files)
        downgrade_to_v2(sidecar)
        alerts = AlertEngine([NewEdgeRule("edges")])
        revived = LiveIngest(tmp_path / "traces", checkpoint=sidecar,
                             alerts=alerts)
        fired = alerts.evaluate(revived, revived.poll())
        assert fired  # the latches really did start empty
        revived.save_checkpoint()
        state = json.loads(sidecar.read_text())
        assert state["version"] == CHECKPOINT_VERSION
        assert len(state["alerts"]["history"]) == len(fired)
        third = AlertEngine([NewEdgeRule("edges")])
        life3 = LiveIngest(tmp_path / "traces", checkpoint=sidecar,
                           alerts=third)
        assert third.n_fired == len(fired)
        assert third.evaluate(life3, life3.poll()) == []

    def test_v2_without_alert_engine_still_loads(self, tmp_path,
                                                 ls_file_bytes,
                                                 write_files):
        sidecar = checkpointed(tmp_path, ls_file_bytes, write_files)
        downgrade_to_v2(sidecar)
        revived = LiveIngest(tmp_path / "traces", checkpoint=sidecar)
        revived.save_checkpoint()
        state = json.loads(sidecar.read_text())
        assert state["version"] == CHECKPOINT_VERSION
        assert state["alerts"] == {"rules": {}, "history": []}


class TestV3Migration:
    def test_v3_rates_fold_into_identical_partials(self, tmp_path,
                                                   ls_file_bytes,
                                                   write_files):
        """A v3 sidecar (per-case rate lists) restores to statistics
        bit-identical to the v4 sidecar it was downgraded from."""
        sidecar = checkpointed(tmp_path, ls_file_bytes, write_files)
        v4_state = json.loads(sidecar.read_text())
        downgrade_to_v3(sidecar)
        revived = LiveIngest(tmp_path / "traces", checkpoint=sidecar)
        revived.save_checkpoint()
        state = json.loads(sidecar.read_text())
        assert state["version"] == CHECKPOINT_VERSION
        for activity, acc_state in \
                state["stats"]["activities"].items():
            v4_acc = v4_state["stats"]["activities"][activity]
            assert acc_state["rate_count"] == v4_acc["rate_count"]
            assert math.fsum(acc_state["rate_partials"]) == \
                math.fsum(v4_acc["rate_partials"])

    def test_v3_keeps_alert_history(self, tmp_path, ls_file_bytes,
                                    write_files):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        write_files(trace_dir, ls_file_bytes)
        sidecar = tmp_path / "ckpt.json"
        alerts = AlertEngine([NewEdgeRule("edges")])
        engine = LiveIngest(trace_dir, checkpoint=sidecar,
                            alerts=alerts)
        fired = alerts.evaluate(engine, engine.poll())
        assert fired
        engine.save_checkpoint()
        downgrade_to_v3(sidecar)
        third = AlertEngine([NewEdgeRule("edges")])
        life2 = LiveIngest(trace_dir, checkpoint=sidecar, alerts=third)
        assert third.n_fired == len(fired)
        assert third.evaluate(life2, life2.poll()) == []


class TestV6Migration:
    """v6 is the layout of every sidecar written before the interval
    buffers were packed: per-case ``timeline`` lists."""

    @pytest.mark.parametrize("window", [None, 2])
    def test_v6_restores_bit_identical_and_resaves_current(
            self, tmp_path, ior_file_bytes, write_files, window):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        names = sorted(ior_file_bytes)
        write_files(trace_dir, {name: ior_file_bytes[name]
                                for name in names[:2]})
        sidecar = tmp_path / "ckpt.json"
        straight = LiveIngest(trace_dir, checkpoint=sidecar,
                              window=window)
        straight.poll()
        straight.save_checkpoint()
        downgrade_to_v6(sidecar)
        revived = LiveIngest(trace_dir, checkpoint=sidecar,
                             window=window)
        assert_stats_equal(revived.statistics(), straight.statistics())
        write_files(trace_dir, ior_file_bytes)
        for engine in (straight, revived):
            engine.poll()
            engine.finalize()
        assert revived.snapshot_dfg() == straight.snapshot_dfg()
        assert_stats_equal(revived.statistics(), straight.statistics())
        revived.save_checkpoint()
        state = json.loads(sidecar.read_text())
        assert state["version"] == CHECKPOINT_VERSION
        assert all(set(case_state) == {"intervals"}
                   for acc_state in state["stats"]["activities"].values()
                   for case_state in acc_state["cases"].values())


class TestV1StillRejected:
    def test_v1_rejected_with_rebuild_hint(self, tmp_path,
                                           ls_file_bytes, write_files):
        sidecar = checkpointed(tmp_path, ls_file_bytes, write_files)
        state = json.loads(sidecar.read_text())
        state["version"] = 1
        del state["stats"]
        del state["alerts"]
        sidecar.write_text(json.dumps(state))
        with pytest.raises(ReproError, match="delete the sidecar"):
            LiveIngest(tmp_path / "traces", checkpoint=sidecar)


class TestAlertStatePreservation:
    def test_restart_without_rules_keeps_alert_history(self, tmp_path,
                                                       ls_file_bytes,
                                                       write_files):
        """A life watched without --rules must not erase the alert
        state a previous life accumulated."""
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        write_files(trace_dir, ls_file_bytes)
        sidecar = tmp_path / "ckpt.json"
        alerts = AlertEngine([NewEdgeRule("edges")])
        engine = LiveIngest(trace_dir, checkpoint=sidecar,
                            alerts=alerts)
        fired = alerts.evaluate(engine, engine.poll())
        assert fired
        engine.save_checkpoint()
        # Second life: no alert engine attached.
        plain = LiveIngest(trace_dir, checkpoint=sidecar)
        plain.poll()
        plain.save_checkpoint()
        # Third life: rules are back; nothing re-fires.
        third = AlertEngine([NewEdgeRule("edges")])
        life3 = LiveIngest(trace_dir, checkpoint=sidecar, alerts=third)
        assert third.n_fired == len(fired)
        assert third.evaluate(life3, life3.poll()) == []
