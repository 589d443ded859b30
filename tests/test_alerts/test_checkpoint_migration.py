"""Alert state across checkpoint restarts: a life watched without
rules carries the previous life's latches and history through, and a
v1 sidecar stays rejected."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro._util.errors import ReproError
from repro.alerts import AlertEngine, NewEdgeRule
from repro.live.engine import LiveIngest


def checkpointed(tmp_path: Path, ls_file_bytes, write_files) -> Path:
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    write_files(trace_dir, ls_file_bytes)
    sidecar = tmp_path / "ckpt.json"
    engine = LiveIngest(trace_dir, checkpoint=sidecar)
    engine.poll()
    engine.save_checkpoint()
    return sidecar


class TestV1StillRejected:
    def test_v1_rejected_with_rebuild_hint(self, tmp_path,
                                           ls_file_bytes, write_files):
        """A v1 sidecar has neither ``stats`` nor ``alerts``: the
        version check answers before the shape check, so the error
        is the rebuild hint, not a missing-key complaint."""
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
