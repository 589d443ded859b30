"""Telemetry woven through the live path: instrumented polls,
checkpoint persistence, the watch loop, and the property that makes
the whole subsystem admissible — observing the pipeline must not
perturb it (telemetry on vs off is byte-identical)."""

from __future__ import annotations

import json
import tempfile
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util.errors import ReproError
from repro.alerts import AlertEngine, NewEdgeRule, StatThresholdRule
from repro.cli import main
from repro.fleet import FleetScheduler, WatchJob
from repro.live.checkpoint import CHECKPOINT_VERSION
from repro.live.engine import LiveIngest
from repro.telemetry import NULL_TELEMETRY, Telemetry
from tests.emit_oracle import assert_pack_is_batch


def _write_all(directory: Path, file_bytes: dict[str, bytes]) -> None:
    for filename, content in file_bytes.items():
        (directory / filename).write_bytes(content)


class TestInstrumentedEngine:
    def test_default_engine_is_uninstrumented(self, tmp_path):
        assert LiveIngest(tmp_path).telemetry is NULL_TELEMETRY

    def test_poll_counts_and_times_the_phases(self, tmp_path,
                                              ls_file_bytes):
        _write_all(tmp_path, ls_file_bytes)
        telemetry = Telemetry()
        engine = LiveIngest(tmp_path, telemetry=telemetry)
        result = engine.poll()
        registry = telemetry.registry
        assert registry.counter("polls_total").value == 1
        assert registry.counter("events_sealed_total").value == \
            result.n_sealed > 0
        assert registry.counter("files_discovered_total").value == \
            len(ls_file_bytes)
        assert registry.counter("bytes_tailed_total").value == \
            sum(len(b) for b in ls_file_bytes.values())
        assert registry.gauge("files_tracked").value == \
            len(ls_file_bytes)
        # Every pipeline phase fed the cumulative histograms.
        for phase in ("scan", "tail", "decode", "seal", "fold"):
            assert registry.histogram("phase_seconds",
                                      phase=phase).count > 0, phase
            assert registry.counter("phase_cpu_seconds_total",
                                    phase=phase).value >= 0

    def test_finalize_counts(self, tmp_path, ls_file_bytes):
        _write_all(tmp_path, ls_file_bytes)
        telemetry = Telemetry()
        engine = LiveIngest(tmp_path, telemetry=telemetry)
        engine.poll()
        engine.finalize()
        assert telemetry.registry.counter("finalizes_total").value == 1

    def test_statistics_phase_recorded(self, tmp_path, ls_file_bytes):
        _write_all(tmp_path, ls_file_bytes)
        telemetry = Telemetry()
        engine = LiveIngest(tmp_path, telemetry=telemetry)
        engine.poll()
        engine.statistics()
        assert telemetry.registry.histogram("phase_seconds",
                                            phase="stats").count == 1

    def test_alert_evaluation_feeds_the_registry(self, tmp_path,
                                                 ls_file_bytes):
        _write_all(tmp_path, ls_file_bytes)
        telemetry = Telemetry()
        alerts = AlertEngine([NewEdgeRule("edges")])
        engine = LiveIngest(tmp_path, alerts=alerts,
                            telemetry=telemetry)
        fired = alerts.evaluate(engine, engine.poll())
        assert fired
        registry = telemetry.registry
        assert registry.counter("alerts_fired_total").value == \
            len(fired)
        assert registry.histogram("phase_seconds",
                                  phase="alerts").count == 1

    def test_failing_sink_counts_per_sink(self, tmp_path,
                                          ls_file_bytes, recwarn):
        class Boom:
            def emit(self, alert):
                raise RuntimeError("pager down")

        _write_all(tmp_path, ls_file_bytes)
        telemetry = Telemetry()
        alerts = AlertEngine([NewEdgeRule("edges")], sinks=[Boom()])
        engine = LiveIngest(tmp_path, alerts=alerts,
                            telemetry=telemetry)
        fired = alerts.evaluate(engine, engine.poll())
        registry = telemetry.registry
        assert registry.counter("sink_failures_total",
                                sink="Boom#0").value == len(fired)
        assert registry.gauge("sink_failure_streak").value == \
            len(fired)
        # Delivery latency was timed per sink, failures included.
        assert registry.histogram("sink_seconds",
                                  sink="Boom#0").count == len(fired)
        # The warning rate limiter's suppression tally is mirrored.
        suppressed = registry.counter_sum(
            "sink_warnings_suppressed_total")
        warned = sum(1 for _ in recwarn.list)
        assert warned + suppressed >= len(fired)


class TestCheckpointV5:
    def _checkpointed(self, tmp_path, ls_file_bytes,
                      telemetry=None) -> Path:
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir(exist_ok=True)
        _write_all(trace_dir, ls_file_bytes)
        sidecar = tmp_path / "ckpt.json"
        engine = LiveIngest(trace_dir, checkpoint=sidecar,
                            telemetry=telemetry)
        engine.poll()
        engine.save_checkpoint()
        return sidecar

    def test_instrumented_save_persists_the_snapshot(self, tmp_path,
                                                     ls_file_bytes):
        sidecar = self._checkpointed(tmp_path, ls_file_bytes,
                                     Telemetry())
        state = json.loads(sidecar.read_text())
        assert state["version"] == CHECKPOINT_VERSION
        snapshot = state["telemetry"]["snapshot"]
        counters = {e["name"]: e["value"]
                    for e in snapshot["counters"]}
        assert counters["polls_total"] == 1
        # The snapshot is taken inside the save: this save isn't
        # counted yet (the counter increments after the write lands).
        assert counters.get("checkpoint_saves_total", 0) == 0

    def test_uninstrumented_save_persists_none(self, tmp_path,
                                               ls_file_bytes):
        sidecar = self._checkpointed(tmp_path, ls_file_bytes)
        state = json.loads(sidecar.read_text())
        assert state["version"] == CHECKPOINT_VERSION
        assert state["telemetry"] is None

    def test_restart_restores_counter_bases(self, tmp_path,
                                            ls_file_bytes):
        sidecar = self._checkpointed(tmp_path, ls_file_bytes,
                                     Telemetry())
        revived = Telemetry()
        engine = LiveIngest(tmp_path / "traces", checkpoint=sidecar,
                            telemetry=revived)
        registry = revived.registry
        assert registry.counter("polls_total").value == 1  # base only
        engine.poll()  # idle — nothing new
        assert registry.counter("polls_total").value == 2
        assert registry.counter("events_sealed_total").value == \
            engine.total_events

    def test_telemetry_state_survives_an_uninstrumented_life(
            self, tmp_path, ls_file_bytes):
        """Life 1 instrumented, life 2 plain, life 3 instrumented:
        the plain life must re-save life 1's snapshot, not erase it
        (the alert-state preservation rule, applied to telemetry)."""
        sidecar = self._checkpointed(tmp_path, ls_file_bytes,
                                     Telemetry())
        plain = LiveIngest(tmp_path / "traces", checkpoint=sidecar)
        plain.poll()
        plain.save_checkpoint()
        state = json.loads(sidecar.read_text())
        assert state["telemetry"]["snapshot"] is not None
        third = Telemetry()
        LiveIngest(tmp_path / "traces", checkpoint=sidecar,
                   telemetry=third)
        assert third.registry.counter("polls_total").value == 1


class TestWatchIntegration:
    def test_telemetry_row_present_only_when_instrumented(
            self, tmp_path, ls_file_bytes):
        _write_all(tmp_path, ls_file_bytes)
        plain: list[str] = []
        FleetScheduler([WatchJob(LiveIngest(tmp_path), polls=1)],
                       out=plain.append, sleep=lambda _: None).run()
        assert "TELEMETRY" not in "".join(plain)
        instrumented: list[str] = []
        FleetScheduler([WatchJob(LiveIngest(tmp_path,
                                            telemetry=Telemetry()),
                                 polls=1)],
                       out=instrumented.append,
                       sleep=lambda _: None).run()
        text = "".join(instrumented)
        assert "TELEMETRY: poll " in text
        assert "ms wall / " in text

    def test_metrics_flags_require_instrumentation(self, tmp_path):
        with pytest.raises(ReproError, match="instrumented engine"):
            WatchJob(LiveIngest(tmp_path), polls=1,
                     metrics_log=tmp_path / "m.jsonl")

    def test_metrics_log_appends_one_snapshot_per_poll(self, tmp_path,
                                                       ls_file_bytes):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        log = tmp_path / "metrics.jsonl"
        FleetScheduler([WatchJob(LiveIngest(trace_dir,
                                            telemetry=Telemetry()),
                                 polls=3, interval=0, metrics_log=log)],
                       out=lambda _: None, sleep=lambda _: None).run()
        rows = [json.loads(line)
                for line in log.read_text().splitlines()]
        assert len(rows) == 3
        assert [row["last_poll"]["n_poll"] for row in rows] == \
            [1, 2, 3]

    def test_metrics_port_serves_during_the_watch(self, tmp_path,
                                                  ls_file_bytes):
        """Ephemeral-port e2e: scrape /metrics and /healthz from
        inside an out() callback, while the loop is alive."""
        _write_all(tmp_path, ls_file_bytes)
        scraped: dict[str, bytes] = {}
        announced: list[str] = []

        def out(text: str) -> None:
            if text.startswith("serving metrics on "):
                announced.append(text)
                return
            if "bases" not in scraped and announced:
                base = announced[0].split("on ", 1)[1].split(
                    "/metrics", 1)[0]
                scraped["bases"] = base.encode()
                for path in ("/metrics", "/healthz"):
                    with urllib.request.urlopen(base + path,
                                                timeout=5) as reply:
                        scraped[path] = reply.read()

        from repro.telemetry.exposition import MetricsServer

        # Served the way ``cmd_watch`` serves --metrics-port: one
        # registry, open for the life of the one-job scheduler.
        job = WatchJob(LiveIngest(tmp_path, telemetry=Telemetry()),
                       polls=1)
        server = MetricsServer(job.engine.telemetry, 0)
        try:
            out(f"serving metrics on http://{server.host}:{server.port}"
                f"/metrics (health: /healthz)")
            FleetScheduler([job], out=out, sleep=lambda _: None).run()
        finally:
            server.close()
        assert b"st_inspector_polls_total 1" in scraped["/metrics"]
        assert json.loads(scraped["/healthz"])["status"] == "ok"

    def test_overrun_line_carries_the_phase_breakdown(self, tmp_path,
                                                      ls_file_bytes):
        _write_all(tmp_path, ls_file_bytes)
        now = [0.0]
        events: list[str] = []

        def out(text: str) -> None:
            if text.startswith("OVERRUN"):
                events.append(text)
            else:
                now[0] += 1.5  # every render blows the 1s interval

        FleetScheduler([WatchJob(LiveIngest(tmp_path,
                                            telemetry=Telemetry()),
                                 interval=1.0, polls=2)],
                       out=out, sleep=lambda _: None,
                       clock=lambda: now[0]).run()
        assert len(events) == 1
        assert events[0].startswith(
            "OVERRUN poll 1: work exceeded the 1s interval by 0.500s")
        # Telemetry was on: the line names where the time went.
        assert "re-anchored (" in events[0]
        assert "s)" in events[0]


class TestHealthCommand:
    def test_health_from_instrumented_checkpoint(self, tmp_path,
                                                 ls_file_bytes,
                                                 capsys):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        sidecar = tmp_path / "ckpt.json"
        log = tmp_path / "metrics.jsonl"
        assert main(["watch", str(trace_dir), "--once",
                     "--checkpoint", str(sidecar),
                     "--metrics-log", str(log)]) == 0
        capsys.readouterr()
        assert main(["health", str(sidecar)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("status: ok")
        assert "sealing" in out
        assert main(["health", str(sidecar), "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "ok"

    def test_health_refuses_an_uninstrumented_checkpoint(
            self, tmp_path, ls_file_bytes, capsys):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        sidecar = tmp_path / "ckpt.json"
        assert main(["watch", str(trace_dir), "--once",
                     "--checkpoint", str(sidecar)]) == 0
        capsys.readouterr()
        assert main(["health", str(sidecar)]) == 2
        assert "no telemetry snapshot" in capsys.readouterr().err


#: The adversary from test_live_properties, reused for neutrality:
#: (file index, percent of remaining bytes, poll-after?).
steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=1, max_value=100),
              st.booleans()),
    min_size=1, max_size=20)


def _rules() -> AlertEngine:
    return AlertEngine([
        NewEdgeRule("edges"),
        StatThresholdRule("busy", metric="event_count", op=">",
                          value=5),
    ])


def _replay(file_bytes: dict[str, bytes], schedule, *, scratch: Path,
            telemetry, restart_after: int | None = None):
    """Grow a fresh directory per the schedule — polling, evaluating
    alerts, checkpointing and journaling to ``scratch/run.elog``,
    optionally killing/reviving — and return ``(engine, alert
    identity multiset, live_dir)``."""
    live_dir = scratch / "traces"
    live_dir.mkdir()
    sidecar = scratch / "ckpt.json"
    elog = scratch / "run.elog"
    alerts = _rules()
    engine = LiveIngest(live_dir, checkpoint=sidecar, emit=elog,
                        alerts=alerts, telemetry=telemetry)
    fired: list[tuple] = []
    names = sorted(file_bytes)
    offsets = {name: 0 for name in names}
    for step_index, (file_index, percent, poll) in enumerate(schedule):
        name = names[file_index % len(names)]
        content = file_bytes[name]
        remaining = len(content) - offsets[name]
        chunk = max(1, remaining * percent // 100) if remaining else 0
        if chunk:
            with open(live_dir / name, "ab") as handle:
                handle.write(
                    content[offsets[name]:offsets[name] + chunk])
            offsets[name] += chunk
        if poll:
            result = engine.poll()
            fired.extend((a.rule, a.kind, a.subject)
                         for a in alerts.evaluate(engine, result))
            engine.save_checkpoint()
        if restart_after is not None and step_index == restart_after:
            engine.save_checkpoint()
            alerts = _rules()
            telemetry = (Telemetry() if telemetry is not None
                         else None)
            engine = LiveIngest(live_dir, checkpoint=sidecar, emit=elog,
                                alerts=alerts, telemetry=telemetry)
    for name in names:
        tail = file_bytes[name][offsets[name]:]
        if tail:
            with open(live_dir / name, "ab") as handle:
                handle.write(tail)
    result = engine.poll()
    fired.extend((a.rule, a.kind, a.subject)
                 for a in alerts.evaluate(engine, result))
    engine.finalize()
    return engine, sorted(fired), live_dir


def _assert_same_statistics(one: LiveIngest, other: LiveIngest) -> None:
    stats_one = one.statistics()
    stats_other = other.statistics()
    assert sorted(stats_one.activities()) == \
        sorted(stats_other.activities())
    for activity in stats_one.activities():
        assert stats_one[activity] == stats_other[activity], activity


class TestObserverNeutrality:
    """Telemetry on vs off: same schedule, byte-identical pipeline."""

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=steps)
    def test_instrumented_run_is_byte_identical(self, schedule,
                                                ior_file_bytes):
        with tempfile.TemporaryDirectory() as off_dir, \
                tempfile.TemporaryDirectory() as on_dir:
            off, off_fired, _ = _replay(
                ior_file_bytes, schedule, scratch=Path(off_dir),
                telemetry=None)
            on, on_fired, _ = _replay(
                ior_file_bytes, schedule, scratch=Path(on_dir),
                telemetry=Telemetry())
            assert off.snapshot_dfg() == on.snapshot_dfg()
            assert_pack_is_batch(off)
            assert on.pack_emit().read_bytes() == \
                off.pack_emit().read_bytes()
            _assert_same_statistics(off, on)
            assert off_fired == on_fired

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=steps,
           restart_after=st.integers(min_value=0, max_value=19))
    def test_neutral_across_kill_restart(self, schedule, restart_after,
                                         ior_file_bytes):
        """Kill + revive at a random point: the instrumented pair of
        lives converges on the same DFG/statistics/alert multiset and
        the same packed log as the uninstrumented pair."""
        restart_after = min(restart_after, len(schedule) - 1)
        with tempfile.TemporaryDirectory() as off_dir, \
                tempfile.TemporaryDirectory() as on_dir:
            off, off_fired, _ = _replay(
                ior_file_bytes, schedule, scratch=Path(off_dir),
                telemetry=None, restart_after=restart_after)
            on, on_fired, _ = _replay(
                ior_file_bytes, schedule, scratch=Path(on_dir),
                telemetry=Telemetry(), restart_after=restart_after)
            assert off.snapshot_dfg() == on.snapshot_dfg()
            assert on.pack_emit().read_bytes() == \
                off.pack_emit().read_bytes()
            _assert_same_statistics(off, on)
            assert off_fired == on_fired
