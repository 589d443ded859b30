"""``st-inspector fleet`` / multi-checkpoint ``health`` / exit codes."""

from __future__ import annotations

import json

from repro._util.errors import ReproError
from repro.cli import main
from repro.live.checkpoint import CHECKPOINT_VERSION
from repro.live.engine import LiveIngest

FAILING_SIDECAR = {
    "version": 5,
    "telemetry": {"snapshot": {
        "gauges": [{"name": "poll_overrun_streak", "value": 5}],
    }},
}


def _fleet_config(tmp_path, job_dir, names, extra=""):
    """``extra`` lines are appended inside every job table."""
    for name in names:
        job_dir(name)
    body = "".join(
        f"[jobs.{name}]\nsource = \"{name}\"\n{extra}"
        for name in names)
    config = tmp_path / "fleet.toml"
    config.write_text(body, encoding="utf-8")
    return config


class TestFleetCommand:
    def test_once_interleaves_prefixed_frames(self, tmp_path, job_dir,
                                              capsys):
        config = _fleet_config(tmp_path, job_dir, ("app1", "app2"))
        assert main(["fleet", "--jobs", str(config), "--once"]) == 0
        out = capsys.readouterr().out
        assert "[app1] poll 1: " in out
        assert "[app2] poll 1: " in out
        assert ("FLEET: app1 pending 0 poll(s) | "
                "app2 pending 0 poll(s)") in out
        assert ("FLEET: app1 done 1 poll(s) | "
                "app2 done 1 poll(s)") in out

    def test_checkpoints_resume_across_runs(self, tmp_path, job_dir,
                                            capsys):
        config = _fleet_config(
            tmp_path, job_dir, ("app1",),
            extra='checkpoint = "app1.ckpt.json"\n')
        assert main(["fleet", "--jobs", str(config), "--once"]) == 0
        first = capsys.readouterr().out
        assert "NODES" in first  # first run renders the full DFG
        assert (tmp_path / "app1.ckpt.json").exists()
        assert main(["fleet", "--jobs", str(config), "--once"]) == 0
        second = capsys.readouterr().out
        # The resumed run restored everything: poll numbering and the
        # event total continue, and nothing is re-ingested.
        assert "[app1] poll 2: 6 files, " in second
        assert "75 events (+0 sealed" in second

    def test_missing_config_is_a_usage_error(self, tmp_path, capsys):
        code = main(["fleet", "--jobs", str(tmp_path / "nope.toml")])
        assert code == 2
        assert "no such fleet config" in capsys.readouterr().err

    def test_missing_trace_directory_is_a_usage_error(self, tmp_path,
                                                      capsys):
        config = tmp_path / "fleet.toml"
        config.write_text('[jobs.a]\nsource = "missing"\n',
                          encoding="utf-8")
        code = main(["fleet", "--jobs", str(config)])
        assert code == 2
        assert "no such trace directory" in capsys.readouterr().err


class TestWatchExitCodes:
    def _poison_second_poll(self, monkeypatch):
        real_poll = LiveIngest.poll
        calls = {"n": 0}

        def poll(self):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise ReproError("tracked trace file vanished")
            return real_poll(self)

        monkeypatch.setattr(LiveIngest, "poll", poll)

    def test_runtime_failure_exits_1(self, monkeypatch, populated_dir,
                                     capsys):
        """A ReproError escaping the live loop is a *runtime* failure
        (exit 1, message, no traceback) — distinct from the exit-2
        configuration errors."""
        self._poison_second_poll(monkeypatch)
        code = main(["watch", str(populated_dir), "--polls", "2",
                     "--interval", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: tracked trace file vanished" in captured.err
        assert "poll 1: " in captured.out  # the first poll happened

    def test_emit_packs_even_when_the_loop_dies(self, monkeypatch,
                                                tmp_path,
                                                populated_dir, capsys):
        """The --emit journal reaches the destination .elog on the
        exception path too, and the exit code still reports the
        failure."""
        self._poison_second_poll(monkeypatch)
        emit = tmp_path / "run.elog"
        code = main(["watch", str(populated_dir), "--polls", "2",
                     "--interval", "0", "--emit", str(emit)])
        assert code == 1
        assert f"emitted event log: {emit}" in capsys.readouterr().out
        assert emit.exists() and emit.stat().st_size > 0


class TestMultiCheckpointHealth:
    def _healthy_checkpoint(self, tmp_path, populated_dir, name):
        path = tmp_path / name
        assert main(["watch", str(populated_dir), "--once",
                     "--checkpoint", str(path),
                     "--metrics-log", str(tmp_path / f"{name}.mlog"),
                     "--no-dfg"]) == 0
        return path

    def _failing_checkpoint(self, tmp_path, name):
        path = tmp_path / name
        path.write_text(json.dumps(FAILING_SIDECAR), encoding="utf-8")
        return path

    def test_all_ok_aggregates_to_ok(self, tmp_path, populated_dir,
                                     capsys):
        one = self._healthy_checkpoint(tmp_path, populated_dir,
                                       "one.ckpt.json")
        two = self._healthy_checkpoint(tmp_path, populated_dir,
                                       "two.ckpt.json")
        capsys.readouterr()
        assert main(["health", str(one), str(two)]) == 0
        out = capsys.readouterr().out
        assert f"== {one}" in out and f"== {two}" in out
        assert "fleet status: ok (2 checkpoint(s), worst wins)" in out

    def test_worst_checkpoint_wins(self, tmp_path, populated_dir,
                                   capsys):
        good = self._healthy_checkpoint(tmp_path, populated_dir,
                                        "good.ckpt.json")
        bad = self._failing_checkpoint(tmp_path, "bad.ckpt.json")
        capsys.readouterr()
        assert main(["health", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert ("fleet status: failing (2 checkpoint(s), worst wins)"
                in out)

    def test_json_verdict_carries_per_checkpoint_detail(
            self, tmp_path, populated_dir, capsys):
        good = self._healthy_checkpoint(tmp_path, populated_dir,
                                        "good.ckpt.json")
        bad = self._failing_checkpoint(tmp_path, "bad.ckpt.json")
        capsys.readouterr()
        assert main(["health", str(good), str(bad), "--json"]) == 1
        combined = json.loads(capsys.readouterr().out)
        assert combined["status"] == "failing"
        assert combined["jobs"][str(good)]["status"] == "ok"
        assert combined["jobs"][str(bad)]["status"] == "failing"

    def test_single_checkpoint_output_is_unwrapped(
            self, tmp_path, populated_dir, capsys):
        one = self._healthy_checkpoint(tmp_path, populated_dir,
                                       "one.ckpt.json")
        capsys.readouterr()
        assert main(["health", str(one)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("status: ok")
        assert "fleet status" not in out

    def test_missing_checkpoint_is_a_usage_error(self, tmp_path,
                                                 populated_dir,
                                                 capsys):
        one = self._healthy_checkpoint(tmp_path, populated_dir,
                                       "one.ckpt.json")
        capsys.readouterr()
        code = main(["health", str(one),
                     str(tmp_path / "ghost.ckpt.json")])
        assert code == 2
        assert "no such checkpoint" in capsys.readouterr().err


class TestHealthEdgeCases:
    """Sidecar-version and corruption edges of ``st-inspector
    health``: v6 compacting watches, mixed-version checkpoint lists,
    and the exit-2 usage errors for unreadable sidecars."""

    def _compacting_checkpoint(self, tmp_path, populated_dir, name):
        """A checkpoint written by a watch that compacts its emit
        journal — the newest (v6) sidecar shape."""
        path = tmp_path / name
        assert main(["watch", str(populated_dir), "--once",
                     "--checkpoint", str(path),
                     "--emit", str(tmp_path / f"{name}.elog"),
                     "--compact-emit", "1",
                     "--metrics-log",
                     str(tmp_path / f"{name}.mlog"),
                     "--no-dfg"]) == 0
        return path

    def test_v6_compacting_sidecar_reads_healthy(self, tmp_path,
                                                 populated_dir,
                                                 capsys):
        one = self._compacting_checkpoint(tmp_path, populated_dir,
                                          "v6.ckpt.json")
        state = json.loads(one.read_text(encoding="utf-8"))
        assert state["version"] == CHECKPOINT_VERSION
        capsys.readouterr()
        assert main(["health", str(one)]) == 0
        assert capsys.readouterr().out.startswith("status: ok")

    def test_mixed_version_list_aggregates(self, tmp_path,
                                           populated_dir, capsys):
        """A fleet mid-upgrade: one v6 sidecar, one older v5 — the
        aggregate still reads both and the worst status wins."""
        new = self._compacting_checkpoint(tmp_path, populated_dir,
                                          "new.ckpt.json")
        old = tmp_path / "old.ckpt.json"
        old.write_text(json.dumps(FAILING_SIDECAR), encoding="utf-8")
        capsys.readouterr()
        assert main(["health", str(new), str(old), "--json"]) == 1
        combined = json.loads(capsys.readouterr().out)
        assert combined["status"] == "failing"
        assert combined["jobs"][str(new)]["status"] == "ok"
        assert combined["jobs"][str(old)]["status"] == "failing"

    def test_corrupt_sidecar_is_a_usage_error(self, tmp_path,
                                              populated_dir, capsys):
        good = self._compacting_checkpoint(tmp_path, populated_dir,
                                           "good.ckpt.json")
        torn = tmp_path / "torn.ckpt.json"
        torn.write_text('{"version": 6, "telem', encoding="utf-8")
        capsys.readouterr()
        code = main(["health", str(good), str(torn)])
        assert code == 2
        assert "corrupt checkpoint" in capsys.readouterr().err
        # Valid JSON that is not an object is as corrupt as torn JSON.
        torn.write_text("[1, 2]", encoding="utf-8")
        assert main(["health", str(torn)]) == 2
        assert "corrupt checkpoint" in capsys.readouterr().err
        # So is a "telemetry" value of the wrong shape, at any depth.
        for telemetry in ([1, 2], {"snapshot": [1]},
                          {"snapshot": {"gauges": [5]}},
                          {"snapshot": {"last_poll": 5}}):
            torn.write_text(json.dumps({"version": CHECKPOINT_VERSION,
                                        "telemetry": telemetry}),
                            encoding="utf-8")
            assert main(["health", str(torn)]) == 2
            assert f"corrupt checkpoint {torn}" in capsys.readouterr().err
        # A watch resumed from a malformed sidecar: exit 2 naming the
        # file, never a traceback. Sidecars load at one version, so a
        # telemetry counter this build does not declare, or alert state
        # without its history, is corrupt too — not skipped or
        # defaulted.
        plain = tmp_path / "plain.ckpt.json"
        rules = tmp_path / "rules.toml"
        rules.write_text('[[rule]]\nname = "edges"\ntype = "new_edge"\n',
                         encoding="utf-8")
        watch = ["watch", str(populated_dir), "--once", "--no-dfg",
                 "--checkpoint", str(plain), "--rules", str(rules),
                 "--metrics-log", str(tmp_path / "plain.mlog")]
        assert main(watch) == 0
        saved = plain.read_text(encoding="utf-8")
        state = json.loads(saved)
        no_stats = {key: value for key, value in state.items()
                    if key != "stats"}
        bad_offset = json.loads(saved)
        bad_offset["files"][0]["offset"] = "abc"
        renamed = json.loads(saved)
        renamed["telemetry"]["snapshot"]["counters"][0]["name"] += "_x"
        no_history = json.loads(saved)
        del no_history["alerts"]["history"]
        for broken in (no_stats, bad_offset, [1, 2], renamed, no_history):
            plain.write_text(json.dumps(broken), encoding="utf-8")
            capsys.readouterr()
            assert main(watch) == 2
            assert f"corrupt checkpoint {plain}" in capsys.readouterr().err
        # Bytes that are not UTF-8 at all are as corrupt as torn JSON,
        # for health and for a resuming watch.
        plain.write_bytes(b"\xff\xfegarbage")
        capsys.readouterr()
        assert main(["health", str(plain)]) == 2
        assert f"corrupt checkpoint {plain}" in capsys.readouterr().err
        assert main(watch) == 2
        assert f"corrupt checkpoint {plain}" in capsys.readouterr().err

    def test_uninstrumented_sidecar_is_a_usage_error(self, tmp_path,
                                                     populated_dir,
                                                     capsys):
        """A sidecar from a watch run without --metrics-log/-port has
        no snapshot to judge — the error says how to get one and
        names the sidecar version it did find."""
        path = tmp_path / "plain.ckpt.json"
        assert main(["watch", str(populated_dir), "--once",
                     "--checkpoint", str(path), "--no-dfg"]) == 0
        capsys.readouterr()
        code = main(["health", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "no telemetry snapshot" in err
        assert f"version {CHECKPOINT_VERSION}" in err


class TestCompactionConfigExitCodes:
    def test_catalog_on_emit_journal_is_exit_2_naming_the_key(
            self, tmp_path, job_dir, capsys):
        """Shared catalog landing on a job's derived emit-journal
        path: rejected at config load, exit 2, and the message names
        the journal key so the operator can find the clash."""
        for name in ("app1", "app2"):
            job_dir(name)
        config = tmp_path / "fleet.toml"
        config.write_text(
            '[jobs.app1]\nsource = "app1"\nemit = "run.elog"\n'
            '[jobs.app2]\nsource = "app2"\n'
            'catalog = "run.elog.journal"\n',
            encoding="utf-8")
        code = main(["fleet", "--jobs", str(config), "--once"])
        assert code == 2
        err = capsys.readouterr().err
        assert "emit journal" in err
        assert "run.elog.journal" in err

    def test_compact_emit_without_checkpoint_is_exit_2(
            self, tmp_path, job_dir, capsys):
        job_dir("app1")
        config = tmp_path / "fleet.toml"
        config.write_text(
            '[jobs.app1]\nsource = "app1"\nemit = "run.elog"\n'
            'compact_emit = 65536\n', encoding="utf-8")
        code = main(["fleet", "--jobs", str(config), "--once"])
        assert code == 2
        assert "compact_emit" in capsys.readouterr().err
