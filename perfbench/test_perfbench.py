"""The benchmark's own tests, at toy scale (seconds, not minutes).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("strace-compare", "elog-compare", "live-watch")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _bench(*args: str) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "toy", *args],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=170,
        check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


def _damage_a_line(inputs: Path, workload: str, *,
                   garble: bool = False) -> None:
    """Deletes the fourth line of the first staged trace file, or with
    ``garble`` replaces it with a line strict parsing rejects."""
    staged = inputs / ("replay" if workload == "live-watch" else "st")
    victim = sorted(staged.iterdir())[0]
    lines = victim.read_text().splitlines(keepends=True)
    lines[3] = "not a strace line\n" if garble else ""
    victim.write_text("".join(lines))


def test_every_workload_checks_out_at_toy_scale():
    result, out = _bench("--workload", "all", "--seed", "3",
                         "--seconds", "0.5")
    assert result["correct"], out
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0, (workload, metric["name"])


def test_traced_run_reports_every_per_layer_metric():
    result, out = _bench("--workload", "live-watch", "--seed", "4",
                         "--seconds", "0.5", "--trace", "1")
    assert result["correct"], out
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_traced_run_reports_failed_ops(monkeypatch, capsys):
    import run

    real_generate = run.generate

    def generate_then_damage(workload, args, work, deadline):
        seconds = real_generate(workload, args, work, deadline)
        # strace-compare's set-up raises; the others' ops fail checks
        _damage_a_line(work / "inputs", workload,
                       garble=workload == "strace-compare")
        return seconds

    monkeypatch.setattr(run, "generate", generate_then_damage)
    monkeypatch.chdir(ROOT)
    assert run.main(["--scale", "toy", "--workload", "strace-compare",
                     "--seed", "6", "--seconds", "0.5", "--trace", "1"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["attempted"] > 0 and result["failed"] > 0
    for workload in WORKLOADS:
        assert f"== {workload} traced" in out
    assert out.count("not measured, because ops failed") == len(WORKLOADS)


class _RaisingBatch:
    """A batch workload whose every op raises after set-up."""

    def attempt(self, result) -> None:
        result.outcome(["untraced op raised"])

    def op(self):
        raise RuntimeError("traced op raised")


def test_a_raising_traced_op_is_a_failed_op(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import measure

    result = measure.Result()
    args = SimpleNamespace(seconds=0.0, workload="strace-compare",
                           work=tmp_path)
    measure.trace_batch(args, _RaisingBatch(), result)
    assert result.data["attempted"] == result.data["failed"] == 6
    assert "RuntimeError: traced op raised" in result.data["problems"]
    assert result.data["layers"] == {}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_deleted_trace_line_fails_ops(workload, tmp_path):
    inputs = tmp_path / "inputs"
    subprocess.run([sys.executable, str(HERE / "generate.py"),
                    "--workload", workload, "--seed", "5", "--scale", "toy",
                    "--out", str(inputs)],
                   cwd=ROOT, env=_env(), check=True, capture_output=True)
    _damage_a_line(inputs, workload)
    out = tmp_path / "result.json"
    subprocess.run([sys.executable, str(HERE / "measure.py"),
                    "--workload", workload, "--inputs", str(inputs),
                    "--work", str(tmp_path / "work"), "--seconds", "0.2",
                    "--mode", "run", "--counts", "--out", str(out)],
                   cwd=ROOT, env=_env(), check=True, capture_output=True)
    result = json.loads(out.read_text())
    assert result["attempted"] > 0
    assert result["failed"] > 0 or result.get("live_failed")
