"""One definition of a watch job: ``watch`` rejects what a fleet
rejects.

Every per-job rule lives in ``JobSpec.validate()``. Each rejected job
below runs through ``st-inspector watch`` (exit 2, no traceback, none
of its paths created) and through ``parse_fleet_data``
(``FleetConfigError``), and both messages carry the same fragment.
"""

from __future__ import annotations

import argparse

import pytest

from repro._util.errors import ReproError
from repro.cli import build_parser, main
from repro.fleet import FleetConfigError, JobSpec
from repro.fleet.config import parse_fleet_data
from repro.fleet.job import MAPPING_NAMES, mapping_from_name

RULES = '[[rule]]\nname = "edges"\ntype = "new_edge"\n'

#: (id, watch flags, fleet job keys, shared message fragment). Paths
#: are file names under the test directory: the watch gets them
#: absolute, the fleet relative to its config directory, so both
#: name the same file. ``{X}`` stands for that absolute path.
CASES = [
    ("interval", ["--interval", "-1"], {"interval": -1},
     ">= 0 (got -1"),
    ("top", ["--top", "0"], {"top": 0}, ">= 1 (got 0)"),
    ("mapping", ["--mapping", "routes"], {"mapping": "routes"},
     "'routes'"),
    ("window", ["--window", "1"], {"window": 1}, ">= 2 (got 1)"),
    ("window-and-budget",
     ["--window", "64", "--memory-budget", "4096"],
     {"window": 64, "memory_budget": 4096}, "mutually exclusive"),
    ("compact-without-emit",
     ["--compact-emit", "1", "--checkpoint", "c.json"],
     {"compact_emit": 1, "checkpoint": "c.json"},
     "compact_emit but no emit"),
    ("compact-without-checkpoint",
     ["--compact-emit", "1", "--emit", "run.elog"],
     {"compact_emit": 1, "emit": "run.elog"},
     "compact_emit but no checkpoint"),
    ("alert-log-without-rules", ["--alert-log", "alerts.jsonl"],
     {"alert_log": "alerts.jsonl"}, "alert_log but no rules"),
    ("run-name-without-catalog", ["--run-name", "nightly"],
     {"run_name": "nightly"}, "run_name but no catalog"),
    ("checkpoint-is-alert-log",
     ["--rules", "rules.toml", "--checkpoint", "F",
      "--alert-log", "F"],
     {"rules": "rules.toml", "checkpoint": "F", "alert_log": "F"},
     "alert_log '{F}' collides with the job's checkpoint"),
    ("checkpoint-is-emit", ["--checkpoint", "F", "--emit", "F"],
     {"checkpoint": "F", "emit": "F"},
     "emit '{F}' collides with the job's checkpoint"),
    ("checkpoint-is-emit-journal",
     ["--checkpoint", "run.elog.journal", "--emit", "run.elog"],
     {"checkpoint": "run.elog.journal", "emit": "run.elog"},
     "emit journal '{run.elog.journal}' collides with the job's "
     "checkpoint"),
    ("checkpoint-is-catalog", ["--checkpoint", "F", "--catalog", "F"],
     {"checkpoint": "F", "catalog": "F"},
     "catalog '{F}' collides with the job's checkpoint"),
    ("checkpoint-segment-is-alert-log",
     ["--rules", "rules.toml", "--checkpoint", "F",
      "--alert-log", "F.intervals"],
     {"rules": "rules.toml", "checkpoint": "F",
      "alert_log": "F.intervals"},
     "alert_log '{F.intervals}' collides with the job's checkpoint "
     "segment"),
]

#: Path-valued flags: their values are made absolute for the watch.
PATH_FLAGS = ("--checkpoint", "--emit", "--alert-log", "--rules",
              "--catalog", "--metrics-log")


def _absolute(tmp_path, flags):
    """The flags with every path value made absolute under
    ``tmp_path``."""
    return [str(tmp_path / value) if flag in PATH_FLAGS else value
            for flag, value in zip([None, *flags], flags)]


def _fragment(tmp_path, fragment):
    for name in ("F", "F.intervals", "run.elog.journal"):
        fragment = fragment.replace("{" + name + "}",
                                    str(tmp_path / name))
    return fragment


def _watch(populated_dir, flags, capsys) -> tuple[int, str]:
    """Exit code and stderr of ``watch --once``; argparse rejections
    leave through SystemExit."""
    capsys.readouterr()
    try:
        code = main(["watch", str(populated_dir), "--once", "--no-dfg",
                     *flags])
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("flags, keys, fragment",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_watch_rejects_what_the_fleet_rejects(tmp_path, populated_dir,
                                              capsys, flags, keys,
                                              fragment):
    (tmp_path / "rules.toml").write_text(RULES, encoding="utf-8")
    fragment = _fragment(tmp_path, fragment)
    with pytest.raises(FleetConfigError) as excinfo:
        parse_fleet_data({"jobs": {"a": {"source": "traces", **keys}}},
                         where="fleet config inline",
                         base_dir=tmp_path)
    assert fragment in str(excinfo.value)
    code, err = _watch(populated_dir, _absolute(tmp_path, flags),
                       capsys)
    assert code == 2
    assert fragment in err
    assert "Traceback" not in err
    # A rejected watch creates none of its paths.
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        ["rules.toml", "traces"]


def test_watch_rejects_metrics_log_on_its_checkpoint(tmp_path,
                                                     populated_dir,
                                                     capsys):
    """``metrics_log`` is a watch-only write path (no fleet key): it
    must not land on the checkpoint either."""
    sidecar = tmp_path / "F"
    code, err = _watch(populated_dir,
                       ["--checkpoint", str(sidecar),
                        "--metrics-log", str(sidecar)], capsys)
    assert code == 2
    assert (f"metrics_log {str(sidecar)!r} collides with the job's "
            f"checkpoint") in err
    assert "Traceback" not in err
    assert not sidecar.exists()


def test_fleet_message_names_the_config_and_the_job(tmp_path):
    with pytest.raises(FleetConfigError,
                       match=r"^fleet config X: job 'a': key 'top' "
                             r"must be an integer >= 1 \(got 0\)$"):
        parse_fleet_data({"jobs": {"a": {"source": "t", "top": 0}}},
                         where="fleet config X", base_dir=tmp_path)


def test_build_validates_before_creating_anything(tmp_path,
                                                  populated_dir):
    catalog = tmp_path / "runs.db"
    spec = JobSpec(source=str(populated_dir), checkpoint=str(catalog),
                   catalog=str(catalog), run_name="x")
    with pytest.raises(ReproError, match="collides"):
        spec.build()
    assert not catalog.exists()


@pytest.mark.parametrize("changes, fragment", [
    ({"interval": True}, "key 'interval' must be a number >= 0"),
    ({"top": 2.5}, "key 'top' must be an integer >= 1"),
    ({"show_dfg": 1}, "key 'show_dfg' must be a boolean"),
    ({"checkpoint": 7}, "key 'checkpoint' must be a string"),
    ({"polls": 0}, "key 'polls' must be an integer >= 1"),
])
def test_validate_checks_types_and_bounds(tmp_path, changes, fragment):
    with pytest.raises(ReproError, match=fragment):
        JobSpec(source=str(tmp_path), **changes).validate()


def _choices(parser: argparse.ArgumentParser, command: str) -> tuple:
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    (mapping,) = [action for action in sub.choices[command]._actions
                  if "--mapping" in action.option_strings]
    return tuple(mapping.choices)


def test_one_list_of_mapping_names(tmp_path):
    """Both ``--mapping`` choice lists and the fleet's accepted values
    are exactly the names ``mapping_from_name`` builds."""
    parser = build_parser()
    assert _choices(parser, "watch") == _choices(parser, "report") \
        == MAPPING_NAMES
    for name in MAPPING_NAMES:
        mapping_from_name(name)
        (spec,) = parse_fleet_data(
            {"jobs": {"a": {"source": "t", "mapping": name}}},
            where="inline", base_dir=tmp_path)
        assert spec.mapping == name
    with pytest.raises(ReproError, match="unknown mapping"):
        mapping_from_name("routes")


class _Built(Exception):
    pass


def test_watch_flags_not_given_leave_the_spec_defaults(monkeypatch,
                                                       tmp_path):
    """The watch parser passes only the flags given: a bare watch
    builds exactly ``JobSpec(source=DIR)``."""
    def build(spec):
        raise _Built(spec)

    monkeypatch.setattr(JobSpec, "build", build)
    with pytest.raises(_Built) as excinfo:
        main(["watch", str(tmp_path)])
    assert excinfo.value.args == (JobSpec(source=str(tmp_path)),)
