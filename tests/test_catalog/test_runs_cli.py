"""The query layer: ``st-inspector runs list/show/diff/trend``, the
``--catalog`` flags of convert/report/watch, and the shared ``--json``
serializer (satellite: ``report --json`` / ``diff --json``)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.statistics import METRIC_NAMES


@pytest.fixture
def fig1_cataloged(tmp_path, fig1_dir, capsys):
    """Two batch runs of the Fig. 1 dir recorded via ``report``."""
    catalog = tmp_path / "cat.db"
    for name in ("app1", "app2"):
        assert main(["report", str(fig1_dir), "--catalog", str(catalog),
                     "--run-name", name]) == 0
    capsys.readouterr()
    return catalog


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


class TestBatchRecording:
    def test_report_catalog_announces_the_run(self, tmp_path,
                                              fig1_dir, capsys):
        catalog = tmp_path / "cat.db"
        assert main(["report", str(fig1_dir),
                     "--catalog", str(catalog)]) == 0
        out = capsys.readouterr().out
        assert "cataloged run 1" in out
        # Default run name: the source directory's basename.
        assert f"({Path(fig1_dir).name!r})" in out

    def test_convert_catalog_records_the_packed_store(self, tmp_path,
                                                      fig1_dir,
                                                      capsys):
        catalog = tmp_path / "cat.db"
        out_elog = tmp_path / "fig1.elog"
        assert main(["convert", str(fig1_dir), str(out_elog),
                     "--catalog", str(catalog),
                     "--run-name", "packed"]) == 0
        assert main(["runs", "list", str(catalog), "--json"]) == 0
        capsys.readouterr()  # drop convert output, keep parsing simple
        assert main(["runs", "list", str(catalog), "--json"]) == 0
        (row,) = _json_out(capsys)
        assert row["name"] == "packed"
        assert row["n_events"] > 0

    @pytest.mark.parametrize("command", ["report", "convert"])
    def test_run_name_without_catalog_is_a_usage_error(
            self, tmp_path, fig1_dir, capsys, command):
        """A run name labels a cataloged run: without --catalog it is
        rejected in a fleet job's words, before the source is read."""
        out_elog = tmp_path / "fig1.elog"
        argv = [command, str(fig1_dir),
                *([str(out_elog)] if command == "convert" else []),
                "--run-name", "nightly"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "run_name but no catalog" in captured.err
        assert captured.out == ""
        assert not out_elog.exists()

    def test_report_json_is_machine_readable(self, fig1_dir, capsys):
        assert main(["report", str(fig1_dir), "--json"]) == 0
        payload = _json_out(capsys)
        assert set(payload) == {"total_duration_us", "n_activities",
                                "activities"}
        by_name = {row["activity"]: row
                   for row in payload["activities"]}
        assert by_name["read:/usr/lib"]["event_count"] == 18
        for metric in METRIC_NAMES:
            assert metric in by_name["read:/usr/lib"]

    def test_diff_json_is_machine_readable(self, fig1_dir, capsys):
        assert main(["diff", str(fig1_dir), "--green", "a",
                     "--json"]) == 0
        payload = _json_out(capsys)
        for key in ("jaccard_nodes", "jaccard_edges",
                    "total_count_delta", "added_edges",
                    "vanished_edges", "edge_deltas",
                    "activity_deltas"):
            assert key in payload, key


class TestRunsList:
    def test_table_and_json_agree(self, fig1_cataloged, capsys):
        assert main(["runs", "list", str(fig1_cataloged)]) == 0
        table = capsys.readouterr().out
        assert "app1" in table and "app2" in table
        assert main(["runs", "list", str(fig1_cataloged),
                     "--json"]) == 0
        rows = _json_out(capsys)
        assert [row["name"] for row in rows] == ["app1", "app2"]
        assert rows[0]["mapping"] == "call+top2dirs"

    def test_filters(self, fig1_cataloged, capsys):
        assert main(["runs", "list", str(fig1_cataloged),
                     "--app", "app2", "--json"]) == 0
        (row,) = _json_out(capsys)
        assert row["name"] == "app2"
        assert main(["runs", "list", str(fig1_cataloged),
                     "--app", "ghost"]) == 0
        assert "no matching runs" in capsys.readouterr().out

    def test_missing_catalog_exits_2(self, tmp_path, capsys):
        assert main(["runs", "list", str(tmp_path / "nope.db")]) == 2
        assert "no such run catalog" in capsys.readouterr().err

    def test_newer_version_exits_2(self, fig1_cataloged, capsys):
        import sqlite3

        with sqlite3.connect(fig1_cataloged) as conn:
            conn.execute("PRAGMA user_version = 99")
        assert main(["runs", "list", str(fig1_cataloged)]) == 2
        assert "unsupported catalog version" in \
            capsys.readouterr().err


class TestRunsShow:
    def test_show_renders_metadata_and_statistics(self,
                                                  fig1_cataloged,
                                                  capsys):
        assert main(["runs", "show", str(fig1_cataloged), "app1"]) == 0
        out = capsys.readouterr().out
        assert "app1" in out
        assert "call+top2dirs" in out
        assert "read:/usr/lib" in out

    def test_show_json_shape(self, fig1_cataloged, capsys):
        assert main(["runs", "show", str(fig1_cataloged), "1",
                     "--json"]) == 0
        payload = _json_out(capsys)
        assert set(payload) == {"run", "statistics", "alerts"}
        assert payload["run"]["id"] == 1
        assert payload["alerts"] == []
        activities = {row["activity"]
                      for row in payload["statistics"]["activities"]}
        assert "read:/usr/lib" in activities

    def test_unknown_run_exits_2(self, fig1_cataloged, capsys):
        assert main(["runs", "show", str(fig1_cataloged),
                     "ghost"]) == 2
        assert "no run named 'ghost'" in capsys.readouterr().err


class TestRunsDiff:
    def test_diff_report_equals_dfgdiff(self, fig1_cataloged, capsys):
        from repro.catalog import RunCatalog
        from repro.core.diff import DFGDiff

        assert main(["runs", "diff", str(fig1_cataloged),
                     "app1", "app2"]) == 0
        out = capsys.readouterr().out
        assert "green: run 1 ('app1'), red: run 2 ('app2')" in out
        catalog = RunCatalog(fig1_cataloged, create=False)
        expected = DFGDiff(catalog.dfg(1), catalog.dfg(2),
                           catalog.statistics(1),
                           catalog.statistics(2)).report(top=10)
        assert out.endswith(expected)

    def test_diff_json_shares_the_batch_serializer(self,
                                                   fig1_cataloged,
                                                   capsys):
        assert main(["runs", "diff", str(fig1_cataloged), "1", "2",
                     "--json"]) == 0
        payload = _json_out(capsys)
        assert set(payload) == {"green", "red", "diff"}
        # Identical runs: perfect overlap, no deltas.
        assert payload["diff"]["jaccard_edges"] == 1.0
        assert payload["diff"]["added_edges"] == []
        assert payload["diff"]["total_count_delta"] == 0


class TestRunsTrend:
    def test_trend_table(self, fig1_cataloged, capsys):
        assert main(["runs", "trend", str(fig1_cataloged),
                     "--metric", "event_count"]) == 0
        out = capsys.readouterr().out
        assert "trend of event_count across 2 runs" in out
        assert "read:/usr/lib" in out

    def test_trend_json_orders_by_latest_value(self, fig1_cataloged,
                                               capsys):
        assert main(["runs", "trend", str(fig1_cataloged),
                     "--metric", "event_count", "--json"]) == 0
        payload = _json_out(capsys)
        assert payload["metric"] == "event_count"
        assert [run["id"] for run in payload["runs"]] == [1, 2]
        values = [row["values"][-1]
                  for row in payload["activities"]]
        assert values == sorted(values, reverse=True)
        assert payload["activities"][0]["values"] == [18, 18]

    def test_activity_filter(self, fig1_cataloged, capsys):
        assert main(["runs", "trend", str(fig1_cataloged),
                     "--metric", "total_bytes",
                     "--activity", "read:/usr/lib", "--json"]) == 0
        payload = _json_out(capsys)
        assert len(payload["activities"]) == 1
        assert main(["runs", "trend", str(fig1_cataloged),
                     "--activity", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_metric_choices_are_the_paper_vector(self):
        """argparse rejects a non-Sec.-IV-B metric at parse time."""
        with pytest.raises(SystemExit):
            main(["runs", "trend", "cat.db", "--metric", "velocity"])


class TestWatchRecording:
    def test_watch_once_catalogs_the_run(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main(["simulate-ls", str(trace_dir)]) == 0
        catalog = tmp_path / "cat.db"
        assert main(["watch", str(trace_dir), "--once",
                     "--interval", "0",
                     "--catalog", str(catalog)]) == 0
        capsys.readouterr()
        assert main(["runs", "list", str(catalog), "--json"]) == 0
        (row,) = _json_out(capsys)
        assert row["name"] == "traces"  # the --run-name default
        assert row["n_polls"] == 1
        assert row["n_events"] == 75
        assert row["wall_span_s"] is not None
