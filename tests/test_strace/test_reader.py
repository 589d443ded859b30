"""Trace file/directory reading (cases per Sec. IV)."""

import pytest

from repro._util.errors import TraceParseError
from repro.strace.naming import TraceFileName, parse_trace_filename
from repro.strace.reader import (discover_trace_files, read_trace_dir,
                                 read_trace_file)


class TestReadFile:
    def test_fig2a_file(self, fig1_dir):
        case = read_trace_file(fig1_dir / "a_host1_9042.st")
        assert case.case_id == "a9042"
        assert len(case) == 8
        assert case.records[0].call == "read"
        assert case.records[-1].call == "write"
        assert case.records[-1].fp == "/dev/pts/7"

    def test_records_sorted_by_start(self, fig1_dir):
        case = read_trace_file(fig1_dir / "b_host1_9157.st")
        starts = [r.start_us for r in case.records]
        assert starts == sorted(starts)

    def test_name_override(self, tmp_path):
        path = tmp_path / "weird-name.log"
        path.write_text(
            "1  00:00:00.000001 close(3</x>) = 0 <0.000001>\n")
        case = read_trace_file(
            path, name=TraceFileName("z", "h", 1))
        assert case.case_id == "z1"

    def test_unnamed_nonconvention_file_rejected(self, tmp_path):
        path = tmp_path / "weird-name.log"
        path.write_text("")
        with pytest.raises(TraceParseError):
            read_trace_file(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "a_h_1.st"
        path.write_text(
            "\n1  00:00:00.000001 close(3</x>) = 0 <0.000001>\n\n")
        case = read_trace_file(path)
        assert len(case) == 1

    def test_merge_stats_exposed(self, tmp_path):
        path = tmp_path / "a_h_1.st"
        path.write_text(
            "1  00:00:00.000001 read(3</x>, <unfinished ...>\n"
            "1  00:00:00.000900 <... read resumed> ..., 5) = 5 "
            "<0.000899>\n")
        case = read_trace_file(path)
        assert case.merge_stats.merged_pairs == 1
        assert len(case) == 1


class TestReadDir:
    def test_all_six_cases(self, fig1_dir):
        cases = read_trace_dir(fig1_dir)
        assert len(cases) == 6
        assert [c.case_id for c in cases] == [
            "a9042", "a9043", "a9045", "b9157", "b9158", "b9160"]

    def test_cid_filter(self, fig1_dir):
        cases = read_trace_dir(fig1_dir, cids={"a"})
        assert [c.case_id for c in cases] == ["a9042", "a9043", "a9045"]

    def test_empty_cid_filter_rejected(self, fig1_dir):
        with pytest.raises(TraceParseError):
            read_trace_dir(fig1_dir, cids={"zzz"})

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(TraceParseError):
            read_trace_dir(tmp_path / "nope")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(TraceParseError):
            read_trace_dir(tmp_path)

    def test_non_st_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        (tmp_path / "a_h_1.st").write_text(
            "1  00:00:00.000001 close(3</x>) = 0 <0.000001>\n")
        cases = read_trace_dir(tmp_path)
        assert len(cases) == 1


class TestDiscoverFlat:
    LINE = "1  00:00:00.000001 close(3</x>) = 0 <0.000001>\n"

    @staticmethod
    def _pathlib_rule(directory):
        """The flat scan as ``pathlib`` spells it: every entry, sorted
        as paths, kept when its suffix is ``.st`` and it is a file."""
        return [(path, parse_trace_filename(path.name))
                for path in sorted(directory.iterdir())
                if path.suffix == ".st" and path.is_file()]

    def test_matches_the_pathlib_rule(self, tmp_path):
        for name in ("b_h_2.st", "a_h_1.st", ".x_h_9.st", "notes.txt",
                     "a_h_1.st.bak", "st", ".st"):
            (tmp_path / name).write_text(self.LINE)
        (tmp_path / "d_h_4.st").mkdir()
        (tmp_path / "c_h_3.st").symlink_to(tmp_path / "a_h_1.st")
        (tmp_path / "e_h_5.st").symlink_to(tmp_path / "gone")
        found = discover_trace_files(tmp_path)
        assert found == self._pathlib_rule(tmp_path)
        # The hidden ".st" has no suffix; the directory and the
        # dangling link are not files.
        assert [path.name for path, _ in found] == [
            ".x_h_9.st", "a_h_1.st", "b_h_2.st", "c_h_3.st"]
