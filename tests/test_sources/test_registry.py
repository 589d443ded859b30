"""URI grammar, registry resolution, autodetection, capability flags."""

from __future__ import annotations

import pytest

from repro._util.errors import SourceError, TraceParseError
from repro.sources import (
    CsvLogSource,
    ElstoreSource,
    SimulationSource,
    StraceDirSource,
    TraceSource,
    UnsupportedSourceOptionWarning,
    open_source,
    parse_source_spec,
    register_source,
    registered_schemes,
)


class TestSpecParsing:
    def test_bare_path_has_no_scheme(self):
        spec = parse_source_spec("traces/")
        assert spec.scheme is None
        assert spec.target == "traces/"

    def test_scheme_and_target(self):
        spec = parse_source_spec("strace:traces/")
        assert spec.scheme == "strace"
        assert spec.target == "traces/"
        assert spec.options == {}

    def test_query_options(self):
        spec = parse_source_spec("sim:ior?ranks=4&fpp=1&api=posix")
        assert spec.scheme == "sim"
        assert spec.target == "ior"
        assert spec.options == {"ranks": "4", "fpp": "1", "api": "posix"}

    def test_scheme_is_case_insensitive(self):
        assert parse_source_spec("ELOG:x.elog").scheme == "elog"

    def test_question_mark_in_bare_path_is_not_query(self):
        spec = parse_source_spec("odd?name")
        assert spec.scheme is None
        assert spec.target == "odd?name"

    def test_single_letter_prefix_is_a_path(self):
        # Keeps Windows-style drive paths (and one-letter names with a
        # colon) out of the scheme grammar.
        assert parse_source_spec("c:whatever").scheme is None

    def test_malformed_option_rejected(self):
        with pytest.raises(SourceError, match="key=value"):
            parse_source_spec("sim:ior?ranks")

    def test_duplicate_option_rejected(self):
        with pytest.raises(SourceError, match="duplicate"):
            parse_source_spec("sim:ior?ranks=1&ranks=2")


class TestResolution:
    def test_directory_autodetects_to_strace(self, ls_traces):
        assert isinstance(open_source(str(ls_traces)), StraceDirSource)

    def test_trailing_slash_directory(self, ls_traces):
        source = open_source(str(ls_traces) + "/")
        assert isinstance(source, StraceDirSource)
        assert source.event_log().n_cases == 6

    def test_pathlike_accepted(self, ls_traces):
        assert isinstance(open_source(ls_traces), StraceDirSource)

    def test_elog_file_autodetects_to_store(self, ls_store):
        assert isinstance(open_source(str(ls_store)), ElstoreSource)

    def test_csv_suffix_autodetects(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("cid,host,rid,pid,call,start,dur,fp,size\n")
        assert isinstance(open_source(str(path)), CsvLogSource)

    def test_explicit_schemes(self, ls_traces, ls_store, tmp_path):
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("cid,host,rid,pid,call,start,dur,fp,size\n")
        assert isinstance(open_source(f"strace:{ls_traces}"),
                          StraceDirSource)
        assert isinstance(open_source(f"elog:{ls_store}"), ElstoreSource)
        assert isinstance(open_source(f"csv:{csv_path}"), CsvLogSource)
        assert isinstance(open_source("sim:ls"), SimulationSource)

    def test_unknown_scheme_names_known_ones(self, tmp_path):
        with pytest.raises(SourceError) as exc:
            open_source("bogus:whatever")
        message = str(exc.value)
        assert "unknown source scheme 'bogus'" in message
        for scheme in registered_schemes():
            assert f"{scheme}:" in message

    def test_missing_path_is_a_clear_error(self, tmp_path):
        with pytest.raises(SourceError, match="source not found"):
            open_source(str(tmp_path / "nope"))

    def test_existing_file_with_colon_in_name(self, tmp_path):
        # A real file whose name merely looks scheme-prefixed must
        # still resolve by autodetection.
        path = tmp_path / "odd:name.csv"
        path.write_text("cid,host,rid,pid,call,start,dur,fp,size\n")
        assert isinstance(open_source(str(path)), CsvLogSource)

    def test_empty_directory_fails_at_event_log(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        source = open_source(str(empty))
        with pytest.raises(TraceParseError, match="no .st trace files"):
            source.event_log()

    def test_mixed_directory_ignores_non_st_files(self, ls_traces,
                                                  ls_store, tmp_path):
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        for trace in ls_traces.glob("*.st"):
            (mixed / trace.name).write_bytes(trace.read_bytes())
        (mixed / "run.elog").write_bytes(ls_store.read_bytes())
        (mixed / "notes.txt").write_text("not a trace\n")
        log = open_source(str(mixed)).event_log()
        assert log.n_cases == 6

    def test_scheme_with_stray_options_rejected(self, ls_traces):
        with pytest.raises(SourceError, match="takes no .options"):
            open_source(f"strace:{ls_traces}?x=1")


class TestCapabilityFlags:
    def test_strace_dir_capabilities(self, ls_traces):
        source = open_source(str(ls_traces))
        assert source.supports_workers
        assert source.supports_recursive
        assert source.supports_tail

    def test_workers_on_strace_dir_does_not_warn(self, ls_traces,
                                                 recwarn):
        open_source(str(ls_traces), workers=2)
        assert not [w for w in recwarn.list if issubclass(
            w.category, UnsupportedSourceOptionWarning)]

    @pytest.mark.parametrize("fixture,scheme", [
        ("ls_store", "elog"),
    ])
    def test_workers_on_store_warns(self, fixture, scheme, request):
        path = request.getfixturevalue(fixture)
        with pytest.warns(UnsupportedSourceOptionWarning,
                          match="workers=4 ignored"):
            open_source(f"{scheme}:{path}", workers=4)

    def test_workers_on_sim_warns(self):
        with pytest.warns(UnsupportedSourceOptionWarning,
                          match="workers=2 ignored"):
            open_source("sim:ls", workers=2)

    def test_workers_one_never_warns(self, ls_store, recwarn):
        # 1 = "sequential", which every source trivially satisfies.
        open_source(f"elog:{ls_store}", workers=1)
        assert not [w for w in recwarn.list if issubclass(
            w.category, UnsupportedSourceOptionWarning)]

    def test_recursive_on_store_warns(self, ls_store):
        with pytest.warns(UnsupportedSourceOptionWarning,
                          match="recursive=True ignored"):
            open_source(f"elog:{ls_store}", recursive=True)


class TestRegistration:
    def test_register_duplicate_rejected(self):
        with pytest.raises(SourceError, match="already registered"):
            register_source("strace", StraceDirSource.from_uri)

    def test_register_invalid_scheme_rejected(self):
        with pytest.raises(SourceError, match="invalid scheme"):
            register_source("9bad", StraceDirSource.from_uri)

    def test_third_party_scheme_plugs_in(self, ls_traces):
        class EchoSource(StraceDirSource):
            scheme = "echotest"

        register_source("echotest", EchoSource.from_uri, replace=True)
        try:
            source = open_source(f"echotest:{ls_traces}")
            assert isinstance(source, EchoSource)
            assert isinstance(source, TraceSource)
            assert source.event_log().n_cases == 6
        finally:
            from repro.sources import registry

            registry._REGISTRY.pop("echotest", None)


class TestReviewRegressions:
    """Pinned fixes from the redesign's review pass."""

    def test_in_place_convert_refused_not_destroyed(self, ls_store,
                                                    tmp_path):
        """convert elog:x.elog x.elog must refuse, not truncate+delete
        the input."""
        from repro.elstore.convert import convert_source

        target = tmp_path / "run.elog"
        target.write_bytes(ls_store.read_bytes())
        before = target.read_bytes()
        with pytest.raises(SourceError, match="destroy the input"):
            convert_source(f"elog:{target}", target)
        assert target.read_bytes() == before  # input untouched

    def test_in_place_csv_convert_refused(self, tmp_path):
        from repro.elstore.convert import convert_source

        path = tmp_path / "log.csv"
        path.write_text("cid,host,rid,pid,call,start,dur,fp,size\n"
                        "x,h1,1,5,read,100,50,/f,10\n")
        with pytest.raises(SourceError, match="destroy the input"):
            convert_source(str(path), path)
        assert path.exists()

    def test_multi_host_case_refused_not_relabeled(self, tmp_path):
        """A (cid, rid) case spanning hosts cannot silently collapse to
        the first host in per-case storage."""
        from repro.elstore.convert import convert_source

        path = tmp_path / "multi.csv"
        path.write_text("cid,host,rid,pid,call,start,dur,fp,size\n"
                        "a,host1,1,5,read,100,50,/f,10\n"
                        "a,host2,1,6,read,200,50,/f,10\n")
        # Direct load keeps both hosts ...
        log = open_source(str(path)).event_log()
        assert log.hosts() == ["host1", "host2"]
        # ... so streaming it into a single-host-per-case store must
        # refuse rather than relabel host2's event.
        with pytest.raises(SourceError, match="spans hosts"):
            convert_source(str(path), tmp_path / "out.elog")

    def test_registered_scheme_beats_existing_file(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sim:ls").write_text("not a trace\n")
        assert isinstance(open_source("sim:ls"), SimulationSource)

    def test_malformed_query_falls_back_to_existing_file(self, tmp_path):
        path = tmp_path / "odd:file?x"
        path.write_text("cid,host,rid,pid,call,start,dur,fp,size\n")
        # Unregistered prefix + malformed ?query, but the file exists:
        # resolve it (suffix-less → elog attempt would error on magic,
        # so name it .csv to prove resolution happened).
        csv_path = tmp_path / "odd:file?x.csv"
        csv_path.write_text("cid,host,rid,pid,call,start,dur,fp,size\n")
        assert isinstance(open_source(str(csv_path)), CsvLogSource)

    def test_lenient_on_store_warns(self, ls_store):
        with pytest.warns(UnsupportedSourceOptionWarning,
                          match="lenient"):
            open_source(f"elog:{ls_store}", strict=False)

    def test_lenient_on_strace_dir_does_not_warn(self, ls_traces,
                                                 recwarn):
        open_source(str(ls_traces), strict=False)
        assert not [w for w in recwarn.list if issubclass(
            w.category, UnsupportedSourceOptionWarning)]

    def test_options_on_prebuilt_source_rejected(self, ls_traces):
        """from_source(StraceDirSource(...), cids=...) must raise, not
        silently drop the option."""
        from repro.core.eventlog import EventLog

        source = StraceDirSource(ls_traces)
        with pytest.raises(SourceError, match="already-constructed"):
            EventLog.from_source(source, cids={"a"})
        with pytest.raises(SourceError, match="already-constructed"):
            EventLog.from_source(source, workers=2)
        # Defaults are fine: the source's own options rule.
        assert EventLog.from_source(source).n_cases == 6

    def test_options_on_prebuilt_source_rejected_by_convert(
            self, ls_traces, tmp_path):
        from repro.elstore.convert import convert_source

        with pytest.raises(SourceError, match="already-constructed"):
            convert_source(StraceDirSource(ls_traces),
                           tmp_path / "o.elog", cids={"a"})

    def test_repack_byte_identical_when_orders_diverge(self, tmp_path):
        """Repack must follow the container's append order, not sorted
        case-id order, to stay byte-identical."""
        from repro.elstore.convert import convert_source

        directory = tmp_path / "traces"
        directory.mkdir()
        line = ("5  08:55:54.153994 read(3</usr/lib/x.so>, ..., 832)"
                " = 832 <0.000203>\n")
        # Sorted-path (= append) order: a_aaa_2.st before a_zzz_1.st;
        # sorted case-id order: "a1" before "a2" — a genuine flip,
        # because the host sits in the filename but not in the case id.
        for name in ["a_zzz_1.st", "a_aaa_2.st"]:
            (directory / name).write_text(line)
        first = convert_source(directory, tmp_path / "one.elog")
        second = convert_source(f"elog:{first}", tmp_path / "two.elog")
        assert first.read_bytes() == second.read_bytes()

    def test_case_key_collision_refused(self, tmp_path):
        """cid 'a' rid 12 and cid 'a1' rid 2 both key as 'a12' — the
        converter must refuse rather than relabel."""
        from repro.elstore.convert import convert_source

        path = tmp_path / "collide.csv"
        path.write_text("cid,host,rid,pid,call,start,dur,fp,size\n"
                        "a,h1,12,5,read,100,50,/f,10\n"
                        "a1,h1,2,6,read,200,50,/f,10\n")
        with pytest.raises(SourceError, match="spans cids"):
            convert_source(str(path), tmp_path / "out.elog")

    def test_sim_ls_shares_fig1_constants(self, ls_traces,
                                          logs_identical):
        """sim:ls must track generate_fig1_traces through the shared
        fig1_recorders helper."""
        from repro.core.eventlog import EventLog

        logs_identical(open_source("sim:ls").event_log(),
                       EventLog.from_source(str(ls_traces)))
