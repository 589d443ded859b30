"""Query composition and the end-to-end InspectionSession."""

import pytest

from repro._util.errors import MappingError
from repro.core.mapping import CallPathTail, CallTopDirs
from repro.pipeline.query import Query
from repro.pipeline.session import InspectionSession


class TestQuery:
    def test_empty_query_is_identity(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        log = session.event_log
        assert Query().apply(log) is log

    def test_fp_contains(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        q = Query().fp_contains("/usr/lib")
        assert q.apply(session.event_log).n_events == 18

    def test_conjunction(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        q = Query().fp_contains("/etc").calls("read").cids("b")
        filtered = q.apply(session.event_log)
        # ls -l /etc reads: locale.alias×2 + nsswitch×2 + passwd + group
        assert filtered.n_events == 3 * 6

    def test_time_window(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        frame = session.event_log.frame
        lo = int(frame.column("start").min())
        q = Query().time_window(lo, lo + 1)
        assert q.apply(session.event_log).n_events >= 1

    def test_fp_matches_and_where(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        q = Query().fp_matches(lambda p: p.endswith(".conf"))
        assert q.apply(session.event_log).n_events == 6
        q2 = Query().where(lambda fr: fr.call_in(["write"]), "writes")
        assert q2.apply(session.event_log).n_events == 15

    def test_describe(self):
        q = Query().fp_contains("/x").calls("read")
        text = q.describe()
        assert "/x" in text and "read" in text and "AND" in text
        assert Query().describe() == "(all events)"
        assert len(q) == 2


class TestSession:
    def test_fig6_pipeline(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        session.filter_fp("/usr/lib").map_default()
        assert session.dfg.activities() == {"read:/usr/lib"}
        assert session.stats["read:/usr/lib"].event_count == 18

    def test_requires_mapping(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        with pytest.raises(MappingError):
            _ = session.dfg
        with pytest.raises(MappingError):
            _ = session.stats

    def test_artifacts_cached_and_invalidated(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        session.map_default()
        dfg1 = session.dfg
        assert session.dfg is dfg1          # cached
        session.filter_fp("/etc")
        session.map_default()
        assert session.dfg is not dfg1      # invalidated

    def test_render_formats(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        session.map_default()
        assert "NODES" in session.render("ascii")
        assert session.render("dot").startswith("digraph")

    def test_save(self, fig1_dir, tmp_path):
        session = InspectionSession.from_source(fig1_dir)
        session.map_default()
        out = session.save(tmp_path / "graph.svg")
        assert out.read_text().startswith("<svg")

    def test_compare_cids(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        session.map_default()
        viewer = session.compare_cids(green=["a"])
        text = viewer.render("ascii")
        assert "[R] read:/etc/passwd" in text

    def test_custom_mapping(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        session.filter_fp("/usr/lib").map(CallPathTail(levels=2))
        assert "read:x86_64-linux-gnu/libc.so.6" in \
            session.dfg.activities()

    def test_query_filter(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        session.filter(Query().calls("write")).map_default()
        assert session.dfg.activities() == {"write:/dev/pts"}

    def test_timeline(self, ls_sim_dir):
        session = InspectionSession.from_source(ls_sim_dir)
        session.map_default()
        text = session.timeline("read:/usr/lib")
        assert "timeline" in text
        svg = session.timeline("read:/usr/lib", fmt="svg")
        assert svg.startswith("<svg")

    def test_from_store(self, fig1_dir, tmp_path):
        from repro.core.eventlog import EventLog
        from repro.elstore.writer import write_event_log

        path = write_event_log(
            EventLog.from_source(fig1_dir), tmp_path / "x.elog")
        session = InspectionSession.from_source(path)
        session.map_default()
        assert session.dfg.n_nodes == 10


class TestSessionExtensions:
    def test_profile(self, ls_sim_dir):
        session = InspectionSession.from_source(ls_sim_dir)
        session.map_default()
        text = session.profile("read:/usr/lib")
        assert "peak 2" in text
        assert session.profile("read:/usr/lib", fmt="svg") \
            .startswith("<svg")

    def test_counters(self, fig1_dir):
        session = InspectionSession.from_source(fig1_dir)
        text = session.counters()
        assert "a9042" in text
