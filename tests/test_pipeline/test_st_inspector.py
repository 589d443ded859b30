"""The paper's Fig. 6 listing must run against the facade as printed."""

import pytest

from repro.core.eventlog import EventLog
from repro.elstore.writer import write_event_log


@pytest.fixture()
def store_path(fig1_dir, tmp_path):
    return write_event_log(EventLog.from_source(fig1_dir),
                           tmp_path / "fig1.elog")


def test_paper_fig6_listing_runs_verbatim(store_path):
    """Every step of the paper's Fig. 6, with the printed names.

    The only permitted deviation is the storage backend behind
    ``EventLogH5`` (our .elog container instead of HDF5).
    """
    from repro.st_inspector import (
        DFG,
        DFGViewer,
        EventLogH5,
        IOStatistics,
        PartitionColoring,
        PartitionEL,
        StatisticsColoring,
    )

    # 0) Pointer to the event-log file
    event_log = EventLogH5(store_path)

    # 1) Filter the event log
    event_log.apply_fp_filter("/usr/lib")

    # 2a/2b) Implement and apply the mapping fn (verbatim from Fig. 6,
    # modulo the listing's two typos: `dir` for `dirs` and the nested
    # f-string quotes, which are invalid Python as printed).
    def f(event) -> str:
        fp = event["fp"]
        dirs = fp.split("/")
        if len(dirs) > 2:
            fp = f"/{dirs[1]}/{dirs[2]}"
        return f"{event['call']}\n{fp}"

    event_log.apply_mapping_fn(f)

    # 3) Construct the DFG
    dfg = DFG(event_log)

    # 4) Compute I/O statistics
    stats = IOStatistics()
    stats.compute_statistics(event_log)

    # 5a) Statistics-based coloring
    colored_dfg = DFGViewer(dfg, styler=StatisticsColoring(stats))
    rendered = colored_dfg.render()
    assert "read\\n/usr/lib" in rendered
    assert "Load:" in rendered

    # 5b) Partition-based coloring
    green_event_log, red_event_log = PartitionEL(event_log)
    green_dfg = DFG(green_event_log)
    red_dfg = DFG(red_event_log)
    partition_coloring = PartitionColoring(green_dfg, red_dfg, stats)
    colored_dfg = DFGViewer(dfg, styler=partition_coloring)
    assert colored_dfg.render().startswith("digraph")


def test_eventlogh5_accepts_trace_directory(fig1_dir):
    from repro.st_inspector import EventLogH5

    event_log = EventLogH5(fig1_dir)
    assert event_log.n_cases == 6


def test_star_import_provides_fig6_names():
    import repro.st_inspector as facade

    names = set(facade.__all__)
    for required in ("EventLogH5", "DFG", "IOStatistics", "DFGViewer",
                     "StatisticsColoring", "PartitionEL",
                     "PartitionColoring"):
        assert required in names
