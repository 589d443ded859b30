"""Overhead analysis of the full pipeline (Sec. V "Implementation").

Measures each stage of the paper's workflow at experiment-A scale:
parse (.st → cases), pack (cases → .elog), load (.elog → EventLog),
synthesize (map + DFG + stats), render. The store round trip is also
checked for losslessness: the DFG from the store must equal the DFG
from the raw traces.
"""

import pytest

from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import SiteVariables
from repro.core.render.dot import render_dot
from repro.core.statistics import IOStatistics
from repro.elstore.convert import convert_source
from repro.elstore.reader import EventLogStore, read_event_log
from repro.simulate.workloads.ior import JUWELS_SITE_VARIABLES

from conftest import paper_vs_measured


@pytest.fixture(scope="module")
def store_path(ior_exp_a_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("store") / "exp_a.elog"
    convert_source(ior_exp_a_dir, out)
    return out


def test_stage_parse(benchmark, ior_exp_a_dir):
    log = benchmark.pedantic(EventLog.from_source,
                             args=(ior_exp_a_dir,), rounds=3,
                             iterations=1)
    assert log.n_cases == 192


def test_stage_pack(benchmark, ior_exp_a_dir, tmp_path):
    counter = [0]

    def pack():
        counter[0] += 1
        return convert_source(
            ior_exp_a_dir, tmp_path / f"packed{counter[0]}.elog")

    out = benchmark.pedantic(pack, rounds=3, iterations=1)
    store = EventLogStore(out)
    assert store.n_cases == 192


def test_stage_load_store(benchmark, store_path):
    log = benchmark.pedantic(read_event_log, args=(store_path,),
                             rounds=3, iterations=1)
    assert log.n_cases == 192


def test_stage_synthesize(benchmark, store_path):
    base = read_event_log(store_path)

    def synthesize():
        log = base.with_mapping(SiteVariables(JUWELS_SITE_VARIABLES))
        return DFG(log), IOStatistics(log)

    dfg, stats = benchmark.pedantic(synthesize, rounds=3, iterations=1)
    assert dfg.n_nodes > 5


def test_stage_render(benchmark, store_path):
    log = read_event_log(store_path).with_mapping(
        SiteVariables(JUWELS_SITE_VARIABLES))
    dfg, stats = DFG(log), IOStatistics(log)
    text = benchmark(render_dot, dfg, stats)
    assert text.startswith("digraph")


def test_store_roundtrip_lossless(benchmark, ior_exp_a_dir, store_path):
    """.st → EventLog and .st → .elog → EventLog give identical DFGs."""
    mapping = SiteVariables(JUWELS_SITE_VARIABLES)

    def both():
        direct = EventLog.from_source(ior_exp_a_dir) \
            .with_mapping(mapping)
        stored = read_event_log(store_path).with_mapping(mapping)
        return DFG(direct), DFG(stored)

    direct_dfg, stored_dfg = benchmark.pedantic(both, rounds=1,
                                                iterations=1)
    assert direct_dfg == stored_dfg
    # Store is also the smaller artifact (packed, deduplicated paths).
    import os
    raw_bytes = sum(p.stat().st_size
                    for p in ior_exp_a_dir.glob("*.st"))
    packed_bytes = os.stat(store_path).st_size
    paper_vs_measured("Pipeline — storage footprint", [
        ("raw .st bytes", "-", f"{raw_bytes:,}"),
        (".elog bytes", "smaller", f"{packed_bytes:,}"),
    ])
    assert packed_bytes < raw_bytes
