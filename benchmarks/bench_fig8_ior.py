"""Fig. 8: IOR single-shared-file vs file-per-process at paper scale.

96 MPI ranks across 2 nodes, ``-t 1m -b 16m -s 3 -w -r -C -e``
(Fig. 7b), traced for openat/read/write variants. Reproduced and
checked:

- Fig. 8a — DFG over all events: $SCRATCH openat+write dominate the
  relative duration; preamble nodes ($SOFTWARE, $HOME, Node Local)
  exist with negligible load.
- Fig. 8b — $SCRATCH-only DFG, split by access path: SSF openat/write
  loads dwarf FPP's; FPP per-process write rate exceeds SSF's; SSF
  max-concurrency hits the rank count while FPP stays well below.

Absolute loads depend on the authors' GPFS testbed; orderings and
coarse ratios are asserted.
"""

import pytest

from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import SiteVariables
from repro.core.statistics import IOStatistics
from repro.simulate.workloads.ior import JUWELS_SITE_VARIABLES

from conftest import PAPER_RANKS, paper_vs_measured


@pytest.fixture(scope="module")
def exp_a_log(ior_exp_a_dir):
    return EventLog.from_source(ior_exp_a_dir)


def test_fig8a_full_dfg(benchmark, exp_a_log):
    def synthesize():
        log = exp_a_log.with_mapping(SiteVariables(JUWELS_SITE_VARIABLES))
        return log, DFG(log), IOStatistics(log)

    log, dfg, stats = benchmark.pedantic(synthesize, rounds=3,
                                         iterations=1)
    rd = {a: stats[a].relative_duration for a in stats.activities()}
    paper_vs_measured("Fig. 8a — relative durations (all events)", [
        ("openat:$SCRATCH", "0.55", f"{rd['openat:$SCRATCH']:.2f}"),
        ("write:$SCRATCH", "0.43", f"{rd['write:$SCRATCH']:.2f}"),
        ("read:$SCRATCH", "0.02", f"{rd['read:$SCRATCH']:.2f}"),
        ("write:Node Local", "0.00",
         f"{rd['write:Node Local']:.2f}"),
        ("read:$SOFTWARE", "0.00", f"{rd['read:$SOFTWARE']:.2f}"),
    ])
    assert rd["openat:$SCRATCH"] + rd["write:$SCRATCH"] > 0.85
    assert rd["openat:$SCRATCH"] > rd["write:$SCRATCH"] > \
        rd["read:$SCRATCH"]
    for light in ("write:Node Local", "read:$SOFTWARE",
                  "openat:$SOFTWARE", "openat:$HOME",
                  "openat:Node Local"):
        assert rd[light] < 0.02, light
    # Structural counts (the figure's 192-edge backbone).
    assert dfg.node_frequency("openat:$SCRATCH") == 192
    assert dfg.node_frequency("write:$SCRATCH") == 9216
    assert dfg.node_frequency("read:$SCRATCH") == 9216
    assert dfg.edge_count("write:$SCRATCH", "write:$SCRATCH") == 9024


def test_fig8b_scratch_dfg(benchmark, exp_a_log):
    def synthesize():
        log = exp_a_log.filtered_fp("/p/scratch")
        log.apply_mapping_fn(
            SiteVariables(JUWELS_SITE_VARIABLES, extra_levels=1))
        return log, DFG(log), IOStatistics(log)

    log, dfg, stats = benchmark.pedantic(synthesize, rounds=3,
                                         iterations=1)

    def row(activity):
        s = stats[activity]
        rate = (f"{s.max_concurrency}x"
                f"{(s.process_data_rate or 0) / 1e6:.0f}"
                if s.process_data_rate else "-")
        return f"{s.relative_duration:.2f} / {rate}"

    paper_vs_measured("Fig. 8b — $SCRATCH only (rd / mc×MB/s)", [
        ("openat:$SCRATCH/ssf", "0.54 / -", row("openat:$SCRATCH/ssf")),
        ("write:$SCRATCH/ssf", "0.43 / 96x2780",
         row("write:$SCRATCH/ssf")),
        ("read:$SCRATCH/ssf", "0.01 / 96x4601",
         row("read:$SCRATCH/ssf")),
        ("openat:$SCRATCH/fpp", "0.01 / -", row("openat:$SCRATCH/fpp")),
        ("write:$SCRATCH/fpp", "0.00 / 29x3571",
         row("write:$SCRATCH/fpp")),
        ("read:$SCRATCH/fpp", "0.00 / 29x4465",
         row("read:$SCRATCH/fpp")),
    ])

    rd = {a: stats[a].relative_duration for a in stats.activities()}
    # Load orderings (the experiment's conclusion).
    assert rd["openat:$SCRATCH/ssf"] > rd["write:$SCRATCH/ssf"]
    assert rd["write:$SCRATCH/ssf"] > 5 * rd["read:$SCRATCH/ssf"]
    assert rd["openat:$SCRATCH/ssf"] > 10 * rd["openat:$SCRATCH/fpp"]
    assert rd["write:$SCRATCH/ssf"] > 10 * rd["write:$SCRATCH/fpp"]
    # Rates: FPP writes faster per process; reads comparable.
    ssf_w = stats["write:$SCRATCH/ssf"]
    fpp_w = stats["write:$SCRATCH/fpp"]
    assert fpp_w.process_data_rate > ssf_w.process_data_rate
    ratio = (stats["read:$SCRATCH/ssf"].process_data_rate
             / stats["read:$SCRATCH/fpp"].process_data_rate)
    assert 0.75 < ratio < 1.25
    # Concurrency: SSF pile-up reaches the rank count; FPP stays below.
    assert ssf_w.max_concurrency >= PAPER_RANKS - 2
    assert fpp_w.max_concurrency < PAPER_RANKS - 10
    # Volume: 4.83 GB each way per mode (96 × 3 × 16 MB).
    expected_bytes = PAPER_RANKS * 3 * (16 << 20)
    assert stats["write:$SCRATCH/ssf"].total_bytes == expected_bytes
    assert stats["read:$SCRATCH/fpp"].total_bytes == expected_bytes
    # Counts: one openat per rank and mode (Fig. 8b edges of 96).
    assert dfg.node_frequency("openat:$SCRATCH/ssf") == 96
    assert dfg.node_frequency("openat:$SCRATCH/fpp") == 96
    assert dfg.edge_count("write:$SCRATCH/ssf",
                          "write:$SCRATCH/ssf") == 4512
