"""Fig. 1 (trace-file generation/naming) and Fig. 2 (parsing).

Fig. 1 pins the tracing setup: three MPI processes per command, one
trace file each, named ``<cid>_<host>_<rid>.st``. Fig. 2 pins the
record format; the bench measures parse throughput on paper-scale IOR
trace directories (96 ranks × two runs ≈ 28 k records) and checks the
preprocessing rules of Sec. III (merge, ERESTARTSYS, sorting).
"""

from pathlib import Path

import pytest

from repro.simulate.workloads.ls import generate_fig1_traces
from repro.strace.naming import parse_trace_filename
from repro.strace.reader import read_trace_dir, read_trace_file

from conftest import paper_vs_measured


def test_fig1_trace_generation(benchmark, tmp_path):
    """Regenerate the six Fig. 1 trace files; check the naming grammar."""
    counter = [0]

    def generate():
        out = tmp_path / f"run{counter[0]}"
        counter[0] += 1
        return generate_fig1_traces(out)

    ls_paths, ls_l_paths = benchmark(generate)
    assert [p.name for p in ls_paths] == [
        "a_host1_9042.st", "a_host1_9043.st", "a_host1_9045.st"]
    assert [p.name for p in ls_l_paths] == [
        "b_host1_9157.st", "b_host1_9158.st", "b_host1_9160.st"]
    for path in ls_paths + ls_l_paths:
        name = parse_trace_filename(path.name)
        assert name.host == "host1"
    paper_vs_measured("Fig. 1 — trace files per command", [
        ("files for ls", "3", str(len(ls_paths))),
        ("files for ls -l", "3", str(len(ls_l_paths))),
    ])


def test_fig2_single_file_parse(benchmark, ls_trace_dir):
    """Parse the Fig. 2a trace: 8 records with the documented fields."""
    path = ls_trace_dir / "a_host1_9042.st"
    case = benchmark(read_trace_file, path)
    assert len(case) == 8
    first = case.records[0]
    assert first.call == "read"
    assert first.fp.endswith("libselinux.so.1")
    assert first.size == 832
    assert first.ok


def test_fig2_parse_throughput_paper_scale(benchmark, ior_exp_a_dir):
    """Parse the full 192-file experiment-A directory."""
    cases = benchmark.pedantic(
        read_trace_dir, args=(ior_exp_a_dir,), rounds=3, iterations=1)
    n_records = sum(len(c) for c in cases)
    assert len(cases) == 192
    assert n_records > 20_000
    paper_vs_measured("Fig. 2 — experiment-A trace volume", [
        ("trace files", "192", str(len(cases))),
        ("records", "~28k (96 ranks × 2 runs)", str(n_records)),
    ])


def test_fig2c_unfinished_merge(benchmark, tmp_path):
    """The Fig. 2c split-record form parses into one merged record."""
    text = (
        "77423  16:56:40.452431 read(3</usr/lib/x86_64-linux-gnu/"
        "libselinux.so.1>, <unfinished ...>\n"
        "77423  16:56:40.452660 <... read resumed> ..., 405) = 404 "
        "<0.000223>\n")
    path = tmp_path / "c_host1_77423.st"
    path.write_text(text * 500)  # 500 interleaved pairs

    def parse():
        return read_trace_file(path)

    case = benchmark(parse)
    assert len(case) == 500
    assert case.merge_stats.merged_pairs == 500
    assert all(r.size == 404 for r in case.records)
