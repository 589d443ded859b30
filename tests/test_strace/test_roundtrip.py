"""Property-based round trip: strace writer → tokenizer/parser/merger.

The simulator's strace writer and the parser are independent
implementations of the same text format; hypothesis drives arbitrary
syscall records through writer → parser and requires every attribute
to survive. This is the strongest guarantee that simulated experiments
exercise the identical code path as real traces.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.simulate.recording import ProcessRecorder, SyscallRecord
from repro.simulate.strace_writer import write_strace_text
from repro.strace.resume import merge_unfinished
from repro.strace.tokenizer import tokenize_line

paths = st.sampled_from([
    "/p/scratch/ssf/test", "/etc/passwd", "/dev/shm/seg.0",
    "/usr/lib/x86_64-linux-gnu/libc.so.6", "/tmp/x/y/z",
])


@st.composite
def trace_record_sequences(draw, min_size=1, max_size=10):
    """A sequence of records as one process would produce them: a
    single pid, strictly sequential (one in-flight syscall at a time —
    a kernel thread cannot overlap its own calls), timestamps
    accumulated from gaps so the sequence stays within the day."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    clock = draw(st.integers(min_value=0, max_value=80_000_000_000))
    records = []
    for _ in range(n):
        call = draw(st.sampled_from(
            ["read", "write", "pread64", "pwrite64"]))
        requested = draw(st.integers(min_value=0, max_value=1 << 22))
        size = draw(st.integers(min_value=0, max_value=requested))
        dur = draw(st.integers(min_value=0, max_value=10**6))
        records.append(SyscallRecord(
            pid=4711,
            call=call,
            start_us=clock,
            dur_us=dur,
            path=draw(paths),
            fd=draw(st.integers(min_value=3, max_value=1023)),
            size=size,
            requested=requested,
            args_hint=(str(draw(st.integers(0, 10**12)))
                       if call.startswith("p") else None),
        ))
        clock += dur + draw(st.integers(min_value=1, max_value=10**6))
    return records


def roundtrip(records):
    recorder = ProcessRecorder(cid="t", host="h", rid=1, pid=1)
    recorder.records.extend(records)
    text = write_strace_text(recorder)
    tokens = [tokenize_line(line) for line in text.splitlines()]
    parsed, stats = merge_unfinished(tokens)
    return parsed, stats


@given(trace_record_sequences())
@settings(max_examples=150)
def test_transfer_attributes_survive(records):
    parsed, _ = roundtrip(records)
    assert len(parsed) == len(records)
    for original, recovered in zip(records, parsed):
        assert recovered.pid == original.pid
        assert recovered.call == original.call
        assert recovered.fp == original.path
        assert recovered.size == original.size
        assert recovered.dur_us == original.dur_us
        # Wall clock wraps at 24 h; inputs are constrained below that.
        assert recovered.start_us == original.start_us


@given(trace_record_sequences(max_size=8),
       st.floats(min_value=0.999, max_value=1.0))
@settings(max_examples=60)
def test_unfinished_split_roundtrip(records, prob):
    """With forced unfinished/resumed splitting, the merger must
    recover the identical records (start from the unfinished half,
    size/dur from the resumed half)."""
    recorder = ProcessRecorder(cid="t", host="h", rid=1, pid=1)
    recorder.records.extend(records)
    text = write_strace_text(
        recorder, unfinished_probability=prob,
        rng=np.random.default_rng(1))
    tokens = [tokenize_line(line) for line in text.splitlines()]
    parsed, stats = merge_unfinished(tokens)
    assert len(parsed) == len(records)
    for original, recovered in zip(
            sorted(records, key=lambda r: r.start_us),
            parsed):
        assert recovered.call == original.call
        assert recovered.size == original.size
        assert recovered.start_us == original.start_us
        assert recovered.dur_us == original.dur_us


def test_openat_roundtrip_success_and_failure():
    recorder = ProcessRecorder(cid="t", host="h", rid=1, pid=9)
    recorder.record(call="openat", start_us=100, dur_us=10,
                    path="/etc/passwd", ret_fd=3,
                    args_hint="O_RDONLY|O_CLOEXEC")
    recorder.record(call="openat", start_us=200, dur_us=4,
                    path="/lib/nope.so",
                    args_hint="O_RDONLY|O_CLOEXEC")  # no ret_fd → ENOENT
    text = write_strace_text(recorder)
    tokens = [tokenize_line(line) for line in text.splitlines()]
    parsed, _ = merge_unfinished(tokens)
    ok, failed = parsed
    assert ok.fp == "/etc/passwd" and ok.size is None and ok.ok
    assert failed.fp == "/lib/nope.so" and failed.errno == "ENOENT"


def test_lseek_fsync_close_roundtrip():
    recorder = ProcessRecorder(cid="t", host="h", rid=1, pid=9)
    recorder.record(call="lseek", start_us=1, dur_us=2,
                    path="/p/s/t", fd=3, args_hint="16777216",
                    retval=16777216)
    recorder.record(call="fsync", start_us=10, dur_us=4500,
                    path="/p/s/t", fd=3)
    recorder.record(call="close", start_us=20, dur_us=2,
                    path="/p/s/t", fd=3)
    text = write_strace_text(recorder)
    tokens = [tokenize_line(line) for line in text.splitlines()]
    parsed, _ = merge_unfinished(tokens)
    lseek, fsync, close = parsed
    assert lseek.ok and lseek.fp == "/p/s/t"
    assert lseek.size is None          # Sec. III: size only for r/w
    assert fsync.dur_us == 4500
    assert close.call == "close"


def test_call_filtering_emulates_strace_e():
    recorder = ProcessRecorder(cid="t", host="h", rid=1, pid=9)
    recorder.record(call="lseek", start_us=1, dur_us=2, path="/x", fd=3,
                    args_hint="0", retval=0)
    recorder.record(call="read", start_us=5, dur_us=2, path="/x", fd=3,
                    requested=10, size=10)
    text = write_strace_text(recorder, trace_calls={"read"})
    assert "lseek" not in text
    assert "read" in text
