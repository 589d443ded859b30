"""Every parse and merge error names the file and the line — the same
line in batch reading, the column path (in process and on a process
pool) and the live follower."""

from __future__ import annotations

import pytest

from repro._util.errors import TraceParseError
from repro.live.tail import FileTail
from repro.sources import StraceDirSource
from repro.strace.reader import read_trace_file

GOOD = "1  10:00:00.000001 close(3</x>) = 0 <0.000001>\n"

#: Two-line traces whose second line is bad, and what the error says.
REPROS = {
    "stray bracket in the args": (
        GOOD + "1  10:00:00.000002 read(3</x>, ]..., 5) = 5 <0.000001>\n",
        "unbalanced"),
    "unreadable return clause": (
        GOOD + "1  10:00:00.000002 read(3</x>, ..., 5) = 10 xx\n",
        "unparseable return clause"),
    "resumed without its unfinished half": (
        GOOD + "1  10:00:00.000900 <... read resumed> ..., 5) = 5 "
        "<0.000899>\n",
        "without a matching unfinished"),
    "resumed as another call": (
        "1  10:00:00.000001 read(3</x>, <unfinished ...>\n"
        "1  10:00:00.000900 <... write resumed> ..., 5) = 5 <0.000899>\n",
        "resumed as 'write'"),
    "two calls in flight on one pid": (
        "1  10:00:00.000001 read(3</x>, <unfinished ...>\n"
        "1  10:00:00.000002 read(3</x>, <unfinished ...>\n",
        "two in-flight"),
    "unfinished head without a syscall name": (
        GOOD + "1  10:00:00.000002 ??? <unfinished ...>\n",
        "not an unfinished record"),
    "bad return clause of a merged pair": (
        "1  10:00:00.000001 read(3</x>, <unfinished ...>\n"
        "1  10:00:00.000900 <... read resumed> ..., 5) = 5 xx\n",
        "unparseable return clause"),
}


@pytest.fixture(params=sorted(REPROS))
def bad_trace(request, tmp_path):
    text, message = REPROS[request.param]
    path = tmp_path / "a_host1_1.st"
    path.write_text(text)
    return path, message


def _error(call) -> TraceParseError:
    with pytest.raises(TraceParseError) as excinfo:
        call()
    return excinfo.value


def test_batch_read_names_path_and_line(bad_trace):
    path, message = bad_trace
    error = _error(lambda: read_trace_file(path))
    assert (error.path, error.lineno) == (str(path), 2)
    assert message in str(error)
    assert f"[{path}:2]" in str(error)


def test_column_path_names_the_same_line(bad_trace):
    path, message = bad_trace
    error = _error(StraceDirSource(path.parent, workers=1).event_log)
    assert (error.path, error.lineno) == (str(path), 2)
    assert message in str(error)


def test_pool_workers_name_the_same_line(bad_trace):
    """A parse error raised in a pool worker reaches the caller as the
    same located error the in-process parse raises."""
    path, _ = bad_trace
    (path.parent / "a_host1_2.st").write_text(GOOD)
    errors = [_error(StraceDirSource(path.parent, workers=workers).event_log)
              for workers in (1, 2)]
    assert [(e.path, e.lineno, str(e)) for e in errors] == \
        [(str(path), 2, str(errors[0]))] * 2


def test_live_follower_names_the_same_line(bad_trace):
    path, message = bad_trace
    tail = FileTail(path)
    error = _error(lambda: [tail.poll(), tail.finish()])
    assert (error.path, error.lineno) == (str(path), 2)
    assert message in str(error)


def test_first_bad_line_wins_over_a_later_undecodable_one(tmp_path):
    """A parse error before an undecodable line in the same block is
    the error reported — by batch reading and by the live follower."""
    path = tmp_path / "a_host1_1.st"
    path.write_bytes(
        GOOD.encode()
        + b"1  10:00:00.000002 read(3</x>, ]..., 5) = 5 <0.000001>\n"
        + b"1  10:00:00.000003 read(3</\xff>, ..., 5) = 5 <0.000001>\n")
    batch = _error(lambda: read_trace_file(path))
    live = _error(FileTail(path).poll)
    assert batch.lineno == live.lineno == 2
    assert "unbalanced" in str(batch) and "unbalanced" in str(live)
