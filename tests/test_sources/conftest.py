"""Fixtures for the trace-source suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.frame import COLUMN_ORDER


@pytest.fixture(scope="session")
def ls_traces(tmp_path_factory) -> Path:
    """The Fig. 1 six-trace directory (3× ``ls``, 3× ``ls -l``)."""
    from repro.simulate.workloads.ls import generate_fig1_traces

    directory = tmp_path_factory.mktemp("sources") / "traces"
    generate_fig1_traces(directory)
    return directory


@pytest.fixture(scope="session")
def ls_store(ls_traces, tmp_path_factory) -> Path:
    """The same run packed into an ``.elog`` container."""
    from repro.elstore.convert import convert_source

    return convert_source(
        ls_traces, tmp_path_factory.mktemp("sources_store") / "ls.elog")


@pytest.fixture()
def logs_identical():
    """Byte-identity assertion: every column array and string pool."""

    def check(one, other) -> None:
        assert len(one.frame) == len(other.frame)
        for column in COLUMN_ORDER:
            assert np.array_equal(one.frame.column(column),
                                  other.frame.column(column)), column
        for name in ("case", "cid", "host", "call", "fp", "activity"):
            assert (list(one.frame.pools.pool_for(name))
                    == list(other.frame.pools.pool_for(name))), name

    return check
