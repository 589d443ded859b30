"""Any trace source → ``.elog`` conversion.

The paper's pipeline: "after recording the traces ... the relevant data
from individual trace files are parsed and combined efficiently into a
suitable data format (such as a single HDF5 file)" (Sec. III, fn. 2).
:func:`convert_source` is that step generalized over the
:class:`~repro.sources.TraceSource` API: any source that can enumerate
cases streams into a single container — a strace directory, a CSV
dump, a simulated workload (``sim:ior?ranks=4``), or another ``.elog``
(re-packing). A bare directory autodetects to ``strace:``, whose cases
stream from the process-pool dispatcher of :mod:`repro.ingest.parallel`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.elstore.writer import DEFAULT_CHUNK_VALUES, EventLogWriter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sources import TraceSource


def convert_source(
    source: "TraceSource | str | os.PathLike[str]",
    dest_path: str | os.PathLike[str],
    *,
    cids: set[str] | None = None,
    strict: bool = True,
    recursive: bool = False,
    workers: int | None = None,
    chunk_values: int = DEFAULT_CHUNK_VALUES,
) -> Path:
    """Stream any trace source into one ``.elog`` container.

    ``source`` is a ready :class:`~repro.sources.TraceSource` or a
    spec resolved by :func:`~repro.sources.open_source` (scheme URI or
    bare path). Cases stream in the source's deterministic order —
    memory stays O(case), and for strace directories the written bytes
    are identical for every worker count (the store is append-ordered
    and discovery order is sorted).

    Returns the destination path. On any per-case error the container
    is not left half-written — the writer removes the file.
    """
    from repro._util.errors import SourceError
    from repro.sources.registry import resolve_source

    source = resolve_source(source, cids=cids, strict=strict,
                            recursive=recursive, workers=workers)
    # An in-place conversion (elog:x.elog → x.elog, csv → itself) would
    # truncate the input before the lazy case iterator reads it — and
    # the writer's error cleanup would then delete it. Refuse up front.
    source_path = getattr(source, "path", None)
    if (source_path is not None
            and Path(source_path).resolve() == Path(dest_path).resolve()):
        raise SourceError(
            f"convert destination {dest_path} is the source itself; "
            f"writing would destroy the input — choose a different "
            f"output path")
    with EventLogWriter(dest_path, chunk_values=chunk_values) as writer:
        for case in source.iter_cases():
            writer.add_case_arrays(
                case_id=case.name.case_id,
                cid=case.name.cid,
                host=case.name.host,
                rid=case.name.rid,
                columns=case.columns(),
                call_strings=case.calls,
                path_strings=case.paths,
            )
    return Path(dest_path)

