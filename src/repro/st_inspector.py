"""The paper's public API, by its exact Fig. 6 names.

The paper's implementation is the Zenodo-published ``st_inspector``
library; its Fig. 6 listing is::

    import pandas as pd
    from st_inspector import *

    event_log = EventLogH5(H5_FILE_PATH)
    event_log.apply_fp_filter('/usr/lib')
    event_log.apply_mapping_fn(f)
    dfg = DFG(event_log)
    stats = IOStatistics()
    stats.compute_statistics(event_log)
    colored_dfg = DFGViewer(dfg, styler=StatisticsColoring(stats))
    colored_dfg.render()
    green_event_log, red_event_log = PartitionEL(event_log)
    green_dfg = DFG(green_event_log)
    red_dfg = DFG(red_event_log)
    partition_coloring = PartitionColoring(green_dfg, red_dfg, stats)
    colored_dfg = DFGViewer(dfg, styler=partition_coloring)
    colored_dfg.render()

This module makes ``from repro.st_inspector import *`` provide every
name that listing uses, with matching call signatures, so the paper's
code runs against this reproduction as printed — the only difference
being the storage backend: ``EventLogH5`` opens our ``.elog`` columnar
container instead of HDF5 (h5py is unavailable; see
:mod:`repro.elstore`).
The alias accepts either a store path or a directory of raw ``.st``
trace files, covering both halves of the paper's pipeline.

Beyond Fig. 6, the facade also carries the two entry points this
reproduction *adds* to the paper's workflow — live monitoring and
alerting — so a script that starts from the paper's imports can reach
them without learning the package layout::

    from repro.st_inspector import LiveIngest, AlertEngine

    engine = LiveIngest("traces/",
                        alerts=AlertEngine.from_rules_file("rules.toml"))

(`docs/architecture.md` maps the full system; Fig. 6 names stay
byte-compatible with the paper.)
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.alerts import AlertEngine
from repro.core.coloring import PartitionColoring, StatisticsColoring
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import (
    CallOnly,
    CallPath,
    CallPathTail,
    CallTopDirs,
    SiteVariables,
)
from repro.core.partition import PartitionEL
from repro.core.render.viewer import DFGViewer
from repro.core.statistics import IOStatistics
from repro.live.engine import LiveIngest

__all__ = [
    "EventLogH5",
    "EventLog",
    "DFG",
    "IOStatistics",
    "DFGViewer",
    "StatisticsColoring",
    "PartitionColoring",
    "PartitionEL",
    "CallTopDirs",
    "CallPathTail",
    "CallPath",
    "CallOnly",
    "SiteVariables",
    # extensions beyond the paper's Fig. 6 listing:
    "LiveIngest",
    "AlertEngine",
]


def EventLogH5(path: str | os.PathLike[str]) -> EventLog:
    """Open a stored event-log — the ``EventLogH5(H5_FILE_PATH)`` of
    Fig. 6.

    Accepts an ``.elog`` container (the HDF5-equivalent single file,
    one group per case) or, for convenience, any other trace source
    the registry resolves (:func:`repro.sources.open_source`): a
    directory of raw ``<cid>_<host>_<rid>.st`` strace files, a CSV
    dump, or a scheme URI.
    """
    return EventLog.from_source(Path(path))
