"""``repro.fleet`` — the multi-job fleet runtime behind live watching.

The live stack is layered so N jobs can share one process (and one
metrics port) while staying byte-for-byte equivalent to N independent
``st-inspector watch`` processes:

job layer (:mod:`repro.fleet.job`)
    :class:`JobSpec` (the declarative watch-argument wiring) builds a
    :class:`WatchJob` owning one engine plus its policy and IO, with
    the ``create → restore → poll_once → finalize`` lifecycle.

scheduler layer (:mod:`repro.fleet.scheduler`)
    :class:`FleetScheduler` deadline-schedules the jobs cooperatively
    and isolates per-job failures (``failed`` state, bounded-backoff
    rebuild-from-checkpoint restarts). :func:`run_fleet` is the
    driving entry point.

presentation (:mod:`repro.fleet.view`, :mod:`repro.fleet.telemetry`)
    :class:`FleetView` interleaves per-job frames under ``[name]``
    prefixes; :class:`FleetTelemetry` serves every job's metrics under
    a ``job`` label and a worst-of-jobs ``/healthz``.

``st-inspector watch`` is a one-job fleet (no view, no isolation):
``FleetScheduler([spec.build()]).run()``. Configuration for the
multi-job CLI lives in ``fleet.toml`` (:mod:`repro.fleet.config`, see
``docs/fleet.md``).
"""

from repro.fleet.config import (FleetConfigError, load_fleet_config,
                                parse_fleet_data)
from repro.fleet.job import JobSpec, PollOutcome, WatchJob
from repro.fleet.scheduler import FleetScheduler, run_fleet
from repro.fleet.telemetry import FleetTelemetry
from repro.fleet.view import FleetView

__all__ = [
    "FleetConfigError",
    "FleetScheduler",
    "FleetTelemetry",
    "FleetView",
    "JobSpec",
    "PollOutcome",
    "WatchJob",
    "load_fleet_config",
    "parse_fleet_data",
    "run_fleet",
]
