"""Self-observability for the live pipeline.

The system inspects other applications' I/O; this package makes the
inspector itself inspectable. Three layers, all stdlib-only:

- **Spans** (:mod:`repro.telemetry.spans`) — every watch poll becomes
  a :class:`PollSpan` with per-phase wall/CPU timings, recorded
  through a :class:`Telemetry` facade injected into the engine, the
  alert engine, and the watch loop. Disabled by default:
  :data:`NULL_TELEMETRY` makes every call site a no-op.
- **Metrics** (:mod:`repro.telemetry.metrics`) — counters, gauges and
  fixed-bucket histograms in a :class:`MetricsRegistry`; monotonic
  series persist their base in the checkpoint sidecar so rates
  survive kill/restart.
- **Exposition** (:mod:`repro.telemetry.exposition`,
  :mod:`repro.telemetry.health`) — Prometheus text + ``/healthz``
  verdict over a stdlib HTTP thread (``watch --metrics-port``), a
  JSONL snapshot log (``watch --metrics-log``), and the offline
  ``st-inspector health`` subcommand.

The cardinal rule: the observer must not perturb. Telemetry on or off
changes no DFG, no statistic, no alert — only what is *known* about
producing them.
"""

from repro.telemetry.exposition import (MetricsServer, append_snapshot,
                                        render_prometheus)
from repro.telemetry.health import (THRESHOLDS, health_from_snapshot,
                                    render_health)
from repro.telemetry.metrics import (DURATION_BUCKETS, METRICS, PREFIX,
                                     MetricsRegistry, rss_bytes)
from repro.telemetry.spans import (NULL_TELEMETRY, NullTelemetry,
                                   PollSpan, Telemetry)

__all__ = [
    "DURATION_BUCKETS",
    "METRICS",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "PREFIX",
    "PollSpan",
    "THRESHOLDS",
    "Telemetry",
    "append_snapshot",
    "health_from_snapshot",
    "render_health",
    "render_prometheus",
    "rss_bytes",
]
