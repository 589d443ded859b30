"""Live alerting: threshold rules over DFG/statistics refresh deltas.

The point of DFG inspection is to *notice* pathological I/O — relations
that should not exist, load that doubled, data rates that collapsed,
files whose sealing starves. ``repro.live`` renders those; this
subsystem makes them **page**: a declarative
:class:`~repro.alerts.engine.AlertEngine` is evaluated once per
:meth:`~repro.live.engine.LiveIngest.poll`, firing structured
:class:`~repro.alerts.model.Alert` records into pluggable sinks and
the ``st-inspector watch`` pane.

Layering (bottom → top):

- :mod:`repro.alerts.model` — the :class:`Alert` record and its
  schedule-independent ``(rule, kind, subject)`` identity.
- :mod:`repro.alerts.rules` — the rule vocabulary
  (``new_edge``, ``edge_weight_ratio``, ``activity_load_ratio``,
  ``stat_threshold``, ``watermark_age``), each a latched predicate
  over one :class:`~repro.alerts.rules.RefreshContext`.
- :mod:`repro.alerts.config` — the TOML/JSON rules-file loader
  (``st-inspector watch --rules rules.toml``); every validation error
  names the offending rule.
- :mod:`repro.alerts.sinks` — stderr lines, JSONL streams, webhook
  commands.
- :mod:`repro.alerts.queue` — the optional bounded background
  :class:`~repro.alerts.queue.DeliveryQueue` (``[sinks.queue]``) that
  keeps poll wall-time independent of sink latency.
- :mod:`repro.alerts.engine` — :class:`AlertEngine`: evaluation,
  history, baseline resolution, checkpoint state.

The live discipline extends here: for latched rules over monotone
conditions the fired-alert identity multiset is a deterministic
function of the final directory — independent of the poll schedule and
of kill/restart cycles (latches and history persist in checkpoint
sidecars). Pinned by ``tests/test_alerts/test_alert_properties.py``.

Full rule/file reference: ``docs/rules.md``.
"""

from repro.alerts.model import Alert
from repro.alerts.rules import (
    RULE_TYPES,
    ActivityLoadRatioRule,
    AlertConfigError,
    EdgeWeightRatioRule,
    NewEdgeRule,
    RefreshContext,
    Rule,
    StatThresholdRule,
    WatermarkAgeRule,
)
from repro.alerts.config import (
    RulesFileConfig,
    build_rule,
    load_rules_file,
)
from repro.alerts.queue import DeliveryQueue, QueueConfig
from repro.alerts.sinks import (
    AlertSink,
    AlertSinkWarning,
    CommandSink,
    HttpSink,
    JsonlSink,
    SinkFailureThrottle,
    StderrSink,
)
from repro.alerts.engine import AlertEngine, empty_alert_state

__all__ = [
    "Alert",
    "AlertConfigError",
    "AlertEngine",
    "AlertSink",
    "AlertSinkWarning",
    "ActivityLoadRatioRule",
    "CommandSink",
    "DeliveryQueue",
    "EdgeWeightRatioRule",
    "HttpSink",
    "JsonlSink",
    "NewEdgeRule",
    "QueueConfig",
    "RefreshContext",
    "Rule",
    "RULE_TYPES",
    "RulesFileConfig",
    "SinkFailureThrottle",
    "StatThresholdRule",
    "StderrSink",
    "WatermarkAgeRule",
    "build_rule",
    "empty_alert_state",
    "load_rules_file",
]
