"""Persistent run catalog with cross-run analytics and mined baselines.

Every other layer of the tool answers questions about *one* run (or a
pair, for diffs); the catalog answers longitudinal ones. One stdlib-
``sqlite3`` file persists, per run: the DFG edge list, the full
Sec. IV-B per-activity statistics vector, run metadata (source URI,
mapping, window, wall-clock span, tool version, a deterministic content
fingerprint), and the fired-alert history — recorded from any entry
layer (``convert``/``report --catalog``, a live watch's finalize, a
fleet job's ``catalog`` key) and queried from one (``st-inspector runs
list/show/diff/trend``).

On top of the store, the ``catalog:`` source scheme mines alert
baselines from history (``baseline = "catalog:cat.db?app=ior&agg=last"``
in a rules file): last run, or the per-edge union over the last K runs.

- :mod:`~repro.catalog.schema` — versioned SQLite layout, WAL +
  retry-on-busy transactional writes;
- :mod:`~repro.catalog.record` — the :class:`RunRecord` value object
  and the golden-shaped content fingerprint;
- :mod:`~repro.catalog.store` — :class:`RunCatalog`: record, restore
  (bit-identical statistics), query;
- :mod:`~repro.catalog.export` — :class:`AlertExportBuffer`, the
  standard consumer of the engine's pre-compaction export hook;
- :mod:`~repro.catalog.source` — :class:`CatalogSource`, the
  ``catalog:`` scheme and mined-baseline aggregation;
- :mod:`~repro.catalog.analytics` — the ``runs`` subcommand's
  list/show/diff/trend views.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "CATALOG_VERSION",
    "LOADABLE_VERSIONS",
    "AlertExportBuffer",
    "CatalogError",
    "CatalogSource",
    "RunCatalog",
    "RunRecord",
    "RunRow",
    "diff_runs",
    "render_trend",
    "run_fingerprint",
    "runs_table",
    "show_run",
    "trend_payload",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.catalog.analytics": ("diff_runs", "render_trend", "runs_table",
                                "show_run", "trend_payload"),
    "repro.catalog.export": ("AlertExportBuffer",),
    "repro.catalog.record": ("RunRecord", "run_fingerprint"),
    "repro.catalog.schema": ("CATALOG_VERSION", "LOADABLE_VERSIONS",
                             "CatalogError"),
    "repro.catalog.source": ("CatalogSource",),
    "repro.catalog.store": ("RunCatalog", "RunRow"),
})
