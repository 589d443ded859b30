"""The live engine's option rules, in a module of their own: the CLI's
parser and :meth:`repro.fleet.job.JobSpec.validate` check a watch job
against them without loading the engine."""

from __future__ import annotations

from repro._util.errors import ReproError

#: The least value of each numeric engine option. ``window``'s is
#: :data:`repro.core.statistics.MIN_WINDOW`, written out so that the
#: CLI parser loads no NumPy (``tests/test_architecture.py`` pins the
#: two equal).
ENGINE_MINIMUMS = {"window": 2, "memory_budget": 1, "compact_emit": 1}


def check_engine_options(*, window: int | None = None,
                         memory_budget: int | None = None,
                         compact_emit: int | None = None,
                         emit=None, checkpoint=None) -> None:
    """Reject engine options :class:`LiveIngest` cannot honour — run
    by the engine before it touches anything, and by
    :meth:`repro.fleet.job.JobSpec.validate` for every watch job."""
    for key, value in (("window", window),
                       ("memory_budget", memory_budget),
                       ("compact_emit", compact_emit)):
        if value is not None and value < ENGINE_MINIMUMS[key]:
            raise ReproError(
                f"key {key!r} must be an integer >= "
                f"{ENGINE_MINIMUMS[key]} (got {value!r})")
    if window is not None and memory_budget is not None:
        raise ReproError(
            "window and memory_budget are mutually exclusive — the "
            "budget derives the window, pick one")
    if compact_emit is not None and not emit:
        raise ReproError("compact_emit but no emit (there is no "
                         "journal to compact)")
    if compact_emit is not None and not checkpoint:
        raise ReproError(
            "compact_emit but no checkpoint (compaction only packs "
            "journal bytes a durable sidecar already accounts for)")
