"""Node-label composition shared by all renderers.

Fig. 3a of the paper defines the node semantics::

    <CALL_NAME>
    <DIRECTORY_PATH>
    Load: <RELATIVE_DUR>/<BYTES_MOVED>
    DR: <MAX_CONC> x <PROCESS_DATA_RATE>

Activities produced by the built-in mappings are ``call:path`` strings
(the paper's Fig. 6 listing embeds a newline instead of the colon — we
split on the *first* separator so both spellings render identically).
Statistics lines come from
:class:`~repro.core.statistics.ActivityStats`; sentinel nodes (● / ■)
render as bare glyphs.
"""

from __future__ import annotations

from repro.core.activity import SENTINELS
from repro.core.mapping import DEFAULT_SEPARATOR
from repro.core.statistics import IOStatistics


def activity_label_lines(activity: str,
                         separator: str = DEFAULT_SEPARATOR) -> list[str]:
    """Split an activity into its call / path display lines.

    ``"read:/usr/lib"`` → ``["read", "/usr/lib"]``;
    ``"read\\n/usr/lib"`` → the same; activities without a separator
    (e.g. bare call names) stay single-line.
    """
    if activity in SENTINELS:
        return [activity]
    if "\n" in activity:
        head, _, tail = activity.partition("\n")
        return [head, tail] if tail else [head]
    head, sep, tail = activity.partition(separator)
    if sep and tail:
        return [head, tail]
    return [activity]


def node_label_lines(
    activity: str,
    stats: IOStatistics | None = None,
    *,
    show_ranks: bool = False,
    separator: str = DEFAULT_SEPARATOR,
) -> list[str]:
    """Full label for one node: activity lines + Load/DR stat lines.

    ``show_ranks`` adds the ``Ranks: N`` annotation seen in Fig. 3c
    (distinct rids behind the activity; the paper does not define
    that figure element).
    """
    lines = activity_label_lines(activity, separator)
    if stats is None or activity in SENTINELS:
        return lines
    activity_stats = stats.get(activity)
    if activity_stats is None:
        return lines
    lines.append(activity_stats.load_label)
    dr = activity_stats.dr_label
    if dr is not None:
        lines.append(dr)
    if show_ranks:
        lines.append(f"Ranks: {activity_stats.ranks}")
    return lines
