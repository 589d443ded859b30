"""DFG and timeline renderers (DOT / SVG / ASCII).

Graphviz is not a dependency: :func:`render_dot` emits DOT *text* that
external tooling may consume, while :func:`render_svg` (via the layered
layout in :mod:`repro.core.render.layout`) and :func:`render_ascii` are
fully self-contained. :class:`DFGViewer` is the paper's Fig. 6 facade
over all three.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "render_ascii",
    "render_dot",
    "render_svg",
    "render_timeline_ascii",
    "render_timeline_svg",
    "render_profile_ascii",
    "render_profile_svg",
    "activity_label_lines",
    "node_label_lines",
    "Layout",
    "NodeBox",
    "layout_dfg",
    "BLUES",
    "GREENS",
    "GREEN_EDGE",
    "GREEN_FILL",
    "RED_EDGE",
    "RED_FILL",
    "pick_font_color",
    "shade",
    "DFGViewer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.render.ascii": ("render_ascii",),
    "repro.core.render.dot": ("render_dot",),
    "repro.core.render.labels": ("activity_label_lines", "node_label_lines"),
    "repro.core.render.layout": ("Layout", "NodeBox", "layout_dfg"),
    "repro.core.palette": ("BLUES", "GREENS", "GREEN_EDGE", "GREEN_FILL",
                           "RED_EDGE", "RED_FILL", "pick_font_color", "shade"),
    "repro.core.render.profile": ("render_profile_ascii",
                                  "render_profile_svg"),
    "repro.core.render.svg": ("render_svg",),
    "repro.core.render.timeline": ("render_timeline_ascii",
                                   "render_timeline_svg"),
    "repro.core.render.viewer": ("DFGViewer",),
})
