"""The original object-per-wire SVG renderer.

:func:`layout_to_svg_legacy` draws one :class:`~tests.oracles.wires.Wire`
at a time: each segment as a line, and a dot at every bend where
:meth:`~tests.oracles.wires.Wire.vias` finds a layer change.
:func:`repro.viz.svg.layout_to_svg` draws from the table's columns and
must produce the same bytes.
"""

from __future__ import annotations

from typing import Optional

from repro.layout.model import Layout
from repro.viz.svg import _color

from .wires import table_to_wires

__all__ = ["layout_to_svg_legacy"]


def layout_to_svg_legacy(
    layout: Layout,
    scale: float = 4.0,
    margin: float = 10.0,
    node_fill: str = "#dddddd",
    show_vias: bool = True,
    max_wires: Optional[int] = None,
) -> str:
    """Object-per-wire :func:`repro.viz.svg.layout_to_svg`."""
    x0, y0, x1, y1 = layout.bounding_box()
    W = (x1 - x0) * scale + 2 * margin
    H = (y1 - y0) * scale + 2 * margin

    def tx(x: int) -> float:
        return (x - x0) * scale + margin

    def ty(y: int) -> float:
        # flip: our +y is up, SVG +y is down
        return (y1 - y) * scale + margin

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" '
        f'height="{H:.0f}" viewBox="0 0 {W:.0f} {H:.0f}">',
        f'<rect width="{W:.0f}" height="{H:.0f}" fill="white"/>',
    ]
    for node, r in layout.nodes.items():
        parts.append(
            f'<rect x="{tx(r.x):.1f}" y="{ty(r.y2):.1f}" '
            f'width="{r.w * scale:.1f}" height="{r.h * scale:.1f}" '
            f'fill="{node_fill}" stroke="#555" stroke-width="0.6">'
            f"<title>{node}</title></rect>"
        )
    all_wires = table_to_wires(layout.wire_table())
    wires = all_wires if max_wires is None else all_wires[:max_wires]
    for w in wires:
        for s in w.segments:
            parts.append(
                f'<line x1="{tx(s.x1):.1f}" y1="{ty(s.y1):.1f}" '
                f'x2="{tx(s.x2):.1f}" y2="{ty(s.y2):.1f}" '
                f'stroke="{_color(s.layer)}" stroke-width="0.8" '
                f'stroke-opacity="0.8"/>'
            )
        if show_vias:
            for vx, vy in w.vias():
                parts.append(
                    f'<circle cx="{tx(vx):.1f}" cy="{ty(vy):.1f}" r="1.2" '
                    f'fill="#222"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts)
