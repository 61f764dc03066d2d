"""SVG rendering of layouts (Figures 3 and 4 style output).

Pure-string SVG generation (no dependencies): node rectangles, wire
segments colored by layer, vias as dots, all read from the layout's
:class:`~repro.layout.wiretable.WireTable` columns.  Scales/flips
coordinates so renders match the paper's figures (y grows upward in our
layouts).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional

from ..layout.model import Layout

__all__ = ["layout_to_svg", "save_svg"]

_LAYER_COLORS = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#e377c2",
    "#bcbd22",
    "#7f7f7f",
]


#: Elements :func:`save_svg` joins per write.
_WRITE_BLOCK = 4096

#: Wires whose columns :func:`_svg_parts` holds as Python lists at once.
_WIRE_BLOCK = 4096


def _color(layer: int) -> str:
    return _LAYER_COLORS[(layer - 1) % len(_LAYER_COLORS)]


def _svg_parts(
    layout: Layout,
    scale: float,
    margin: float,
    node_fill: str,
    show_vias: bool,
    max_wires: Optional[int],
) -> Iterator[str]:
    """The SVG document of :func:`layout_to_svg`, one element at a time
    (its lines, without the separating newlines).  The wire columns are
    read ``_WIRE_BLOCK`` wires at a time, so the Python numbers they
    become never outgrow a block."""
    x0, y0, x1, y1 = layout.bounding_box()
    W = (x1 - x0) * scale + 2 * margin
    H = (y1 - y0) * scale + 2 * margin

    def tx(x: int) -> float:
        return (x - x0) * scale + margin

    def ty(y: int) -> float:
        # flip: our +y is up, SVG +y is down
        return (y1 - y) * scale + margin

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" '
        f'height="{H:.0f}" viewBox="0 0 {W:.0f} {H:.0f}">'
    )
    yield f'<rect width="{W:.0f}" height="{H:.0f}" fill="white"/>'
    for node, r in layout.nodes.items():
        yield (
            f'<rect x="{tx(r.x):.1f}" y="{ty(r.y2):.1f}" '
            f'width="{r.w * scale:.1f}" height="{r.h * scale:.1f}" '
            f'fill="{node_fill}" stroke="#555" stroke-width="0.6">'
            f"<title>{node}</title></rect>"
        )
    t = layout.wire_table()
    nw = t.num_wires if max_wires is None else min(t.num_wires, max_wires)
    for w0 in range(0, nw, _WIRE_BLOCK):
        b = t.slice_wires(w0, min(w0 + _WIRE_BLOCK, nw))
        x1s, y1s, x2s, y2s, layers = (
            c.tolist() for c in (b.x1, b.y1, b.x2, b.y2, b.layer)
        )
        bounds = b.indptr.tolist()
        if show_vias:
            paths = b.paths()
            px, py = paths.px.tolist(), paths.py.tolist()
        for w in range(b.num_wires):
            lo, hi = bounds[w], bounds[w + 1]
            for i in range(lo, hi):
                yield (
                    f'<line x1="{tx(x1s[i]):.1f}" y1="{ty(y1s[i]):.1f}" '
                    f'x2="{tx(x2s[i]):.1f}" y2="{ty(y2s[i]):.1f}" '
                    f'stroke="{_color(layers[i])}" stroke-width="0.8" '
                    f'stroke-opacity="0.8"/>'
                )
            if show_vias:
                # wire w's path points start at row lo + w, so the point
                # after segment i is i + w + 1
                for i in range(lo, hi - 1):
                    if layers[i] != layers[i + 1]:
                        yield (
                            f'<circle cx="{tx(px[i + w + 1]):.1f}" '
                            f'cy="{ty(py[i + w + 1]):.1f}" r="1.2" '
                            f'fill="#222"/>'
                        )
    yield "</svg>"


def layout_to_svg(
    layout: Layout,
    scale: float = 4.0,
    margin: float = 10.0,
    node_fill: str = "#dddddd",
    show_vias: bool = True,
    max_wires: Optional[int] = None,
) -> str:
    """Render a layout as an SVG document string.

    ``max_wires`` truncates very large layouts (rendering every wire of an
    ``n = 12`` butterfly produces a 46 MB file; the structure is visible
    from a sample) to their first ``max_wires`` wires.  Each segment is
    one line, and each bend where consecutive segments change layer is
    one via dot.
    """
    return "\n".join(
        _svg_parts(layout, scale, margin, node_fill, show_vias, max_wires)
    )


def save_svg(
    layout: Layout,
    path: str,
    scale: float = 4.0,
    margin: float = 10.0,
    node_fill: str = "#dddddd",
    show_vias: bool = True,
    max_wires: Optional[int] = None,
) -> str:
    """Write :func:`layout_to_svg`'s document to ``path`` as it renders,
    a few thousand elements at a time, never holding the whole document
    in memory; returns the path."""
    parts = _svg_parts(layout, scale, margin, node_fill, show_vias, max_wires)
    with open(path, "w", encoding="utf-8") as f:
        sep = ""
        while True:
            block = list(islice(parts, _WRITE_BLOCK))
            if not block:
                break
            f.write(sep + "\n".join(block))
            sep = "\n"
    return path
