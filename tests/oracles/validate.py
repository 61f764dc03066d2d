"""The original object-per-wire layout checker.

:func:`validate_layout_legacy` converts the layout's table to
:class:`~tests.oracles.wires.Wire` objects and walks them one at a time
with sorted-interval indexes.  The differential suites hold
:func:`repro.layout.validate_layout` to it: the same verdict, error count and error-message set on valid and
mutated layouts (message order differs; the production sweeps emit in
sorted order).  The helpers it shares with the production validator
(``_canon_edge``, ``_net_end_rows``, ``_realizes_fallback``,
``_nodes_disjoint_sweep``) stay in :mod:`repro.layout.validate`, and
``_canon_rows`` in :mod:`repro.topology.graph`;
``_staged_nodes_placed``, which only this checker's realizes-graph fast
path calls, lives here.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.layout.model import Layout
from repro.layout.validate import (
    ValidationReport,
    _canon_edge,
    _net_end_rows,
    _nodes_disjoint_sweep,
    _realizes_fallback,
)
from repro.topology.graph import Graph, _canon_rows

from .wires import ObjectLayout, Segment, Wire

__all__ = ["validate_layout_legacy"]


class _TrackIndex:
    """Per-(layer, track) sorted interval lists for overlap / point queries."""

    def __init__(self) -> None:
        # (layer, horizontal?, track) -> sorted list of (lo, hi, wire_idx)
        self._tracks: Dict[Tuple[int, bool, int], List[Tuple[int, int, int]]] = (
            defaultdict(list)
        )

    def add(self, seg: Segment, wire_idx: int) -> None:
        key = (seg.layer, seg.is_horizontal, seg.track)
        self._tracks[key].append((seg.lo, seg.hi, wire_idx))

    def finalize(self) -> None:
        for lst in self._tracks.values():
            lst.sort()

    def overlaps(self) -> List[Tuple[Tuple[int, bool, int], Tuple, Tuple]]:
        """Pairs of intervals sharing a unit grid edge on the same track.

        Same-wire touching is permitted (a path revisiting a track), but
        strict overlap is flagged even within one wire: it always indicates
        a construction bug.

        All tracks are scanned in one vectorized sweep: the sorted
        per-track interval lists are flattened, each track's coordinates
        are shifted into a disjoint numeric band, and a single running
        maximum over the shifted ``hi`` values finds every interval whose
        ``lo`` undercuts an earlier ``hi`` on the same track.  The Python
        fallback only runs to reconstruct the offending pairs, i.e. on
        (normally zero) violations.
        """
        bad: List[Tuple[Tuple[int, bool, int], Tuple, Tuple]] = []
        multi = [(key, lst) for key, lst in self._tracks.items() if len(lst) > 1]
        if not multi:
            return bad
        arrs = [np.asarray(lst, dtype=np.int64) for _key, lst in multi]
        flat = np.concatenate(arrs)
        lens = np.array([len(a) for a in arrs])
        gid = np.repeat(np.arange(len(arrs)), lens)
        lo, hi = flat[:, 0], flat[:, 1]
        band = int(hi.max() - lo.min()) + 1
        lo_adj = lo + gid * band
        cummax = np.maximum.accumulate(hi + gid * band)
        bad_idx = np.flatnonzero(lo_adj[1:] < cummax[:-1]) + 1
        if not len(bad_idx):
            return bad
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        for i in bad_idx.tolist():
            g = int(np.searchsorted(starts, i, side="right")) - 1
            key, lst = multi[g]
            j = i - int(starts[g])
            # recover the running-max interval the scalar scan would have
            # paired this one with
            max_hi: Optional[int] = None
            max_item: Optional[Tuple[int, int, int]] = None
            for item in lst[:j]:
                if max_hi is None or item[1] > max_hi:
                    max_hi, max_item = item[1], item
            bad.append((key, max_item, lst[j]))
        return bad

    def nets_covering(
        self, layer: int, point: Tuple[int, int]
    ) -> List[int]:
        """Wire indexes whose segments on ``layer`` cover ``point``
        (including endpoints)."""
        x, y = point
        out: List[int] = []
        for horizontal, track, coord in ((True, y, x), (False, x, y)):
            lst = self._tracks.get((layer, horizontal, track))
            if not lst:
                continue
            i = bisect.bisect_right(lst, (coord, float("inf"), float("inf")))
            # scan left while intervals may cover coord
            j = i - 1
            while j >= 0:
                lo, hi, w = lst[j]
                if hi < coord:
                    # sorted by lo; earlier intervals can still span, keep
                    # scanning only while plausible: track lists are short
                    j -= 1
                    continue
                if lo <= coord <= hi:
                    out.append(w)
                j -= 1
        return out


def _check_layer_discipline(layout: ObjectLayout, rep: ValidationReport) -> None:
    rep.checks_run.append("layer-discipline")
    L = layout.model.num_layers
    v_ok, h_ok = set(layout.model.v_layers), set(layout.model.h_layers)
    for wi, w in enumerate(layout.wires):
        for s in w.segments:
            if s.layer > L:
                rep._add(f"wire {w.net}: segment on layer {s.layer} > L={L}")
            allowed = h_ok if s.is_horizontal else v_ok
            if s.layer not in allowed:
                rep._add(
                    f"wire {w.net}: {'H' if s.is_horizontal else 'V'} segment on "
                    f"layer {s.layer} not permitted by model {layout.model.name}"
                )


def _check_contiguity_and_terminals(layout: ObjectLayout, rep: ValidationReport) -> None:
    rep.checks_run.append("contiguity-terminals")
    for w in layout.wires:
        try:
            pts = w.path_points()
        except ValueError as e:
            rep._add(str(e))
            continue
        u, v = w.net[0], w.net[1]
        for node, point, which in ((u, pts[0], "start"), (v, pts[-1], "end")):
            r = layout.nodes.get(node)
            if r is None:
                rep._add(f"wire {w.net}: {which} node {node!r} not placed")
            elif not r.on_boundary(point):
                rep._add(
                    f"wire {w.net}: {which} point {point} not on boundary of "
                    f"node {node!r} at ({r.x},{r.y},{r.w},{r.h})"
                )


def _staged_nodes_placed(want_rows, k, kk, placed) -> bool:
    # a purely staged graph has no isolated nodes, so the edge endpoints
    # are exactly its node set
    gnodes = np.unique(want_rows.reshape(-1, kk), axis=0)
    if k:
        return all(t in placed for t in map(tuple, gnodes.tolist()))
    return all(x in placed for x in gnodes[:, 0].tolist())


def _realizes_graph_fast(nets, placed, graph: Graph) -> bool:
    """Vectorized edge-multiset comparison for purely array-staged graphs
    with uniform int-tuple (or plain int) nodes.  Returns True only when
    the layout provably realizes the graph — any mismatch, unsupported
    net shape, or partially materialised graph falls back to the exact
    object-level path (which regenerates the legacy messages)."""
    if graph._staged_arrays() is None:
        return False
    try:
        edges, counts = graph.to_edge_array()
    except ValueError:
        return False
    k = edges.shape[2] if edges.ndim == 3 else 0
    kk = k if k else 1
    ends = _net_end_rows(nets, k)
    if ends is None:
        return False
    rows = _canon_rows(ends, kk)
    uniq, agg = Graph._aggregate_rows(
        rows, np.ones(len(rows), dtype=np.int64)
    )
    want_rows = edges.reshape(len(counts), 2 * kk)
    if uniq.shape != want_rows.shape or not (
        np.array_equal(uniq, want_rows) and np.array_equal(agg, counts)
    ):
        return False
    return _staged_nodes_placed(want_rows, k, kk, placed)


def _check_realizes_graph(nets, placed, graph: Graph, rep: ValidationReport) -> None:
    rep.checks_run.append("realizes-graph")
    if _realizes_graph_fast(nets, placed, graph):
        return
    got: Counter = Counter()
    for net in nets:
        u, v = net[0], net[1]
        # canonicalise like Graph does
        got[_canon_edge(u, v)] += 1
    _realizes_fallback(got, placed, graph, rep)


def _check_track_overlaps(idx: _TrackIndex, layout: ObjectLayout, rep: ValidationReport) -> None:
    rep.checks_run.append("track-overlap")
    for key, a, b in idx.overlaps():
        layer, horiz, track = key
        rep._add(
            f"layer {layer} {'H' if horiz else 'V'} track {track}: intervals "
            f"[{a[0]},{a[1]}] (wire {layout.wires[a[2]].net}) and "
            f"[{b[0]},{b[1]}] (wire {layout.wires[b[2]].net}) overlap"
        )


def _columns(layout: ObjectLayout) -> List[Tuple[int, int, int, int, int]]:
    """Via/terminal columns ``(x, y, z_lo, z_hi, wire_idx)``.

    Bends span between their two segment layers.  Terminals drop to the
    active layer (layer 1) where the node sits; in the two-layer Thompson
    case this makes a terminal of an H-segment occupy layers 1..2 at the
    attachment point, which is exactly the model's contact.
    """
    cols: List[Tuple[int, int, int, int, int]] = []
    for wi, w in enumerate(layout.wires):
        try:
            pts = w.path_points()
        except ValueError:
            continue  # discontiguous wires are reported by the path check
        segs = w.segments
        first, last = segs[0], segs[-1]
        cols.append((pts[0][0], pts[0][1], 1, first.layer, wi))
        cols.append((pts[-1][0], pts[-1][1], 1, last.layer, wi))
        for i in range(len(segs) - 1):
            la, lb = segs[i].layer, segs[i + 1].layer
            if la != lb:
                x, y = pts[i + 1]
                cols.append((x, y, min(la, lb), max(la, lb), wi))
    return cols


def _check_via_conflicts(
    idx: _TrackIndex, layout: ObjectLayout, rep: ValidationReport
) -> None:
    rep.checks_run.append("via-conflicts")
    cols = _columns(layout)
    by_point: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = defaultdict(list)
    for x, y, zlo, zhi, wi in cols:
        by_point[(x, y)].append((zlo, zhi, wi))
    # column-vs-column: overlapping z-ranges of different nets at one point
    for (x, y), lst in by_point.items():
        if len(lst) > 1:
            lst.sort()
            for i in range(len(lst)):
                for j in range(i + 1, len(lst)):
                    (alo, ahi, wa), (blo, bhi, wb) = lst[i], lst[j]
                    if wa != wb and alo <= bhi and blo <= ahi:
                        rep._add(
                            f"via columns of wires {layout.wires[wa].net} and "
                            f"{layout.wires[wb].net} collide at ({x},{y}) "
                            f"layers [{alo},{ahi}]&[{blo},{bhi}]"
                        )
    # column-vs-segment: another net's segment covering the column point on a
    # spanned layer.  Endpoint touches are columns themselves (handled above)
    # so only strict-interior coverage is an undetected conflict; we query
    # inclusive and filter own-wire and endpoint hits via the by_point map.
    for x, y, zlo, zhi, wi in cols:
        for layer in range(zlo, zhi + 1):
            for other in idx.nets_covering(layer, (x, y)):
                if other == wi:
                    continue
                # Endpoint touching at this exact point by `other` would mean
                # `other` has a column here too; that pair is already flagged
                # (or safely z-disjoint).  Check strict interior only:
                if _covers_strict_interior(layout.wires[other], layer, (x, y)):
                    rep._add(
                        f"wire {layout.wires[other].net} passes through via of "
                        f"wire {layout.wires[wi].net} at ({x},{y}) layer {layer}"
                    )


def _covers_strict_interior(w: Wire, layer: int, point: Tuple[int, int]) -> bool:
    x, y = point
    for s in w.segments:
        if s.layer != layer or not s.covers_point(point):
            continue
        if s.is_horizontal and s.x1 < x < s.x2:
            return True
        if s.is_vertical and s.y1 < y < s.y2:
            return True
    return False


def _check_nodes_disjoint(layout: ObjectLayout, rep: ValidationReport) -> None:
    rep.checks_run.append("nodes-disjoint")
    _nodes_disjoint_sweep(layout.nodes, rep)


class _NodeBands:
    """Spatial index over node rects: bands of identical y-interval (for H
    segment queries) and of identical x-interval (for V queries)."""

    def __init__(self, layout: ObjectLayout) -> None:
        ybands: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)
        xbands: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)
        for r in layout.nodes.values():
            ybands[(r.y, r.y2)].append((r.x, r.x2))
            xbands[(r.x, r.x2)].append((r.y, r.y2))
        self.ybands = {k: sorted(v) for k, v in ybands.items()}
        self.xbands = {k: sorted(v) for k, v in xbands.items()}

    @staticmethod
    def _hits(intervals: List[Tuple[int, int]], lo: int, hi: int) -> bool:
        """Any stored open interval strictly overlapping open ``(lo, hi)``?"""
        i = bisect.bisect_left(intervals, (hi, hi))
        # candidates end before index i; check the few whose end exceeds lo
        j = i - 1
        while j >= 0:
            a, b = intervals[j]
            if b <= lo:
                # intervals sorted by start; earlier ones could still be long
                j -= 1
                continue
            if a < hi and b > lo:
                return True
            j -= 1
        return False

    def h_segment_hits_interior(self, y: int, lo: int, hi: int) -> bool:
        for (by, by2), xs in self.ybands.items():
            if by < y < by2 and self._hits(xs, lo, hi):
                return True
        return False

    def v_segment_hits_interior(self, x: int, lo: int, hi: int) -> bool:
        for (bx, bx2), ys in self.xbands.items():
            if bx < x < bx2 and self._hits(ys, lo, hi):
                return True
        return False


def _check_wires_avoid_nodes(layout: ObjectLayout, rep: ValidationReport) -> None:
    rep.checks_run.append("wires-avoid-nodes")
    bands = _NodeBands(layout)
    for w in layout.wires:
        for s in w.segments:
            if s.is_horizontal:
                if bands.h_segment_hits_interior(s.y1, s.x1, s.x2):
                    rep._add(
                        f"wire {w.net}: H segment y={s.y1} x[{s.x1},{s.x2}] "
                        f"crosses a node interior"
                    )
            else:
                if bands.v_segment_hits_interior(s.x1, s.y1, s.y2):
                    rep._add(
                        f"wire {w.net}: V segment x={s.x1} y[{s.y1},{s.y2}] "
                        f"crosses a node interior"
                    )


def _check_terminals_distinct(layout: ObjectLayout, rep: ValidationReport) -> None:
    rep.checks_run.append("terminals-distinct")
    seen: Dict[Tuple[int, int], Tuple] = {}
    for w in layout.wires:
        try:
            pts = w.path_points()
        except ValueError:
            continue
        for p in (pts[0], pts[-1]):
            if p in seen and seen[p] != w.net:
                rep._add(
                    f"terminal point {p} shared by wires {seen[p]} and {w.net}"
                )
            seen[p] = w.net


def validate_layout_legacy(
    layout: Layout,
    graph: Optional[Graph] = None,
    check_nodes: bool = True,
    check_vias: bool = True,
) -> ValidationReport:
    """The original object-per-wire checker, kept as the differential
    oracle for :func:`validate_layout`."""
    obj = ObjectLayout.of(layout)
    rep = ValidationReport(ok=True)
    _check_layer_discipline(obj, rep)
    _check_contiguity_and_terminals(obj, rep)

    idx = _TrackIndex()
    for wi, w in enumerate(obj.wires):
        for s in w.segments:
            idx.add(s, wi)
    idx.finalize()
    _check_track_overlaps(idx, obj, rep)
    if check_vias:
        _check_via_conflicts(idx, obj, rep)
        _check_terminals_distinct(obj, rep)
    if check_nodes:
        _check_nodes_disjoint(obj, rep)
        _check_wires_avoid_nodes(obj, rep)
    if graph is not None:
        _check_realizes_graph(
            [w.net for w in obj.wires], set(obj.nodes), graph, rep
        )
    return rep
