"""Layout validation: the layout-model rules, checked exactly.

The checks implement the Thompson / multilayer 2-D grid model rules from
Sections 3.1 and 4.1 of the paper:

* axis discipline — vertical segments on odd layers, horizontal on even;
* edge-disjointness — two wires may *cross* at a grid point but may not
  share a unit grid edge on the same layer;
* no shared bends — a via (bend, or terminal drop to the active layer)
  occupies its grid point on every layer it passes through; no other net
  may touch that point on those layers (the no-knock-knee rule,
  generalised to ``L`` layers);
* wires avoid node interiors;
* node footprints are pairwise disjoint;
* the layout *realises* its target graph: every wire is a contiguous path
  between the footprints of its net's endpoints, and the multiset of nets
  equals the graph's edge multiset.

All checks are exact, yet layouts with hundreds of thousands of segments
validate in seconds: :func:`validate_layout` / :func:`validate_table`
run the rule set as numpy sort + running-maximum sweeps over the layout's
:class:`~repro.layout.wiretable.WireTable`, falling back to exact Python
enumeration only on the (normally empty) violating groups.  They are
:class:`~repro.layout.chunked.ChunkedValidator` fed the whole table as
one chunk, which it sweeps in memory without spilling; the per-wire
checks and the grouped sweep cores it calls are defined here.

The original object-per-wire checker lives in ``tests/oracles`` as the
differential-testing oracle: ``tests/test_layout_vectorized.py`` and
``tests/test_validator_mutations.py`` pin the two to identical verdicts,
error counts and error-message sets on valid and mutated layouts
(message order differs, the sweeps emit in sorted order).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Hashable, List, Optional, Tuple

import numpy as np

from ..topology.graph import Graph
from .model import Layout

__all__ = [
    "ValidationReport",
    "validate_layout",
    "validate_table",
]

MAX_ERRORS_KEPT = 20


@dataclass
class ValidationReport:
    ok: bool
    errors: List[str] = field(default_factory=list)
    checks_run: List[str] = field(default_factory=list)
    num_errors: int = 0

    def _add(self, msg: str) -> None:
        self.num_errors += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(msg)
        self.ok = False

    def raise_if_failed(self) -> None:
        if not self.ok:
            shown = "\n  ".join(self.errors)
            raise AssertionError(
                f"layout validation failed ({self.num_errors} errors):\n  {shown}"
            )


# ---------------------------------------------------------------------------
# exact helpers shared with the chunked validator
# ---------------------------------------------------------------------------


def _net_end_rows(nets, k: int):
    """Endpoints of two-terminal nets whose nodes are ``k``-tuples of
    ints (plain ints for ``k = 0``) as one int64 array, a row ``[u...,
    v...]`` per net, or ``None`` when the nets do not fit that shape
    (mixed arity, non-int nodes, ...)."""
    kk = k if k else 1
    try:
        if k:
            # a start of the wrong arity drops its row, so the shape check
            # below also catches (a,) + (b, c, d)
            flat = np.array([n[0] + n[1] for n in nets if len(n[0]) == k])
        else:
            flat = np.array([(n[0], n[1]) for n in nets])
    except (TypeError, ValueError):
        return None
    # integer endpoints only: an int64 cast would also parse strings and
    # truncate floats into rows that equal a graph edge the net is not
    if (
        flat.ndim != 2 or flat.shape != (len(nets), 2 * kk)
        or flat.dtype.kind != "i"
    ):
        return None
    return flat.astype(np.int64, copy=False)


def _realizes_fallback(got: Counter, placed, graph: Graph, rep: ValidationReport) -> None:
    """Exact object-level edge-multiset diff shared with the chunked
    validator, which accumulates ``got`` across chunks before calling."""
    want = graph.edge_multiset()
    want_c = Counter({_canon_edge(u, v): c for (u, v), c in want.items()})
    if got != want_c:
        missing = want_c - got
        extra = got - want_c
        for e, c in list(missing.items())[:5]:
            rep._add(f"graph edge {e} x{c} has no wire")
        for e, c in list(extra.items())[:5]:
            rep._add(f"wire {e} x{c} has no graph edge")
    missing_nodes = [n for n in graph.nodes() if n not in placed]
    for n in missing_nodes[:5]:
        rep._add(f"graph node {n!r} not placed")
    if missing_nodes:
        rep.num_errors += max(0, len(missing_nodes) - 5)


def _canon_edge(u, v):
    def key(n):
        return (1, n) if isinstance(n, tuple) else (0, (n,))

    return (u, v) if key(u) <= key(v) else (v, u)


def _nodes_disjoint_sweep(nodes, rep: ValidationReport) -> None:
    """Exact pairwise node-overlap sweep (the reference checker in
    ``tests/oracles`` calls it too)."""
    items = sorted(nodes.items(), key=lambda kv: (kv[1].x, kv[1].y))
    active: List[Tuple[Hashable, object]] = []
    for node, r in items:
        still = []
        for onode, o in active:
            if o.x2 <= r.x:
                continue
            still.append((onode, o))
            if r.intersects(o, strict=True):
                rep._add(f"nodes {node!r} and {onode!r} overlap")
        active = still
        active.append((node, r))


# ---------------------------------------------------------------------------
# vectorized checks over a WireTable
# ---------------------------------------------------------------------------
#
# Each function below enforces one layout-model rule as a numpy sweep;
# the chunked validator calls the per-wire checks on every chunk and the
# grouped sweep cores on each check's rows.  The shared pattern: sort
# segments (or via columns) into groups, shift each group's coordinates
# into a disjoint numeric band, and one running maximum finds every
# element that undercuts an earlier extent in its group.  Exact Python
# enumeration runs only over the flagged groups, so valid layouts never
# leave numpy.


def _lexsort(keys) -> np.ndarray:
    """``np.lexsort(keys)``'s permutation (the last key primary) from
    one sort of the integer keys packed into int64 codes.

    A least-significant key that is already nondecreasing along the rows
    is dropped first: a stable sort keeps row order on ties, which that
    key would only confirm.  When the packed keys with the row index
    below them fit in 63 bits, every code is unique and a plain
    ``np.sort`` gives the stable order; when the packed keys alone fit,
    a stable ``argsort`` of them does; otherwise ``np.lexsort`` does."""
    keys = list(keys)
    n = len(keys[0])
    if n < 2:
        return np.arange(n)
    while keys and bool(np.all(keys[0][1:] >= keys[0][:-1])):
        keys.pop(0)
    # (key, min, span) primary first, constant keys left out; Python
    # ints keep the spans of uint64 keys near 2**64 exact
    packed = []
    total = 1
    for k in reversed(keys):
        lo = int(k.min())
        span = int(k.max()) - lo + 1
        if span > 1:
            packed.append((k, lo, span))
            total *= span
    if not packed:
        return np.arange(n)
    if total > 1 << 63:
        return np.lexsort(keys)
    code = None
    for k, lo, span in packed:
        if k.dtype == np.uint64:
            off = (k - np.uint64(lo)).astype(np.int64)
        else:
            off = k.astype(np.int64, copy=False) - lo
        if code is None:
            code = off
        else:
            code *= span
            code += off
    shift = (n - 1).bit_length()
    if total << shift > 1 << 63:
        return np.argsort(code, kind="stable")
    code <<= shift
    code |= np.arange(n)
    code.sort()
    code &= (1 << shift) - 1
    return code


def _bulk(rep: ValidationReport, count: int, messages) -> None:
    """Register ``count`` errors, materialising only as many messages as
    the report still keeps (formatting is the expensive part)."""
    if count <= 0:
        return
    budget = min(MAX_ERRORS_KEPT - len(rep.errors), count)
    taken = 0
    for msg in messages:
        if taken >= budget:
            break
        rep._add(msg)
        taken += 1
    rep.num_errors += count - taken
    rep.ok = False


def _vt_layer_discipline(t, model, rep: ValidationReport) -> None:
    rep.checks_run.append("layer-discipline")
    if t.num_segments == 0:
        return
    L = model.num_layers
    over = t.layer > L
    horiz = t.is_horizontal
    h_ok = np.isin(t.layer, np.asarray(model.h_layers, dtype=np.int64))
    v_ok = np.isin(t.layer, np.asarray(model.v_layers, dtype=np.int64))
    bad_axis = np.where(horiz, ~h_ok, ~v_ok)
    count = int(over.sum()) + int(bad_axis.sum())
    if not count:
        return
    w_of = t.wire_of

    def msgs():
        for i in np.flatnonzero(over | bad_axis).tolist():
            net = t.nets[int(w_of[i])]
            layer = int(t.layer[i])
            if over[i]:
                yield f"wire {net}: segment on layer {layer} > L={L}"
            if bad_axis[i]:
                yield (
                    f"wire {net}: {'H' if horiz[i] else 'V'} segment on "
                    f"layer {layer} not permitted by model {model.name}"
                )

    _bulk(rep, count, msgs())


class _NodeIndex:
    """What the terminal, node-disjointness and wires-avoid-nodes checks
    read of ``nodes``, taken once: the rect columns ``rx, ry, rx2, ry2``
    in ``nodes``' iteration order, and :meth:`rows`, which numbers net
    endpoints by those rows.

    Array-backed nodes (:class:`~repro.layout.grid_table.GridNodes`,
    keyed by int ``(row, stage)`` pairs) hand over their columns and
    find a chunk's endpoints in one vectorized lookup (``k = 2`` is the
    key arity :meth:`rows` wants its endpoint rows in).  Any other
    mapping is read rect by rect and its keys are numbered in a dict.
    """

    def __init__(self, nodes) -> None:
        self.nodes = nodes
        columns = getattr(nodes, "rect_columns", None)
        if columns is not None:
            self.k: Optional[int] = 2
            self._nid = None
            self.rx, self.ry, self.rx2, self.ry2 = columns()
            return
        self.k = None
        self._nid = {key: i for i, key in enumerate(nodes)}
        n = len(self._nid)
        rx, ry, w, h = np.fromiter(
            chain.from_iterable(
                map(attrgetter("x", "y", "w", "h"), nodes.values())
            ),
            np.int64, 4 * n,
        ).reshape(n, 4).T.copy()
        self.rx, self.ry, self.rx2, self.ry2 = rx, ry, rx + w, ry + h

    def __len__(self) -> int:
        return len(self.rx)

    def rows(self, nets, ends=None) -> Tuple[np.ndarray, np.ndarray]:
        """Node rows of every net's start and end node, ``-1`` where no
        node has the key.  ``ends`` is :func:`_net_end_rows` of ``nets``
        at arity ``k``; without it each endpoint is looked up alone."""
        nw = len(nets)
        if ends is not None:
            find = self.nodes.find_all
            return find(ends[:, 0], ends[:, 1]), find(ends[:, 2], ends[:, 3])
        get = (self.nodes.find if self._nid is None
               else lambda key: self._nid.get(key, -1))
        ui = np.fromiter((get(net[0]) for net in nets), np.int64, nw)
        vi = np.fromiter((get(net[1]) for net in nets), np.int64, nw)
        return ui, vi


def _vt_contiguity_terminals(
    t, nodes, index, rep: ValidationReport, ends=None,
) -> int:
    """``index`` is the :class:`_NodeIndex` of ``nodes`` (the chunked
    validator builds it once for all its chunks), and ``ends`` the
    chunk's :func:`_net_end_rows` at its arity, if any.  Returns the
    number of net endpoints that name no node of ``nodes``."""
    rep.checks_run.append("contiguity-terminals")
    nw = t.num_wires
    if nw == 0:
        return 0
    paths = t.paths()
    sx = paths.px[paths.pt_indptr[:-1]]
    sy = paths.py[paths.pt_indptr[:-1]]
    ex = paths.px[paths.pt_indptr[1:] - 1]
    ey = paths.py[paths.pt_indptr[1:] - 1]
    rx, ry, rx2, ry2 = index.rx, index.ry, index.rx2, index.ry2
    ui, vi = index.rows(t.nets, ends)
    if len(index):

        def on_bd(px_, py_, ridx):
            has = ridx >= 0
            r = np.where(has, ridx, 0)
            inb = (px_ >= rx[r]) & (px_ <= rx2[r]) & (py_ >= ry[r]) & (py_ <= ry2[r])
            strict = (px_ > rx[r]) & (px_ < rx2[r]) & (py_ > ry[r]) & (py_ < ry2[r])
            return has & inb & ~strict

        s_ok = on_bd(sx, sy, ui)
        e_ok = on_bd(ex, ey, vi)
    else:
        s_ok = np.zeros(nw, dtype=bool)
        e_ok = np.zeros(nw, dtype=bool)
    unplaced = int((ui < 0).sum()) + int((vi < 0).sum())
    good = ~paths.bad
    s_bad = good & ~s_ok
    e_bad = good & ~e_ok
    count = int(paths.bad.sum()) + int(s_bad.sum()) + int(e_bad.sum())
    if not count:
        return unplaced

    def msgs():
        for wi in np.flatnonzero(paths.bad | s_bad | e_bad).tolist():
            net = t.nets[wi]
            if paths.bad[wi]:
                j = int(paths.bad_at[wi])
                if j == 0:
                    yield f"wire {net}: segments 0/1 not contiguous"
                else:
                    yield f"wire {net}: segment {j} not contiguous with path"
                continue
            ends = (
                ("start", s_bad[wi], (int(sx[wi]), int(sy[wi])), net[0]),
                ("end", e_bad[wi], (int(ex[wi]), int(ey[wi])), net[1]),
            )
            for which, bad_flag, p, node in ends:
                if not bad_flag:
                    continue
                r = nodes.get(node)
                if r is None:
                    yield f"wire {net}: {which} node {node!r} not placed"
                else:
                    yield (
                        f"wire {net}: {which} point {p} not on boundary of "
                        f"node {node!r} at ({r.x},{r.y},{r.w},{r.h})"
                    )

    _bulk(rep, count, msgs())
    return unplaced


def _track_overlap_sweep(
    layer, horiz, track, lo, hi, w, net_at,
):
    """Banded running-max sweep over per-track intervals.

    Rows describe segments (layer, orientation flag, track, extent
    ``[lo, hi]``, owning wire); ``net_at(i)`` resolves row ``i``'s net
    lazily for message formatting.  Returns ``(count, keyed)`` where
    ``keyed`` holds at most ``MAX_ERRORS_KEPT`` ``(sort_key, message)``
    pairs in sweep order — the key is the flagged row's global sort
    tuple, which lets the chunked validator merge per-bucket results
    back into the one-chunk emission order.
    """
    ns = len(layer)
    if ns < 2:
        return 0, []
    order = _lexsort((w, hi, lo, track, horiz, layer))
    lay_s, hz_s, tr_s = layer[order], horiz[order], track[order]
    lo_s, hi_s, w_s = lo[order], hi[order], w[order]
    new = np.empty(ns, dtype=bool)
    new[0] = True
    new[1:] = (
        (lay_s[1:] != lay_s[:-1])
        | (hz_s[1:] != hz_s[:-1])
        | (tr_s[1:] != tr_s[:-1])
    )
    gid = np.cumsum(new) - 1
    mn = int(lo_s.min())
    band = int(hi_s.max()) - mn + 1
    cummax = np.maximum.accumulate((hi_s - mn) + gid * band)
    bad = np.zeros(ns, dtype=bool)
    bad[1:] = ((lo_s[1:] - mn) + gid[1:] * band) < cummax[:-1]
    count = int(bad.sum())
    if not count:
        return 0, []
    starts = np.flatnonzero(new)
    keyed = []
    for i in np.flatnonzero(bad).tolist():
        if len(keyed) >= MAX_ERRORS_KEPT:
            break
        g0 = int(starts[int(gid[i])])
        # recover the running-max interval the scalar scan pairs with
        mx = g0
        for j in range(g0 + 1, i):
            if int(hi_s[j]) > int(hi_s[mx]):
                mx = j
        key = (
            int(lay_s[i]), int(hz_s[i]), int(tr_s[i]),
            int(lo_s[i]), int(hi_s[i]), int(w_s[i]),
        )
        keyed.append((key, (
            f"layer {int(lay_s[i])} {'H' if hz_s[i] else 'V'} track "
            f"{int(tr_s[i])}: intervals "
            f"[{int(lo_s[mx])},{int(hi_s[mx])}] (wire {net_at(int(order[mx]))}) and "
            f"[{int(lo_s[i])},{int(hi_s[i])}] (wire {net_at(int(order[i]))}) overlap"
        )))
    return count, keyed


def _vt_columns(t):
    """Via/terminal columns ``(x, y, z_lo, z_hi, wire_idx)`` as arrays —
    the vectorized :func:`_columns` (discontiguous wires excluded)."""
    paths = t.paths()
    good = ~paths.bad
    gw = np.flatnonzero(good)
    first = t.indptr[:-1]
    last = t.indptr[1:] - 1
    sx = paths.px[paths.pt_indptr[:-1]][gw]
    sy = paths.py[paths.pt_indptr[:-1]][gw]
    ex = paths.px[paths.pt_indptr[1:] - 1][gw]
    ey = paths.py[paths.pt_indptr[1:] - 1][gw]
    t1 = t.layer[first[gw]] if gw.size else np.zeros(0, dtype=np.int64)
    t2 = t.layer[last[gw]] if gw.size else np.zeros(0, dtype=np.int64)
    ones = np.ones(gw.size, dtype=np.int64)
    w_of = t.wire_of
    if t.num_segments > 1:
        inner = np.flatnonzero(w_of[:-1] == w_of[1:])
        ch = t.layer[inner] != t.layer[inner + 1]
        bi = inner[ch]
        bw = w_of[bi]
        keep = good[bw]
        bi, bw = bi[keep], bw[keep]
    else:
        bi = bw = np.zeros(0, dtype=np.int64)
    # the joint after global segment i of wire w is path point i + w + 1
    bx = paths.px[bi + bw + 1]
    by = paths.py[bi + bw + 1]
    bzlo = np.minimum(t.layer[bi], t.layer[bi + 1]) if bi.size else bi
    bzhi = np.maximum(t.layer[bi], t.layer[bi + 1]) if bi.size else bi
    cx = np.concatenate([sx, ex, bx])
    cy = np.concatenate([sy, ey, by])
    zlo = np.concatenate([ones, ones, bzlo])
    zhi = np.concatenate([t1, t2, bzhi])
    cw = np.concatenate([gw, gw, bw])
    return cx, cy, zlo, zhi, cw


def _via_col_sweep(cx, cy, zlo, zhi, cw, net_at):
    """Pairwise z-range collision sweep over via columns grouped by point.

    ``net_at(i)`` resolves column row ``i``'s net lazily.  Returns
    ``(count, keyed)`` — at most ``MAX_ERRORS_KEPT`` ``((x, y, i, j),
    message)`` pairs in point-then-pair order, the key sorting
    identically to the one-chunk emission order so spill buckets merge
    exactly.
    """
    n = len(cx)
    if n < 2:
        return 0, []
    order = _lexsort((cw, zhi, zlo, cy, cx))
    X, Y = cx[order], cy[order]
    A, B, W = zlo[order], zhi[order], cw[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = (X[1:] != X[:-1]) | (Y[1:] != Y[:-1])
    gid = np.cumsum(new) - 1
    mn = int(A.min())
    band = int(B.max()) - mn + 1
    cm = np.maximum.accumulate((B - mn) + gid * band)
    cand = np.zeros(n, dtype=bool)
    # z-ranges sorted by zlo: a later column intersects an earlier one iff
    # its zlo does not clear the running max zhi (inclusive)
    cand[1:] = ((A[1:] - mn) + gid[1:] * band) <= cm[:-1]
    if not cand.any():
        return 0, []
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], n)
    count = 0
    keyed = []
    for g in np.unique(gid[cand]).tolist():
        g0, g1 = int(starts[g]), int(ends[g])
        lst = [
            (int(A[k]), int(B[k]), int(W[k]), int(order[k]))
            for k in range(g0, g1)
        ]
        x_, y_ = int(X[g0]), int(Y[g0])
        for i in range(len(lst)):
            for j in range(i + 1, len(lst)):
                (alo, ahi, wa, ra), (blo, bhi, wb, rb) = lst[i], lst[j]
                if wa != wb and alo <= bhi and blo <= ahi:
                    count += 1
                    if len(keyed) < MAX_ERRORS_KEPT:
                        keyed.append(((x_, y_, i, j), (
                            f"via columns of wires {net_at(ra)} and "
                            f"{net_at(rb)} collide at ({x_},{y_}) "
                            f"layers [{alo},{ahi}]&[{blo},{bhi}]"
                        )))
    return count, keyed


def _via_seg_queries(cx, cy, zlo, zhi, cw, layers):
    """Expand via columns into one point query per (column, spanned layer
    in ``layers``), ``layers`` being the sorted distinct layers of the
    segments the queries meet (a query on any other layer hits none):
    returns ``(ql, qx, qy, qw, qc)`` layer/point/wire arrays and each
    query's column, in column-then-layer order."""
    first = np.searchsorted(layers, zlo)
    reps = np.searchsorted(layers, zhi, side="right") - first
    qc = np.repeat(np.arange(len(cx), dtype=np.int64), reps)
    offs = np.zeros(len(cx), dtype=np.int64)
    np.cumsum(reps[:-1], out=offs[1:])
    ql = layers[(np.arange(len(qc), dtype=np.int64) - offs[qc]) + first[qc]]
    return ql, cx[qc], cy[qc], cw[qc], qc


def _via_seg_orientation(
    s_lay, s_fix, s_lo, s_hi, s_w, seg_net_at, ql, qx, qy, qw, q_net_at,
    is_h,
):
    """Single-orientation core of the via-vs-segment conflict sweep.

    Segments of one orientation are described by layer, fixed coordinate
    (track), variable extent ``[lo, hi]`` and owning wire; queries by
    layer, point and owning wire.  A hit is a different-wire segment
    strictly covering the query point on the query layer.
    ``seg_net_at(i)`` / ``q_net_at(i)`` resolve nets lazily from original
    segment/query row indices.  Returns ``(count, keyed)`` with at most
    ``MAX_ERRORS_KEPT`` ``((q, j), message)`` pairs in query order, keyed
    by (query row, per-query hit ordinal) so the chunked validator can
    remap ``q`` to a global query key and merge spill buckets exactly.

    A segment's group is its (layer, track) code, and the sweep puts it
    in that code's numeric band: sorted by (group, ``lo``), each segment
    keys as ``group * xband + lo`` and its running maximum reads ``group
    * xband + hi``, coordinates taken from a common minimum.  A query
    keys as ``group * xband + point``.  One ``searchsorted`` of the
    sorted query keys into the segment keys finds each query's earlier
    segments, and an earlier group's maximum stays below any later
    group's band, so the running maximum there exceeds the query key
    exactly when a segment of the query's own group has ``lo < point <
    hi``.  A group's bounds are looked up only for a query that hits.
    """
    count = 0
    keyed = []
    if not len(s_lay) or not len(ql):
        return count, keyed
    q_fix = qy if is_h else qx
    q_var = qx if is_h else qy
    fmin = min(int(s_fix.min()), int(q_fix.min()))
    fspan = max(int(s_fix.max()), int(q_fix.max())) - fmin + 1
    enc_s = s_lay * fspan + (s_fix - fmin)
    enc_q = ql * fspan + (q_fix - fmin)
    order = _lexsort((s_lo, enc_s))
    enc_ss, lo_ss, hi_ss = enc_s[order], s_lo[order], s_hi[order]
    xmin = min(int(lo_ss.min()), int(q_var.min()))
    xband = max(int(hi_ss.max()), int(q_var.max())) - xmin + 1
    band = enc_ss * xband - xmin
    # cm[i]: the running maximum over the first i sorted segments
    cm = np.empty(len(band) + 1, dtype=np.int64)
    cm[0] = np.iinfo(np.int64).min
    np.maximum.accumulate(band + hi_ss, out=cm[1:])
    key_q = enc_q * xband + (q_var - xmin)
    # the queries in key order: the search then walks the segment keys
    # forward instead of jumping about them
    q_order = _lexsort((key_q,))
    key_q = key_q[q_order]
    pos = np.searchsorted(band + lo_ss, key_q, side="left")
    hit_idx = q_order[cm[pos] > key_q]
    if not hit_idx.size:
        return count, keyed
    hit_idx.sort()
    w_ss = s_w[order]
    for q in hit_idx.tolist():
        g0, g1 = np.searchsorted(enc_ss, [enc_q[q], enc_q[q] + 1]).tolist()
        xv = int(q_var[q])
        wi = int(qw[q])
        sl = slice(g0, g1)
        mseg = (lo_ss[sl] < xv) & (hi_ss[sl] > xv) & (w_ss[sl] != wi)
        for j, k in enumerate(np.flatnonzero(mseg).tolist()):
            count += 1
            if len(keyed) < MAX_ERRORS_KEPT:
                keyed.append(((q, j), (
                    f"wire {seg_net_at(int(order[g0 + k]))} passes through "
                    f"via of wire {q_net_at(q)} at "
                    f"({int(qx[q])},{int(qy[q])}) layer {int(ql[q])}"
                )))
    return count, keyed


def _vt_nodes_disjoint(nodes, index, rep: ValidationReport) -> None:
    """``index`` is the :class:`_NodeIndex` of ``nodes``; the exact
    sweep reads ``nodes`` only when the arrays find an overlap."""
    rep.checks_run.append("nodes-disjoint")
    rx, ry, rx2, ry2 = index.rx, index.ry, index.rx2, index.ry2
    n = len(rx)
    if n < 2:
        return
    order = _lexsort((rx, ry2, ry))
    Y1, Y2, X1, X2 = ry[order], ry2[order], rx[order], rx2[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = (Y1[1:] != Y1[:-1]) | (Y2[1:] != Y2[:-1])
    gid = np.cumsum(new) - 1
    mn = int(X1.min())
    band = int(X2.max()) - mn + 1
    cm = np.maximum.accumulate((X2 - mn) + gid * band)
    flag = np.zeros(n, dtype=bool)
    flag[1:] = ((X1[1:] - mn) + gid[1:] * band) < cm[:-1]
    flag &= Y2 > Y1  # zero-height rects cannot strictly overlap in-band
    violation = bool(flag.any())
    if not violation:
        # bands whose y-intervals strictly overlap may hide cross-band hits
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], n)
        bY1, bY2 = Y1[starts], Y2[starts]
        nb = len(starts)
        if nb > 1:
            cmy = np.maximum.accumulate(bY2)
            cross = (np.flatnonzero(bY1[1:] < cmy[:-1]) + 1).tolist()
            for j in cross:
                for i in range(j):
                    if not (bY1[i] < bY2[j] and bY1[j] < bY2[i]):
                        continue
                    A1 = X1[starts[i]:ends[i]]
                    Acm = np.maximum.accumulate(X2[starts[i]:ends[i]])
                    B1 = X1[starts[j]:ends[j]]
                    B2 = X2[starts[j]:ends[j]]
                    pos = np.searchsorted(A1, B2, side="left")
                    hit = (pos > 0) & (Acm[np.maximum(pos - 1, 0)] > B1)
                    if bool(hit.any()):
                        violation = True
                        break
                if violation:
                    break
    if violation:
        # exact sweep reproduces the legacy pair count and messages
        _nodes_disjoint_sweep(nodes, rep)


class _BandIndex:
    """Vectorized point-in-band + interval-overlap queries over node
    bands (rects grouped by identical fixed-axis interval).

    Built from one row per rect: the fixed-axis interval ``[fixed_lo,
    fixed_hi]`` names its band, the variable-axis interval ``[var_lo,
    var_hi]`` is stored in it.  One packed sort (:func:`_lexsort`)
    orders bands by their interval and each band's stored intervals
    ascending, duplicates kept."""

    def __init__(self, fixed_lo, fixed_hi, var_lo, var_hi) -> None:
        order = _lexsort((var_hi, var_lo, fixed_hi, fixed_lo))
        a, b = fixed_lo[order], fixed_hi[order]
        n = len(order)
        new = np.ones(n, dtype=bool)
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        self.iv_start = np.flatnonzero(new)
        self.iv_lens = np.diff(np.append(self.iv_start, n))
        self.a, self.b = a[self.iv_start], b[self.iv_start]
        self.disjoint = bool(np.all(self.a[1:] >= self.b[:-1]))
        self.iv1 = var_lo[order]
        iv2 = var_hi[order]
        gid = np.cumsum(new) - 1
        self.xmin = int(self.iv1.min()) if n else 0
        self.xband = (int(iv2.max()) - self.xmin + 1) if n else 1
        self.key = gid * self.xband + (self.iv1 - self.xmin)
        self.cm = np.maximum.accumulate((iv2 - self.xmin) + gid * self.xband)

    def hits(self, fix: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """For each query segment: strictly inside some band's open fixed
        interval AND strictly overlapping one of its stored intervals?"""
        out = np.zeros(len(fix), dtype=bool)
        if not len(self.a) or not len(fix):
            return out
        if self.disjoint:
            idx = np.searchsorted(self.a, fix, side="left") - 1
            idxc = np.maximum(idx, 0)
            inside = (idx >= 0) & (fix < self.b[idxc])
            if not inside.any():
                return out
            g = idxc
            # clamp query offsets into the group's numeric band so the
            # search never spills into a neighbouring group's values
            qoff = np.clip(hi - self.xmin, 0, self.xband)
            pos = np.searchsorted(self.key, g * self.xband + qoff, side="left")
            cand = inside & (pos > 0)
            thr = g * self.xband + np.maximum(lo - self.xmin, -1)
            cand[cand] = self.cm[pos[cand] - 1] > thr[cand]
            return cand
        # overlapping bands (heterogeneous node sizes): per-band masks
        for g in range(len(self.a)):
            m = (fix > self.a[g]) & (fix < self.b[g])
            if not m.any():
                continue
            s0 = int(self.iv_start[g])
            s1 = s0 + int(self.iv_lens[g])
            iv1 = self.iv1[s0:s1]
            cm = self.cm[s0:s1] - g * self.xband + self.xmin
            pos = np.searchsorted(iv1, hi[m], side="left")
            sub = (pos > 0) & (cm[np.maximum(pos - 1, 0)] > lo[m])
            mm = np.zeros(len(fix), dtype=bool)
            mm[m] = sub
            out |= mm
        return out


def validate_table(
    table,
    nodes,
    model,
    graph: Optional[Graph] = None,
    check_nodes: bool = True,
    check_vias: bool = True,
) -> ValidationReport:
    """Vectorized rule set over a :class:`WireTable`.

    This is the chunked validator fed ``table`` as its only chunk: it
    holds the table, sweeps each grouped check's rows in memory one
    check at a time, and writes no file.
    """
    from .chunked import validate_table_chunked

    return validate_table_chunked(
        [table], nodes, model, graph=graph,
        check_nodes=check_nodes, check_vias=check_vias,
    )


def validate_layout(
    layout: Layout,
    graph: Optional[Graph] = None,
    check_nodes: bool = True,
    check_vias: bool = True,
) -> ValidationReport:
    """Run the full rule set; returns a report (``.raise_if_failed()`` to
    assert).  Vectorized: operates on the layout's wire table (native for
    table-built layouts, converted once otherwise)."""
    return validate_table(
        layout.wire_table(),
        layout.nodes,
        layout.model,
        graph=graph,
        check_nodes=check_nodes,
        check_vias=check_vias,
    )
