"""Vectorized (columnar) planner for the recursive grid layout scheme.

Produces the exact same wire-level embedding as the original
object-per-wire builder (kept as the differential oracle in
``tests/oracles/builders.py``) — wire for wire, in the same order — but
assembles the geometry as numpy arrays and emits a
:class:`~repro.layout.wiretable.WireTable` directly.

The construction mirrors the legacy builder category by category:

* exchange boundaries: one horizontal ``straight`` run plus one 3-segment
  ``cross`` wire per (block, local row);
* composite boundaries: channel items (intra / out / in) are ranked by the
  same ``(destination coordinate, row, kind, direction)`` key via a single
  lexsort per boundary, giving every item its channel track;
* level >= 3 stubs: pending feedthroughs ranked per block by
  ``(destination grid row, stage, rank, role)`` exactly like the legacy
  ``pending_feeds.sort``;
* inter-block wires: out/in stubs are joined on the link id, grouped by
  the channel key, and the three legs are fused with the run-merge rule
  of :func:`~repro.layout.wiretable.merge_legs` applied analytically —
  consecutive collinear runs merge iff the channel group's layer equals
  the base layer, which splits each channel category into a fixed-segment-count
  "merged" and "unmerged" variant.

Finally the categories' wires are gathered once into the legacy
emission order (blocks by id — boundaries by stage — items by rank, then
channel groups in sorted key order): one sort of the stacked keys, one
fancy index of the stacked segment rows, and one check of the result.
Nets never leave arrays on this path: each category's nets are a
:class:`GridNets` over the row, stage and kind-code arrays it was built
from, and the gather takes those columns like the segment rows.  The one
caller is the chunk source
:func:`~repro.layout.chunked.chunked_grid_table`, which plans every
block and phase in one call when it has no budget.
"""

from __future__ import annotations

import operator
from collections.abc import ItemsView, Mapping, Sequence, ValuesView
from itertools import repeat
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..topology.bits import level_swap_array
from ..transform.swap_butterfly import ExchangeBoundary, SwapButterfly
from .collinear import TrackOrder, track_assignment
from .collinear_generic import left_edge_tracks
from .geometry import Rect
from .grid_scheme import GridDims, _column_union_graph
from .tracks import TrackGrouping, base_layer_pair
from .wiretable import WireTable

__all__ = ["GridNets", "GridNodes", "build_grid_nodes"]

# index = kind code; the channel items' codes 0/1 keep the string sort
# order 'sc' < 'ss' their lexsort relies on
_KIND = ("sc", "ss", "straight", "cross", "feedback")
_STRAIGHT, _CROSS, _FEEDBACK = 2, 3, 4
_SLOT_OUT = (2, 1)  # by kind code (sc, ss); 'cross' shares slot 1
_SLOT_IN = (4, 3)


def _as_int(v) -> Optional[int]:
    """The int ``v`` equals, or ``None``: a dict finds an int key under
    any value equal to it (``True``, ``1.0``, ``np.int64(1)``)."""
    try:
        return operator.index(v)
    except TypeError:
        pass
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == v else None


class GridNodes(Mapping):
    """The grid layout's node rectangles: a read-only mapping ``(row,
    stage) -> Rect`` over int64 columns.

    Nodes come in the legacy insertion order — blocks by id, stages
    major, local rows minor — so node ``i`` is block ``i // (S R)``,
    stage ``(i // R) % S`` and local row ``i % R`` (``S`` stages,
    ``R = 2**k1`` rows per block), and its row is ``block * R + local
    row``.  ``x``/``y`` hold each node's lower-left corner in that
    order; every node is a ``side x side`` square.  Lookup, ``in``,
    ``len`` and iteration are integer arithmetic over those columns,
    and a :class:`Rect` is made only when a caller reads one.  Keys
    behave as in a dict of the same nodes: a key equal to a placed
    ``(row, stage)`` finds it, an unhashable key raises ``TypeError``.
    The validator reads :meth:`rect_columns` and finds net endpoints
    with :meth:`find_all`; ``dict(nodes)`` gives a mutable copy.
    """

    def __init__(
        self, x: np.ndarray, y: np.ndarray, side: int, k1: int, stages: int,
    ) -> None:
        self.x, self.y = x, y
        self.x.flags.writeable = self.y.flags.writeable = False
        self.side = side
        self._k1 = k1
        self._stages = stages
        self._rows = len(x) // stages

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        i = np.arange(len(self.x), dtype=np.int64)
        k1, S = self._k1, self._stages
        u = ((i // (S << k1)) << k1) | (i & ((1 << k1) - 1))
        return zip(u.tolist(), ((i >> k1) % S).tolist())

    def _rects(self) -> Iterator[Rect]:
        w = self.side
        return map(Rect, self.x.tolist(), self.y.tolist(), repeat(w),
                   repeat(w))

    def items(self) -> "_GridItems":
        return _GridItems(self)

    def values(self) -> "_GridValues":
        return _GridValues(self)

    def find(self, key) -> int:
        """Insertion index of ``key``, or -1 when no node has it."""
        hash(key)  # an unhashable key raises TypeError, as in a dict
        if not isinstance(key, tuple) or len(key) != 2:
            return -1
        u, s = _as_int(key[0]), _as_int(key[1])
        if u is None or s is None or not (
            0 <= u < self._rows and 0 <= s < self._stages
        ):
            return -1
        k1 = self._k1
        return ((u >> k1) * self._stages + s << k1) | (u & ((1 << k1) - 1))

    def find_all(self, u: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Insertion index of each int key ``(u[j], s[j])``, ``-1`` where
        no node has it — one vectorized lookup for many keys."""
        k1, S = self._k1, self._stages
        ok = (u >= 0) & (u < self._rows) & (s >= 0) & (s < S)
        i = ((u >> k1) * S + s << k1) | (u & ((1 << k1) - 1))
        return np.where(ok, i, -1)

    def __contains__(self, key) -> bool:
        return self.find(key) >= 0

    def __getitem__(self, key) -> Rect:
        i = self.find(key)
        if i < 0:
            raise KeyError(key)
        return Rect(int(self.x[i]), int(self.y[i]), self.side, self.side)

    def rect_columns(self) -> Tuple[np.ndarray, ...]:
        """``(x, y, x2, y2)`` int64 columns in insertion order."""
        return self.x, self.y, self.x + self.side, self.y + self.side


# the views iterate the columns, not one ``__getitem__`` per key


class _GridItems(ItemsView):
    def __iter__(self):
        m = self._mapping
        return zip(iter(m), m._rects())


class _GridValues(ValuesView):
    def __iter__(self):
        return self._mapping._rects()


class GridNets(Sequence):
    """The grid layout's nets: a read-only sequence of ``((u, s), (v,
    t), kind)`` tuples over int columns.

    Every grid wire is one butterfly link, so ``ends`` holds it as an
    ``(E, 4)`` int64 row ``[u, s, v, t]`` (from node ``(u, s)`` to node
    ``(v, t)``) and ``kind`` as a uint8 code into ``("sc", "ss",
    "straight", "cross", "feedback")``.  A tuple is made only when an
    item is read; slices, :meth:`take` and :meth:`concat` stay columnar,
    and the validator reads ``ends`` as a chunk's endpoint array.  A
    ``GridNets`` equals another by columns and a list or tuple of nets
    item by item.  It pickles its endpoints in the narrowest unsigned
    dtype that holds them; :meth:`json_bytes` is ``json.dumps`` of the
    tuples.
    """

    def __init__(self, ends: np.ndarray, kind: np.ndarray) -> None:
        self.ends = np.asarray(ends, dtype=np.int64)
        self.kind = np.asarray(kind, dtype=np.uint8)
        self.ends.flags.writeable = self.kind.flags.writeable = False

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return GridNets(self.ends[i], self.kind[i])
        i = operator.index(i)
        u, s, v, t = self.ends[i].tolist()
        return (u, s), (v, t), _KIND[self.kind[i]]

    def __iter__(self) -> Iterator[Tuple]:
        u, s, v, t = self.ends.T.tolist()
        return zip(zip(u, s), zip(v, t),
                   map(_KIND.__getitem__, self.kind.tolist()))

    def __eq__(self, other) -> bool:
        if isinstance(other, GridNets):
            return (np.array_equal(self.ends, other.ends)
                    and np.array_equal(self.kind, other.kind))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                map(operator.eq, self, other))
        return NotImplemented

    def __reduce__(self):
        ends = self.ends
        if ends.size and ends.min() >= 0:  # as grid rows and stages are
            ends = ends.astype(np.min_scalar_type(int(ends.max())))
        return GridNets, (ends, self.kind)

    def take(self, order: np.ndarray) -> "GridNets":
        """Nets ``[self[o] for o in order]``, as columns."""
        return GridNets(self.ends[order], self.kind[order])

    @staticmethod
    def concat(parts: Sequence["GridNets"]) -> "GridNets":
        """The nets of ``parts`` one after another, as columns."""
        return GridNets(np.concatenate([p.ends for p in parts]),
                        np.concatenate([p.kind for p in parts]))

    def json_bytes(self) -> bytes:
        """``json.dumps(list(self)).encode()``, byte for byte, formatted
        from the columns in one ``%`` format."""
        row = ['[[%d, %d], [%d, %d], "' + k + '"]' for k in _KIND]
        fmt = "[" + ", ".join(map(row.__getitem__, self.kind.tolist())) + "]"
        return (fmt % tuple(self.ends.ravel().tolist())).encode()


def build_grid_nodes(sb: SwapButterfly, dims: GridDims) -> GridNodes:
    """Node rectangles of the full grid layout, in legacy insertion order
    (blocks by id, stages major, local rows minor), as a
    :class:`GridNodes` mapping: node ``(row, s)`` of block ``b`` sits at
    stage column ``s`` and local row ``row % R`` of the block's cell."""
    bd = dims.block
    R = bd.nrows
    S = sb.n + 1
    bid = np.arange(dims.grid_rows * dims.grid_cols, dtype=np.int64)
    ox = (bid & (dims.grid_cols - 1)) * dims.cell_w
    oy = (bid >> dims.ks[1]) * dims.cell_h
    colx = np.asarray(bd.colx[:S], dtype=np.int64)
    rowy = bd.rows_base + np.arange(R, dtype=np.int64) * bd.row_pitch
    shape = (len(bid), S, R)
    x = np.broadcast_to((ox[:, None] + colx)[:, :, None], shape).ravel()
    y = np.broadcast_to((oy[:, None] + rowy)[:, None, :], shape).ravel()
    return GridNodes(x, y, bd.W, dims.ks[0], S)


def _pair_layers(L: int, horizontal: bool, group: np.ndarray):
    """Vectorized :meth:`TrackGrouping.layer_pair`: per-group (vertical,
    horizontal) layer arrays for a channel direction."""
    g = group
    if L % 2 == 0:
        return 2 * g + 1, 2 * g + 2
    if horizontal:
        return np.where(g >= 1, 2 * g, 2), 2 * g + 1
    return 2 * g + 2, 2 * g + 1


class _Cat:
    """One category of wires with a uniform per-wire segment count."""

    __slots__ = ("nets", "segs", "keys")

    def __init__(
        self, nets: GridNets, segs: np.ndarray, keys: np.ndarray,
    ) -> None:
        # segs: (nw, c, 5) int64; keys: (nw, 6) int64
        self.nets = nets
        self.segs = segs
        self.keys = keys


def _hvh(x1, y1, tx, y2, x2, vl, hl) -> np.ndarray:
    """Stack the ubiquitous H-V-H channel wire: ``(x1,y1)->(tx,y1)``,
    vertical at ``tx``, ``(tx,y2)->(x2,y2)``.  Assumes ``x1 < tx < x2``
    (channel tracks sit strictly between stage columns)."""
    nw = len(tx)
    segs = np.empty((nw, 3, 5), dtype=np.int64)
    segs[:, 0, 0] = x1
    segs[:, 0, 1] = y1
    segs[:, 0, 2] = tx
    segs[:, 0, 3] = y1
    segs[:, 0, 4] = hl
    segs[:, 1, 0] = tx
    segs[:, 1, 1] = np.minimum(y1, y2)
    segs[:, 1, 2] = tx
    segs[:, 1, 3] = np.maximum(y1, y2)
    segs[:, 1, 4] = vl
    segs[:, 2, 0] = tx
    segs[:, 2, 1] = y2
    segs[:, 2, 2] = x2
    segs[:, 2, 3] = y2
    segs[:, 2, 4] = hl
    return segs


def _cats_table(cats: List[_Cat]) -> WireTable:
    """The categories' wires as one table in legacy emission order,
    gathered once: the wires' sort ``order`` over the stacked keys, their
    segment counts in that order give ``indptr``, one fancy index of the
    stacked ``(nw * c, 5)`` segment rows gives the segment columns, and
    :meth:`GridNets.take` the nets."""
    if not cats:
        return WireTable.empty()
    keys = np.concatenate([c.keys for c in cats], axis=0)
    order = np.lexsort(keys.T[::-1])
    counts = np.concatenate([
        np.full(len(c.keys), c.segs.shape[1], dtype=np.int64) for c in cats
    ])
    starts = (np.cumsum(counts) - counts)[order]
    counts = counts[order]
    indptr = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # source row of every destination segment row
    idx = np.arange(int(indptr[-1]), dtype=np.int64)
    idx += np.repeat(starts - indptr[:-1], counts)
    rows = np.concatenate([c.segs.reshape(-1, 5) for c in cats])
    x1, y1, x2, y2, layer = rows.T[:, idx]
    nets = GridNets.concat([c.nets for c in cats]).take(order)
    return WireTable.from_segment_arrays(nets, indptr, x1, y1, x2, y2, layer)


def _grid_cats(
    sb: SwapButterfly,
    dims: GridDims,
    track_order: TrackOrder,
    recirculating: bool,
    bids: np.ndarray,
    phases: frozenset,
) -> List[_Cat]:
    """Wire categories for the block subset ``bids``, restricted to the
    requested emission phases.

    The three phases partition the final wire order (the lexsort key's
    leading columns): ``intra`` wires (in-block channel wiring plus
    feedback) sort block-major, ``inter-col`` wires (level >= 3 links,
    between blocks of one grid column) sort by source grid column, and
    ``inter-row`` wires (level 2 links, between blocks of one grid row)
    sort by source grid row.  Every ranking the geometry depends on —
    channel ranks, feedthrough rows, track copies — is local to a block
    (intra/feeds) or to one grid column/row (inter groups), so building a
    *closed* subset of blocks reproduces exactly the wires the whole
    build emits for them.  This is what the chunk source in
    :mod:`repro.layout.chunked` exploits under a budget: ``bids`` must
    cover whole blocks for ``intra``, whole grid columns for
    ``inter-col``, and whole grid rows for ``inter-row``.
    """
    want_intra = "intra" in phases
    want_col = "inter-col" in phases
    want_row = "inter-row" in phases
    bd = dims.block
    ks = dims.ks
    k1, k2 = ks[0], ks[1]
    n = sb.n
    R = bd.nrows
    W = bd.W
    gc, gr = dims.grid_cols, dims.grid_rows
    L = dims.L
    base = base_layer_pair(L)
    bv, bh = base.vertical, base.horizontal

    def bx_of(b: np.ndarray) -> np.ndarray:
        return (b & (gc - 1)) * dims.cell_w

    def by_of(b: np.ndarray) -> np.ndarray:
        return (b >> k2) * dims.cell_h

    bids = np.sort(np.ascontiguousarray(bids, dtype=np.int64))
    nb = len(bids)

    def bpos_of(b: np.ndarray) -> np.ndarray:
        """Index of each block within ``bids`` — the per-block run offset
        in block-major sorts (equals the block id when ``bids`` is the
        full set, which is what the monolithic rank formulas relied on)."""
        return np.searchsorted(bids, b)
    oxs = bx_of(bids)
    oys = by_of(bids)
    B = np.repeat(bids, R)  # block of each (block, local row) pair
    rr = np.tile(np.arange(R, dtype=np.int64), nb)
    U = B * R + rr  # global row id
    OX = np.repeat(oxs, R)
    OY = np.repeat(oys, R)
    rowy = bd.rows_base + rr * (W + 1)  # local row baseline

    cats: List[_Cat] = []

    def keys6(nw: int, *cols) -> np.ndarray:
        k = np.zeros((nw, 6), dtype=np.int64)
        for i, c in enumerate(cols):
            k[:, i] = c
        return k

    def nets_of(a: np.ndarray, b: np.ndarray, sa, sbb, kind) -> GridNets:
        """Nets ``((a, sa), (b, sbb), kind)`` over the row arrays ``a``
        and ``b``; the stages ``sa``/``sbb`` and the ``_KIND`` codes
        ``kind`` are each a scalar or a per-wire array."""
        ends = np.empty((len(a), 4), dtype=np.int64)
        ends[:, 0], ends[:, 1], ends[:, 2], ends[:, 3] = a, sa, b, sbb
        kc = np.empty(len(a), dtype=np.uint8)
        kc[:] = kind
        return GridNets(ends, kc)

    # stub accumulators (one row per inter-block link endpoint)
    o_u: List[np.ndarray] = []
    o_s: List[np.ndarray] = []
    o_kc: List[np.ndarray] = []
    o_lvl: List[np.ndarray] = []
    o_bid: List[np.ndarray] = []
    o_tgt: List[np.ndarray] = []
    o_tx: List[np.ndarray] = []
    o_oyu: List[np.ndarray] = []
    o_fy: List[np.ndarray] = []
    i_u: List[np.ndarray] = []
    i_s: List[np.ndarray] = []
    i_kc: List[np.ndarray] = []
    i_bid: List[np.ndarray] = []
    i_tx: List[np.ndarray] = []
    i_iy: List[np.ndarray] = []
    i_fy: List[np.ndarray] = []

    # level >= 3 pending feedthroughs, ranked after the boundary loop
    f_gkey: List[np.ndarray] = []
    f_s: List[np.ndarray] = []
    f_rank: List[np.ndarray] = []
    f_role: List[np.ndarray] = []  # 0 = "in", 1 = "out" (string order)
    f_bid: List[np.ndarray] = []
    f_idx: List[np.ndarray] = []  # row into the out/in stub accumulators
    f_nout = 0
    f_nin = 0

    # --- per-boundary channel wiring -----------------------------------
    for s, boundary in enumerate(sb.boundaries):
        cb = bd.chan_base(s)
        re = bd.colx[s] + W
        nl = bd.colx[s + 1]
        if isinstance(boundary, ExchangeBoundary):
            if not want_intra:
                continue
            t = boundary.bit
            nw = nb * R
            # straight: one horizontal run at slot 0
            segs = np.empty((nw, 1, 5), dtype=np.int64)
            segs[:, 0, 0] = re + OX
            segs[:, 0, 1] = rowy + OY
            segs[:, 0, 2] = nl + OX
            segs[:, 0, 3] = rowy + OY
            segs[:, 0, 4] = bh
            cats.append(
                _Cat(
                    nets_of(U, U, s, s + 1, _STRAIGHT),
                    segs,
                    keys6(nw, 0, B, s, 2 * rr),
                )
            )
            # cross: H-V-H through the boundary channel
            v = U ^ (1 << t)
            oyu = rowy + 1 + OY  # SLOT_OUT["cross"]
            iyv = bd.rows_base + (rr ^ (1 << t)) * (W + 1) + 3 + OY
            tx = cb + rr + OX
            cats.append(
                _Cat(
                    nets_of(U, v, s, s + 1, _CROSS),
                    _hvh(re + OX, oyu, tx, iyv, nl + OX, bv, bh),
                    keys6(nw, 0, B, s, 2 * rr + 1),
                )
            )
            continue

        # composite boundary: rank the channel items per block
        level = boundary.level
        want_stubs = want_row if level == 2 else want_col
        if not (want_intra or want_stubs):
            continue
        sig = level_swap_array(U, ks, level)
        dest = sig >> k1

        def okey(block: np.ndarray) -> np.ndarray:
            return block & (gc - 1) if level == 2 else block >> k2

        # out/intra items: two kinds per (block, row); in items: filtered
        src_ss = sig  # sigma is an involution: sigma(sigma(u)) = u
        src_sc = level_swap_array(U ^ 1, ks, level)
        parts = []  # (bid, okey, rr, kindcode, dir, u, tgt, role)
        for kc, tgt in ((0, sig ^ 1), (1, sig)):
            parts.append((B, okey(dest), rr, kc, 0, U, tgt,
                          np.where(dest == B, 0, 1)))
        for kc, src in ((0, src_sc), (1, src_ss)):
            m = (src >> k1) != B
            parts.append((B[m], okey(src[m] >> k1), rr[m], kc, 1, src[m],
                          U[m], 2))
        Ib = np.concatenate([np.broadcast_to(np.asarray(p[0]), p[5].shape)
                             for p in parts])
        Iok = np.concatenate([p[1] for p in parts])
        Irr = np.concatenate([p[2] for p in parts])
        Ikc = np.concatenate(
            [np.full(p[5].shape, p[3], dtype=np.int64) for p in parts]
        )
        Idir = np.concatenate(
            [np.full(p[5].shape, p[4], dtype=np.int64) for p in parts]
        )
        Iu = np.concatenate([p[5] for p in parts])
        Itgt = np.concatenate([p[6] for p in parts])
        Irole = np.concatenate([
            np.broadcast_to(np.asarray(p[7]), p[5].shape) for p in parts
        ])
        order = np.lexsort((Idir, Ikc, Irr, Iok, Ib))
        cw = bd.channel_widths[s]
        ranks = np.empty(len(order), dtype=np.int64)
        ranks[order] = (np.arange(len(order), dtype=np.int64)
                        - bpos_of(Ib[order]) * cw)
        tx = cb + ranks

        lrr = Iu & (R - 1)  # local row of the item's in-block terminal
        ltg = Itgt & (R - 1)
        oyu = bd.rows_base + lrr * (W + 1) + np.where(Ikc == 1, 1, 2)
        iyt = bd.rows_base + ltg * (W + 1) + np.where(Ikc == 1, 3, 4)

        m = Irole == 0  # intra
        if want_intra and m.any():
            iox = bx_of(Ib[m])
            ioy = by_of(Ib[m])
            cats.append(
                _Cat(
                    nets_of(Iu[m], Itgt[m], s, s + 1, Ikc[m]),
                    _hvh(re + iox, oyu[m] + ioy, tx[m] + iox,
                         iyt[m] + ioy, nl + iox, bv, bh),
                    keys6(int(m.sum()), 0, Ib[m], s, ranks[m]),
                )
            )
        if not want_stubs:
            continue
        mo = Irole == 1
        mi = Irole == 2
        if level == 2:
            o_u.append(Iu[mo])
            o_s.append(np.full(int(mo.sum()), s, dtype=np.int64))
            o_kc.append(Ikc[mo])
            o_lvl.append(np.full(int(mo.sum()), 2, dtype=np.int64))
            o_bid.append(Ib[mo])
            o_tgt.append(Itgt[mo])
            o_tx.append(tx[mo])
            o_oyu.append(oyu[mo])
            o_fy.append(np.full(int(mo.sum()), -1, dtype=np.int64))
            i_u.append(Iu[mi])
            i_s.append(np.full(int(mi.sum()), s, dtype=np.int64))
            i_kc.append(Ikc[mi])
            i_bid.append(Ib[mi])
            i_tx.append(tx[mi])
            i_iy.append(iyt[mi])
            i_fy.append(np.full(int(mi.sum()), -1, dtype=np.int64))
        else:
            # defer: feed y assigned once all boundaries are ranked
            other_o = level_swap_array(Iu[mo], ks, level) >> k1
            other_i = Iu[mi] >> k1
            o_u.append(Iu[mo])
            o_s.append(np.full(int(mo.sum()), s, dtype=np.int64))
            o_kc.append(Ikc[mo])
            o_lvl.append(np.full(int(mo.sum()), level, dtype=np.int64))
            o_bid.append(Ib[mo])
            o_tgt.append(Itgt[mo])
            o_tx.append(tx[mo])
            o_oyu.append(oyu[mo])
            o_fy.append(np.full(int(mo.sum()), -1, dtype=np.int64))
            i_u.append(Iu[mi])
            i_s.append(np.full(int(mi.sum()), s, dtype=np.int64))
            i_kc.append(Ikc[mi])
            i_bid.append(Ib[mi])
            i_tx.append(tx[mi])
            i_iy.append(iyt[mi])
            i_fy.append(np.full(int(mi.sum()), -1, dtype=np.int64))
            f_gkey.append(other_o >> k2)
            f_s.append(np.full(int(mo.sum()), s, dtype=np.int64))
            f_rank.append(ranks[mo])
            f_role.append(np.full(int(mo.sum()), 1, dtype=np.int64))
            f_bid.append(Ib[mo])
            f_idx.append(f_nout + np.arange(int(mo.sum()), dtype=np.int64))
            f_nout += int(mo.sum())
            f_gkey.append(other_i >> k2)
            f_s.append(np.full(int(mi.sum()), s, dtype=np.int64))
            f_rank.append(ranks[mi])
            f_role.append(np.full(int(mi.sum()), 0, dtype=np.int64))
            f_bid.append(Ib[mi])
            f_idx.append(-1 - (f_nin + np.arange(int(mi.sum()),
                                                 dtype=np.int64)))
            f_nin += int(mi.sum())

    def cat_rows(parts: List[np.ndarray]) -> np.ndarray:
        return (np.concatenate(parts) if parts
                else np.empty(0, dtype=np.int64))

    Ou = cat_rows(o_u)
    Os = cat_rows(o_s)
    Okc = cat_rows(o_kc)
    Olvl = cat_rows(o_lvl)
    Obid = cat_rows(o_bid)
    Otgt = cat_rows(o_tgt)
    Otx = cat_rows(o_tx)
    Ooyu = cat_rows(o_oyu)
    Ofy = cat_rows(o_fy)
    Iu_ = cat_rows(i_u)
    Is_ = cat_rows(i_s)
    Ikc_ = cat_rows(i_kc)
    Ibid_ = cat_rows(i_bid)
    Itx_ = cat_rows(i_tx)
    Iiy_ = cat_rows(i_iy)
    Ify_ = cat_rows(i_fy)

    # --- feedthrough rows (levels >= 3), ranked like pending_feeds.sort --
    if f_gkey:
        Fg = np.concatenate(f_gkey)
        Fs = np.concatenate(f_s)
        Fr = np.concatenate(f_rank)
        Fro = np.concatenate(f_role)
        Fb = np.concatenate(f_bid)
        Fi = np.concatenate(f_idx)
        order = np.lexsort((Fro, Fr, Fs, Fg, Fb))
        fc = bd.feed_count
        feed_base = R if recirculating else 0
        fy = np.empty(len(order), dtype=np.int64)
        fy[order] = (feed_base
                     + np.arange(len(order), dtype=np.int64)
                     - bpos_of(Fb[order]) * fc)
        # scatter back into the stub tables: Fi >= 0 indexes the l>=3 rows
        # of the out accumulator (in append order), -1 - Fi the in rows
        mo = Fi >= 0
        out_pos = np.flatnonzero(Olvl >= 3)
        Ofy[out_pos[Fi[mo]]] = fy[mo]
        lvl_of_s = np.array(
            [getattr(b, "level", 0) for b in sb.boundaries], dtype=np.int64
        )
        in_pos = np.flatnonzero(lvl_of_s[Is_] >= 3)
        Ify_[in_pos[-1 - Fi[~mo]]] = fy[~mo]

    # --- feedback wires (recirculating) ---------------------------------
    if recirculating and want_intra:
        nw = nb * R
        yo = rowy + 1 + OY
        yi = rowy + 3 + OY
        rx = bd.colx[n] + W + 1 + rr + OX
        lx = 1 + rr + OX
        fy = rr + OY
        x0 = bd.colx[n] + W + OX
        x5 = bd.colx[0] + OX
        segs = np.empty((nw, 5, 5), dtype=np.int64)
        segs[:, 0] = np.stack(
            [x0, yo, rx, yo, np.full(nw, bh, dtype=np.int64)], axis=1)
        segs[:, 1] = np.stack(
            [rx, fy, rx, yo, np.full(nw, bv, dtype=np.int64)], axis=1)
        segs[:, 2] = np.stack(
            [lx, fy, rx, fy, np.full(nw, bh, dtype=np.int64)], axis=1)
        segs[:, 3] = np.stack(
            [lx, fy, lx, yi, np.full(nw, bv, dtype=np.int64)], axis=1)
        segs[:, 4] = np.stack(
            [lx, yi, x5, yi, np.full(nw, bh, dtype=np.int64)], axis=1)
        cats.append(
            _Cat(nets_of(U, U, n, 0, _FEEDBACK), segs,
                 keys6(nw, 0, B, n, rr))
        )

    # --- inter-block wires ----------------------------------------------
    if len(Ou):
        oo = np.lexsort((Okc, Os, Ou))
        io = np.lexsort((Ikc_, Is_, Iu_))
        if not (np.array_equal(Ou[oo], Iu_[io])
                and np.array_equal(Os[oo], Is_[io])
                and np.array_equal(Okc[oo], Ikc_[io])):  # pragma: no cover
            raise AssertionError("mismatched inter-block stubs")
        u, s_, kc = Ou[oo], Os[oo], Okc[oo]
        lvl = Olvl[oo]
        sbid, dbid = Obid[oo], Ibid_[io]
        tgt = Otgt[oo]
        txo, oyu, fyo = Otx[oo], Ooyu[oo], Ofy[oo]
        txi, iy, fyi = Itx_[io], Iiy_[io], Ify_[io]

        lv2 = lvl == 2
        sc = sbid & (gc - 1)
        dc = dbid & (gc - 1)
        sg = sbid >> k2
        dg = dbid >> k2
        K1 = np.where(lv2, 1, 0)
        K2 = np.where(lv2, sg, sc)
        K3 = np.where(lv2, np.minimum(sc, dc), np.minimum(sg, dg))
        K4 = np.where(lv2, np.maximum(sc, dc), np.maximum(sg, dg))
        gorder = np.lexsort((kc, s_, u, K4, K3, K2, K1))
        gk = np.stack([K1, K2, K3, K4], axis=1)[gorder]
        newg = np.empty(len(gorder), dtype=bool)
        newg[0] = True
        newg[1:] = (gk[1:] != gk[:-1]).any(axis=1)
        gid = np.cumsum(newg) - 1
        starts = np.flatnonzero(newg)
        copy = np.empty(len(gorder), dtype=np.int64)
        copy[gorder] = (np.arange(len(gorder), dtype=np.int64)
                        - starts[gid])

        # tracks
        track = np.empty(len(u), dtype=np.int64)
        assign_row = track_assignment(gc, track_order) if gc >= 2 else {}
        row_base = np.zeros((gc, gc), dtype=np.int64)
        for (a, b), t in assign_row.items():
            row_base[a, b] = t
        mrow = lv2
        track[mrow] = (row_base[K3[mrow], K4[mrow]] * dims.mult_row
                       + copy[mrow])
        mcol = ~lv2
        if mcol.any():
            if len(ks) == 3:
                assign_col = (track_assignment(gr, track_order)
                              if gr >= 2 else {})
                col_base = np.zeros((gr, gr), dtype=np.int64)
                for (a, b), t in assign_col.items():
                    col_base[a, b] = t
                track[mcol] = (col_base[K3[mcol], K4[mcol]] * dims.mult_col
                               + copy[mcol])
            else:
                acg = left_edge_tracks(_column_union_graph(ks), range(gr))
                track[mcol] = np.array(
                    [acg[(a, b, c)] for a, b, c in
                     zip(K3[mcol].tolist(), K4[mcol].tolist(),
                         copy[mcol].tolist())],
                    dtype=np.int64,
                )

        vrow = tgt  # the out item's target row IS sigma(u) (^1 for sc)
        soxa, soya = bx_of(sbid), by_of(sbid)
        doxa, doya = bx_of(dbid), by_of(dbid)
        colx_arr = np.array(bd.colx, dtype=np.int64)

        def inter_keys(m: np.ndarray) -> np.ndarray:
            nw = int(m.sum())
            return keys6(nw, 1, K1[m], K2[m], K3[m], K4[m], copy[m])

        # row channels (level 2)
        if mrow.any():
            gh = TrackGrouping(L=L, horizontal=True,
                               total_tracks=dims.tracks_row)
            off = track[mrow] % gh.physical_tracks
            pv, ph = _pair_layers(L, True, track[mrow] // gh.physical_tracks)
            ty = sg[mrow] * dims.cell_h + bd.height + 1 + off
            o0x = colx_arr[s_[mrow]] + W + soxa[mrow]
            o1x = txo[mrow] + soxa[mrow]
            oy1 = oyu[mrow] + soya[mrow]
            hy = bd.height + soya[mrow]  # == height + doya (same grid row)
            i0x = txi[mrow] + doxa[mrow]
            iy1 = iy[mrow] + doya[mrow]
            i2x = colx_arr[s_[mrow] + 1] + doxa[mrow]
            hx1 = np.minimum(o1x, i0x)
            hx2 = np.maximum(o1x, i0x)
            merged = pv == bv
            for mm, nseg in ((merged, 5), (~merged, 7)):
                if not mm.any():
                    continue
                nw = int(mm.sum())
                segs = np.empty((nw, nseg, 5), dtype=np.int64)
                segs[:, 0] = np.stack(
                    [o0x[mm], oy1[mm], o1x[mm], oy1[mm],
                     np.full(nw, bh, dtype=np.int64)], axis=1)
                j = 1
                if nseg == 5:
                    segs[:, j] = np.stack(
                        [o1x[mm], oy1[mm], o1x[mm], ty[mm],
                         np.full(nw, bv, dtype=np.int64)], axis=1)
                    j += 1
                else:
                    segs[:, j] = np.stack(
                        [o1x[mm], oy1[mm], o1x[mm], hy[mm],
                         np.full(nw, bv, dtype=np.int64)], axis=1)
                    segs[:, j + 1] = np.stack(
                        [o1x[mm], hy[mm], o1x[mm], ty[mm], pv[mm]], axis=1)
                    j += 2
                segs[:, j] = np.stack(
                    [hx1[mm], ty[mm], hx2[mm], ty[mm], ph[mm]], axis=1)
                j += 1
                if nseg == 5:
                    segs[:, j] = np.stack(
                        [i0x[mm], iy1[mm], i0x[mm], ty[mm],
                         np.full(nw, bv, dtype=np.int64)], axis=1)
                    j += 1
                else:
                    segs[:, j] = np.stack(
                        [i0x[mm], hy[mm], i0x[mm], ty[mm], pv[mm]], axis=1)
                    segs[:, j + 1] = np.stack(
                        [i0x[mm], iy1[mm], i0x[mm], hy[mm],
                         np.full(nw, bv, dtype=np.int64)], axis=1)
                    j += 2
                segs[:, j] = np.stack(
                    [i0x[mm], iy1[mm], i2x[mm], iy1[mm],
                     np.full(nw, bh, dtype=np.int64)], axis=1)
                sel = np.flatnonzero(mrow)[mm]
                nets = nets_of(u[sel], vrow[sel], s_[sel], s_[sel] + 1,
                               kc[sel])
                cats.append(_Cat(nets, segs, inter_keys(mrow)[mm]))

        # column channels (levels >= 3)
        if mcol.any():
            gv = TrackGrouping(L=L, horizontal=False,
                               total_tracks=dims.tracks_col)
            off = track[mcol] % gv.physical_tracks
            pv, ph = _pair_layers(L, False,
                                  track[mcol] // gv.physical_tracks)
            txx = sc[mcol] * dims.cell_w + bd.width + 1 + off
            o0x = colx_arr[s_[mcol]] + W + soxa[mcol]
            o1x = txo[mcol] + soxa[mcol]
            oy1 = oyu[mcol] + soya[mcol]
            fyA = fyo[mcol] + soya[mcol]
            bwx = bd.width + soxa[mcol]  # == width + doxa (same grid col)
            i1x = txi[mcol] + doxa[mcol]
            fyB = fyi[mcol] + doya[mcol]
            iy1 = iy[mcol] + doya[mcol]
            i3x = colx_arr[s_[mcol] + 1] + doxa[mcol]
            merged = ph == bh
            for mm, nseg in ((merged, 7), (~merged, 9)):
                if not mm.any():
                    continue
                nw = int(mm.sum())
                segs = np.empty((nw, nseg, 5), dtype=np.int64)
                segs[:, 0] = np.stack(
                    [o0x[mm], oy1[mm], o1x[mm], oy1[mm],
                     np.full(nw, bh, dtype=np.int64)], axis=1)
                segs[:, 1] = np.stack(
                    [o1x[mm], fyA[mm], o1x[mm], oy1[mm],
                     np.full(nw, bv, dtype=np.int64)], axis=1)
                j = 2
                if nseg == 7:
                    segs[:, j] = np.stack(
                        [o1x[mm], fyA[mm], txx[mm], fyA[mm],
                         np.full(nw, bh, dtype=np.int64)], axis=1)
                    j += 1
                else:
                    segs[:, j] = np.stack(
                        [o1x[mm], fyA[mm], bwx[mm], fyA[mm],
                         np.full(nw, bh, dtype=np.int64)], axis=1)
                    segs[:, j + 1] = np.stack(
                        [bwx[mm], fyA[mm], txx[mm], fyA[mm], ph[mm]],
                        axis=1)
                    j += 2
                segs[:, j] = np.stack(
                    [txx[mm], np.minimum(fyA[mm], fyB[mm]), txx[mm],
                     np.maximum(fyA[mm], fyB[mm]), pv[mm]], axis=1)
                j += 1
                if nseg == 7:
                    segs[:, j] = np.stack(
                        [i1x[mm], fyB[mm], txx[mm], fyB[mm], ph[mm]],
                        axis=1)
                    j += 1
                else:
                    segs[:, j] = np.stack(
                        [bwx[mm], fyB[mm], txx[mm], fyB[mm], ph[mm]],
                        axis=1)
                    segs[:, j + 1] = np.stack(
                        [i1x[mm], fyB[mm], bwx[mm], fyB[mm],
                         np.full(nw, bh, dtype=np.int64)], axis=1)
                    j += 2
                segs[:, j] = np.stack(
                    [i1x[mm], fyB[mm], i1x[mm], iy1[mm],
                     np.full(nw, bv, dtype=np.int64)], axis=1)
                segs[:, j + 1] = np.stack(
                    [i1x[mm], iy1[mm], i3x[mm], iy1[mm],
                     np.full(nw, bh, dtype=np.int64)], axis=1)
                sel = np.flatnonzero(mcol)[mm]
                nets = nets_of(u[sel], vrow[sel], s_[sel], s_[sel] + 1,
                               kc[sel])
                cats.append(_Cat(nets, segs, inter_keys(mcol)[mm]))

    return cats
