"""Block-level layout for the recursive grid layout scheme (Section 3.2).

A *block* holds ``2**k1`` consecutive rows of the swap-butterfly — one
nucleus butterfly per segment — across all ``n + 1`` stages.  Because all
exchange boundaries act on row bits ``< k1``, every straight and cross
link is confined to the block; only the (bypassed) swap links of the two
composite boundaries leave it.  The paper cites "any previous layout" for
block internals since they are within the ``o(.)`` budget; we use a simple
validated channel-routed layout:

* node ``(u, s)`` of local row ``rr`` and stage ``s`` is a ``W x W``
  square; rows are stacked with pitch ``W + 1``;
* between consecutive stage columns lies a vertical-track channel, one
  track per 2-pin net crossing that boundary;
* terminal slots on the node sides (requires ``W >= 4``): straight links
  at offset 0, outgoing channel nets at offsets 1/2, incoming at 3/4;
* level-2 inter-block links rise through their boundary channel to
  *ports* on the block's top edge, ordered left-to-right by destination
  grid column (so the board-level collinear tracks chain without
  overlap);
* level-3 inter-block links drop to a *feedthrough band* below the rows
  and exit through ports on the right edge, ordered bottom-to-top by
  destination grid row.

:func:`block_dims` fixes this geometry in closed form; the columnar
planner in :mod:`repro.layout.grid_table` emits every block's wires in
it, offsets each block and completes the inter-block wires.  The
original per-block planner is the reference for that planner in the
differential tests (``tests/oracles/blocks.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..transform.swap_butterfly import ExchangeBoundary, SwapButterfly

__all__ = ["BlockDims", "block_dims"]

#: Smallest node side that fits the five terminal slots.
MIN_NODE_SIDE = 4


@dataclass(frozen=True)
class BlockDims:
    """Uniform block geometry for given ``(k1, k2, k3)`` and node side W.

    All blocks of a layout share these dimensions: the per-block counts of
    intra/inter links at each boundary depend only on the parameters, not
    on the block id (the condition "row's low bits equal its grid
    coordinate" has the same number of solutions in every block).
    """

    ks: Tuple[int, ...]
    W: int
    channel_widths: Tuple[int, ...]  # per boundary s = 0..n-1
    colx: Tuple[int, ...]  # left x of each stage column, plus right edge
    feed_count: int  # level-3 feedthrough tracks
    rows_base: int
    width: int  # ports on right edge at x = width
    height: int  # ports on top edge at y = height
    recirculating: bool = False  # feedback links (u, n) - (u, 0) in-block

    @property
    def n(self) -> int:
        return sum(self.ks)

    @property
    def nrows(self) -> int:
        return 1 << self.ks[0]

    @property
    def row_pitch(self) -> int:
        return self.W + 1

    def row_y(self, rr: int) -> int:
        return self.rows_base + rr * self.row_pitch

    def chan_base(self, s: int) -> int:
        """Leftmost track x of the channel after stage column ``s``."""
        return self.colx[s] + self.W + 1


def _boundary_channel_width(ks: Sequence[int], boundary) -> int:
    k1 = ks[0]
    nrows = 1 << k1
    if isinstance(boundary, ExchangeBoundary):
        return nrows  # one vertical track per cross net
    ki = ks[boundary.level - 1]
    intra_rows = 1 << (k1 - ki)  # rows whose level swap stays in-block
    # 2 intra nets per intra row; 2 out + (by symmetry) 2 in riser tracks
    # per inter row.
    return 2 * intra_rows + 4 * (nrows - intra_rows)


def block_dims(
    ks: Sequence[int], W: int = MIN_NODE_SIDE, recirculating: bool = False
) -> BlockDims:
    """Compute the uniform block geometry.

    ``recirculating`` adds output-to-input feedback links
    ``(u, n) - (u, 0)`` (multi-pass fabrics recirculate the output stage
    into the input stage; in *logical* butterfly labels this matching is
    the ``phi_n``-twisted wrap, since physical row ``u`` at stage ``n``
    carries logical row ``phi_n^{-1}(u)``).  The links stay entirely
    inside the block — same rows, first/last columns — routed through a
    left and a right feedback channel (one vertical track per row each)
    and a feedback feedthrough band below the level-3 feedthroughs.
    """
    if len(ks) < 3:
        raise ValueError(f"grid scheme requires l >= 3 levels, got {len(ks)}")
    if W < MIN_NODE_SIDE:
        raise ValueError(f"node side must be >= {MIN_NODE_SIDE}, got {W}")
    sb = SwapButterfly.from_ks(ks)
    k1 = ks[0]
    nrows = 1 << k1
    chans = tuple(_boundary_channel_width(ks, b) for b in sb.boundaries)
    left = 1 + nrows + 1 if recirculating else 0  # gap + left feedback channel + gap
    colx: List[int] = [left]
    for s in range(sb.n):
        # column body (W) + gap + channel + gap
        colx.append(colx[-1] + W + 1 + chans[s] + 1)
    wrap_feeds = nrows if recirculating else 0
    # one feedthrough per inter-block endpoint of every level >= 3
    feed_count = sum(4 * (nrows - (1 << (k1 - ki))) for ki in ks[2:])
    rows_base = wrap_feeds + feed_count + 1
    width = colx[-1] + W + 1 + (nrows + 1 if recirculating else 0)
    height = rows_base + nrows * (W + 1)
    return BlockDims(
        ks=tuple(ks),
        W=W,
        channel_widths=chans,
        colx=tuple(colx),
        feed_count=feed_count,
        rows_base=rows_base,
        width=width,
        height=height,
        recirculating=recirculating,
    )
