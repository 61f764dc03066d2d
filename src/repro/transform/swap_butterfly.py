"""The ISN -> butterfly transformation (Section 2.2).

Given an ISN, we *bypass* the node stage that follows each swap step:
every swap link ``(u, j) -> (sigma(u), j+1)`` is doubled and the two copies
are reconnected, through the removed node ``(sigma(u), j+1)``, to that
node's straight and cross links into stage ``j + 2``.  The result — the
**swap-butterfly** — has ``n_l + 1`` stages and is an automorphism
(relabeling) of the ``n_l``-dimensional butterfly ``B_{n_l}``.

Stage boundaries of the swap-butterfly therefore come in two flavours:

* an **exchange boundary** on nucleus bit ``t >= 1`` of segment ``i``
  (straight + cross links, exactly as in a butterfly), and
* a **composite boundary** for swap level ``i`` — the bypassed pair
  "level-``i`` swap followed by exchange on bit 0": node ``(u, s)``
  connects to ``(sigma_i(u), s+1)`` and ``(sigma_i(u) XOR 1, s+1)``.
  These are the only links that leave a cluster of ``2**k_1`` consecutive
  rows, which is what makes the packaging scheme work.

The explicit butterfly relabeling is: butterfly node ``(x, s)`` maps to
swap-butterfly node ``(phi_s(x), s)`` where ``phi_s = sigma_i o ... o
sigma_2`` over all levels ``i`` whose swap occurs strictly before node
stage ``s`` (i.e. ``n_{i-1} < s``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

from ..topology.bits import flip_bit, level_swap_array
from ..topology.graph import Graph, edge_array
from ..topology.isn import ISN, ExchangeStep, SwapStep
from ..topology.swap import SwapNetworkParams

__all__ = ["ExchangeBoundary", "CompositeBoundary", "SwapButterfly"]

SbNode = Tuple[int, int]  # (row, stage)


@dataclass(frozen=True)
class ExchangeBoundary:
    """Plain butterfly boundary: straight + cross on nucleus bit ``bit``."""

    bit: int
    segment: int

    kind = "exchange"


@dataclass(frozen=True)
class CompositeBoundary:
    """Bypassed swap boundary for ``level``: swap then exchange on bit 0."""

    level: int

    kind = "composite"


Boundary = Union[ExchangeBoundary, CompositeBoundary]


class SwapButterfly:
    """The butterfly automorphism obtained from ``ISN(l; k_1..k_l)``."""

    def __init__(self, params: SwapNetworkParams) -> None:
        self.params = params
        self.boundaries: List[Boundary] = self._build_boundaries()

    @classmethod
    def from_ks(cls, ks: Sequence[int]) -> "SwapButterfly":
        return cls(SwapNetworkParams(ks))

    @classmethod
    def from_isn(cls, isn: ISN) -> "SwapButterfly":
        return cls(isn.params)

    def _build_boundaries(self) -> List[Boundary]:
        isn = ISN(self.params)
        out: List[Boundary] = []
        steps = isn.schedule
        j = 0
        while j < len(steps):
            step = steps[j]
            if isinstance(step, SwapStep):
                nxt = steps[j + 1]
                # The ISN schedule always places the segment's bit-0
                # exchange right after the swap; the bypass merges them.
                assert isinstance(nxt, ExchangeStep) and nxt.bit == 0
                out.append(CompositeBoundary(level=step.level))
                j += 2
            else:
                if step.bit == 0 and step.segment == 1 or step.bit >= 1:
                    out.append(ExchangeBoundary(bit=step.bit, segment=step.segment))
                    j += 1
                else:  # pragma: no cover - schedule invariant
                    raise AssertionError("unexpected bit-0 exchange outside segment 1")
        return out

    # -- sizes -----------------------------------------------------------
    @property
    def n(self) -> int:
        """Dimension of the butterfly this is an automorphism of."""
        return self.params.n

    @property
    def rows(self) -> int:
        return self.params.num_rows

    @property
    def stages(self) -> int:
        return self.n + 1

    @property
    def num_nodes(self) -> int:
        return self.stages * self.rows

    @property
    def num_edges(self) -> int:
        return 2 * self.rows * self.n

    # -- link generators ---------------------------------------------------
    def boundary_links(self, s: int) -> Iterator[Tuple[SbNode, SbNode, str]]:
        """Links between stages ``s`` and ``s+1`` with kinds
        ``'straight' | 'cross' | 'swap-straight' | 'swap-cross'``."""
        if not 0 <= s < self.n:
            raise ValueError(f"boundary must be in [0, {self.n}), got {s}")
        b = self.boundaries[s]
        if isinstance(b, ExchangeBoundary):
            for u in range(self.rows):
                yield ((u, s), (u, s + 1), "straight")
                yield ((u, s), (flip_bit(u, b.bit), s + 1), "cross")
        else:
            for u in range(self.rows):
                v = self.params.sigma(b.level, u)
                yield ((u, s), (v, s + 1), "swap-straight")
                yield ((u, s), (flip_bit(v, 0), s + 1), "swap-cross")

    def links(self) -> Iterator[Tuple[SbNode, SbNode, str]]:
        for s in range(self.n):
            yield from self.boundary_links(s)

    def composite_boundary_stages(self) -> List[int]:
        """Stage boundaries carrying (bypassed) swap links: these sit at
        ``s = n_{i-1}`` for ``i = 2..l``."""
        return [s for s, b in enumerate(self.boundaries) if b.kind == "composite"]

    def swap_links_per_row(self) -> int:
        """The paper's ``4(l - 1)``: at each composite boundary a row has 2
        outgoing and 2 incoming links."""
        return 4 * (self.params.l - 1)

    # -- automorphism ------------------------------------------------------
    def phi(self, s: int, x: int) -> int:
        """Physical row of logical butterfly row ``x`` at node stage ``s``.

        Applies ``sigma_2`` first, then ``sigma_3``, ..., for every level
        whose swap occurred strictly before stage ``s``.
        """
        if not 0 <= s <= self.n:
            raise ValueError(f"stage must be in [0, {self.n}], got {s}")
        offs = self.params.offsets
        u = x
        for level in range(2, self.params.l + 1):
            if s > offs[level - 1]:
                u = self.params.sigma(level, u)
        return u

    def phi_inverse(self, s: int, u: int) -> int:
        """Logical butterfly row of physical row ``u`` at stage ``s``."""
        offs = self.params.offsets
        x = u
        for level in range(self.params.l, 1, -1):
            if s > offs[level - 1]:
                x = self.params.sigma(level, x)
        return x

    def butterfly_to_swapbf(self) -> Dict[SbNode, SbNode]:
        """Node bijection ``B_n -> swap-butterfly``: ``(x, s) -> (phi_s(x), s)``."""
        return {
            (x, s): (self.phi(s, x), s)
            for s in range(self.stages)
            for x in range(self.rows)
        }

    def row_labels(self, s: int) -> List[int]:
        """For display (Figure 2): the butterfly row number of each physical
        row at stage ``s`` — ``phi_inverse(s, u)`` listed by physical row."""
        return [self.phi_inverse(s, u) for u in range(self.rows)]

    # -- materialisation ---------------------------------------------------
    def edge_array(self) -> np.ndarray:
        """All links as one ``(num_edges, 2, 2)`` int64 array, one
        vectorized chunk per stage boundary."""
        rows = np.arange(self.rows, dtype=np.int64)
        chunks = []
        for s, b in enumerate(self.boundaries):
            if isinstance(b, ExchangeBoundary):
                chunks.append(edge_array((rows, s), (rows, s + 1)))
                chunks.append(edge_array((rows, s), (rows ^ (1 << b.bit), s + 1)))
            else:
                sig = level_swap_array(rows, self.params.ks, b.level)
                chunks.append(edge_array((rows, s), (sig, s + 1)))
                chunks.append(edge_array((rows, s), (sig ^ 1, s + 1)))
        return np.concatenate(chunks)

    def cached_edge_array(self) -> np.ndarray:
        """Memoized, read-only :meth:`edge_array`.

        The packaging kernels map every link through several partitions of
        the same swap-butterfly; building the 2 x ``num_edges`` column set
        once and sharing the (write-protected) array keeps repeated pin
        counts allocation-free.
        """
        ea = getattr(self, "_edge_array_cache", None)
        if ea is None:
            ea = self.edge_array()
            ea.setflags(write=False)
            self._edge_array_cache = ea
        return ea

    def graph(self) -> Graph:
        # Every (row, stage) node is an endpoint of some boundary link
        # (n >= 1), so the bulk insert alone yields the full node set.
        g = Graph(name=f"SwapBfly{self.params.ks}")
        g.add_edges_from(self.edge_array())
        return g
