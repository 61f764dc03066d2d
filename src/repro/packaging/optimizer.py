"""Parameter selection under packaging constraints (Sections 2.3, 3.3, 5.2).

"By appropriately selecting parameters for the indirect swap network to be
transformed, the resultant hierarchical layout for the butterfly network
can be adapted to various packaging constraints."  This module performs
that selection: enumerate admissible ``(l; k_1..k_l)`` vectors for a
target dimension ``n``, score each against module-size and pin limits,
and rank by (number of modules, pins per module, board area when l = 3).

It also encodes the paper's observation that when module size is the
binding constraint, a *larger* ``k1`` with a *smaller* ``l`` (the nucleus
variant) can beat the row partition for practically sized networks.

``optimize_packaging(..., exact=True)`` additionally verifies every
candidate's closed-form pin count against the columnar
:func:`~repro.packaging.pins.count_off_module_links` kernel: both schemes
of one parameter vector share a single memoized swap-butterfly edge
array, and the vectors are counted one at a time, so only one edge array
is alive at once.  A row candidate whose exact count diverges from the
closed form raises; a nucleus candidate must respect Theorem 2.1's
``2**(k1+2)`` bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..topology.swap import SwapNetworkParams
from ..transform.swap_butterfly import SwapButterfly
from .partition import NucleusPartition, RowPartition
from .pins import (
    count_off_module_links,
    nucleus_partition_module_bound,
    row_partition_avg_per_node,
    row_partition_offmodule_per_module,
)

__all__ = [
    "Candidate",
    "enumerate_parameter_vectors",
    "exact_pin_maxima",
    "optimize_packaging",
]


@dataclass(frozen=True)
class Candidate:
    """One scored parameter choice.

    ``exact_pins`` is populated (and checked against the closed form) only
    by ``optimize_packaging(..., exact=True)``; the nucleus scheme's
    closed form is Theorem 2.1's *bound*, so its exact count may be
    smaller (boundary segments have one-sided composite boundaries).
    """

    ks: Tuple[int, ...]
    scheme: str  # 'row' | 'nucleus'
    num_modules: int
    max_nodes_per_module: int
    pins_per_module: int
    avg_links_per_node: Fraction
    exact_pins: Optional[int] = None

    @property
    def l(self) -> int:
        return len(self.ks)

    def sort_key(self) -> Tuple:
        return (
            self.num_modules,
            self.pins_per_module,
            float(self.avg_links_per_node),
        )


def enumerate_parameter_vectors(
    n: int, max_l: int = 4
) -> Iterator[Tuple[int, ...]]:
    """All HSN-like vectors ``(k_1 >= k_2 >= ... >= k_l)`` summing to ``n``.

    The paper's layouts require ``k_i <= k_1``; we enumerate the
    non-increasing representatives (order of the tail levels only permutes
    clusters).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def rec(remaining: int, cap: int, prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        if len(prefix) == max_l:
            return
        for k in range(min(cap, remaining), 0, -1):
            # validity: k_i <= n_{i-1} for i >= 2 (SwapNetworkParams rule)
            if prefix and k > sum(prefix):
                continue
            yield from rec(remaining - k, k, prefix + (k,))

    yield from rec(n, n, ())


def _candidates_for(ks: Tuple[int, ...]) -> Iterator[Candidate]:
    params = SwapNetworkParams(ks)
    n, l, k1 = params.n, params.l, params.ks[0]
    if l >= 2:
        yield Candidate(
            ks=params.ks,
            scheme="row",
            num_modules=1 << (n - k1),
            max_nodes_per_module=(1 << k1) * (n + 1),
            pins_per_module=row_partition_offmodule_per_module(params.ks),
            avg_links_per_node=row_partition_avg_per_node(params.ks),
        )
        # nucleus scheme: interior modules have k_i * 2**k_i nodes and
        # 2**(k_i + 2) pins; the first segment carries the input stage.
        num = sum(1 << (n - k) for k in params.ks)
        max_nodes = max(
            (params.ks[0] + 1) * (1 << params.ks[0]),
            *(k * (1 << k) for k in params.ks),
        )
        pins = nucleus_partition_module_bound(k1)
        # every composite-boundary link crosses modules under this scheme:
        # 2 * 2**n links per boundary, (l-1) boundaries, 2 pins per link.
        yield Candidate(
            ks=params.ks,
            scheme="nucleus",
            num_modules=num,
            max_nodes_per_module=max_nodes,
            pins_per_module=pins,
            avg_links_per_node=Fraction(4 * (l - 1), n + 1),
        )


@lru_cache(maxsize=256)
def exact_pin_maxima(ks: Tuple[int, ...]) -> Dict[str, int]:
    """Exact max off-module links per module for both schemes of ``ks``.

    One swap-butterfly (and one memoized edge array) serves both the row
    and the nucleus partition; results are cached per parameter vector so
    repeated sweeps over overlapping grids never re-count.
    """
    sb = SwapButterfly.from_ks(ks)
    return {
        "row": count_off_module_links(RowPartition.natural(sb)).max_per_module,
        "nucleus": count_off_module_links(NucleusPartition(sb)).max_per_module,
    }


def optimize_packaging(
    n: int,
    max_nodes_per_module: Optional[int] = None,
    max_pins_per_module: Optional[int] = None,
    max_l: int = 4,
    exact: bool = False,
) -> List[Candidate]:
    """Feasible candidates for ``B_n``, best first.

    Ranking follows the paper's priorities: fewest modules, then fewest
    pins, then lowest average off-module links per node.  Feasibility
    filters always use the closed forms (the nucleus bound is the pin
    *budget* a module must provision for); ``exact=True`` attaches the
    columnar exact count to every candidate and raises if a row
    candidate's closed form is wrong or a nucleus candidate exceeds
    Theorem 2.1's bound.
    """
    vectors = [
        ks for ks in enumerate_parameter_vectors(n, max_l=max_l)
        if len(ks) >= 2  # no partitioning benefit from a single level
    ]
    exact_by_ks: Dict[Tuple[int, ...], Dict[str, int]] = (
        {ks: exact_pin_maxima(ks) for ks in vectors} if exact else {}
    )

    out: List[Candidate] = []
    for ks in vectors:
        for cand in _candidates_for(ks):
            if (
                max_nodes_per_module is not None
                and cand.max_nodes_per_module > max_nodes_per_module
            ):
                continue
            if (
                max_pins_per_module is not None
                and cand.pins_per_module > max_pins_per_module
            ):
                continue
            if exact:
                measured = exact_by_ks[cand.ks][cand.scheme]
                if cand.scheme == "row" and measured != cand.pins_per_module:
                    raise AssertionError(
                        f"row closed form {cand.pins_per_module} != exact "
                        f"{measured} for ks={cand.ks}"
                    )
                if cand.scheme == "nucleus" and measured > cand.pins_per_module:
                    raise AssertionError(
                        f"nucleus exact {measured} exceeds Theorem 2.1 bound "
                        f"{cand.pins_per_module} for ks={cand.ks}"
                    )
                cand = replace(cand, exact_pins=measured)
            out.append(cand)
    out.sort(key=Candidate.sort_key)
    return out
