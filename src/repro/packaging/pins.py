"""Exact off-module link accounting plus the paper's closed forms.

The central quantities of Section 2.3:

* per-module off-module link counts (pin demand),
* the average number of off-module links per *node* — the paper's figure
  of merit, ``4(l-1)(2**k1 - 1) / ((n_l + 1) 2**k1) < 4/k1 = O(1/log N)``
  for the row partition,
* Theorem 2.1's per-module bound ``2**(k1+2)`` for the nucleus partition.

Exact counts are one columnar pass over the swap-butterfly's
``edge_array()``: map both endpoint columns through the partition's
vectorized ``module_ids``, compare, and ``np.bincount`` the crossing
endpoints into per-module pin counts.  The original per-link Python loop
is the differential oracle the tests hold the kernel to
(``tests/oracles/packaging.py``: same totals *and* the same per-module
dicts); the closed forms are provided independently so tests can confirm
all three agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable

import numpy as np

from ..transform.swap_butterfly import SwapButterfly
from .partition import Partition

__all__ = [
    "PinReport",
    "count_off_module_links",
    "row_partition_offmodule_per_module",
    "row_partition_avg_per_node",
    "row_partition_avg_bound",
    "nucleus_partition_module_bound",
]


@dataclass
class PinReport:
    """Exact pin accounting for one partition."""

    num_modules: int
    total_links: int
    off_module_links: int
    per_module: Dict[Hashable, int]
    nodes_per_module: Dict[Hashable, int]

    @property
    def max_per_module(self) -> int:
        return max(self.per_module.values(), default=0)

    @property
    def avg_per_node(self) -> Fraction:
        """Average off-module *link endpoints* per node: every off-module
        link consumes one pin at each of its two modules."""
        total_nodes = sum(self.nodes_per_module.values())
        return Fraction(2 * self.off_module_links, total_nodes)

    @property
    def avg_per_module(self) -> Fraction:
        return Fraction(
            sum(self.per_module.values()), max(self.num_modules, 1)
        )


def count_off_module_links(partition: Partition) -> PinReport:
    """Columnar pin accounting: one pass over ``edge_array()``.

    Both endpoint columns go through the partition's vectorized
    ``module_ids``; crossing endpoints are ``bincount``-ed into per-module
    pin counts and decoded back to the partition's module labels.
    """
    sb = partition.sb
    ea = sb.cached_edge_array()
    mu = partition.module_ids(ea[:, 0, 0], ea[:, 0, 1])
    mv = partition.module_ids(ea[:, 1, 0], ea[:, 1, 1])
    cross = mu != mv
    labels = partition.module_labels()
    counts = np.bincount(
        np.concatenate([mu[cross], mv[cross]]), minlength=len(labels)
    )
    return PinReport(
        num_modules=len(labels),
        total_links=int(ea.shape[0]),
        off_module_links=int(np.count_nonzero(cross)),
        per_module={m: int(c) for m, c in zip(labels, counts)},
        nodes_per_module=partition.module_sizes(),
    )


# ---------------------------------------------------------------------------
# closed forms (Section 2.3)
# ---------------------------------------------------------------------------


def row_partition_offmodule_per_module(ks, row_bits=None) -> int:
    """Off-module links of one module under the row partition.

    For module = ``2**b`` consecutive rows (``b = k1`` by default): at each
    composite level ``i``, the rows whose level-``i`` swap leaves the module
    are those with ``u[0:k_i] != u[n_{i-1}:n_i]`` — ``2**b - 2**(b-k_i)``
    of them per module (``b >= k_i``) — each contributing 2 outgoing and,
    symmetrically, 2 incoming links.
    """
    from ..topology.swap import SwapNetworkParams

    p = SwapNetworkParams(ks)
    b = p.ks[0] if row_bits is None else row_bits
    total = 0
    for i in range(2, p.l + 1):
        ki = p.ks[i - 1]
        if b >= ki:
            leaving_rows = (1 << b) - (1 << (b - ki))
        else:
            leaving_rows = (1 << b)  # every row's swap leaves a small module
        total += 4 * leaving_rows
    return total


def row_partition_avg_per_node(ks) -> Fraction:
    """The paper's display: ``4(l-1)(2**k1 - 1) / ((n_l + 1) 2**k1)``.

    Exact for HSNs (all ``k_i`` equal); for mixed ``k_i`` the general form
    is ``sum_i 4 (2**k1 - 2**(k1-k_i)) / ((n_l + 1) 2**k1)``.
    """
    from ..topology.swap import SwapNetworkParams

    p = SwapNetworkParams(ks)
    k1, n = p.ks[0], p.n
    num = sum(4 * ((1 << k1) - (1 << (k1 - p.ks[i - 1]))) for i in range(2, p.l + 1))
    return Fraction(num, (n + 1) * (1 << k1))


def row_partition_avg_bound(ks) -> Fraction:
    """The paper's chain of bounds: ``... < 4(l-1)/(n_l+1) < 4/k1``."""
    from ..topology.swap import SwapNetworkParams

    p = SwapNetworkParams(ks)
    return Fraction(4, p.ks[0])


def nucleus_partition_module_bound(k1: int) -> int:
    """Theorem 2.1: at most ``2**(k1+2)`` off-module links per module."""
    if k1 < 1:
        raise ValueError(f"k1 must be >= 1, got {k1}")
    return 1 << (k1 + 2)
