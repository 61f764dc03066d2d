"""The naive packaging baseline the paper compares against (Section 2.3).

"As a basis for comparison, the average number of off-module links per
node when placing consecutive rows of a butterfly network onto the same
module is approximately equal to 2."

Placing ``m`` consecutive rows of a *plain* butterfly per module leaves
all cross links on high row bits crossing module boundaries: for module
size ``m = 2**b`` there are ``n - b`` stage boundaries whose cross links
leave (those on bits ``>= b``), two link endpoints per node pair — about
``2 (n - b) 2**b`` pins per module, i.e. ~2 per node for ``b << n``.

Exact counting shares the packaging layer's columnar style: the cross
links of ``B_n`` are one flip-bit table ``rows ^ 2**s`` (built once per
dimension and reused across *all* candidate module sizes by
:func:`max_rows_within_pin_limit`, which previously re-enumerated
``O(n 2**n)`` links per candidate); crossing endpoints are
``bincount``-ed per module.  The per-link Python loop is the
differential oracle in ``tests/oracles/packaging.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..topology.butterfly import Butterfly

__all__ = [
    "NaiveRowPartition",
    "naive_offmodule_per_module",
    "naive_avg_per_node",
    "max_rows_within_pin_limit",
    "naive_module_count",
    "paper_estimate_max_rows",
    "paper_estimate_module_count",
]


@lru_cache(maxsize=8)
def _flip_table(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, rows ^ 2**s)`` for ``B_n``: every cross-link row pair, one
    ``(n, 2**n)`` int64 table shared across all module sizes."""
    rows = np.arange(1 << n, dtype=np.int64)
    flipped = rows[None, :] ^ (np.int64(1) << np.arange(n, dtype=np.int64))[:, None]
    return rows, flipped


def _naive_pin_counts(n: int, rows_per_module: int) -> np.ndarray:
    """Off-module link endpoints per module, columnar.

    Each stage boundary carries *two* cross links per row pair —
    ``(r, s)-(r^2^s, s+1)`` and ``(r^2^s, s)-(r, s+1)`` — so every row
    contributes one outgoing cross link per boundary: the ``(n, 2**n)``
    flip table *is* the directed cross-link set.
    """
    rows, flipped = _flip_table(n)
    num_modules = -((1 << n) // -rows_per_module)
    mu = rows // rows_per_module
    mv = flipped // rows_per_module
    cross = mu[None, :] != mv
    ids = np.concatenate(
        [np.broadcast_to(mu, mv.shape)[cross], mv[cross]]
    )
    return np.bincount(ids, minlength=num_modules)


@dataclass
class NaiveRowPartition:
    """``rows_per_module`` consecutive rows of ``B_n`` per module.

    ``rows_per_module`` need not be a power of two (the Section 5.2
    comparison uses 3 rows per chip).
    """

    bfly: Butterfly
    rows_per_module: int

    def __post_init__(self) -> None:
        if not 1 <= self.rows_per_module <= self.bfly.rows:
            raise ValueError(
                f"rows_per_module must be in [1, {self.bfly.rows}]"
            )

    def module_of(self, node: Tuple[int, int]) -> int:
        return node[0] // self.rows_per_module

    def module_ids(self, rows: np.ndarray, stages: np.ndarray = None) -> np.ndarray:
        """Columnar ``module_of``; stages are irrelevant to row packing."""
        return np.asarray(rows, dtype=np.int64) // self.rows_per_module

    @property
    def num_modules(self) -> int:
        return -(-self.bfly.rows // self.rows_per_module)

    def exact_pin_counts(self) -> Dict[int, int]:
        """Off-module link endpoints per module, by the columnar kernel."""
        counts = _naive_pin_counts(self.bfly.n, self.rows_per_module)
        return {m: int(c) for m, c in enumerate(counts)}

    @property
    def max_pins(self) -> int:
        return int(_naive_pin_counts(self.bfly.n, self.rows_per_module).max())

    def avg_per_node(self) -> Fraction:
        pins = _naive_pin_counts(self.bfly.n, self.rows_per_module)
        total_nodes = self.bfly.num_nodes
        return Fraction(int(pins.sum()), total_nodes)


def naive_offmodule_per_module(n: int, b: int) -> int:
    """Closed form for ``2**b`` consecutive rows of ``B_n`` per module.

    Cross links on bit ``t >= b`` leave the module: per such boundary each
    of the ``2**b`` rows sends one cross link out and receives one in.
    """
    if not 0 <= b <= n:
        raise ValueError(f"b must be in [0, {n}], got {b}")
    return 2 * (n - b) * (1 << b)


def naive_avg_per_node(n: int, b: int) -> Fraction:
    """~2 for ``b << n``: ``2 (n - b) / (n + 1)``."""
    return Fraction(naive_offmodule_per_module(n, b), (n + 1) * (1 << b))


def max_rows_within_pin_limit(n: int, pin_limit: int) -> int:
    """Largest count of consecutive rows of ``B_n`` whose module needs at
    most ``pin_limit`` off-module links (Section 5.2: 3 rows for the
    64-pin chip on ``B_9``).

    One flip-bit table serves every candidate size: each candidate is a
    fresh integer division of the same row/flipped columns, not a fresh
    ``O(n 2**n)`` link enumeration.
    """
    rows = 1 << n
    best = 0
    for m in range(1, rows + 1):
        if int(_naive_pin_counts(n, m).max()) <= pin_limit:
            best = m
        elif best:
            break
    if best == 0:
        raise ValueError(f"even one row of B_{n} exceeds {pin_limit} pins")
    return best


def naive_module_count(n: int, pin_limit: int) -> int:
    """Modules needed by the naive scheme under a pin limit, using exact
    pin counts."""
    m = max_rows_within_pin_limit(n, pin_limit)
    return -(-(1 << n) // m)


def paper_estimate_max_rows(n: int, pin_limit: int) -> int:
    """The paper's own sizing of the naive scheme: "approximately 2
    off-module links per node", i.e. ``2 m (n+1) <= pin_limit``.

    Section 5.2 applies exactly this estimate: 3 rows of ``B_9`` under a
    64-pin chip.  (Exact counting is slightly kinder to the baseline for
    aligned power-of-two groups, where low-bit cross links stay inside —
    see :func:`max_rows_within_pin_limit`; we reproduce both figures.)
    """
    m = pin_limit // (2 * (n + 1))
    if m < 1:
        raise ValueError(f"pin limit {pin_limit} too small for B_{n}")
    return m


def paper_estimate_module_count(n: int, pin_limit: int) -> int:
    """§5.2's 171 chips: ``ceil(2**n / paper_estimate_max_rows)``."""
    return -(-(1 << n) // paper_estimate_max_rows(n, pin_limit))
