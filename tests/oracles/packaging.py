"""The original per-link and per-node packaging enumerators.

The columnar kernels in :mod:`repro.packaging` are held to these loops:
:func:`count_off_module_links_legacy` (same totals *and* the same
per-module dicts, in the same order), :func:`module_sizes_legacy`
(``Partition.module_sizes``) and :func:`exact_pin_counts_legacy`
(``NaiveRowPartition.exact_pin_counts``).  The last two were methods of
the partition classes; here they take the partition as their argument.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.packaging.partition import Partition
from repro.packaging.pins import PinReport
from repro.topology.bits import flip_bit

__all__ = [
    "count_off_module_links_legacy",
    "module_sizes_legacy",
    "exact_pin_counts_legacy",
]


def count_off_module_links_legacy(partition: Partition) -> PinReport:
    """The original per-link enumeration; kept as a differential oracle."""
    sb = partition.sb
    per_module: Dict[Hashable, int] = {}
    sizes = module_sizes_legacy(partition)
    for m in sizes:
        per_module[m] = 0
    off = 0
    total = 0
    for u, v, _kind in sb.links():
        total += 1
        mu, mv = partition.module_of(u), partition.module_of(v)
        if mu != mv:
            off += 1
            per_module[mu] += 1
            per_module[mv] += 1
    return PinReport(
        num_modules=len(sizes),
        total_links=total,
        off_module_links=off,
        per_module=per_module,
        nodes_per_module=sizes,
    )


def module_sizes_legacy(partition) -> Dict[Hashable, int]:
    """The original per-node loop; kept as a differential oracle."""
    sizes: Dict[Hashable, int] = {}
    for s in range(partition.sb.stages):
        for u in range(partition.sb.rows):
            m = partition.module_of((u, s))
            sizes[m] = sizes.get(m, 0) + 1
    return sizes


def exact_pin_counts_legacy(partition) -> Dict[int, int]:
    """The original per-link loop; kept as a differential oracle."""
    pins = {m: 0 for m in range(partition.num_modules)}
    b = partition.bfly
    for s in range(b.n):
        for r in range(b.rows):
            v = flip_bit(r, s)
            mu = r // partition.rows_per_module
            mv = v // partition.rows_per_module
            if mu != mv:
                pins[mu] += 1
                pins[mv] += 1
    return pins
