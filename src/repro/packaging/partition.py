"""Partitions of swap-butterflies onto modules (Section 2.3).

Two schemes from the paper:

* :class:`RowPartition` — ``2**k1`` consecutive swap-butterfly rows per
  module (all stages).  Straight and cross links are confined; only swap
  links leave.  This is the scheme of the board example (Section 5.2):
  for ``n = 9, k = (3,3,3)`` a module holds 80 nodes and has 56 off-module
  links.

* :class:`NucleusPartition` — one nucleus butterfly per module (the
  finer variant of Theorem 2.1): stage columns are cut at the composite
  boundaries into segments of sizes ``(k1 + 1, k2, ..., kl)`` and the rows
  of segment ``i`` are grouped ``2**k_i`` at a time.  Interior modules
  have ``k_i * 2**k_i`` nodes and exactly ``2**(k_i+2)`` off-module links.

Both classes expose ``module_of(node)`` plus exact enumeration helpers.
The columnar interface — :meth:`Partition.module_ids` mapping int64
``(rows, stages)`` columns to dense int64 module codes, with
:meth:`Partition.module_labels` decoding codes back to the hashable ids
``module_of`` returns — is what :mod:`repro.packaging.pins` feeds whole
edge arrays through.  ``RowPartition`` and ``NucleusPartition`` resolve
codes by bit arithmetic; the base class falls back to a ``module_of``
enumeration, so any custom partition that only defines ``module_of``
still works (at legacy speed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

import numpy as np

from ..topology.swap import SwapNetworkParams
from ..transform.swap_butterfly import SwapButterfly

__all__ = ["Partition", "RowPartition", "NucleusPartition"]

Node = Tuple[int, int]


class Partition:
    """Interface: a map from swap-butterfly nodes to module ids."""

    sb: SwapButterfly

    def module_of(self, node: Node) -> Hashable:
        raise NotImplementedError

    # -- columnar interface ------------------------------------------------
    def module_ids(self, rows: np.ndarray, stages: np.ndarray) -> np.ndarray:
        """Dense int64 module codes of the nodes ``(rows[i], stages[i])``.

        Codes index :meth:`module_labels`.  Fallback implementation: a
        ``module_of`` loop against the first-seen code table (subclasses
        override with pure bit arithmetic).
        """
        table = {m: i for i, m in enumerate(self.module_labels())}
        rows = np.asarray(rows, dtype=np.int64)
        stages = np.asarray(stages, dtype=np.int64)
        return np.fromiter(
            (table[self.module_of((int(u), int(s)))] for u, s in zip(rows, stages)),
            dtype=np.int64,
            count=len(rows),
        )

    def module_labels(self) -> List[Hashable]:
        """Module ids indexed by code, in first-seen stage-major order
        (the order the legacy enumerators produced)."""
        seen: Dict[Hashable, None] = {}
        for s in range(self.sb.stages):
            for u in range(self.sb.rows):
                seen.setdefault(self.module_of((u, s)), None)
        return list(seen)

    # -- derived enumeration ----------------------------------------------
    def modules(self) -> List[Hashable]:
        return self.module_labels()

    def module_sizes(self) -> Dict[Hashable, int]:
        """Nodes per module, from one ``module_ids`` pass + ``bincount``."""
        labels = self.module_labels()
        rows = np.tile(np.arange(self.sb.rows, dtype=np.int64), self.sb.stages)
        stages = np.repeat(
            np.arange(self.sb.stages, dtype=np.int64), self.sb.rows
        )
        counts = np.bincount(
            self.module_ids(rows, stages), minlength=len(labels)
        )
        return {m: int(c) for m, c in zip(labels, counts)}

    @property
    def num_modules(self) -> int:
        return len(self.module_labels())


@dataclass
class RowPartition(Partition):
    """``2**row_bits`` consecutive rows (all stages) per module."""

    sb: SwapButterfly
    row_bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.row_bits <= self.sb.n:
            raise ValueError(
                f"row_bits must be in [0, {self.sb.n}], got {self.row_bits}"
            )

    @classmethod
    def natural(cls, sb: SwapButterfly) -> "RowPartition":
        """The paper's choice: ``row_bits = k1`` so each module holds one
        cluster of every nucleus."""
        return cls(sb, sb.params.ks[0])

    def module_of(self, node: Node) -> int:
        return node[0] >> self.row_bits

    def module_ids(self, rows: np.ndarray, stages: np.ndarray) -> np.ndarray:
        return np.asarray(rows, dtype=np.int64) >> self.row_bits

    def module_labels(self) -> List[int]:
        return list(range(self.num_modules))

    def module_sizes(self) -> Dict[int, int]:
        # closed form: every module holds the same full-stage row block
        return {m: self.nodes_per_module for m in range(self.num_modules)}

    @property
    def rows_per_module(self) -> int:
        return 1 << self.row_bits

    @property
    def nodes_per_module(self) -> int:
        return self.rows_per_module * self.sb.stages

    @property
    def num_modules(self) -> int:
        return 1 << (self.sb.n - self.row_bits)


@dataclass
class NucleusPartition(Partition):
    """One nucleus butterfly per module (Theorem 2.1).

    Stage segments: segment 1 covers stages ``[0, k1]`` (the input stage
    rides along, so the first segment has ``k1 + 1`` columns); segment
    ``i >= 2`` covers ``[n_{i-1} + 1, n_i]``.  Rows of segment ``i`` are
    grouped ``2**k_i`` at a time.  Module id: ``(segment, row_group)``.

    Codes are segment-major: segment ``i`` owns the dense code block
    ``[start_i, start_i + 2**(n - k_i))`` with ``start_i = sum_{j<i}
    2**(n - k_j)`` — the same order the stage-major node sweep first
    encounters the modules in.
    """

    sb: SwapButterfly

    def segment_of_stage(self, s: int) -> int:
        """1-based segment of stage-column ``s``."""
        offs = self.sb.params.offsets
        for i in range(1, self.sb.params.l + 1):
            if s <= offs[i]:
                return i
        raise ValueError(f"stage {s} out of range")

    def module_of(self, node: Node) -> Tuple[int, int]:
        u, s = node
        seg = self.segment_of_stage(s)
        ki = self.sb.params.ks[seg - 1]
        return (seg, u >> ki)

    # -- columnar tables ---------------------------------------------------
    def _code_tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-stage segment index (0-based), per-segment shift ``k_i``,
        and per-segment code block start; built once and cached."""
        cached = getattr(self, "_code_tables_cache", None)
        if cached is None:
            p = self.sb.params
            seg_of_stage = np.empty(self.sb.stages, dtype=np.int64)
            for s in range(self.sb.stages):
                seg_of_stage[s] = self.segment_of_stage(s) - 1
            ks = np.asarray(p.ks, dtype=np.int64)
            blocks = [1 << (p.n - k) for k in p.ks]
            starts = np.concatenate(
                ([0], np.cumsum(blocks[:-1], dtype=np.int64))
            ).astype(np.int64)
            cached = (seg_of_stage, ks, starts)
            self._code_tables_cache = cached
        return cached

    def module_ids(self, rows: np.ndarray, stages: np.ndarray) -> np.ndarray:
        seg_of_stage, ks, starts = self._code_tables()
        seg = seg_of_stage[np.asarray(stages, dtype=np.int64)]
        return starts[seg] + (np.asarray(rows, dtype=np.int64) >> ks[seg])

    def module_labels(self) -> List[Tuple[int, int]]:
        p = self.sb.params
        return [
            (i, g)
            for i in range(1, p.l + 1)
            for g in range(1 << (p.n - p.ks[i - 1]))
        ]

    def module_sizes(self) -> Dict[Tuple[int, int], int]:
        # closed form: every module of segment i has nodes_per_module(i)
        p = self.sb.params
        return {
            (i, g): self.nodes_per_module(i)
            for i in range(1, p.l + 1)
            for g in range(1 << (p.n - p.ks[i - 1]))
        }

    def segment_stage_range(self, seg: int) -> Tuple[int, int]:
        """Inclusive stage-column range of segment ``seg``."""
        offs = self.sb.params.offsets
        if seg == 1:
            return (0, offs[1])
        return (offs[seg - 1] + 1, offs[seg])

    def nodes_per_module(self, seg: int) -> int:
        lo, hi = self.segment_stage_range(seg)
        return (hi - lo + 1) * (1 << self.sb.params.ks[seg - 1])

    @property
    def max_nodes_per_module(self) -> int:
        return max(
            self.nodes_per_module(i) for i in range(1, self.sb.params.l + 1)
        )

    @property
    def num_modules(self) -> int:
        n = self.sb.n
        return sum(1 << (n - k) for k in self.sb.params.ks)
