"""Wire-length statistics for layouts.

The paper's headline wire metric is the *maximum* length (signal delay);
distributional statistics sharpen the comparison between layout shapes —
the grid scheme trades a slightly larger area constant for a much
shorter tail than the stage-column shape, which is exactly the paper's
argument for its scheme (propagation delay, drive power).

Lengths are read from the columns of :meth:`Layout.wire_table`, one
integer per wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..layout.model import Layout

__all__ = [
    "WireStats", "wire_stats", "wire_stats_from_lengths", "length_histogram",
]


@dataclass(frozen=True)
class WireStats:
    count: int
    total: int
    mean: float
    median: float
    p90: float
    p99: float
    max: int

    def as_row(self, label: str) -> Dict[str, object]:
        return {
            "layout": label,
            "wires": self.count,
            "mean len": round(self.mean, 1),
            "median": round(self.median, 1),
            "p90": round(self.p90, 1),
            "p99": round(self.p99, 1),
            "max": self.max,
        }


def _lengths(layout: Layout) -> np.ndarray:
    return layout.wire_table().wire_lengths()


def wire_stats(layout: Layout) -> WireStats:
    """Length distribution summary over all wires."""
    return wire_stats_from_lengths(_lengths(layout))


def wire_stats_from_lengths(lengths: np.ndarray) -> WireStats:
    """Length distribution summary from a per-wire length array — the
    chunked pipeline concatenates per-chunk ``wire_lengths()`` and gets
    the same stats as materialising the whole layout (quantiles need
    every length at once, but one int64 per wire is far smaller than
    the table)."""
    if len(lengths) == 0:
        raise ValueError("layout has no wires")
    return WireStats(
        count=len(lengths),
        total=int(lengths.sum()),
        mean=float(lengths.mean()),
        median=float(np.median(lengths)),
        p90=float(np.percentile(lengths, 90)),
        p99=float(np.percentile(lengths, 99)),
        max=int(lengths.max()),
    )


def length_histogram(
    layout: Layout, bins: Sequence[float]
) -> List[Tuple[str, int]]:
    """Counts of wires per length bin (``bins`` are the right edges).

    The first bin is closed at zero — ``[0, b0]``, not ``(0, b0]`` — so
    zero-length wires are counted and the bin counts always sum to
    ``wire_stats(layout).count``.
    """
    lengths = _lengths(layout)
    out: List[Tuple[str, int]] = []
    lo = 0.0
    for i, hi in enumerate(bins):
        mask = (lengths >= lo) if i == 0 else (lengths > lo)
        c = int((mask & (lengths <= hi)).sum())
        bracket = "[" if i == 0 else "("
        out.append((f"{bracket}{lo:.0f}, {hi:.0f}]", c))
        lo = hi
    out.append((f"> {lo:.0f}", int((lengths > lo).sum())))
    return out
