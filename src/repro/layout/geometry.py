"""Geometric primitives for grid-model layouts.

Coordinates are integers on the unit grid.  The layer convention follows
Section 4.2 of the paper: **odd-numbered layers carry vertical segments,
even-numbered layers carry horizontal segments**; a wire changing
direction changes layer through a *via* at the bend point.  The Thompson
model is the two-layer case (layer 1 vertical, layer 2 horizontal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Rect", "LayerPair"]

Point = Tuple[int, int]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle ``[x, x+w] x [y, y+h]`` (a node footprint)."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"rect must have positive size, got {self.w}x{self.h}")

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    def contains_point(self, p: Point, strict: bool = False) -> bool:
        x, y = p
        if strict:
            return self.x < x < self.x2 and self.y < y < self.y2
        return self.x <= x <= self.x2 and self.y <= y <= self.y2

    def on_boundary(self, p: Point) -> bool:
        return self.contains_point(p) and not self.contains_point(p, strict=True)

    def intersects(self, other: "Rect", strict: bool = True) -> bool:
        """Overlap test; ``strict`` compares open interiors (touching edges
        do not count as intersection)."""
        if strict:
            return (
                self.x < other.x2
                and other.x < self.x2
                and self.y < other.y2
                and other.y < self.y2
            )
        return (
            self.x <= other.x2
            and other.x <= self.x2
            and self.y <= other.y2
            and other.y <= self.y2
        )


@dataclass(frozen=True)
class LayerPair:
    """A (vertical-layer, horizontal-layer) pair used to wire one track
    group.  Which layers may carry which orientation is a *model* rule
    (the paper's even-``L`` layouts put verticals on odd layers; its
    odd-``L`` layouts put horizontals on odd layers), so no parity is
    enforced here — the validator checks pairs against the model.
    """

    vertical: int
    horizontal: int

    def __post_init__(self) -> None:
        if self.vertical < 1 or self.horizontal < 1:
            raise ValueError("layers are numbered from 1")
        if self.vertical == self.horizontal:
            raise ValueError("vertical and horizontal layers must differ")

    @classmethod
    def group(cls, i: int) -> "LayerPair":
        """Group ``i`` (0-based) of an even-``L`` layout: layers
        ``(2i + 1, 2i + 2)``."""
        return cls(vertical=2 * i + 1, horizontal=2 * i + 2)

    def layer_for(self, vertical: bool) -> int:
        return self.vertical if vertical else self.horizontal


THOMPSON_LAYERS = LayerPair(vertical=1, horizontal=2)
