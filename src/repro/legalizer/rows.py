"""Standard-cell row and sub-row (segment) management.

Legalization operates on *segments*: the maximal free intervals of each
row after subtracting fixed objects (macros, IO pads).  Segment x bounds
are snapped inward to the site grid so any site-aligned cell inside a
segment is legal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..netlist.design import Design


@dataclass
class RowSegment:
    """A free interval of one row.

    Attributes:
        row: row index (bottom row is 0).
        y: bottom y coordinate of the row.
        xlo, xhi: free interval (site aligned).
    """

    row: int
    y: float
    xlo: float
    xhi: float

    @property
    def width(self) -> float:
        return self.xhi - self.xlo


def build_segments(design: Design) -> list:
    """All free row segments of ``design``, ordered by (row, xlo).

    Fixed objects are subtracted from every row they overlap; intervals
    narrower than one site are dropped.  The fixed cells' die-clipped
    extents come from array ops (the ``max``/``min`` and drop rule of
    :meth:`~repro.netlist.geometry.Rect.intersection`), and each row
    subtracts only the blockers overlapping it, in cell-index order:
    the same :func:`_subtract` sequence as testing every blocker against
    every row, at a cost that follows the blockers rather than blockers
    times rows (an ECO region legalization makes every clean cell one).
    """
    tech = design.technology
    die = design.die
    site = tech.site_width
    row_ys = design.row_ys()
    fixed = np.flatnonzero(~design.movable)
    hw = design.w[fixed] / 2.0
    hh = design.h[fixed] / 2.0
    bxlo = np.maximum(design.x[fixed] - hw, die.xlo)
    bylo = np.maximum(design.y[fixed] - hh, die.ylo)
    bxhi = np.minimum(design.x[fixed] + hw, die.xhi)
    byhi = np.minimum(design.y[fixed] + hh, die.yhi)
    clipped = ~((bxhi <= bxlo) | (byhi <= bylo))
    bylo, byhi = bylo[clipped], byhi[clipped]
    bxlo_list, bxhi_list = bxlo[clipped].tolist(), bxhi[clipped].tolist()

    segments = []
    for row, y in enumerate(row_ys):
        y_top = y + tech.row_height
        intervals = [(die.xlo, die.xhi)]
        for b in np.flatnonzero(~((bylo >= y_top) | (byhi <= y))).tolist():
            intervals = _subtract(intervals, bxlo_list[b], bxhi_list[b])
        for xlo, xhi in intervals:
            xlo_snap = die.xlo + math.ceil((xlo - die.xlo) / site - 1e-9) * site
            xhi_snap = die.xlo + math.floor((xhi - die.xlo) / site + 1e-9) * site
            if xhi_snap - xlo_snap >= site - 1e-9:
                segments.append(RowSegment(row, float(y), xlo_snap, xhi_snap))
    return segments


def _subtract(intervals: list, xlo: float, xhi: float) -> list:
    """Remove ``[xlo, xhi]`` from a list of disjoint intervals."""
    result = []
    for lo, hi in intervals:
        if xhi <= lo or xlo >= hi:
            result.append((lo, hi))
            continue
        if xlo > lo:
            result.append((lo, xlo))
        if xhi < hi:
            result.append((xhi, hi))
    return result


@dataclass
class SegmentIndex:
    """Per-row lookup of segments for fast candidate enumeration."""

    segments: list
    by_row: dict = field(default_factory=dict)
    row_ys: np.ndarray = None
    row_height: float = 0.0

    @classmethod
    def build(cls, design: Design) -> "SegmentIndex":
        segments = build_segments(design)
        by_row = {}
        for seg in segments:
            by_row.setdefault(seg.row, []).append(seg)
        for seg_list in by_row.values():
            seg_list.sort(key=lambda s: s.xlo)
        return cls(
            segments=segments,
            by_row=by_row,
            row_ys=design.row_ys(),
            row_height=design.technology.row_height,
        )

    @property
    def num_rows(self) -> int:
        return len(self.row_ys)

    def nearest_row(self, y_bottom: float) -> int:
        """Row index whose bottom y is closest to ``y_bottom``."""
        if len(self.row_ys) == 0:
            raise ValueError("design has no rows")
        idx = int(np.clip(
            np.round((y_bottom - self.row_ys[0]) / self.row_height),
            0,
            len(self.row_ys) - 1,
        ))
        return idx
