"""Loop-level reference of :func:`repro.legalizer.rows.build_segments`.

Every fixed cell becomes a die-clipped :class:`~repro.netlist.geometry.Rect`
and every row tests every blocker in turn.  The array form must return
the identical segment list; tests compare with ``==``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.legalizer.rows import RowSegment, _subtract


def build_segments_rects(design) -> list:
    """:func:`repro.legalizer.rows.build_segments` over ``Rect`` blockers."""
    tech = design.technology
    die = design.die
    site = tech.site_width
    row_ys = design.row_ys()
    blockers = []
    for cell in np.flatnonzero(~design.movable):
        rect = design.cell_rect(int(cell))
        clipped = rect.intersection(die)
        if clipped is not None:
            blockers.append(clipped)

    segments = []
    for row, y in enumerate(row_ys):
        y_top = y + tech.row_height
        intervals = [(die.xlo, die.xhi)]
        for rect in blockers:
            if rect.ylo >= y_top or rect.yhi <= y:
                continue
            intervals = _subtract(intervals, rect.xlo, rect.xhi)
        for xlo, xhi in intervals:
            xlo_snap = die.xlo + math.ceil((xlo - die.xlo) / site - 1e-9) * site
            xhi_snap = die.xlo + math.floor((xhi - die.xlo) / site + 1e-9) * site
            if xhi_snap - xlo_snap >= site - 1e-9:
                segments.append(RowSegment(row, float(y), xlo_snap, xhi_snap))
    return segments
