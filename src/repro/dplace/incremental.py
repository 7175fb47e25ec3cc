"""Incremental HPWL evaluation for detailed placement.

Detailed placement evaluates thousands of tentative moves; recomputing
the full wirelength each time would dominate the runtime.  This
evaluator caches per-net bounding boxes and recomputes only the nets
touched by a move.
"""

from __future__ import annotations

import numpy as np

from ..netlist.design import Design


class IncrementalHpwl:
    """Cached per-net bounding boxes with tentative-move deltas."""

    def __init__(self, design: Design) -> None:
        self.design = design
        xlo, ylo, xhi, yhi = (a.tolist() for a in design.net_bboxes())
        self._bbox = {}
        self._total = 0.0
        for net in np.flatnonzero(np.diff(design.net_start) > 0).tolist():
            box = self._bbox[net] = (xlo[net], xhi[net], ylo[net], yhi[net])
            self._total += (box[1] - box[0]) + (box[3] - box[2])

    @property
    def total(self) -> float:
        """Current total HPWL."""
        return self._total

    def _net_box(self, net: int, overrides: dict) -> tuple:
        """Net bbox with per-cell position overrides applied.

        A single numpy gather over the net's pins; the (typically tiny)
        ``overrides`` dict is applied as per-cell masks on top.
        """
        design = self.design
        pins = design.pins_of_net(net)
        cells = design.pin_cell[pins]
        dx = design.pin_dx[pins]
        dy = design.pin_dy[pins]
        xs = design.x[cells] + dx
        ys = design.y[cells] + dy
        for cell, (cx, cy) in overrides.items():
            mask = cells == int(cell)
            if mask.any():
                xs[mask] = cx + dx[mask]
                ys[mask] = cy + dy[mask]
        return (float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max()))

    def _affected_nets(self, cells) -> set:
        nets = set()
        for cell in cells:
            for p in self.design.pins_of_cell(int(cell)):
                nets.add(int(self.design.pin_net[p]))
        return nets

    def delta(self, moves: dict) -> float:
        """HPWL change if each ``cell -> (x, y)`` in ``moves`` applied."""
        delta = 0.0
        for net in self._affected_nets(moves.keys()):
            old = self._bbox.get(net)
            if old is None:
                continue
            new = self._net_box(net, moves)
            delta += ((new[1] - new[0]) + (new[3] - new[2])) - (
                (old[1] - old[0]) + (old[3] - old[2])
            )
        return delta

    def commit(self, moves: dict) -> None:
        """Apply ``moves`` to the design and refresh the touched nets."""
        for cell, (x, y) in moves.items():
            self.design.x[int(cell)] = x
            self.design.y[int(cell)] = y
        for net in self._affected_nets(moves.keys()):
            old = self._bbox.get(net)
            if old is None:
                continue
            new = self._net_box(net, {})
            self._bbox[net] = new
            self._total += ((new[1] - new[0]) + (new[3] - new[2])) - (
                (old[1] - old[0]) + (old[3] - old[2])
            )

    def verify(self, tolerance: float = 1e-6) -> bool:
        """Cross-check the cache against a fresh HPWL computation."""
        return abs(self._total - self.design.hpwl()) <= tolerance * max(
            self._total, 1.0
        )
