"""RUDY: Rectangular Uniform wire DensitY estimation (Spindler [2]).

The classic lightweight congestion estimator the paper cites as the
probabilistic-model baseline: every net spreads a demand of
``wirelength / bbox_area`` uniformly over its bounding box, with the
horizontal share proportional to the bbox width and the vertical share
to its height.  No routing topology is required, which makes RUDY very
fast — and measurably less accurate than PUFFER's detour-imitation
estimator (ablation A3 compares both against the router).
"""

from __future__ import annotations

import numpy as np

from .. import kernels, obs
from ..netlist.design import Design
from ..router.grid import RoutingGrid, build_grid


def rudy_maps(
    design: Design,
    grid: RoutingGrid | None = None,
    pin_penalty: float = 0.05,
) -> tuple:
    """Per-direction RUDY demand maps.

    Args:
        design: the placed design.
        grid: Gcell grid (built from the design when omitted).
        pin_penalty: local demand added per pin, matching the PUFFER
            estimator so the two are comparable.

    Returns:
        ``(dmd_h, dmd_v, grid)`` demand arrays of shape ``(nx, ny)``.
    """
    grid = grid or build_grid(design)
    xlo, ylo, xhi, yhi = design.net_bboxes()
    degrees = design.net_degrees()
    nets = np.flatnonzero(degrees >= 2)
    with obs.span("congestion/rudy", nets=len(nets)):
        gx0, gy0 = grid.gcell_of(xlo[nets], ylo[nets])
        gx1, gy1 = grid.gcell_of(xhi[nets], yhi[nets])
        nx_cells = gx1 - gx0 + 1
        ny_cells = gy1 - gy0 + 1
        # One horizontal track across the bbox per covered row, averaged
        # over the rows, and symmetrically for vertical.
        dmd_h = kernels.rect_add(
            grid.nx, grid.ny, gx0, gx1, gy0, gy1, 1.0 / ny_cells
        )
        dmd_v = kernels.rect_add(
            grid.nx, grid.ny, gx0, gx1, gy0, gy1, 1.0 / nx_cells
        )

        if pin_penalty > 0 and design.num_pins:
            px, py = design.pin_positions()
            pgx, pgy = grid.gcell_of(px, py)
            np.add.at(dmd_h, (pgx, pgy), pin_penalty)
            np.add.at(dmd_v, (pgx, pgy), pin_penalty)
    return dmd_h, dmd_v, grid


def rudy_overflow(design: Design, grid: RoutingGrid | None = None) -> tuple:
    """RUDY-estimated ``(hof, vof)`` percentages, mirroring the router."""
    dmd_h, dmd_v, grid = rudy_maps(design, grid)
    over_h = np.maximum(dmd_h - grid.cap_h, 0.0).sum()
    over_v = np.maximum(dmd_v - grid.cap_v, 0.0).sum()
    return (
        float(100.0 * over_h / max(grid.cap_h.sum(), 1e-12)),
        float(100.0 * over_v / max(grid.cap_v.sum(), 1e-12)),
    )
