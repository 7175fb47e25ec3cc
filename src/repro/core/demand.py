"""Topology-based probabilistic routing demand (paper Sec. III-A2).

Every net is decomposed by RSMT into two-point nets over Gcell
coordinates.  I-shaped two-point nets consume a unit of directional
demand in every Gcell they pass; L-shaped ones spread an *average* demand
over their bounding box (each Gcell gets ``1/(dy+1)`` horizontal and
``1/(dx+1)`` vertical demand, the expectation over the two L routes).  A
pin penalty captures the demand of local nets whose pins share a Gcell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels, obs
from ..netlist.design import Design
from ..router.grid import RoutingGrid
from ..router.router import net_topologies, pin_flat_indices
from ..rsmt.batch import TopologyBatch


@dataclass(eq=False)
class StraightSegments:
    """The straight two-point nets in edge order, one array per field:
    the units the detour expansion acts on.

    ``horizontal`` segments run along x at row ``fixed`` (vertical ones
    along y at column ``fixed``) from ``lo`` to ``hi >= lo``.  Steiner
    endpoints (``*_is_pin`` false) receive extra perpendicular detour
    demand when the segment is expanded; pins do not (cells can move).
    """

    horizontal: np.ndarray
    fixed: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lo_is_pin: np.ndarray
    hi_is_pin: np.ndarray

    def __len__(self) -> int:
        return len(self.horizontal)


def build_topologies(design: Design, grid: RoutingGrid) -> TopologyBatch:
    """RSMT topologies of every multi-Gcell net at the current placement
    (nets with fewer than two distinct Gcells are local: pin penalty
    only).  Trees of nets whose shape was seen before, in any round or
    caller of this process, come from the tree memo of
    :mod:`repro.rsmt.batch`."""
    with obs.span("congestion/topologies") as span:
        hits = obs.counter("rsmt/memo_hits")
        before = hits.value
        topologies = net_topologies(design, grid, np.arange(design.num_nets))
        span.set(nets=len(topologies), cached=int(hits.value - before))
    return topologies


@dataclass
class DemandResult:
    """Demand maps plus the I-segment inventory used by the expansion."""

    dmd_h: np.ndarray
    dmd_v: np.ndarray
    pin_count: np.ndarray
    i_segments: StraightSegments


def accumulate_demand(
    design: Design,
    grid: RoutingGrid,
    topologies: TopologyBatch,
    pin_penalty: float = 0.05,
) -> DemandResult:
    """Probabilistic demand maps for the given topologies.

    Args:
        design: provides pin positions for the pin penalty.
        grid: the Gcell grid.
        topologies: output of :func:`build_topologies`.
        pin_penalty: demand added to both directions of each pin's Gcell.

    Returns:
        A :class:`DemandResult`; ``pin_count`` is the raw per-Gcell pin
        count (reused by the pin-density features).
    """
    with obs.span("congestion/demand", nets=len(topologies)) as span:
        a, b = topologies.edges.T
        ax, ay, a_pin = topologies.gx[a], topologies.gy[a], topologies.is_pin[a]
        bx, by, b_pin = topologies.gx[b], topologies.gy[b], topologies.is_pin[b]
        xlo = np.minimum(ax, bx)
        xhi = np.maximum(ax, bx)
        ylo = np.minimum(ay, by)
        yhi = np.maximum(ay, by)
        dx = xhi - xlo
        dy = yhi - ylo
        # Every edge is a weighted rectangle on each map: straight edges
        # carry unit demand along their row/column (the 1/(d+1) weight
        # degenerates to 1); L-shaped edges spread the average over the
        # bbox.  A zero extent contributes nothing in that direction.
        mh = dx > 0
        mv = dy > 0
        dmd_h = kernels.rect_add(
            grid.nx, grid.ny,
            xlo[mh], xhi[mh], ylo[mh], yhi[mh], 1.0 / (dy[mh] + 1.0),
        )
        dmd_v = kernels.rect_add(
            grid.nx, grid.ny,
            xlo[mv], xhi[mv], ylo[mv], yhi[mv], 1.0 / (dx[mv] + 1.0),
        )
        # Straight edges, in edge order, feed the detour expansion.
        straight = np.flatnonzero(mh ^ mv)
        horiz = mh[straight]
        a_first = np.where(
            horiz, ax[straight] < bx[straight], ay[straight] < by[straight]
        )
        i_segments = StraightSegments(
            horiz,
            np.where(horiz, ylo[straight], xlo[straight]),
            np.where(horiz, xlo[straight], ylo[straight]),
            np.where(horiz, xhi[straight], yhi[straight]),
            np.where(a_first, a_pin[straight], b_pin[straight]),
            np.where(a_first, b_pin[straight], a_pin[straight]),
        )
        pin_count = np.bincount(
            pin_flat_indices(design, grid), minlength=grid.nx * grid.ny
        ).reshape(grid.nx, grid.ny).astype(np.float64)
        if pin_penalty > 0:
            dmd_h += pin_penalty * pin_count
            dmd_v += pin_penalty * pin_count
        span.set(segments=len(i_segments))
    return DemandResult(dmd_h, dmd_v, pin_count, i_segments)
