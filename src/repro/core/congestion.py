"""The congestion estimator: capacity + demand + expansion => Cg maps.

This is the routability optimizer's eye (paper Sec. III-A): a fast 2D
congestion map built by imitating routing detours and clustered-cell
spreading, *without* running a global router.  The signed congestion
(Eq. 11) is deliberately not clipped at zero — the features keep the
deviation between the estimate and the eventual router result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..netlist.design import Design
from ..router.grid import RoutingGrid
from .capacity import CapacityModel
from .demand import DemandResult, accumulate_demand, build_topologies
from .expansion import ExpansionParams, expand_demand


@dataclass
class EstimatorParams:
    """Knobs of the congestion estimator.

    Attributes:
        pin_penalty: local-net demand per pin (Sec. III-A2).
        expansion: detour-imitation parameters (Sec. III-A3).
        expand: whether to run the expansion at all (ablation A3).
    """

    pin_penalty: float = 0.05
    expansion: ExpansionParams = field(default_factory=ExpansionParams)
    expand: bool = True


@dataclass
class CongestionMap:
    """Signed congestion maps on the Gcell grid.

    ``cg_h`` / ``cg_v`` follow Eq. (11):
    ``(Dmd - Cap) / max(Cap, 1)`` — negative where resources are spare.
    ``cg`` combines them per Eq. (10).
    """

    grid: RoutingGrid
    dmd_h: np.ndarray
    dmd_v: np.ndarray
    cg_h: np.ndarray
    cg_v: np.ndarray
    cg: np.ndarray
    pin_count: np.ndarray
    pin_density: np.ndarray

    def overflow_ratio(self) -> tuple:
        """Estimated ``(hof, vof)`` in percent, mirroring the router."""
        over_h = np.maximum(self.dmd_h - self.grid.cap_h, 0.0).sum()
        over_v = np.maximum(self.dmd_v - self.grid.cap_v, 0.0).sum()
        return (
            float(100.0 * over_h / max(self.grid.cap_h.sum(), 1e-12)),
            float(100.0 * over_v / max(self.grid.cap_v.sum(), 1e-12)),
        )


def combine_congestion(cg_h: np.ndarray, cg_v: np.ndarray) -> np.ndarray:
    """Paper Eq. (10): per-Gcell combination of directional congestion."""
    opposite = cg_h * cg_v < 0.0
    return np.where(opposite, np.maximum(cg_h, cg_v), cg_h + cg_v)


class CongestionEstimator:
    """Routing-detour-imitation-based congestion estimation."""

    def __init__(self, design: Design, params: EstimatorParams | None = None) -> None:
        self.design = design
        self.params = params or EstimatorParams()
        self._capacity = CapacityModel(design)

    @property
    def grid(self) -> RoutingGrid:
        return self._capacity.grid

    def estimate(self) -> tuple:
        """Estimate congestion at the design's current placement.

        Returns:
            ``(congestion_map, topologies, demand_result)`` — the
            ``TopologyBatch`` and raw demand feed the feature extractor.
        """
        with obs.span("congestion/estimate") as est_span:
            grid = self.grid
            topologies = build_topologies(self.design, grid)
            demand = accumulate_demand(
                self.design, grid, topologies, self.params.pin_penalty
            )
            if self.params.expand:
                expand_demand(grid, demand, self.params.expansion)
            cmap = self._finish(grid, demand)
            est_hof, est_vof = cmap.overflow_ratio()
            est_span.set(nets=len(topologies), est_hof=est_hof, est_vof=est_vof)
        return cmap, topologies, demand

    def _finish(self, grid: RoutingGrid, demand: DemandResult) -> CongestionMap:
        cg_h = (demand.dmd_h - grid.cap_h) / np.maximum(grid.cap_h, 1.0)
        cg_v = (demand.dmd_v - grid.cap_v) / np.maximum(grid.cap_v, 1.0)
        cg = combine_congestion(cg_h, cg_v)
        tech = self.design.technology
        sites_per_gcell = (grid.gcell_w * grid.gcell_h) / (
            tech.site_width * tech.row_height
        )
        pin_density = demand.pin_count / max(sites_per_gcell, 1e-12)
        return CongestionMap(
            grid=grid,
            dmd_h=demand.dmd_h,
            dmd_v=demand.dmd_v,
            cg_h=cg_h,
            cg_v=cg_v,
            cg=cg,
            pin_count=demand.pin_count,
            pin_density=pin_density,
        )
