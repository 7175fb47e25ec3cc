"""The evaluation global router (Innovus-GR substitute).

Given a placed design, the router decomposes every net into two-point
segments via RSMT, pattern-routes them congestion-aware (straight / best
L), then negotiates residual overflow with history-based rip-up and
bounded maze rerouting.  It reports the same quantities the paper
reads off the Innovus global router: per-direction overflow ratios
("HOF"/"VOF"), routed wirelength, and congestion maps.

Local routing demand is modelled by a per-pin Gcell demand, following the
Gcell-based resource model the paper adopts from TritonRoute-WXL [17]:
clustered pins consume routing resources even when their nets never leave
the Gcell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..netlist.design import Design
from ..rsmt.batch import TopologyBatch, gcell_rsmt_batch, net_gcells
from .cost import CostModel, CostParams
from .grid import DemandMaps, RoutingGrid, build_grid
from .maze import MazeMemo, maze_route
from .pattern import best_pattern_route


@dataclass
class RouterParams:
    """Knobs of :class:`GlobalRouter`.

    Attributes:
        rrr_rounds: rip-up-and-reroute rounds after the initial pass.
        cost: congestion cost model parameters.
        maze_margin: initial bbox expansion for maze windows (Gcells).
        maze_margin_growth: margin added per RRR round.
        max_reroute_per_round: cap on rerouted segments per round.
        pin_demand: per-pin local demand added to both directions of the
            pin's Gcell.
        use_z_patterns: consider Z shapes already in the initial pass.
    """

    rrr_rounds: int = 4
    cost: CostParams = field(default_factory=CostParams)
    maze_margin: int = 6
    maze_margin_growth: int = 4
    max_reroute_per_round: int = 4000
    pin_demand: float = 0.05
    use_z_patterns: bool = False

    def to_dict(self) -> dict:
        """JSON-safe wire dict (``cost`` nests its own versioned dict)."""
        from ..schema import dataclass_to_dict

        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RouterParams":
        """Rebuild from :meth:`to_dict`; unknown keys raise ``SchemaError``."""
        from ..schema import dataclass_from_dict

        return dataclass_from_dict(cls, data, nested={"cost": CostParams.from_dict})


@dataclass
class RouteReport:
    """Outcome of a global-routing run."""

    hof: float
    vof: float
    wirelength: float
    runtime: float
    rounds: int
    num_segments: int
    via_count: int
    grid: RoutingGrid
    demand: DemandMaps
    overflow_history: list = field(default_factory=list)
    state: "RouteState | None" = field(default=None, repr=False)

    @property
    def total_overflow(self) -> float:
        """Combined overflow ratio (the exploration objective)."""
        return self.hof + self.vof

    def summary(self) -> str:
        return (
            f"HOF {self.hof:.3f}%  VOF {self.vof:.3f}%  "
            f"WL {self.wirelength:.4g}  RT {self.runtime:.1f}s"
        )


@dataclass
class RouteState:
    """Retained routing state for incremental reroutes.

    Captured by ``GlobalRouter(..., keep_state=True)`` and consumed by
    :func:`repro.router.incremental.reroute_nets`: everything needed to
    rip up the segments of a handful of nets, reroute them against live
    congestion, and report fresh metrics without touching the rest of
    the solution.

    ``route_terms`` holds each route's ``(length, vias)`` term
    (:func:`route_length_and_vias`), aligned with ``routes``, so a
    reroute totals routed wirelength and vias without recounting the
    routes it did not touch.
    """

    grid: RoutingGrid
    demand: DemandMaps
    cost_model: CostModel
    segments: list
    seg_net: np.ndarray
    routes: list
    route_terms: list
    pin_flat: np.ndarray
    params: RouterParams


# ----------------------------------------------------------------------
# Reusable pieces (shared by the full run and incremental reroutes)
# ----------------------------------------------------------------------


def pin_flat_indices(design: Design, grid: RoutingGrid) -> np.ndarray:
    """Flat Gcell index (``gx * ny + gy``) of every pin."""
    if design.num_pins == 0:
        return np.zeros(0, dtype=np.int64)
    px, py = design.pin_positions()
    gx, gy = grid.gcell_of(px, py)
    return (gx * grid.ny + gy).astype(np.int64)


def net_topologies(design: Design, grid: RoutingGrid, nets: np.ndarray) -> TopologyBatch:
    """RSMTs of the ``nets`` spanning two or more Gcells, in one batch
    (``batch.net`` holds positions in ``nets``).  Nets within one Gcell
    are local and get no tree."""
    # Dedup each net's pin Gcells and build every RSMT in one kernel
    # call.
    ustart, ucell = net_gcells(
        pin_flat_indices(design, grid), design.net_start, design.net_pins,
        nets, grid.nx * grid.ny,
    )
    eligible = np.flatnonzero(np.diff(ustart) >= 2)
    return gcell_rsmt_batch(ustart, ucell, eligible, grid.ny)


def build_net_segments(
    design: Design, grid: RoutingGrid, nets=None
) -> tuple:
    """Two-point RSMT segments (Gcell coords) plus their owning net ids.

    Args:
        nets: net indices to decompose; defaults to every net.

    Returns:
        ``(segments, seg_net)`` — a list of ``(gx0, gy0, gx1, gy1)``
        tuples and a parallel int64 array of net ids.
    """
    if nets is None:
        net_ids = np.arange(design.num_nets, dtype=np.int64)
    else:
        net_ids = np.asarray(list(nets), dtype=np.int64)
    batch = net_topologies(design, grid, net_ids)
    a, b = batch.edges.T
    segments = list(zip(
        batch.gx[a].tolist(), batch.gy[a].tolist(),
        batch.gx[b].tolist(), batch.gy[b].tolist(),
    ))
    return segments, net_ids[np.repeat(batch.net, np.diff(batch.edge_start))]


def commit_route(route, sign, dmd_h, dmd_v, cost_model, cost_h_flat, cost_v_flat):
    """Apply a route's demand and refresh costs on the touched cells.

    Most routes touch two or three Gcells, so the refresh runs per cell
    on Python floats rather than paying numpy's per-call overhead: the
    same IEEE operations, in the same order, as the elementwise form in
    :func:`rip_routes`.  ``w * over / capn`` associates as
    ``(w * over) / capn`` here, unlike :meth:`CostModel.cost_maps`;
    changing either order moves results.
    """
    params = cost_model.params
    grid = cost_model.grid
    if len(route[0]):
        _commit_cells(route[0], sign, dmd_h, grid.cap_h, cost_model.hist_h,
                      cost_h_flat, params)
    if len(route[1]):
        _commit_cells(route[1], sign, dmd_v, grid.cap_v, cost_model.hist_v,
                      cost_v_flat, params)


def _commit_cells(cells, sign, dmd, cap, hist, cost, params) -> None:
    """One direction of :func:`commit_route` (``cap``/``hist`` are
    2D maps, read through flat indices)."""
    np.add.at(dmd, cells, sign)
    slack, weight = params.slack, params.congestion_weight
    for c in cells.tolist():
        cap_c = cap.item(c)
        over = max(dmd.item(c) + 1.0 - slack * cap_c, 0.0)
        cost[c] = 1.0 + weight * over / max(cap_c, 1.0) + hist.item(c)


def rip_routes(routes, dmd_h, dmd_v, cost_model, cost_h_flat, cost_v_flat):
    """Remove every route's demand in one pass and refresh the costs.

    Equal to ``commit_route(r, -1.0, ...)`` for each route in order:
    ``np.add.at`` over the concatenated cells applies the same per-cell
    sequence of -1.0 additions, and a cell's cost is a function of its
    final demand, capacity and history alone (history does not change
    here), so the per-route intermediate refreshes were dead writes.
    """
    if not routes:
        return
    params = cost_model.params
    grid = cost_model.grid
    for side, dmd, cap, hist, cost in (
        (0, dmd_h, grid.cap_h, cost_model.hist_h, cost_h_flat),
        (1, dmd_v, grid.cap_v, cost_model.hist_v, cost_v_flat),
    ):
        cells = np.concatenate([route[side] for route in routes])
        if not len(cells):
            continue
        np.add.at(dmd, cells, -1.0)
        cap_c = cap.ravel()[cells]
        over = np.maximum(dmd[cells] + 1.0 - params.slack * cap_c, 0.0)
        cost[cells] = (
            1.0 + params.congestion_weight * over / np.maximum(cap_c, 1.0)
            + hist.ravel()[cells]
        )


def select_victims(routes, grid: RoutingGrid, demand: DemandMaps, window=None,
                   baseline=None) -> list:
    """Routes passing through overflowed Gcells, worst offenders first.

    Args:
        window: optional inclusive ``(gx_lo, gy_lo, gx_hi, gy_hi)``
            Gcell box; overflow outside it is ignored, restricting the
            rip-up to a dirty region.
        baseline: optional ``(over_h, over_v)`` overflow maps from an
            earlier point in time; only overflow *in excess of* the
            baseline scores, so residual congestion a converged run
            already accepted does not trigger fresh rip-ups.
    """
    over_h, over_v = demand.overflow_maps(grid)
    if baseline is not None:
        over_h = np.maximum(over_h - np.clip(baseline[0], 0.0, None), 0.0)
        over_v = np.maximum(over_v - np.clip(baseline[1], 0.0, None), 0.0)
    if window is not None:
        gx_lo, gy_lo, gx_hi, gy_hi = window
        mask = np.zeros((grid.nx, grid.ny), dtype=bool)
        mask[
            max(gx_lo, 0): gx_hi + 1,
            max(gy_lo, 0): gy_hi + 1,
        ] = True
        over_h = np.where(mask, over_h, 0.0)
        over_v = np.where(mask, over_v, 0.0)
    over_h_flat = over_h.ravel()
    over_v_flat = over_v.ravel()
    # Overflow is >= 0, so a route scores above zero exactly when it
    # passes through a hot (positive-overflow) Gcell; only those are
    # scored, the rest would score 0.0 and be dropped.
    scored = []
    for i in _routes_touching(routes, over_h_flat > 0, over_v_flat > 0):
        h_cells, v_cells = routes[i]
        score = 0.0
        if len(h_cells):
            score += float(over_h_flat[h_cells].sum())
        if len(v_cells):
            score += float(over_v_flat[v_cells].sum())
        scored.append((score, i))
    scored.sort(reverse=True)
    return [i for _, i in scored]


def _routes_touching(routes, hot_h, hot_v) -> list:
    """Ascending indices of the routes with a cell in ``hot_h`` (H
    cells) or ``hot_v`` (V cells); ``None`` routes are skipped."""
    live = [i for i, route in enumerate(routes) if route is not None]
    if not live or not (hot_h.any() or hot_v.any()):
        return []
    touched = []
    for side, hot in ((0, hot_h), (1, hot_v)):
        cells = [routes[i][side] for i in live]
        owner = np.repeat(live, [len(c) for c in cells])
        touched.append(owner[hot[np.concatenate(cells)]])
    return np.unique(np.concatenate(touched)).tolist()


def route_length_and_vias(route, grid: RoutingGrid) -> tuple:
    """One route's ``(length, vias)`` term: distinct Gcells the route
    uses in both directions are layer changes."""
    h_cells, v_cells = route
    length = len(h_cells) * grid.gcell_w + len(v_cells) * grid.gcell_h
    if len(h_cells) and len(v_cells):
        return length, len(set(h_cells.tolist()).intersection(v_cells.tolist()))
    return length, 0


def sum_route_terms(terms) -> tuple:
    """Total ``(length, vias)`` of per-route terms, added in order (an
    explicit loop: ``sum`` may compensate float additions)."""
    total = 0.0
    vias = 0
    for length, route_vias in terms:
        total += length
        vias += route_vias
    return total, vias


def wirelength_and_vias(routes, grid: RoutingGrid) -> tuple:
    """Total routed length plus via count, recounted over ``routes``."""
    return sum_route_terms(route_length_and_vias(r, grid) for r in routes)


class GlobalRouter:
    """Congestion-negotiating global router over the Gcell grid.

    Args:
        keep_state: retain the full routing state (demand, per-net
            segments, routes) on ``RouteReport.state`` so
            :func:`repro.router.incremental.reroute_nets` can later rip
            up and reroute individual nets.
    """

    def __init__(
        self,
        design: Design,
        params: RouterParams | None = None,
        keep_state: bool = False,
    ) -> None:
        self.design = design
        self.params = params or RouterParams()
        self.keep_state = keep_state

    def run(self) -> RouteReport:
        """Route the design at its current placement."""
        with obs.span("route/run") as run_span:
            report = self._run()
            run_span.set(
                hof=report.hof,
                vof=report.vof,
                wirelength=report.wirelength,
                rounds=report.rounds,
                segments=report.num_segments,
            )
        return report

    def _run(self) -> RouteReport:
        start = time.perf_counter()
        params = self.params
        design = self.design
        grid = build_grid(design)
        demand = DemandMaps.zeros(grid)
        cost_model = CostModel(grid, demand, params.cost)

        pin_flat = self._add_pin_demand(grid, demand)
        with obs.span("route/rsmt") as rsmt_span:
            segments, seg_net = build_net_segments(design, grid)
            rsmt_span.set(segments=len(segments))
        routes = [None] * len(segments)
        dmd_h = demand.dmd_h.ravel()
        dmd_v = demand.dmd_v.ravel()
        cost_h, cost_v = cost_model.cost_maps()
        cost_h_flat = cost_h.ravel()
        cost_v_flat = cost_v.ravel()

        # Initial pass: short segments first so long ones see congestion.
        with obs.span("route/initial_pass", segments=len(segments)):
            order = sorted(
                range(len(segments)),
                key=lambda i: abs(segments[i][0] - segments[i][2])
                + abs(segments[i][1] - segments[i][3]),
            )
            for i in order:
                gx0, gy0, gx1, gy1 = segments[i]
                route = best_pattern_route(
                    gx0, gy0, gx1, gy1, grid.ny, cost_h_flat, cost_v_flat,
                    use_z=params.use_z_patterns,
                )
                routes[i] = route
                commit_route(route, +1.0, dmd_h, dmd_v, cost_model, cost_h_flat, cost_v_flat)

        overflow_history = [demand.overflow_ratio(grid)]
        rip_ups = obs.counter("route/rip_ups")
        memo = MazeMemo()
        rounds = 0
        for rnd in range(params.rrr_rounds):
            hof, vof = demand.overflow_ratio(grid)
            if hof <= 0.0 and vof <= 0.0:
                break
            rounds += 1
            with obs.span("route/rrr_round", round=rnd) as round_span:
                cost_model.bump_history()
                cost_h, cost_v = cost_model.cost_maps()
                cost_h_flat = cost_h.ravel()
                cost_v_flat = cost_v.ravel()
                margin = params.maze_margin + rnd * params.maze_margin_growth
                victims = select_victims(routes, grid, demand)
                rerouted = victims[: params.max_reroute_per_round]
                rip_ups.inc(len(rerouted))
                for i in rerouted:
                    gx0, gy0, gx1, gy1 = segments[i]
                    commit_route(
                        routes[i], -1.0, dmd_h, dmd_v, cost_model, cost_h_flat, cost_v_flat
                    )
                    new_route = maze_route(
                        gx0, gy0, gx1, gy1, cost_h, cost_v, margin, memo=memo
                    )
                    if new_route is None:
                        new_route = routes[i]
                    routes[i] = new_route
                    commit_route(
                        new_route, +1.0, dmd_h, dmd_v, cost_model, cost_h_flat, cost_v_flat
                    )
                overflow_history.append(demand.overflow_ratio(grid))
                round_span.set(
                    rerouted=len(rerouted),
                    hof=overflow_history[-1][0],
                    vof=overflow_history[-1][1],
                )

        hof, vof = demand.overflow_ratio(grid)
        route_terms = [route_length_and_vias(r, grid) for r in routes]
        wirelength, via_count = sum_route_terms(route_terms)
        state = None
        if self.keep_state:
            state = RouteState(
                grid=grid,
                demand=demand,
                cost_model=cost_model,
                segments=segments,
                seg_net=seg_net,
                routes=routes,
                route_terms=route_terms,
                pin_flat=pin_flat,
                params=params,
            )
        return RouteReport(
            hof=hof,
            vof=vof,
            wirelength=wirelength,
            runtime=time.perf_counter() - start,
            rounds=rounds,
            num_segments=len(segments),
            via_count=via_count,
            grid=grid,
            demand=demand,
            overflow_history=overflow_history,
            state=state,
        )

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------

    def _add_pin_demand(self, grid: RoutingGrid, demand: DemandMaps) -> np.ndarray:
        flat = pin_flat_indices(self.design, grid)
        if self.params.pin_demand > 0 and len(flat):
            np.add.at(demand.dmd_h.ravel(), flat, self.params.pin_demand)
            np.add.at(demand.dmd_v.ravel(), flat, self.params.pin_demand)
        return flat
