"""Incremental rip-up-and-reroute over retained routing state.

An ECO edit moves a handful of cells, so only the nets attached to them
(and whatever congestion they displace) need rerouting.  Given the
:class:`~repro.router.router.RouteState` captured by a
``keep_state=True`` run, :func:`reroute_nets` rips up exactly the dirty
nets' segments, reroutes them against the live congestion maps, and
negotiates residual overflow with a bounded, window-restricted RRR pass
— the full-router machinery applied to a sliver of the problem.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..netlist.design import Design
from .maze import MazeMemo, maze_route
from .pattern import best_pattern_route
from .router import (
    RouteReport,
    RouteState,
    build_net_segments,
    commit_route,
    pin_flat_indices,
    rip_routes,
    route_length_and_vias,
    select_victims,
    sum_route_terms,
)


def _update_pin_demand(state: RouteState, design: Design) -> None:
    """Move per-pin local demand to the pins' current Gcells."""
    new_flat = pin_flat_indices(design, state.grid)
    old_flat = state.pin_flat
    pd = state.params.pin_demand
    if pd > 0:
        dmd_h = state.demand.dmd_h.ravel()
        dmd_v = state.demand.dmd_v.ravel()
        if len(new_flat) == len(old_flat):
            moved = new_flat != old_flat
            old_touch, new_touch = old_flat[moved], new_flat[moved]
        else:  # topology changed: reassign every pin's demand
            old_touch, new_touch = old_flat, new_flat
        if len(old_touch):
            np.add.at(dmd_h, old_touch, -pd)
            np.add.at(dmd_v, old_touch, -pd)
        if len(new_touch):
            np.add.at(dmd_h, new_touch, pd)
            np.add.at(dmd_v, new_touch, pd)
    state.pin_flat = new_flat


def _bump_history_window(state: RouteState, window) -> None:
    """History bump restricted to the dirty window, so repeated ECO
    steps do not inflate costs across the whole die."""
    grid = state.grid
    over_h, over_v = state.demand.overflow_maps(grid)
    mask = np.ones((grid.nx, grid.ny), dtype=bool)
    if window is not None:
        gx_lo, gy_lo, gx_hi, gy_hi = window
        mask[:] = False
        mask[max(gx_lo, 0): gx_hi + 1, max(gy_lo, 0): gy_hi + 1] = True
    inc = state.cost_model.params.history_increment
    state.cost_model.hist_h += inc * ((over_h > 0) & mask)
    state.cost_model.hist_v += inc * ((over_v > 0) & mask)


def reroute_nets(
    state: RouteState,
    design: Design,
    nets,
    window=None,
    rounds: int = 2,
    max_reroute: int = 2000,
) -> RouteReport:
    """Rip up and reroute ``nets``; return a fresh :class:`RouteReport`.

    Mutates ``state`` in place (demand, segments, routes, route terms)
    so successive calls compose.  Metrics (HOF/VOF, wirelength, vias)
    cover the *whole* solution, making the report directly comparable
    to a cold full reroute; wirelength and vias sum the kept per-route
    terms in route order, the same float additions a recount makes.

    Args:
        state: retained state from ``GlobalRouter(..., keep_state=True)``
            or a previous :func:`reroute_nets` call.
        design: the (possibly rebuilt) design at its current placement;
            net ids must be stable w.r.t. the routed netlist.
        nets: net indices whose segments are stale.
        window: inclusive ``(gx_lo, gy_lo, gx_hi, gy_hi)`` dirty Gcell
            box; the RRR negotiation only rips victims crossing it.
        rounds: bounded local RRR rounds after the pattern pass.
        max_reroute: rip-up cap per local round.
    """
    start = time.perf_counter()
    nets = np.unique(np.asarray(list(nets), dtype=np.int64))
    grid = state.grid
    demand = state.demand
    cost_model = state.cost_model
    params = state.params

    with obs.span("route/reroute_nets", nets=len(nets)) as span:
        # Overflow snapshot at entry: the RRR pass below only negotiates
        # congestion *in excess of* this baseline.  Residual overflow
        # the converged full router already accepted is not this edit's
        # problem; re-ripping it on every delta would pay the maze cost
        # repeatedly without improving the solution.
        over_h0, over_v0 = demand.overflow_maps(grid)
        overflow_baseline = (over_h0.copy(), over_v0.copy())
        _update_pin_demand(state, design)
        dmd_h = demand.dmd_h.ravel()
        dmd_v = demand.dmd_v.ravel()
        cost_h, cost_v = cost_model.cost_maps()
        cost_h_flat = cost_h.ravel()
        cost_v_flat = cost_v.ravel()

        # Rip up every segment owned by a dirty net, in one pass.
        rip = np.isin(state.seg_net, nets)
        rip_routes(
            [state.routes[i] for i in np.flatnonzero(rip).tolist()],
            dmd_h, dmd_v, cost_model, cost_h_flat, cost_v_flat,
        )
        kept = np.flatnonzero(~rip).tolist()
        segments = [state.segments[i] for i in kept]
        routes = [state.routes[i] for i in kept]
        route_terms = [state.route_terms[i] for i in kept]
        seg_net_list = state.seg_net[kept].tolist()

        # Fresh RSMT decomposition of the dirty nets at current pins.
        new_segments, new_seg_net = build_net_segments(
            design, grid, nets=[int(n) for n in nets]
        )
        span.set(ripped=int(rip.sum()), rebuilt=len(new_segments))

        order = sorted(
            range(len(new_segments)),
            key=lambda i: abs(new_segments[i][0] - new_segments[i][2])
            + abs(new_segments[i][1] - new_segments[i][3]),
        )
        for i in order:
            gx0, gy0, gx1, gy1 = new_segments[i]
            route = best_pattern_route(
                gx0, gy0, gx1, gy1, grid.ny, cost_h_flat, cost_v_flat,
                use_z=params.use_z_patterns,
            )
            segments.append(new_segments[i])
            routes.append(route)
            route_terms.append(route_length_and_vias(route, grid))
            seg_net_list.append(int(new_seg_net[i]))
            commit_route(
                route, +1.0, dmd_h, dmd_v, cost_model,
                cost_h_flat, cost_v_flat,
            )

        # Bounded local negotiation inside the dirty window, restricted
        # to overflow this edit introduced (see the baseline above).
        overflow_history = [demand.overflow_ratio(grid)]
        rounds_run = 0
        memo = MazeMemo()
        for rnd in range(rounds):
            victims = select_victims(routes, grid, demand, window=window,
                                     baseline=overflow_baseline)
            if not victims:
                break
            rounds_run += 1
            _bump_history_window(state, window)
            cost_h, cost_v = cost_model.cost_maps()
            cost_h_flat = cost_h.ravel()
            cost_v_flat = cost_v.ravel()
            margin = params.maze_margin + rnd * params.maze_margin_growth
            for i in victims[:max_reroute]:
                gx0, gy0, gx1, gy1 = segments[i]
                commit_route(
                    routes[i], -1.0, dmd_h, dmd_v, cost_model,
                    cost_h_flat, cost_v_flat,
                )
                new_route = maze_route(
                    gx0, gy0, gx1, gy1, cost_h, cost_v, margin, memo=memo
                )
                if new_route is not None and new_route is not routes[i]:
                    routes[i] = new_route
                    route_terms[i] = route_length_and_vias(new_route, grid)
                commit_route(
                    routes[i], +1.0, dmd_h, dmd_v, cost_model,
                    cost_h_flat, cost_v_flat,
                )
            overflow_history.append(demand.overflow_ratio(grid))

        state.segments = segments
        state.routes = routes
        state.route_terms = route_terms
        state.seg_net = np.asarray(seg_net_list, dtype=np.int64)

        hof, vof = demand.overflow_ratio(grid)
        wirelength, via_count = sum_route_terms(route_terms)
        span.set(hof=hof, vof=vof, wirelength=wirelength)

    return RouteReport(
        hof=hof,
        vof=vof,
        wirelength=wirelength,
        runtime=time.perf_counter() - start,
        rounds=rounds_run,
        num_segments=len(segments),
        via_count=via_count,
        grid=grid,
        demand=demand,
        overflow_history=overflow_history,
        state=state,
    )
