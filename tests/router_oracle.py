"""Loop-level reference code of the router's hot paths.

This is the arithmetic the faster forms in :mod:`repro.kernels`
and :mod:`repro.router.router` must reproduce exactly: the maze wavefront
with Jacobi sweeps (both halves of a sweep read the labels it started
from), victim selection scoring every route in turn, the per-route numpy
demand commit, and the whole-solution wirelength/via recount.  Tests
compare against it with ``np.array_equal`` and ``==``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import _backtrack


def maze_search_jacobi(gx0, gy0, gx1, gy1, cost_h, cost_v, xlo, xhi, ylo, yhi):
    """The vectorized maze search with Jacobi sweeps."""
    ny_full = cost_h.shape[1]
    ch = np.ascontiguousarray(cost_h[xlo : xhi + 1, ylo : yhi + 1])
    cv = np.ascontiguousarray(cost_v[xlo : xhi + 1, ylo : yhi + 1])
    w, h = ch.shape
    sx, sy = gx0 - xlo, gy0 - ylo
    tx, ty = gx1 - xlo, gy1 - ylo

    gH = np.full((w, h), np.inf)
    gV = np.full((w, h), np.inf)
    if sx + 1 < w:
        gH[sx + 1, sy] = ch[sx + 1, sy] + ch[sx, sy]
    if sx >= 1:
        gH[sx - 1, sy] = ch[sx - 1, sy] + ch[sx, sy]
    if sy + 1 < h:
        gV[sx, sy + 1] = cv[sx, sy + 1] + cv[sx, sy]
    if sy >= 1:
        gV[sx, sy - 1] = cv[sx, sy - 1] + cv[sx, sy]

    sh = np.cumsum(ch, axis=0)
    sv = np.cumsum(cv, axis=1)
    ph = sh - ch
    pv = sv - cv

    for _ in range(2 * w * h + 8):
        aH = np.minimum(gH, gV + ch)
        aV = np.minimum(gV, gH + cv)
        newH = gH.copy()
        run = np.minimum.accumulate(aH - sh, axis=0)
        np.minimum(newH[1:], run[:-1] + sh[1:], out=newH[1:])
        run = np.minimum.accumulate((aH + ph)[::-1], axis=0)[::-1]
        np.minimum(newH[:-1], run[1:] - ph[:-1], out=newH[:-1])
        newV = gV.copy()
        run = np.minimum.accumulate(aV - sv, axis=1)
        np.minimum(newV[:, 1:], run[:, :-1] + sv[:, 1:], out=newV[:, 1:])
        run = np.minimum.accumulate((aV + pv)[:, ::-1], axis=1)[:, ::-1]
        np.minimum(newV[:, :-1], run[:, 1:] - pv[:, :-1], out=newV[:, :-1])
        if np.array_equal(newH, gH) and np.array_equal(newV, gV):
            return _backtrack(gH, gV, ch, cv, sx, sy, tx, ty, xlo, ylo, ny_full)
        gH, gV = newH, newV
    return None


def select_victims_loop(routes, grid, demand, window=None, baseline=None) -> list:
    """:func:`repro.router.router.select_victims` scoring every route."""
    over_h, over_v = demand.overflow_maps(grid)
    if baseline is not None:
        over_h = np.maximum(over_h - np.clip(baseline[0], 0.0, None), 0.0)
        over_v = np.maximum(over_v - np.clip(baseline[1], 0.0, None), 0.0)
    if window is not None:
        gx_lo, gy_lo, gx_hi, gy_hi = window
        mask = np.zeros((grid.nx, grid.ny), dtype=bool)
        mask[max(gx_lo, 0): gx_hi + 1, max(gy_lo, 0): gy_hi + 1] = True
        over_h = np.where(mask, over_h, 0.0)
        over_v = np.where(mask, over_v, 0.0)
    over_h_flat = over_h.ravel()
    over_v_flat = over_v.ravel()
    scored = []
    for i, route in enumerate(routes):
        if route is None:
            continue
        h_cells, v_cells = route
        score = 0.0
        if len(h_cells):
            score += float(over_h_flat[h_cells].sum())
        if len(v_cells):
            score += float(over_v_flat[v_cells].sum())
        if score > 0:
            scored.append((score, i))
    scored.sort(reverse=True)
    return [i for _, i in scored]


def commit_route_numpy(route, sign, dmd_h, dmd_v, cost_model, cost_h_flat,
                       cost_v_flat):
    """:func:`repro.router.router.commit_route` as elementwise numpy."""
    h_cells, v_cells = route
    params = cost_model.params
    grid = cost_model.grid
    if len(h_cells):
        np.add.at(dmd_h, h_cells, sign)
        capn = np.maximum(grid.cap_h.ravel()[h_cells], 1.0)
        over = np.maximum(
            dmd_h[h_cells] + 1.0 - params.slack * grid.cap_h.ravel()[h_cells], 0.0
        )
        cost_h_flat[h_cells] = (
            1.0 + params.congestion_weight * over / capn
            + cost_model.hist_h.ravel()[h_cells]
        )
    if len(v_cells):
        np.add.at(dmd_v, v_cells, sign)
        capn = np.maximum(grid.cap_v.ravel()[v_cells], 1.0)
        over = np.maximum(
            dmd_v[v_cells] + 1.0 - params.slack * grid.cap_v.ravel()[v_cells], 0.0
        )
        cost_v_flat[v_cells] = (
            1.0 + params.congestion_weight * over / capn
            + cost_model.hist_v.ravel()[v_cells]
        )


def rip_routes_sequential(routes, dmd_h, dmd_v, cost_model, cost_h_flat,
                          cost_v_flat):
    """:func:`repro.router.router.rip_routes` as one commit per route."""
    for route in routes:
        commit_route_numpy(route, -1.0, dmd_h, dmd_v, cost_model,
                           cost_h_flat, cost_v_flat)


def wirelength_and_vias_loop(routes, grid) -> tuple:
    """:func:`repro.router.router.wirelength_and_vias` as one loop over
    the whole solution, vias by ``np.intersect1d``."""
    total = 0.0
    vias = 0
    for h_cells, v_cells in routes:
        total += len(h_cells) * grid.gcell_w + len(v_cells) * grid.gcell_h
        if len(h_cells) and len(v_cells):
            vias += len(np.intersect1d(h_cells, v_cells, assume_unique=False))
    return total, vias
