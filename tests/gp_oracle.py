"""Per-axis reference code of one global-placement evaluation.

This is the arithmetic the batched evaluators in :mod:`repro.placer` and
:mod:`repro.core.expansion` must reproduce bit for bit: the WA model one
axis at a time with ``reduceat`` extrema, the Poisson solve one grid at a
time, the bilinear sampling one grid at a time, and the detour expansion
testing every segment in turn.  Tests compare against it with
``np.array_equal``; the flow differential swaps it in for the real
evaluators.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
from scipy.fft import dctn, idctn

from repro import kernels
from repro.core.expansion import ExpansionParams
from repro.placer import ElectrostaticDensity

# ----------------------------------------------------------------------
# WA wirelength (paper Eq. 2)
# ----------------------------------------------------------------------


def wa_direction(p, starts, repeat, gamma):
    """WA wirelength and per-pin gradient along one axis."""
    pmax = np.repeat(np.maximum.reduceat(p, starts), repeat)
    pmin = np.repeat(np.minimum.reduceat(p, starts), repeat)
    ep = np.exp((p - pmax) / gamma)
    en = np.exp((pmin - p) / gamma)
    sp = np.add.reduceat(ep, starts)
    sn = np.add.reduceat(en, starts)
    sxp = np.add.reduceat(p * ep, starts)
    sxn = np.add.reduceat(p * en, starts)
    wa = float((sxp / sp - sxn / sn).sum())

    sp_r = np.repeat(sp, repeat)
    sn_r = np.repeat(sn, repeat)
    sxp_r = np.repeat(sxp, repeat)
    sxn_r = np.repeat(sxn, repeat)
    grad_plus = ((1.0 + p / gamma) * sp_r - sxp_r / gamma) * ep / (sp_r * sp_r)
    grad_minus = ((1.0 - p / gamma) * sn_r + sxn_r / gamma) * en / (sn_r * sn_r)
    return wa, grad_plus - grad_minus


class OracleWirelength:
    """:class:`repro.placer.WirelengthModel` one axis at a time."""

    def __init__(self, design) -> None:
        degrees = np.diff(design.net_start)
        nonempty = degrees > 0
        self._starts = design.net_start[:-1][nonempty]
        self._repeat = degrees[nonempty]
        self._cell = design.pin_cell[design.net_pins]
        self._dx = design.pin_dx[design.net_pins]
        self._dy = design.pin_dy[design.net_pins]

    def _pins(self, x, y):
        return x[self._cell] + self._dx, y[self._cell] + self._dy

    def hpwl(self, x, y):
        px, py = self._pins(x, y)
        s = self._starts
        wx = np.maximum.reduceat(px, s) - np.minimum.reduceat(px, s)
        wy = np.maximum.reduceat(py, s) - np.minimum.reduceat(py, s)
        return float(wx.sum() + wy.sum())

    def wa_and_grad(self, x, y, gamma):
        px, py = self._pins(x, y)
        wlx, gpx = wa_direction(px, self._starts, self._repeat, gamma)
        wly, gpy = wa_direction(py, self._starts, self._repeat, gamma)
        gx = np.zeros_like(x)
        gy = np.zeros_like(y)
        np.add.at(gx, self._cell, gpx)
        np.add.at(gy, self._cell, gpy)
        return float(wlx + wly), gx, gy


def oracle_design_hpwl(design):
    """``Design.hpwl`` with per-net ``reduceat`` extrema."""
    if design.num_pins == 0:
        return 0.0
    return OracleWirelength(design).hpwl(design.x, design.y)


def oracle_net_bboxes(design):
    """``Design.net_bboxes`` with per-net ``reduceat`` extrema."""
    px, py = design.pin_positions()
    xpins = px[design.net_pins]
    ypins = py[design.net_pins]
    m = design.num_nets
    xlo = np.full(m, design.die.center.x)
    xhi = np.full(m, design.die.center.x)
    ylo = np.full(m, design.die.center.y)
    yhi = np.full(m, design.die.center.y)
    nonempty = np.diff(design.net_start) > 0
    starts = design.net_start[:-1][nonempty]
    xlo[nonempty] = np.minimum.reduceat(xpins, starts)
    xhi[nonempty] = np.maximum.reduceat(xpins, starts)
    ylo[nonempty] = np.minimum.reduceat(ypins, starts)
    yhi[nonempty] = np.maximum.reduceat(ypins, starts)
    return xlo, ylo, xhi, yhi


# ----------------------------------------------------------------------
# Electrostatic density (paper Eqs. 3-6)
# ----------------------------------------------------------------------


def eval_coscos(c):
    """``f_mn = sum_uv c_uv cos(w_u (m+1/2)) cos(w_v (n+1/2))``."""
    m, n = c.shape
    d = c.copy()
    d[0, :] *= 2.0
    d[:, 0] *= 2.0
    return idctn(d, type=2) * (m * n)


def flip_for_sin(c, axis):
    """``sum_u c_u sin(w_u (m+1/2)) = (-1)^m sum_u z_u cos(w_u (m+1/2))``
    with ``z_0 = 0`` and ``z_u = c_{M-u}``."""
    z = np.zeros_like(c)
    if axis == 0:
        z[1:, :] = c[:0:-1, :]
    else:
        z[:, 1:] = c[:, :0:-1]
    return z


def eval_sincos(c):
    """``f_mn = sum_uv c_uv sin(w_u (m+1/2)) cos(w_v (n+1/2))``."""
    out = eval_coscos(flip_for_sin(c, axis=0))
    signs = np.where(np.arange(c.shape[0]) % 2 == 0, 1.0, -1.0)
    return out * signs[:, None]


def eval_cossin(c):
    """``f_mn = sum_uv c_uv cos(w_u (m+1/2)) sin(w_v (n+1/2))``."""
    out = eval_coscos(flip_for_sin(c, axis=1))
    signs = np.where(np.arange(c.shape[1]) % 2 == 0, 1.0, -1.0)
    return out * signs[None, :]


def bilinear(grids, fx, fy):
    """Bilinear interpolation of each grid, one grid at a time."""
    m, n = grids[0].shape
    fx = np.clip(fx, 0.0, m - 1.0)
    fy = np.clip(fy, 0.0, n - 1.0)
    i0 = np.clip(np.floor(fx).astype(np.int64), 0, m - 1)
    j0 = np.clip(np.floor(fy).astype(np.int64), 0, n - 1)
    i1 = np.minimum(i0 + 1, m - 1)
    j1 = np.minimum(j0 + 1, n - 1)
    tx = fx - i0
    ty = fy - j0
    ux = 1 - tx
    uy = 1 - ty
    corners = (i0 * n + j0, i1 * n + j0, i0 * n + j1, i1 * n + j1)
    out = []
    for grid in grids:
        g00, g10, g01, g11 = (grid.ravel().take(c) for c in corners)
        out.append(g00 * ux * uy + g10 * tx * uy + g01 * ux * ty + g11 * tx * ty)
    return out


class OracleDensity(ElectrostaticDensity):
    """:class:`repro.placer.ElectrostaticDensity` solving and sampling
    ``psi``, ``Ex`` and ``Ey`` one grid at a time."""

    def movable_density(self, x, y):
        die = self._design.die
        mov = self.movable_indices
        cx = np.clip(x[mov], die.xlo, die.xhi)
        cy = np.clip(y[mov], die.ylo, die.yhi)
        xlo = np.clip(cx - self._w_s / 2, die.xlo, die.xhi) - die.xlo
        xhi = np.clip(cx + self._w_s / 2, die.xlo, die.xhi) - die.xlo
        ylo = np.clip(cy - self._h_s / 2, die.ylo, die.yhi) - die.ylo
        yhi = np.clip(cy + self._h_s / 2, die.ylo, die.yhi) - die.ylo
        ix0 = np.floor(xlo / self.bin_w).astype(np.int64)
        iy0 = np.floor(ylo / self.bin_h).astype(np.int64)
        return kernels.bin_overlap(
            xlo, xhi, ylo, yhi, ix0, iy0,
            self._kx, self._ky, self._scale, self.dim, self.bin_w, self.bin_h,
        )

    def potential_and_field(self, rho):
        dim = self.dim
        omega = np.pi * np.arange(dim) / dim
        coef = dctn(rho, type=2) / 4.0
        weight = np.full(dim, 2.0)
        weight[0] = 1.0
        coef *= np.outer(weight, weight) / (dim * dim)
        wu = omega[:, None]
        wv = omega[None, :]
        denom = wu * wu + wv * wv
        denom[0, 0] = 1.0
        a = coef / denom
        a[0, 0] = 0.0
        return eval_coscos(a), eval_sincos(a * wu), eval_cossin(a * wv)

    def penalty_and_grad(self, x, y):
        mov = self.movable_indices
        mov_map = self.movable_density(x, y)
        psi, ex, ey = self.potential_and_field(mov_map + self.fixed_map)
        die = self._design.die
        fx = (np.clip(x[mov], die.xlo, die.xhi) - die.xlo) / self.bin_w - 0.5
        fy = (np.clip(y[mov], die.ylo, die.yhi) - die.ylo) / self.bin_h - 0.5
        psi_c, ex_c, ey_c = bilinear((psi, ex, ey), fx, fy)
        ex_c /= self.bin_w
        ey_c /= self.bin_h
        charge = self.charge
        penalty = float((charge * psi_c).sum())
        cap = self.target_density * self._free_area
        total = charge.sum()
        ovf = float(np.maximum(mov_map - cap, 0.0).sum() / max(total, 1e-12))
        return penalty, -charge * ex_c, -charge * ey_c, ovf


# ----------------------------------------------------------------------
# Detour demand expansion (paper Sec. III-A3)
# ----------------------------------------------------------------------


def oracle_expand_demand(grid, demand, params=None):
    """Test and expand every I-segment in turn, on array views."""
    params = params or ExpansionParams()
    segs = demand.i_segments
    columns = [getattr(segs, f.name).tolist() for f in fields(segs)]
    for horizontal, *seg in zip(*columns):
        if horizontal:
            oracle_expand_one(grid.cap_h, demand.dmd_h, demand.dmd_v, grid.ny, seg, params)
        else:
            oracle_expand_one(
                grid.cap_v.T, demand.dmd_v.T, demand.dmd_h.T, grid.nx, seg, params
            )


def oracle_expand_one(
    cap: np.ndarray,
    dmd: np.ndarray,
    dmd_perp: np.ndarray,
    num_rows: int,
    seg: tuple,
    params,
) -> bool:
    """Redistribute one horizontal-convention I-segment ``(row, lo, hi,
    lo_is_pin, hi_is_pin)`` if it is over capacity; returns whether it was.

    ``cap``/``dmd`` are indexed ``[along, across]``: for a horizontal
    segment that is ``[gx, gy]``; the vertical case passes transposed
    views so the same code applies.
    """
    row, lo, hi, lo_is_pin, hi_is_pin = seg
    span = slice(lo, hi + 1)
    length = hi - lo + 1
    over = dmd[span, row] - cap[span, row]
    if over.max() <= 0.0:
        return False
    lo_k = max(row - params.radius, 0) - row
    hi_k = min(row + params.radius, num_rows - 1) - row
    offsets = np.arange(lo_k, hi_k + 1)
    avail = np.empty(len(offsets))
    for i, k in enumerate(offsets):
        spare = cap[span, row + k] - dmd[span, row + k]
        avail[i] = max(float(spare.sum()), 0.0)
    weights = avail.copy()
    weights[offsets == 0] += params.keep_weight * max(length, 1)
    total = weights.sum()
    if total <= 0.0:
        return True
    weights /= total

    # Redistribute the unit demand across the neighbouring rows.
    dmd[span, row] -= 1.0
    for k, w in zip(offsets, weights):
        if w <= 0.0:
            continue
        dmd[span, row + k] += w
        if k == 0:
            continue
        # Detour connection at Steiner endpoints only (paper Fig. 3c):
        # perpendicular demand between the original and displaced rows.
        step = 1 if k > 0 else -1
        across = slice(min(row + step, row + k), max(row + step, row + k) + 1)
        if not lo_is_pin:
            dmd_perp[lo, across] += w
        if not hi_is_pin:
            dmd_perp[hi, across] += w
    return True
