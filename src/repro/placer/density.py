"""Electrostatic density system of ePlace (paper Eqs. 3-6).

The placement region is divided into an ``M x M`` bin grid.  Movable-cell
area is accumulated into a charge-density map; a spectral Poisson solver
(DCT/DST based, as in ePlace) yields the electric potential ``psi`` and
field ``(Ex, Ey)``, from which the density penalty ``D = sum_i q_i psi_i``
and its gradient ``dD/dx_i = -q_i Ex_i`` follow.

Cell sizes are decoupled from the design: :meth:`ElectrostaticDensity.set_sizes`
accepts *effective* (padded) extents, which is how PUFFER's cell padding
feeds back into the electrostatic system.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.fft import dctn, idctn

from .. import kernels, obs
from ..netlist.design import Design
from .params import PlacementParams

_SQRT2 = math.sqrt(2.0)


def auto_grid_dim(num_movable: int, lo: int = 16, hi: int = 256) -> int:
    """Power-of-two grid dimension, roughly ``sqrt(num_movable)`` bins."""
    target = max(int(math.sqrt(max(num_movable, 1))), 1)
    dim = 1 << max(int(round(math.log2(target))), 0)
    return int(min(max(dim, lo), hi))


class ElectrostaticDensity:
    """Charge-density map, spectral Poisson solver, and overflow metric."""

    def __init__(self, design: Design, params: PlacementParams | None = None) -> None:
        params = params or PlacementParams()
        self._design = design
        self.dim = params.grid_dim or auto_grid_dim(design.num_movable)
        die = design.die
        self.bin_w = die.width / self.dim
        self.bin_h = die.height / self.dim
        self.bin_area = self.bin_w * self.bin_h
        self.target_density = params.target_density
        self._movable = design.movable
        self._mov_idx = np.flatnonzero(design.movable)
        self._fixed_map = self._rasterize_fixed()
        self._free_area = np.maximum(self.bin_area - self._fixed_map, 0.0)
        self._omega = np.pi * np.arange(self.dim) / self.dim
        self.set_sizes(design.w, design.h)

    # ------------------------------------------------------------------
    # Size management (padding support)
    # ------------------------------------------------------------------

    def set_sizes(self, w: np.ndarray, h: np.ndarray) -> None:
        """Set effective cell extents (padded sizes) for density purposes.

        Sizes below ``sqrt(2) * bin`` are smoothed up with an
        area-preserving scale factor, as in ePlace, so the density map
        stays differentiable as cells cross bin boundaries.
        """
        if len(w) != self._design.num_cells or len(h) != self._design.num_cells:
            raise ValueError("size array length mismatch")
        self._w_eff = np.asarray(w, dtype=np.float64)
        self._h_eff = np.asarray(h, dtype=np.float64)
        w_m = self._w_eff[self._mov_idx]
        h_m = self._h_eff[self._mov_idx]
        self._w_s = np.maximum(w_m, _SQRT2 * self.bin_w)
        self._h_s = np.maximum(h_m, _SQRT2 * self.bin_h)
        self._scale = (w_m / self._w_s) * (h_m / self._h_s)
        self._charge = w_m * h_m
        self._kx = int(math.ceil(self._w_s.max() / self.bin_w)) + 1 if len(w_m) else 1
        self._ky = int(math.ceil(self._h_s.max() / self.bin_h)) + 1 if len(h_m) else 1

    @property
    def charge(self) -> np.ndarray:
        """Per-movable-cell charge (effective area), in movable order."""
        return self._charge

    @property
    def movable_indices(self) -> np.ndarray:
        """Cell indices of movable cells, in charge order."""
        return self._mov_idx

    @property
    def fixed_map(self) -> np.ndarray:
        """Fixed-object area per bin (clipped at the bin area)."""
        return self._fixed_map

    # ------------------------------------------------------------------
    # Density accumulation
    # ------------------------------------------------------------------

    def movable_density(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Smoothed movable-area map for cell centers ``x, y``."""
        die = self._design.die
        dim = self.dim
        if len(self._mov_idx) == 0:
            return np.zeros((dim, dim))
        with obs.span("density/movable", cells=len(self._mov_idx)) as span:
            cx = np.clip(x[self._mov_idx], die.xlo, die.xhi)
            cy = np.clip(y[self._mov_idx], die.ylo, die.yhi)
            xlo = np.clip(cx - self._w_s / 2, die.xlo, die.xhi) - die.xlo
            xhi = np.clip(cx + self._w_s / 2, die.xlo, die.xhi) - die.xlo
            ylo = np.clip(cy - self._h_s / 2, die.ylo, die.yhi) - die.ylo
            yhi = np.clip(cy + self._h_s / 2, die.ylo, die.yhi) - die.ylo
            ix0 = np.floor(xlo / self.bin_w).astype(np.int64)
            iy0 = np.floor(ylo / self.bin_h).astype(np.int64)
            rho = kernels.bin_overlap(
                xlo, xhi, ylo, yhi, ix0, iy0,
                self._kx, self._ky, self._scale, dim, self.bin_w, self.bin_h,
            )
            span.set(backend=kernels.current())
        return rho

    def _rasterize_fixed(self) -> np.ndarray:
        """Exact per-bin area of fixed objects, clipped at the bin area."""
        dim = self.dim
        die = self._design.die
        design = self._design
        fixed_idx = np.flatnonzero(~design.movable)
        if len(fixed_idx) == 0:
            return np.zeros((dim, dim))
        with obs.span("density/fixed", cells=len(fixed_idx)) as span:
            hw = design.w[fixed_idx] / 2.0
            hh = design.h[fixed_idx] / 2.0
            # Die-relative clipped extents; drop objects fully outside.
            x0 = np.maximum(design.x[fixed_idx] - hw, die.xlo) - die.xlo
            x1 = np.minimum(design.x[fixed_idx] + hw, die.xhi) - die.xlo
            y0 = np.maximum(design.y[fixed_idx] - hh, die.ylo) - die.ylo
            y1 = np.minimum(design.y[fixed_idx] + hh, die.yhi) - die.ylo
            keep = (x1 > x0) & (y1 > y0)
            fixed = kernels.rect_area(
                x0[keep], x1[keep], y0[keep], y1[keep],
                dim, self.bin_w, self.bin_h,
            )
            span.set(backend=kernels.current())
        return np.minimum(fixed, self.bin_area)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def overflow(self, x: np.ndarray, y: np.ndarray) -> float:
        """Density overflow: clipped excess area over the density target,
        normalized by total movable area (the paper's trigger metric)."""
        mov = self.movable_density(x, y)
        cap = self.target_density * self._free_area
        total_mov = self._charge.sum()
        if total_mov <= 0:
            return 0.0
        return float(np.maximum(mov - cap, 0.0).sum() / total_mov)

    # ------------------------------------------------------------------
    # Electrostatics
    # ------------------------------------------------------------------

    def potential_and_field(self, rho: np.ndarray) -> tuple:
        """Solve the Poisson system for ``rho``.

        Returns ``(psi, ex, ey)`` on the bin grid, in *index space*; the
        caller converts field samples to physical gradients by dividing by
        the bin dimensions.
        """
        dim = self.dim
        # Synthesis coefficients of rho in the cos-cos basis, normalized
        # so that rho == sum_uv a_uv cos cos and hence laplacian(psi) ==
        # -rho exactly (paper Eqs. 4-5 up to the DCT normalization).
        coef = dctn(rho, type=2) / 4.0
        weight = np.full(dim, 2.0)
        weight[0] = 1.0
        coef *= np.outer(weight, weight) / (dim * dim)
        wu = self._omega[:, None]
        wv = self._omega[None, :]
        denom = wu * wu + wv * wv
        denom[0, 0] = 1.0
        a = coef / denom
        a[0, 0] = 0.0
        psi = _eval_coscos(a)
        ex = _eval_sincos(a * wu)
        ey = _eval_cossin(a * wv)
        denom[0, 0] = 0.0
        return psi, ex, ey

    def penalty_and_grad(self, x: np.ndarray, y: np.ndarray) -> tuple:
        """Density penalty ``D`` (Eq. 3) and its gradient per cell.

        Returns ``(D, gx, gy, overflow)`` where the gradients are full
        per-cell arrays (zero at fixed cells).
        """
        mov_map = self.movable_density(x, y)
        rho = mov_map + self._fixed_map
        psi, ex, ey = self.potential_and_field(rho)

        die = self._design.die
        fx = (np.clip(x[self._mov_idx], die.xlo, die.xhi) - die.xlo) / self.bin_w - 0.5
        fy = (np.clip(y[self._mov_idx], die.ylo, die.yhi) - die.ylo) / self.bin_h - 0.5
        psi_c, ex_c, ey_c = _bilinear((psi, ex, ey), fx, fy)
        ex_c /= self.bin_w
        ey_c /= self.bin_h

        penalty = float((self._charge * psi_c).sum())
        gx = np.zeros_like(x)
        gy = np.zeros_like(y)
        gx[self._mov_idx] = -self._charge * ex_c
        gy[self._mov_idx] = -self._charge * ey_c

        cap = self.target_density * self._free_area
        total_mov = self._charge.sum()
        ovf = float(np.maximum(mov_map - cap, 0.0).sum() / max(total_mov, 1e-12))
        return penalty, gx, gy, ovf


# ----------------------------------------------------------------------
# Spectral evaluation helpers
# ----------------------------------------------------------------------


def _eval_coscos(c: np.ndarray) -> np.ndarray:
    """``f_mn = sum_uv c_uv cos(w_u (m+1/2)) cos(w_v (n+1/2))``."""
    m, n = c.shape
    d = c.copy()
    d[0, :] *= 2.0
    d[:, 0] *= 2.0
    return idctn(d, type=2) * (m * n)


def _flip_for_sin(c: np.ndarray, axis: int) -> np.ndarray:
    """Coefficient transform turning a sin series into a cos series.

    ``sum_u c_u sin(w_u (m+1/2)) = (-1)^m sum_u z_u cos(w_u (m+1/2))``
    with ``z_0 = 0`` and ``z_u = c_{M-u}``.
    """
    z = np.zeros_like(c)
    if axis == 0:
        z[1:, :] = c[:0:-1, :]
    else:
        z[:, 1:] = c[:, :0:-1]
    return z


def _eval_sincos(c: np.ndarray) -> np.ndarray:
    """``f_mn = sum_uv c_uv sin(w_u (m+1/2)) cos(w_v (n+1/2))``."""
    out = _eval_coscos(_flip_for_sin(c, axis=0))
    signs = np.where(np.arange(c.shape[0]) % 2 == 0, 1.0, -1.0)
    return out * signs[:, None]


def _eval_cossin(c: np.ndarray) -> np.ndarray:
    """``f_mn = sum_uv c_uv cos(w_u (m+1/2)) sin(w_v (n+1/2))``."""
    out = _eval_coscos(_flip_for_sin(c, axis=1))
    signs = np.where(np.arange(c.shape[1]) % 2 == 0, 1.0, -1.0)
    return out * signs[None, :]


def _bilinear(grids: tuple, fx: np.ndarray, fy: np.ndarray) -> list:
    """Bilinear interpolation of each (same-shape) grid at fractional
    bin indices; the indices and weights are computed once."""
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
