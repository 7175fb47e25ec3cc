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
        self._mov_idx = np.flatnonzero(design.movable)
        self._fixed_map = self._rasterize_fixed()
        self._free_area = np.maximum(self.bin_area - self._fixed_map, 0.0)
        self._cap = self.target_density * self._free_area
        self._poisson = _PoissonSolver(self.dim, self.dim)
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
        with obs.span("density/movable", cells=len(self._mov_idx)):
            cx = _clamp(x[self._mov_idx], die.xlo, die.xhi)
            cy = _clamp(y[self._mov_idx], die.ylo, die.yhi)
            xlo = _clamp(cx - self._w_s / 2, die.xlo, die.xhi) - die.xlo
            xhi = _clamp(cx + self._w_s / 2, die.xlo, die.xhi) - die.xlo
            ylo = _clamp(cy - self._h_s / 2, die.ylo, die.yhi) - die.ylo
            yhi = _clamp(cy + self._h_s / 2, die.ylo, die.yhi) - die.ylo
            ix0 = np.floor(xlo / self.bin_w).astype(np.int64)
            iy0 = np.floor(ylo / self.bin_h).astype(np.int64)
            rho = kernels.bin_overlap(
                xlo, xhi, ylo, yhi, ix0, iy0,
                self._kx, self._ky, self._scale, dim, self.bin_w, self.bin_h,
            )
        return rho

    def _rasterize_fixed(self) -> np.ndarray:
        """Exact per-bin area of fixed objects, clipped at the bin area."""
        dim = self.dim
        die = self._design.die
        design = self._design
        fixed_idx = np.flatnonzero(~design.movable)
        if len(fixed_idx) == 0:
            return np.zeros((dim, dim))
        with obs.span("density/fixed", cells=len(fixed_idx)):
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
        return np.minimum(fixed, self.bin_area)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def overflow(self, x: np.ndarray, y: np.ndarray) -> float:
        """Density overflow: clipped excess area over the density target,
        normalized by total movable area (the paper's trigger metric)."""
        return self._overflow(self.movable_density(x, y))

    def _overflow(self, mov_map: np.ndarray) -> float:
        excess = np.maximum(mov_map - self._cap, 0.0).sum()
        return float(excess / max(self._charge.sum(), 1e-12))

    # ------------------------------------------------------------------
    # Electrostatics
    # ------------------------------------------------------------------

    def potential_and_field(self, rho: np.ndarray) -> np.ndarray:
        """Solve the Poisson system for ``rho``.

        Returns the stacked ``(3, M, M)`` array ``(psi, ex, ey)`` on the
        bin grid, in *index space*; the caller converts field samples to
        physical gradients by dividing by the bin dimensions.
        """
        return self._poisson.solve(rho)

    def penalty_and_grad(self, x: np.ndarray, y: np.ndarray) -> tuple:
        """Density penalty ``D`` (Eq. 3) and its gradient per movable cell.

        Returns ``(D, gx, gy, overflow)`` where the gradients are in
        movable order (:attr:`movable_indices`), the order of
        :attr:`charge`.
        """
        mov_map = self.movable_density(x, y)
        field = self.potential_and_field(mov_map + self._fixed_map)

        die = self._design.die
        fx = (_clamp(x[self._mov_idx], die.xlo, die.xhi) - die.xlo) / self.bin_w - 0.5
        fy = (_clamp(y[self._mov_idx], die.ylo, die.yhi) - die.ylo) / self.bin_h - 0.5
        psi_c, ex_c, ey_c = _bilinear(field, fx, fy)
        ex_c /= self.bin_w
        ey_c /= self.bin_h
        penalty = float((self._charge * psi_c).sum())
        ovf = self._overflow(mov_map)
        return penalty, -self._charge * ex_c, -self._charge * ey_c, ovf


class _PoissonSolver:
    """Spectral Poisson solve on an ``m x n`` bin grid (paper Eqs. 4-6).

    ``psi``, ``Ex`` and ``Ey`` are cos/sin series in the cos-cos
    coefficients of ``rho``, evaluated by one inverse DCT over a
    ``(3, m, n)`` stack.  A sin series is a cos series of the reversed
    coefficients times alternating signs, and the inverse DCT halves the
    zero-frequency terms; those doublings and signs are exact, so they
    are folded into per-grid input and output multipliers.
    """

    def __init__(self, m: int, n: int) -> None:
        wu = (np.pi * np.arange(m) / m)[:, None]
        wv = (np.pi * np.arange(n) / n)[None, :]
        double_u = np.where(np.arange(m) == 0, 2.0, 1.0)[:, None]
        double_v = np.where(np.arange(n) == 0, 2.0, 1.0)[None, :]
        self._coef_scale = (3.0 - double_u) * (3.0 - double_v) / (m * n)
        self._denom = wu * wu + wv * wv
        self._denom[0, 0] = 1.0
        self._inputs = (double_u * double_v, wu[:0:-1] * double_v, double_u * wv[:, :0:-1])
        signs = (-1.0) ** np.arange(max(m, n))
        self._outputs = np.stack(
            np.broadcast_arrays(1.0, signs[:m, None], signs[None, :n])
        ) * (m * n)

    def solve(self, rho: np.ndarray) -> np.ndarray:
        """``(psi, ex, ey)`` with ``laplacian(psi) == -rho``, stacked."""
        # Synthesis coefficients of rho in the cos-cos basis, normalized
        # so that rho == sum_uv a_uv cos cos and hence laplacian(psi) ==
        # -rho exactly (paper Eqs. 4-5 up to the DCT normalization).
        a = dctn(rho, type=2)
        a /= 4.0
        a *= self._coef_scale
        a /= self._denom
        a[0, 0] = 0.0
        return self.series(a)

    def series(self, a: np.ndarray) -> np.ndarray:
        """The stacked series ``sum a cos cos``, ``sum a w_u sin cos``
        and ``sum a w_v cos sin`` at the bin centers."""
        psi_in, ex_in, ey_in = self._inputs
        stack = np.zeros((3,) + a.shape)
        np.multiply(a, psi_in, out=stack[0])
        np.multiply(a[:0:-1], ex_in, out=stack[1, 1:])
        np.multiply(a[:, :0:-1], ey_in, out=stack[2, :, 1:])
        out = idctn(stack, type=2, axes=(1, 2))
        out *= self._outputs
        return out


def _clamp(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``np.clip`` as two plain ufuncs."""
    return np.minimum(np.maximum(a, lo), hi)


def _bilinear(grids: np.ndarray, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of each (same-shape) grid at fractional
    bin indices, from one gather of all four corners of every grid.

    The four weighted corner terms are summed in order from ``-0.0``
    (the exact additive identity), so the result matches the written-out
    ``g00*ux*uy + g10*tx*uy + g01*ux*ty + g11*tx*ty`` bit for bit.
    """
    grids = np.asarray(grids)
    m, n = grids.shape[1:]
    fx = _clamp(fx, 0.0, m - 1.0)
    fy = _clamp(fy, 0.0, n - 1.0)
    i0 = np.floor(fx).astype(np.int64)
    j0 = np.floor(fy).astype(np.int64)
    tx = fx - i0
    ty = fy - j0
    ux = 1 - tx
    uy = 1 - ty
    r0 = i0 * n
    r1 = np.minimum(i0 + 1, m - 1) * n
    j1 = np.minimum(j0 + 1, n - 1)
    corners = np.stack((r0 + j0, r1 + j0, r0 + j1, r1 + j1))
    terms = grids.reshape(len(grids), -1).take(corners, axis=1)
    terms *= np.stack((ux, tx, ux, tx))
    terms *= np.stack((uy, uy, ty, ty))
    return np.add.reduce(terms, axis=1, initial=-0.0)
