"""Wirelength models: HPWL and the weighted-average (WA) smooth model.

The WA model (paper Eq. 2, after [15], [16]) approximates the per-net
half-perimeter wirelength with a differentiable expression

``WA+ = sum_j x_j e^{x_j/gamma} / sum_j e^{x_j/gamma}`` (and the mirrored
``WA-``), whose accuracy is controlled by the smoothing parameter
``gamma``.  Both axes share one stacked layout: x then y pin coordinates
in net order, y nets numbered after x nets.  An evaluation takes exact
per-net extrema with one ``ufunc.at`` pair, the exponential sums with
``np.add.reduceat`` over the stack, and scatters both gradient axes with
one ``np.bincount``.
"""

from __future__ import annotations

import numpy as np

from ..netlist.design import Design, net_extents


class WirelengthModel:
    """Vectorized WA wirelength and gradient evaluator for one design.

    The evaluator is bound to the design's net topology at construction;
    positions are passed per call so the Nesterov optimizer can evaluate
    reference points without mutating the design.
    """

    def __init__(self, design: Design) -> None:
        degrees = np.diff(design.net_start)
        degrees = degrees[degrees > 0]
        pins = design.net_pins
        n = self._num_cells = design.num_cells
        k = self._num_nets = len(degrees)
        # Stacked x|y layout over 2P pins and 2K non-empty nets.
        cells = design.pin_cell[pins]
        net_ids = np.repeat(np.arange(k), degrees)
        starts = np.cumsum(degrees) - degrees
        self._cells = np.concatenate((cells, cells + n))
        self._offsets = np.concatenate((design.pin_dx[pins], design.pin_dy[pins]))
        self._net_ids = np.concatenate((net_ids, net_ids + k))
        self._starts = np.concatenate((starts, starts + len(pins)))

    def _pins(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Stacked absolute pin coordinates for positions ``x, y``."""
        p = np.concatenate((x, y))[self._cells]
        p += self._offsets
        return p

    def _axis_sum(self, per_net: np.ndarray) -> float:
        """Sum of a stacked per-net array, x nets first, then y nets."""
        k = self._num_nets
        return float(per_net[:k].sum() + per_net[k:].sum())

    def hpwl(self, x: np.ndarray, y: np.ndarray) -> float:
        """Exact half-perimeter wirelength."""
        lo, hi = net_extents(self._pins(x, y), self._net_ids, 2 * self._num_nets)
        return self._axis_sum(hi - lo)

    def wa_and_grad(
        self, x: np.ndarray, y: np.ndarray, gamma: float
    ) -> tuple:
        """WA wirelength and its gradient with respect to cell centers.

        Uses max/min-shifted exponentials for numerical stability; the
        shift cancels exactly in both the value and the gradient.

        Returns:
            ``(wl, gx, gy)`` where ``wl`` is the total WA wirelength and
            ``gx``/``gy`` are per-cell gradients (zero for fixed cells is
            the caller's responsibility to enforce when updating).
        """
        p = self._pins(x, y)
        ids = self._net_ids
        starts = self._starts
        lo, hi = net_extents(p, ids, 2 * self._num_nets)
        ep = np.exp((p - hi[ids]) / gamma)
        en = np.exp((lo[ids] - p) / gamma)
        sp = np.add.reduceat(ep, starts)
        sn = np.add.reduceat(en, starts)
        sxp = np.add.reduceat(p * ep, starts)
        sxn = np.add.reduceat(p * en, starts)
        wl = self._axis_sum(sxp / sp - sxn / sn)

        # Per-net factors are formed before the gather to the pins.
        q = p / gamma
        grad = q + 1.0
        grad *= sp[ids]
        grad -= (sxp / gamma)[ids]
        grad *= ep
        grad /= (sp * sp)[ids]
        minus = np.subtract(1.0, q, out=q)
        minus *= sn[ids]
        minus += (sxn / gamma)[ids]
        minus *= en
        minus /= (sn * sn)[ids]
        grad -= minus
        g = np.bincount(self._cells, weights=grad, minlength=2 * self._num_cells)
        n = self._num_cells
        return wl, g[:n], g[n:]


def gamma_schedule(base: float, overflow: float) -> float:
    """ePlace's smoothing schedule: tighten gamma as cells spread.

    ``gamma = base * 10^{(20*overflow - 11) / 9}`` interpolates from
    ``10*base`` at overflow 1.0 down to ``0.1*base`` at overflow 0.1.
    """
    exponent = (20.0 * min(max(float(overflow), 0.0), 1.0) - 11.0) / 9.0
    return base * 10.0 ** exponent
