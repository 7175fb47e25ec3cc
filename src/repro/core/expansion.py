"""Detour-imitating routing demand expansion (paper Sec. III-A3).

Clustered cells concentrate the probabilistic demand into narrow stripes;
a real router (and the eventual cell spreading) would instead detour
through neighbouring Gcell rows/columns.  Rather than perturb the
electrostatic system by spreading cells directly, PUFFER rewrites the
demand map: every *congested I-shaped* two-point net redistributes its
unit demand over the neighbouring rows (columns) in proportion to their
remaining capacity.  A Steiner endpoint additionally receives
perpendicular demand connecting the displaced run back to the tree — a
routing detour — while a pin endpoint does not, because the owning cell
itself can move (cell spreading).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from operator import add

import numpy as np

from .. import obs
from ..router.grid import RoutingGrid
from .demand import DemandResult


@dataclass
class ExpansionParams:
    """Knobs of the demand expansion.

    Attributes:
        radius: how many rows/columns on each side receive demand.
        keep_weight: minimum weight retained by the original row even
            when it has no spare capacity (keeps the map smooth).
    """

    radius: int = 2
    keep_weight: float = 0.25


def expand_demand(
    grid: RoutingGrid,
    demand: DemandResult,
    params: ExpansionParams | None = None,
) -> None:
    """Expand congested I-segments in place (paper Fig. 3c).

    Congestion is judged against the *current* maps, so earlier
    expansions relieve later ones — imitating routers negotiating
    resources one net at a time.  Most segments span a few Gcells, so
    the loop runs on Python floats over flat copies of the four maps
    (index ``gx * ny + gy``) and writes the demand back once: the same
    IEEE operations, in the same order, as the per-segment array form
    kept as a test oracle.
    """
    params = params or ExpansionParams()
    segs = demand.i_segments
    ny = grid.ny
    dmd_h = demand.dmd_h.ravel().tolist()
    dmd_v = demand.dmd_v.ravel().tolist()
    # (cap, dmd, dmd_perp, rows, along stride, across stride) per
    # direction: Gcell (along, across) of a segment is flat
    # ``along * stride_along + across * stride_across``.
    views = (
        (grid.cap_v.ravel().tolist(), dmd_v, dmd_h, grid.nx, 1, ny),
        (grid.cap_h.ravel().tolist(), dmd_h, dmd_v, ny, ny, 1),
    )
    radius, keep = params.radius, params.keep_weight
    columns = (getattr(segs, f.name).tolist() for f in fields(segs))
    expanded = 0
    with obs.span("congestion/expansion", segments=len(segs)) as span:
        for horizontal, row, lo, hi, lo_is_pin, hi_is_pin in zip(*columns):
            cap, dmd, perp, num_rows, along, across = views[horizontal]
            length = hi - lo + 1
            first = lo * along + row * across
            stop = first + length * along
            for cell in range(first, stop, along):
                if dmd[cell] - cap[cell] > 0.0:
                    break
            else:
                continue
            expanded += 1
            lo_k = max(row - radius, 0) - row
            hi_k = min(row + radius, num_rows - 1) - row
            weights = []
            for k in range(lo_k, hi_k + 1):
                band = range(first + k * across, stop + k * across, along)
                if length < 8:  # numpy's sum below 8 terms: one running sum
                    spare = 0.0
                    for cell in band:
                        spare += cap[cell] - dmd[cell]
                else:
                    spare = _numpy_sum([cap[cell] - dmd[cell] for cell in band])
                weights.append(0.0 if spare < 0.0 else spare)
            weights[-lo_k] += keep * max(length, 1)
            total = _numpy_sum(weights)
            if total <= 0.0:
                continue

            # Redistribute the unit demand across the neighbouring rows.
            for cell in range(first, stop, along):
                dmd[cell] -= 1.0
            for k, w in zip(range(lo_k, hi_k + 1), weights):
                w /= total
                if w <= 0.0:
                    continue
                for cell in range(first + k * across, stop + k * across, along):
                    dmd[cell] += w
                if k == 0:
                    continue
                # Detour connection at Steiner endpoints only (paper Fig.
                # 3c): perpendicular demand between the original and
                # displaced rows.
                near, far = (row + 1, row + k) if k > 0 else (row + k, row - 1)
                for end, is_pin in ((lo, lo_is_pin), (hi, hi_is_pin)):
                    if not is_pin:
                        base = end * along
                        for cell in range(base + near * across,
                                          base + (far + 1) * across, across):
                            perp[cell] += w
        span.set(expanded=expanded)
        if expanded:
            demand.dmd_h[...] = np.reshape(dmd_h, demand.dmd_h.shape)
            demand.dmd_v[...] = np.reshape(dmd_v, demand.dmd_v.shape)


def _numpy_sum(values: list) -> float:
    """``float(np.asarray(values).sum())`` on Python floats: numpy's
    float64 pairwise summation, from ``0.0``.  (Only the sign of a zero
    result may differ, which no caller can observe.)"""
    return _pairwise(values, 0, len(values))


def _pairwise(values: list, lo: int, n: int) -> float:
    # numpy's ``pairwise_sum``: one running sum below 8 terms, eight
    # strided accumulators up to 128, halves (multiples of 8) beyond.
    if n < 8:
        return reduce(add, values[lo:lo + n], 0.0)
    if n <= 128:
        m = lo + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = (
            reduce(add, values[lo + j:m:8]) for j in range(8)
        )
        return reduce(add, values[m:lo + n], ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    half = n // 2
    half -= half % 8
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)
