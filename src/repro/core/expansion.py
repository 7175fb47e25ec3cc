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
    resources one net at a time.  An uncongested segment changes
    nothing, so after a run of them one array pass over the rest jumps
    to the next congested one.
    """
    params = params or ExpansionParams()
    segs = demand.i_segments
    n = len(segs)
    rows = list(zip(*(getattr(segs, f.name).tolist() for f in fields(segs))))
    views = (
        # The transposed views make the vertical case identical.
        (grid.cap_v.T, demand.dmd_v.T, demand.dmd_h.T, grid.nx),
        (grid.cap_h, demand.dmd_h, demand.dmd_v, grid.ny),
    )
    first_congested = _over_capacity_scan(grid, demand)
    with obs.span("congestion/expansion", segments=n):
        i, clean = first_congested(0), 0
        while i < n:
            horizontal, *seg = rows[i]
            clean = 0 if _expand_one(*views[horizontal], seg, params) else clean + 1
            i += 1
            if clean == _PROBE:
                i, clean = first_congested(i), 0


#: Clean segments tested one by one before the next array pass: fewer
#: slow down congested designs (MEDIA_SUBSYS expands 43% of them).
_PROBE = 8


def _over_capacity_scan(grid: RoutingGrid, demand: DemandResult):
    """``first(i)``: the first segment from ``i`` on that fails the
    capacity test of :func:`_expand_one` (``demand - capacity <= 0`` on
    every Gcell of its span), else the segment count.  Prefix counts of
    passing Gcells along each segment direction (the transposed vertical
    maps, as in :func:`expand_demand`) make each test two lookups."""
    segs = demand.i_segments
    nx, ny = grid.nx, grid.ny
    split = (nx + 1) * ny
    prefix = np.zeros(split + (ny + 1) * nx, dtype=np.int64)
    counts = (
        (demand.dmd_h, grid.cap_h, prefix[:split].reshape(nx + 1, ny)[1:]),
        (demand.dmd_v.T, grid.cap_v.T, prefix[split:].reshape(ny + 1, nx)[1:]),
    )
    stride = np.where(segs.horizontal, ny, nx)
    start = np.where(segs.horizontal, 0, split) + segs.lo * stride + segs.fixed
    length = segs.hi - segs.lo + 1
    end = start + length * stride

    def first(i: int) -> int:
        for dmd, cap, out in counts:
            np.cumsum(dmd - cap <= 0.0, axis=0, out=out)
        over = np.flatnonzero(prefix[end[i:]] - prefix[start[i:]] < length[i:])
        return i + int(over[0]) if len(over) else len(length)

    return first


def _expand_one(
    cap: np.ndarray,
    dmd: np.ndarray,
    dmd_perp: np.ndarray,
    num_rows: int,
    seg: tuple,
    params: ExpansionParams,
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
