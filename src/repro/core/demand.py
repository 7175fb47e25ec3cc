"""Topology-based probabilistic routing demand (paper Sec. III-A2).

Every net is decomposed by RSMT into two-point nets over Gcell
coordinates.  I-shaped two-point nets consume a unit of directional
demand in every Gcell they pass; L-shaped ones spread an *average* demand
over their bounding box (each Gcell gets ``1/(dy+1)`` horizontal and
``1/(dx+1)`` vertical demand, the expectation over the two L routes).  A
pin penalty captures the demand of local nets whose pins share a Gcell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels, obs
from ..netlist.design import Design
from ..router.grid import RoutingGrid
from ..router.router import pin_flat_indices
from ..rsmt.batch import TopologyBatch, csr_ranges, gcell_rsmt_batch, net_gcells


@dataclass(eq=False)
class StraightSegments:
    """The straight two-point nets in edge order, one array per field:
    the units the detour expansion acts on.

    ``horizontal`` segments run along x at row ``fixed`` (vertical ones
    along y at column ``fixed``) from ``lo`` to ``hi >= lo``.  Steiner
    endpoints (``*_is_pin`` false) receive extra perpendicular detour
    demand when the segment is expanded; pins do not (cells can move).
    """

    horizontal: np.ndarray
    fixed: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lo_is_pin: np.ndarray
    hi_is_pin: np.ndarray

    def __len__(self) -> int:
        return len(self.horizontal)


def build_topologies(
    design: Design, grid: RoutingGrid, cache: dict | None = None
) -> TopologyBatch:
    """RSMT topologies of every multi-Gcell net at the current placement.

    Args:
        design: the placed design.
        grid: the Gcell grid.
        cache: optional memo across calls (the latest tree of every net
            built so far).  Nets whose pin Gcells did not move since then
            reuse their topology — between consecutive padding rounds
            most nets qualify, which makes repeated estimation cheap.
    """
    with obs.span("congestion/topologies") as span:
        ustart, ucell = net_gcells(
            pin_flat_indices(design, grid), design.net_start, design.net_pins,
            np.arange(design.num_nets), grid.nx * grid.ny,
        )
        counts = np.diff(ustart)
        # Nets with < 2 distinct Gcells are local: pin penalty only.
        eligible = np.flatnonzero(counts >= 2)

        cache = {} if cache is None else cache
        store = cache.get("batch")
        if store is None:
            store = gcell_rsmt_batch(ustart, ucell, eligible[:0], grid.ny)
        fresh = np.ones(len(eligible), dtype=bool)
        slot = np.zeros(len(eligible), dtype=np.int64)
        if len(store):
            # The memo holds the latest tree of every net built so far, by
            # net.  A tree starts with its pins — the net's sorted distinct
            # Gcells when it was built — so reuse it when those match.
            slot = np.minimum(np.searchsorted(store.net, eligible), len(store) - 1)
            pins = np.concatenate(([0], np.cumsum(store.is_pin)))[store.point_start]
            cand = np.flatnonzero(
                (store.net[slot] == eligible) & (np.diff(pins)[slot] == counts[eligible])
            )
            nets = eligible[cand]
            _, cur = csr_ranges(ustart[nets], counts[nets])
            _, old = csr_ranges(store.point_start[slot[cand]], counts[nets])
            moved = np.bincount(
                np.repeat(np.arange(len(cand)), counts[nets]),
                weights=ucell[cur] != store.gx[old] * grid.ny + store.gy[old],
                minlength=len(cand),
            )
            fresh[cand[moved == 0]] = False

        built = gcell_rsmt_batch(ustart, ucell, eligible[fresh], grid.ny)
        # Both sources in one batch, then gathers in net order: this
        # round's batch, and the memo (stored trees not rebuilt + new ones).
        source = _concat(store, built)
        order = np.where(fresh, len(store) + np.cumsum(fresh) - 1, slot)
        rebuilt = np.isin(store.net, eligible[fresh])
        keep = np.concatenate([np.flatnonzero(~rebuilt), order[fresh]])
        cache["batch"] = source.take(keep[np.argsort(source.net[keep])])
        span.set(nets=len(eligible), cached=len(eligible) - len(built))
    return source.take(order)


def _concat(a: TopologyBatch, b: TopologyBatch) -> TopologyBatch:
    return TopologyBatch(
        np.concatenate([a.net, b.net]),
        np.concatenate([a.point_start, b.point_start[1:] + a.point_start[-1]]),
        np.concatenate([a.gx, b.gx]),
        np.concatenate([a.gy, b.gy]),
        np.concatenate([a.is_pin, b.is_pin]),
        np.concatenate([a.edge_start, b.edge_start[1:] + a.edge_start[-1]]),
        np.concatenate([a.edges, b.edges + len(a.gx)]),
    )


@dataclass
class DemandResult:
    """Demand maps plus the I-segment inventory used by the expansion."""

    dmd_h: np.ndarray
    dmd_v: np.ndarray
    pin_count: np.ndarray
    i_segments: StraightSegments


def accumulate_demand(
    design: Design,
    grid: RoutingGrid,
    topologies: TopologyBatch,
    pin_penalty: float = 0.05,
) -> DemandResult:
    """Probabilistic demand maps for the given topologies.

    Args:
        design: provides pin positions for the pin penalty.
        grid: the Gcell grid.
        topologies: output of :func:`build_topologies`.
        pin_penalty: demand added to both directions of each pin's Gcell.

    Returns:
        A :class:`DemandResult`; ``pin_count`` is the raw per-Gcell pin
        count (reused by the pin-density features).
    """
    with obs.span("congestion/demand", nets=len(topologies)) as span:
        a, b = topologies.edges.T
        ax, ay, a_pin = topologies.gx[a], topologies.gy[a], topologies.is_pin[a]
        bx, by, b_pin = topologies.gx[b], topologies.gy[b], topologies.is_pin[b]
        xlo = np.minimum(ax, bx)
        xhi = np.maximum(ax, bx)
        ylo = np.minimum(ay, by)
        yhi = np.maximum(ay, by)
        dx = xhi - xlo
        dy = yhi - ylo
        # Every edge is a weighted rectangle on each map: straight edges
        # carry unit demand along their row/column (the 1/(d+1) weight
        # degenerates to 1); L-shaped edges spread the average over the
        # bbox.  A zero extent contributes nothing in that direction.
        mh = dx > 0
        mv = dy > 0
        dmd_h = kernels.rect_add(
            grid.nx, grid.ny,
            xlo[mh], xhi[mh], ylo[mh], yhi[mh], 1.0 / (dy[mh] + 1.0),
        )
        dmd_v = kernels.rect_add(
            grid.nx, grid.ny,
            xlo[mv], xhi[mv], ylo[mv], yhi[mv], 1.0 / (dx[mv] + 1.0),
        )
        # Straight edges, in edge order, feed the detour expansion.
        straight = np.flatnonzero(mh ^ mv)
        horiz = mh[straight]
        a_first = np.where(
            horiz, ax[straight] < bx[straight], ay[straight] < by[straight]
        )
        i_segments = StraightSegments(
            horiz,
            np.where(horiz, ylo[straight], xlo[straight]),
            np.where(horiz, xlo[straight], ylo[straight]),
            np.where(horiz, xhi[straight], yhi[straight]),
            np.where(a_first, a_pin[straight], b_pin[straight]),
            np.where(a_first, b_pin[straight], a_pin[straight]),
        )
        pin_count = np.bincount(
            pin_flat_indices(design, grid), minlength=grid.nx * grid.ny
        ).reshape(grid.nx, grid.ny).astype(np.float64)
        if pin_penalty > 0:
            dmd_h += pin_penalty * pin_count
            dmd_v += pin_penalty * pin_count
        span.set(segments=len(i_segments), backend=kernels.current())
    return DemandResult(dmd_h, dmd_v, pin_count, i_segments)
