"""Bounded maze routing on the Gcell grid.

Used by the rip-up-and-reroute phase for segments that pattern routing
cannot place without overflow.  The search is restricted to the segment
bounding box expanded by a margin; costs charge the entered Gcell in the
movement direction and, on turns, additionally charge the corner Gcell in
the new direction — consistent with the run-based accounting of
:mod:`repro.router.pattern`.

The search itself is :func:`repro.kernels.maze_search`, a batched
label-correcting wavefront.

A rip-up pass repeats many searches exactly: segments with the same
endpoints are ripped in turn, and ripping a route and re-committing it
onto the same path restores the costs bit for bit.  A :class:`MazeMemo`
created for the pass returns the stored result of such a repeat instead
of searching again.
"""

from __future__ import annotations

import numpy as np

from .. import kernels, obs

#: Ceiling on the cost bytes one :class:`MazeMemo` stores; past it, new
#: window geometries are still searched but no longer stored.
MEMO_MAX_BYTES = 16 << 20


class MazeMemo:
    """Exact results of one pass's maze searches.

    An entry is keyed by everything the search reads besides the costs:
    the endpoints, the clipped window and the grid shape (flat indices
    use its ``ny``).  It holds the window's ``cost_h``/``cost_v`` bytes
    and the route (or ``None``) the search returned for them, so a
    lookup whose window costs are bit-identical returns exactly what a
    fresh search would.  A search with other costs replaces the entry,
    so memory grows with the number of distinct geometries only, up to
    :data:`MEMO_MAX_BYTES`.  Stored route arrays are read-only: several
    routes may now share them.
    """

    __slots__ = ("entries", "nbytes")

    def __init__(self) -> None:
        self.entries: dict = {}
        self.nbytes = 0

    def search(self, gx0, gy0, gx1, gy1, cost_h, cost_v, xlo, xhi, ylo, yhi):
        """``kernels.maze_search`` with this memo in front of it."""
        geometry = (gx0, gy0, gx1, gy1, xlo, xhi, ylo, yhi, cost_h.shape)
        costs = (
            cost_h[xlo : xhi + 1, ylo : yhi + 1].tobytes()
            + cost_v[xlo : xhi + 1, ylo : yhi + 1].tobytes()
        )
        entry = self.entries.get(geometry)
        if entry is not None and entry[0] == costs:
            obs.counter("maze/memo_hits").inc()
            return entry[1]
        route = kernels.maze_search(
            gx0, gy0, gx1, gy1, cost_h, cost_v, xlo, xhi, ylo, yhi
        )
        if route is not None:
            for cells in route:
                cells.flags.writeable = False
        if entry is not None:
            self.entries[geometry] = (costs, route)
        elif self.nbytes + len(costs) <= MEMO_MAX_BYTES:
            self.entries[geometry] = (costs, route)
            self.nbytes += len(costs)
        return route


def maze_route(
    gx0: int,
    gy0: int,
    gx1: int,
    gy1: int,
    cost_h: np.ndarray,
    cost_v: np.ndarray,
    margin: int,
    memo: MazeMemo | None = None,
) -> "tuple | None":
    """Cheapest path from ``(gx0, gy0)`` to ``(gx1, gy1)`` in an expanded bbox.

    Args:
        cost_h, cost_v: 2D per-Gcell direction costs (>= 1).
        margin: bbox expansion in Gcells.
        memo: the calling pass's :class:`MazeMemo`; a repeat of an
            earlier search with bit-identical inputs returns its result
            without searching.

    Returns:
        ``(h_cells, v_cells)`` flat index arrays, or ``None`` when no
        path exists in the window.
    """
    obs.counter("maze/calls").inc()
    nx, ny = cost_h.shape
    xlo = max(min(gx0, gx1) - margin, 0)
    xhi = min(max(gx0, gx1) + margin, nx - 1)
    ylo = max(min(gy0, gy1) - margin, 0)
    yhi = min(max(gy0, gy1) + margin, ny - 1)
    if gx0 == gx1 and gy0 == gy1:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    search = kernels.maze_search if memo is None else memo.search
    route = search(gx0, gy0, gx1, gy1, cost_h, cost_v, xlo, xhi, ylo, yhi)
    if route is None:
        obs.counter("maze/no_path").inc()
    return route
