"""Rectilinear Steiner minimal tree construction (FLUTE substitute).

The paper uses FLUTE [18] to obtain RSMT topologies.  This module builds
near-minimal trees with the classic two-step heuristic: a rectilinear MST
(Prim) followed by local Steinerization — for every vertex and every pair
of its tree neighbours, the rectilinear median point is inserted when it
shortens the tree.  For three pins this recovers the exact RSMT (the
median point); in general it closes most of the RMST-vs-RSMT gap while
staying fast enough to run on every net in every padding round.
"""

from __future__ import annotations

import numpy as np

from .rmst import rmst_edges
from .topology import Topology

_EPS = 1e-9


def build_rsmt(x, y, steinerize_max_degree: int = 64) -> Topology:
    """Near-minimal rectilinear Steiner tree over the given pin points.

    Args:
        x, y: pin coordinates (one net).
        steinerize_max_degree: nets larger than this keep the plain RMST
            (Steinerization cost grows with degree; huge fan-out nets are
            rare and their demand is dominated by the MST anyway).

    Returns:
        A :class:`Topology` whose points start with the input pins.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    is_pin = np.ones(n, dtype=bool)
    if n <= 1:
        return Topology(x, y, is_pin, np.zeros((0, 2), dtype=np.int64))
    edges = rmst_edges(x, y)
    if n == 2 or n > steinerize_max_degree:
        return Topology(x, y, is_pin, edges)
    points_x = x.tolist()
    points_y = y.tolist()
    adjacency = _adjacency(n, edges)
    _steinerize(points_x, points_y, adjacency, num_pins=n)
    return _finalize(points_x, points_y, adjacency, num_pins=n)


def _adjacency(n: int, edges: np.ndarray) -> list:
    adjacency = [set() for _ in range(n)]
    for a, b in edges.tolist():
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


def _steinerize(px: list, py: list, adjacency: list, num_pins: int) -> None:
    """Insert median Steiner points while any insertion shortens the tree.

    Each pass inserts the best median over every vertex and every pair
    of its tree neighbours, the first one found winning ties.  A
    vertex's best pair depends only on its own neighbour set, so it is
    kept between passes and recomputed only for the four vertices an
    insertion touches; the scan over vertices then picks the same one.
    """
    best = [_best_pair(px, py, adjacency, u) for u in range(len(px))]
    for _ in range(2 * num_pins):
        pick = None  # (gain, u, v, w, sx, sy)
        for found in best:
            if found is not None and (pick is None or found[0] > pick[0]):
                pick = found
        if pick is None:
            return
        _, u, v, w, sx, sy = pick
        s = len(px)
        px.append(sx)
        py.append(sy)
        adjacency.append({u, v, w})
        adjacency[u].discard(v)
        adjacency[u].discard(w)
        adjacency[v].discard(u)
        adjacency[w].discard(u)
        adjacency[u].add(s)
        adjacency[v].add(s)
        adjacency[w].add(s)
        for t in (u, v, w):
            best[t] = _best_pair(px, py, adjacency, t)
        best.append(_best_pair(px, py, adjacency, s))


def _best_pair(px: list, py: list, adjacency: list, u: int):
    """The first pair of ``u``'s neighbours whose median insertion gains
    the most (over ``_EPS``), as ``(gain, u, v, w, sx, sy)``, or ``None``.

    Every sum keeps its historical association: the median as
    ``((a + b) + c - min(a, b, c)) - max(a, b, c)`` (the ``u, v`` parts
    hoisted out of the inner loop, the 3-way min/max taken as
    ``min(min(a, b), c)`` — the same comparisons), the old length as
    ``d(u, v) + d(u, w)``.
    """
    neighbors = list(adjacency[u])
    if len(neighbors) < 2:
        return None
    xu, yu = px[u], py[u]
    points = [
        (t, px[t], py[t], abs(xu - px[t]) + abs(yu - py[t])) for t in neighbors
    ]
    best = None
    for i, (v, xv, yv, d_uv) in enumerate(points):
        sum_x, sum_y = xu + xv, yu + yv
        lo_x, hi_x = min(xu, xv), max(xu, xv)
        lo_y, hi_y = min(yu, yv), max(yu, yv)
        for w, xw, yw, d_uw in points[i + 1:]:
            sx = sum_x + xw - (xw if xw < lo_x else lo_x) - (xw if xw > hi_x else hi_x)
            sy = sum_y + yw - (yw if yw < lo_y else lo_y) - (yw if yw > hi_y else hi_y)
            gain = (d_uv + d_uw) - (
                abs(xu - sx) + abs(yu - sy)
                + abs(xv - sx) + abs(yv - sy)
                + abs(xw - sx) + abs(yw - sy)
            )
            if gain > _EPS and (best is None or gain > best[0]):
                best = (gain, u, v, w, sx, sy)
    return best


def _finalize(px: list, py: list, adjacency: list, num_pins: int) -> Topology:
    """Prune useless Steiner points and emit the topology.

    A Steiner point of tree degree <= 2 adds nothing: degree-2 points are
    spliced out (their neighbours reconnected), degree-<=1 points dropped.
    A dropped point leaves every neighbour set, so live sets hold live
    points only.
    """
    n = len(px)
    alive = [True] * n
    changed = True
    while changed:
        changed = False
        for s in range(num_pins, n):
            neighbors = adjacency[s]
            if not alive[s] or len(neighbors) > 2:
                continue
            if len(neighbors) == 2:
                a, b = neighbors
                adjacency[a].discard(s)
                adjacency[b].discard(s)
                adjacency[a].add(b)
                adjacency[b].add(a)
            else:
                for t in neighbors:
                    adjacency[t].discard(s)
            neighbors.clear()
            alive[s] = False
            changed = True
    index = [0] * n
    xs, ys, pins = [], [], []
    for i in range(n):
        if alive[i]:
            index[i] = len(xs)
            xs.append(px[i])
            ys.append(py[i])
            pins.append(i < num_pins)
    edge_list = [
        (index[a], index[b]) for a in range(n) for b in adjacency[a] if a < b
    ]
    edges = (
        np.asarray(edge_list, dtype=np.int64)
        if edge_list
        else np.zeros((0, 2), dtype=np.int64)
    )
    return Topology(
        np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64),
        np.asarray(pins, dtype=bool), edges,
    )
