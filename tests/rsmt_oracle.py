"""Per-net reference code of the Steinerization in :mod:`repro.rsmt`.

This is the loop :mod:`repro.rsmt.steiner` must reproduce bit for bit:
every pass scans every vertex and every pair of its tree neighbours for
the best median insertion, then the pruning pass emits the topology.
Tests compare trees built with it against the real ones with
``np.array_equal`` and equal dtypes.
"""

from __future__ import annotations

import numpy as np

from repro.rsmt import Topology
from repro.rsmt.rmst import rmst_edges

_EPS = 1e-9


def oracle_build_rsmt(x, y, steinerize_max_degree: int = 64) -> Topology:
    """:func:`repro.rsmt.build_rsmt` on the reference Steinerization."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    is_pin = np.ones(n, dtype=bool)
    if n <= 1:
        return Topology(x, y, is_pin, np.zeros((0, 2), dtype=np.int64))
    edges = rmst_edges(x, y)
    if n == 2 or n > steinerize_max_degree:
        return Topology(x, y, is_pin, edges)
    points_x = list(x)
    points_y = list(y)
    adjacency = oracle_adjacency(n, edges)
    oracle_steinerize(points_x, points_y, adjacency, num_pins=n)
    return oracle_finalize(points_x, points_y, adjacency, num_pins=n)


def oracle_adjacency(n: int, edges: np.ndarray) -> list:
    adjacency = [set() for _ in range(n)]
    for a, b in edges:
        adjacency[int(a)].add(int(b))
        adjacency[int(b)].add(int(a))
    return adjacency


def _dist(px, py, a: int, b: int) -> float:
    return abs(px[a] - px[b]) + abs(py[a] - py[b])


def _median3(a: float, b: float, c: float) -> float:
    return a + b + c - min(a, b, c) - max(a, b, c)


def oracle_steinerize(px: list, py: list, adjacency: list, num_pins: int) -> None:
    """Insert median Steiner points while any insertion shortens the tree."""
    max_passes = 2 * num_pins
    for _ in range(max_passes):
        best = None  # (gain, u, v, w, sx, sy)
        for u in range(len(px)):
            neighbors = list(adjacency[u])
            if len(neighbors) < 2:
                continue
            for i in range(len(neighbors)):
                for j in range(i + 1, len(neighbors)):
                    v, w = neighbors[i], neighbors[j]
                    sx = _median3(px[u], px[v], px[w])
                    sy = _median3(py[u], py[v], py[w])
                    old = _dist(px, py, u, v) + _dist(px, py, u, w)
                    new = (
                        abs(px[u] - sx) + abs(py[u] - sy)
                        + abs(px[v] - sx) + abs(py[v] - sy)
                        + abs(px[w] - sx) + abs(py[w] - sy)
                    )
                    gain = old - new
                    if gain > _EPS and (best is None or gain > best[0]):
                        best = (gain, u, v, w, sx, sy)
        if best is None:
            return
        _, u, v, w, sx, sy = best
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


def oracle_finalize(px: list, py: list, adjacency: list, num_pins: int) -> Topology:
    """Prune useless Steiner points and emit the topology.

    A Steiner point of tree degree <= 2 adds nothing: degree-2 points are
    spliced out (their neighbours reconnected), degree-<=1 points dropped.
    """
    n = len(px)
    alive = [True] * n
    changed = True
    while changed:
        changed = False
        for s in range(num_pins, n):
            if not alive[s]:
                continue
            neighbors = [t for t in adjacency[s] if alive[t]]
            if len(neighbors) <= 1:
                for t in neighbors:
                    adjacency[t].discard(s)
                adjacency[s].clear()
                alive[s] = False
                changed = True
            elif len(neighbors) == 2:
                a, b = neighbors
                adjacency[a].discard(s)
                adjacency[b].discard(s)
                if a != b:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
                adjacency[s].clear()
                alive[s] = False
                changed = True
    index = {}
    xs, ys, pins = [], [], []
    for i in range(n):
        if alive[i]:
            index[i] = len(xs)
            xs.append(px[i])
            ys.append(py[i])
            pins.append(i < num_pins)
    edge_list = []
    for a in range(n):
        if not alive[a]:
            continue
        for b in adjacency[a]:
            if alive[b] and a < b:
                edge_list.append((index[a], index[b]))
    edges = (
        np.asarray(edge_list, dtype=np.int64)
        if edge_list
        else np.zeros((0, 2), dtype=np.int64)
    )
    return Topology(
        np.asarray(xs), np.asarray(ys), np.asarray(pins, dtype=bool), edges
    )
