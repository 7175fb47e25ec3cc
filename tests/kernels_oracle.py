"""Loop-level reference code of :mod:`repro.kernels`.

These are the per-object loops the batched kernels reformulate: one
slice-add per rectangle, the per-offset clamped density accumulation,
the per-rectangle bin walk, an A* maze search, the scalar Abacus
recurrence and the per-net RSMT builder.  ``tests/test_kernels.py``
compares each kernel against its loop (maps to ``allclose``, Abacus and
Steiner exactly, the maze on path cost), whole-flow tests swap the loops
in with :func:`swap_in`, and ``benchmarks/bench_kernels.py`` times the
kernels against them.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro import kernels
from repro.placer import prefix
from repro.rsmt import batch as rsmt_batch
from repro.rsmt.steiner import build_rsmt

#: The kernels :mod:`repro.kernels` exports, each with a loop here.
KERNELS = (
    "rect_add", "bin_overlap", "rect_area", "maze_search", "abacus_trial",
    "steiner_batch",
)


def fresh_memos(monkeypatch) -> None:
    """Give the process an empty Steiner-tree memo and GP prefix store
    until ``monkeypatch`` undoes it.  Neither keys on the kernels that
    filled it, so a run that should build everything with one kernel
    set must not start from entries the other set left behind."""
    monkeypatch.setattr(rsmt_batch, "_MEMO", rsmt_batch.TreeMemo())
    monkeypatch.setattr(prefix, "_STORE", prefix.PrefixStore())


def swap_in(monkeypatch, names=KERNELS) -> None:
    """Replace ``names`` on :mod:`repro.kernels` with their loops here,
    from empty memos (:func:`fresh_memos`), until ``monkeypatch`` undoes
    it."""
    fresh_memos(monkeypatch)
    module = globals()
    for name in names:
        monkeypatch.setattr(kernels, name, module[name])


def count_tree_builds(monkeypatch) -> list:
    """Wrap the current ``kernels.steiner_batch``; the returned list gets
    the net count of every later call."""
    counts = []
    build = kernels.steiner_batch

    def counting(x, y, start, max_degree):
        counts.append(len(start) - 1)
        return build(x, y, start, max_degree)

    monkeypatch.setattr(kernels, "steiner_batch", counting)
    return counts


# ----------------------------------------------------------------------
# Weighted-rectangle accumulation (demand / RUDY rasterization)
# ----------------------------------------------------------------------


def rect_add(nx, ny, x0, x1, y0, y1, w, out=None):
    """Add ``w[i]`` to ``out[x0[i]:x1[i]+1, y0[i]:y1[i]+1]`` per rectangle.

    Bounds are inclusive Gcell indices, assumed in range.  ``w`` may be a
    scalar or a per-rectangle array.  Rectangles are applied in order
    with one slice-add each (the historical per-net loop).
    """
    if out is None:
        out = np.zeros((nx, ny))
    ww = np.broadcast_to(np.asarray(w, dtype=np.float64), np.shape(x0))
    for rx0, rx1, ry0, ry1, rw in zip(
        np.asarray(x0).tolist(),
        np.asarray(x1).tolist(),
        np.asarray(y0).tolist(),
        np.asarray(y1).tolist(),
        ww.tolist(),
    ):
        out[rx0 : rx1 + 1, ry0 : ry1 + 1] += rw
    return out


# ----------------------------------------------------------------------
# Movable-cell bin overlap (electrostatic charge density)
# ----------------------------------------------------------------------


def bin_overlap(xlo, xhi, ylo, yhi, ix0, iy0, kx, ky, scale, dim, bin_w, bin_h):
    """Smoothed movable-area map by per-offset clamped accumulation.

    Coordinates are die-relative cell extents; ``ix0``/``iy0`` the bin of
    the low edge; ``kx``/``ky`` the maximum bin span.  Matches the
    historical ePlace loop, including the boundary behaviour: bin indices
    are clamped to ``dim - 1``, so cells whose span sticks past the last
    bin re-accumulate that boundary bin once per clamped offset.
    """
    rho = np.zeros((dim, dim))
    if len(xlo) == 0:
        return rho
    flat = rho.ravel()
    for dxk in range(kx):
        ix = np.clip(ix0 + dxk, 0, dim - 1)
        ox = np.clip(
            np.minimum(xhi, (ix + 1) * bin_w) - np.maximum(xlo, ix * bin_w),
            0.0,
            None,
        )
        for dyk in range(ky):
            iy = np.clip(iy0 + dyk, 0, dim - 1)
            oy = np.clip(
                np.minimum(yhi, (iy + 1) * bin_h) - np.maximum(ylo, iy * bin_h),
                0.0,
                None,
            )
            np.add.at(flat, ix * dim + iy, ox * oy * scale)
    return rho


# ----------------------------------------------------------------------
# Fixed-rectangle rasterization (exact per-bin overlap area)
# ----------------------------------------------------------------------


def rect_area(x0, x1, y0, y1, dim, bin_w, bin_h):
    """Exact per-bin overlap area of die-relative rectangles.

    The historical ``_rasterize_fixed`` inner loops: for every rectangle,
    walk its covered bin range and add the x/y overlap product.  Inputs
    are assumed clipped to the die (``0 <= x0 < x1 <= dim * bin_w``).
    """
    out = np.zeros((dim, dim))
    for rx0, rx1, ry0, ry1 in zip(
        np.asarray(x0).tolist(),
        np.asarray(x1).tolist(),
        np.asarray(y0).tolist(),
        np.asarray(y1).tolist(),
    ):
        ix0 = int(rx0 / bin_w)
        ix1 = min(int(math.ceil(rx1 / bin_w)), dim)
        iy0 = int(ry0 / bin_h)
        iy1 = min(int(math.ceil(ry1 / bin_h)), dim)
        for i in range(max(ix0, 0), ix1):
            ox = min(rx1, (i + 1) * bin_w) - max(rx0, i * bin_w)
            if ox <= 0:
                continue
            for j in range(max(iy0, 0), iy1):
                oy = min(ry1, (j + 1) * bin_h) - max(ry0, j * bin_h)
                if oy > 0:
                    out[i, j] += ox * oy
    return out


# ----------------------------------------------------------------------
# Maze search (A* with run-based turn accounting)
# ----------------------------------------------------------------------

_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # dx, dy
_H = 0  # horizontal movement kind
_V = 1


def maze_search(gx0, gy0, gx1, gy1, cost_h, cost_v, xlo, xhi, ylo, yhi):
    """A* from ``(gx0, gy0)`` to ``(gx1, gy1)`` inside the given window.

    It agrees with :func:`repro.kernels.maze_search` on path cost only:
    the two break ties between equal-cost paths differently.

    Costs charge the entered Gcell in the movement direction and, on
    turns (or when leaving the start), additionally charge the corner
    cell in the new direction.  Returns ``(h_cells, v_cells)`` flat index
    arrays, or ``None`` when no path exists in the window.
    """
    ny = cost_h.shape[1]
    # State: (x, y, last_dir) with last_dir in {H, V, 2=start}.
    best = {}
    came = {}
    start = (gx0, gy0, 2)
    best[start] = 0.0
    frontier = [(_heuristic(gx0, gy0, gx1, gy1), 0.0, start)]
    goal_state = None
    while frontier:
        f, g, state = heapq.heappop(frontier)
        if g > best.get(state, np.inf):
            continue
        x, y, last = state
        if x == gx1 and y == gy1:
            goal_state = state
            break
        for dx, dy in _DIRS:
            nx_, ny_ = x + dx, y + dy
            if not (xlo <= nx_ <= xhi and ylo <= ny_ <= yhi):
                continue
            move = _H if dy == 0 else _V
            step = cost_h[nx_, ny_] if move == _H else cost_v[nx_, ny_]
            turn = 0.0
            if last == 2:
                # Leaving the start: charge the start cell in this direction.
                turn = cost_h[x, y] if move == _H else cost_v[x, y]
            elif last != move:
                turn = cost_h[x, y] if move == _H else cost_v[x, y]
            ng = g + step + turn
            nstate = (nx_, ny_, move)
            if ng < best.get(nstate, np.inf) - 1e-12:
                best[nstate] = ng
                came[nstate] = state
                heapq.heappush(
                    frontier, (ng + _heuristic(nx_, ny_, gx1, gy1), ng, nstate)
                )
    if goal_state is None:
        return None
    return _reconstruct(goal_state, came, ny)


def _heuristic(x: int, y: int, tx: int, ty: int) -> float:
    return abs(x - tx) + abs(y - ty)


def _reconstruct(goal, came, ny: int):
    """Charged-cell lists from the predecessor chain."""
    h_cells = []
    v_cells = []
    state = goal
    while state in came:
        prev = came[state]
        x, y, move = state
        px, py, plast = prev
        (h_cells if move == _H else v_cells).append(x * ny + y)
        # Turn (or start) charge on the corner cell.
        if plast == 2 or plast != move:
            (h_cells if move == _H else v_cells).append(px * ny + py)
        state = prev
    return (
        np.unique(np.asarray(h_cells, dtype=np.int64)),
        np.unique(np.asarray(v_cells, dtype=np.int64)),
    )


# ----------------------------------------------------------------------
# Abacus trial insertion (legalizer cluster dynamic program)
# ----------------------------------------------------------------------


#: The scalar AddCell / Collapse loop.  It stays in :mod:`repro.kernels`,
#: which runs it on short cluster chains, so the oracle is that loop on
#: every input.  Below ``kernels._ABACUS_SCALAR_MAX`` clusters the kernel
#: runs this same loop, so only its suffix-scan path is compared against
#: an independent loop.
abacus_trial = kernels._abacus_scalar


# ----------------------------------------------------------------------
# Batched RSMT construction (per-net Steiner trees)
# ----------------------------------------------------------------------


def steiner_batch(x, y, start, max_degree):
    """Per-net RSMT over CSR-packed point sets — the historical loop.

    ``x`` / ``y`` hold the concatenated (deduplicated) points of every
    net; ``start`` is the CSR offset array (length ``nets + 1``).

    Returns:
        One ``(px, py, is_pin, edges)`` tuple per net, matching
        :func:`repro.rsmt.build_rsmt` on each slice.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    start = np.asarray(start, dtype=np.int64)
    out = []
    for i in range(len(start) - 1):
        lo, hi = int(start[i]), int(start[i + 1])
        topo = build_rsmt(x[lo:hi], y[lo:hi], steinerize_max_degree=max_degree)
        out.append((topo.x, topo.y, topo.is_pin, topo.edges))
    return out
