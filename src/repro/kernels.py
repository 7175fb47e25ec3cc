"""Numpy kernels for the measured hot paths.

The congestion estimator, the RUDY baseline, the electrostatic density
map, the maze router, the Abacus legalizer and the RSMT builder funnel
their inner loops through this module.  Each kernel is a whole-batch
numpy formulation of a per-object loop; the loops themselves live in
``tests/kernels_oracle.py``, where ``tests/test_kernels.py`` checks the
kernels against them and ``benchmarks/bench_kernels.py`` times them.
They agree to ``allclose`` tolerance (``rtol=1e-9``, plus ``atol`` of a
few ulps of the accumulated magnitude) on the map kernels, exactly on
the Abacus and Steiner kernels, and to equal path cost on the maze.

Callers look kernels up on this module at call time
(``kernels.maze_search(...)``), so a test can swap an oracle in with
``monkeypatch.setattr`` and a profiler can wrap the attribute.

* :func:`rect_add` — 2D difference-array: scatter the four signed
  corners of every rectangle with one ``np.add.at``, then integrate with
  two cumulative sums.  O(rects + grid) instead of O(rects x area).
* :func:`bin_overlap` — closed-form bin coverage (in bin units) plus a
  ``bincount`` per (dx, dy) bin offset accumulated into shifted views.
  Cells whose clamped bin span would alias the boundary bin (the
  loop's ``np.clip(..., dim - 1)`` re-accumulation) take a separate
  exact path so the boundary quirk is reproduced bit-for-bit in shape.
* :func:`rect_area` — per-axis coverage matrices contracted with one
  matmul: ``out = covx.T @ covy``.
* :func:`maze_search` — label-correcting wavefront: directional
  min-scans relax entire straight runs per sweep, so the sweep count is
  bounded by the number of turns on the optimal path, not its length.
* :func:`abacus_trial` — non-mutating Abacus AddCell/Collapse trial
  insertion: the scalar recurrence on short cluster chains, a
  suffix-scan closed form on long ones.
* :func:`steiner_batch` — per-net RSMT construction over CSR-packed
  point sets, grouped by degree with batched Prim.
"""

from __future__ import annotations

import numpy as np

from . import obs


def current() -> str:
    """Name of the kernel implementation (there is one)."""
    return "vectorized"


# ----------------------------------------------------------------------
# Weighted-rectangle accumulation (demand / RUDY rasterization)
# ----------------------------------------------------------------------


def rect_add(nx, ny, x0, x1, y0, y1, w, out=None):
    """Add ``w[i]`` to ``out[x0[i]:x1[i]+1, y0[i]:y1[i]+1]`` per rectangle.

    Difference-array formulation: each rectangle contributes four signed
    corner impulses; a double cumulative sum recovers the dense map.
    Agrees with the one-slice-per-rectangle loop to float64
    summation-order tolerance.
    """
    if out is None:
        out = np.zeros((nx, ny))
    x0 = np.asarray(x0, dtype=np.int64)
    if len(x0) == 0:
        return out
    x1 = np.asarray(x1, dtype=np.int64)
    y0 = np.asarray(y0, dtype=np.int64)
    y1 = np.asarray(y1, dtype=np.int64)
    ww = np.ascontiguousarray(
        np.broadcast_to(np.asarray(w, dtype=np.float64), x0.shape)
    )
    diff = np.zeros((nx + 1, ny + 1))
    np.add.at(diff, (x0, y0), ww)
    np.add.at(diff, (x1 + 1, y0), -ww)
    np.add.at(diff, (x0, y1 + 1), -ww)
    np.add.at(diff, (x1 + 1, y1 + 1), ww)
    np.cumsum(diff, axis=0, out=diff)
    np.cumsum(diff, axis=1, out=diff)
    out += diff[:nx, :ny]
    return out


# ----------------------------------------------------------------------
# Movable-cell bin overlap (electrostatic charge density)
# ----------------------------------------------------------------------


def bin_overlap(xlo, xhi, ylo, yhi, ix0, iy0, kx, ky, scale, dim, bin_w, bin_h):
    """Smoothed movable-area map, batched over all cells at once.

    Interior cells (bin span entirely inside the grid) use closed-form
    per-offset coverage in bin units and one ``bincount`` per (dx, dy)
    offset pair, added into the offset-shifted view of the map.  Cells
    whose span would be clamped at the boundary replay the loop's
    clamped-index accumulation exactly (including the boundary-bin
    re-accumulation) on the small clamped subset.
    """
    rho = np.zeros((dim, dim))
    n = len(xlo)
    if n == 0:
        return rho
    scale = np.broadcast_to(np.asarray(scale, dtype=np.float64), (n,))
    # Closed-form pass over every cell: offset (a, b) contributions land
    # in the (a, b)-shifted view, which silently *drops* spill past the
    # last bin instead of clamping it like the loop does.  The few
    # boundary cells are then corrected: remove their closed-form terms,
    # re-add them with the loop's clamped indices.  Precondition
    # (guaranteed by the die-clipped extents): 0 <= ix0, iy0 < dim.
    _overlap_closed_form(rho, xlo, xhi, ylo, yhi, ix0, iy0, kx, ky, scale,
                         bin_w, bin_h)
    edge = (ix0 > dim - kx) | (iy0 > dim - ky) | (ix0 < 0) | (iy0 < 0)
    if edge.any():
        e = np.flatnonzero(edge)
        _overlap_edge_fix(rho, xlo[e], xhi[e], ylo[e], yhi[e], ix0[e], iy0[e],
                          kx, ky, scale[e], bin_w, bin_h)
    return rho


def _coverage(lo, hi, i0, k, inv):
    """Per-offset bin coverage columns, in bin units: column ``j`` is the
    overlap of ``[lo, hi]`` with the ``(i0 + j)``-th bin."""
    a = hi * inv
    a -= i0
    b = lo * inv
    b -= i0
    col = np.minimum(a, 1.0)
    col -= b
    cols = [col]
    for j in range(1, k):
        col = a - j
        np.minimum(col, 1.0, out=col)
        np.maximum(col, 0.0, out=col)
        cols.append(col)
    return cols


def _overlap_closed_form(rho, xlo, xhi, ylo, yhi, ix0, iy0, kx, ky, scale,
                         bin_w, bin_h):
    """Closed-form coverage + one ``bincount`` per offset pair, added
    into the offset-shifted view of the map."""
    dim = rho.shape[0]
    oxs = _coverage(xlo, xhi, ix0, kx, 1.0 / bin_w)
    oys = _coverage(ylo, yhi, iy0, ky, 1.0 / bin_h)
    # Fold the per-cell scale and the bin area (bin-unit -> area) into x.
    s = scale * (bin_w * bin_h)
    for col in oxs:
        col *= s
    base = ix0 * dim
    base += iy0
    size = dim * dim
    prod = np.empty_like(s)
    for a in range(kx):
        for b in range(ky):
            np.multiply(oxs[a], oys[b], out=prod)
            m = np.bincount(base, weights=prod, minlength=size)
            rho[a:, b:] += m.reshape(dim, dim)[: dim - a or None, : dim - b or None]


def _overlap_edge_fix(rho, xlo, xhi, ylo, yhi, ix0, iy0, kx, ky, scale,
                      bin_w, bin_h):
    """Swap boundary cells' closed-form terms for loop-clamped ones."""
    dim = rho.shape[0]
    size = dim * dim
    s = scale * (bin_w * bin_h)
    # Remove: the identical closed-form weights, at their unclamped
    # (in-grid only) positions — cancels what the main pass added.
    ox = np.stack(_coverage(xlo, xhi, ix0, kx, 1.0 / bin_w), axis=1) * s[:, None]
    oy = np.stack(_coverage(ylo, yhi, iy0, ky, 1.0 / bin_h), axis=1)
    ixs = ix0[:, None] + np.arange(kx)[None, :]
    iys = iy0[:, None] + np.arange(ky)[None, :]
    wgt = ox[:, :, None] * oy[:, None, :]
    flat = ixs[:, :, None] * dim + iys[:, None, :]
    ok = ((ixs >= 0) & (ixs < dim))[:, :, None] & ((iys >= 0) & (iys < dim))[:, None, :]
    rho -= np.bincount(flat[ok], weights=wgt[ok], minlength=size).reshape(dim, dim)
    # Add: the loop's accumulation — offsets clamped to the last bin,
    # overlap recomputed against the clamped bin.
    ix = np.minimum(np.maximum(ixs, 0), dim - 1)
    ox = np.maximum(
        np.minimum(xhi[:, None], (ix + 1) * bin_w)
        - np.maximum(xlo[:, None], ix * bin_w),
        0.0,
    )
    iy = np.minimum(np.maximum(iys, 0), dim - 1)
    oy = np.maximum(
        np.minimum(yhi[:, None], (iy + 1) * bin_h)
        - np.maximum(ylo[:, None], iy * bin_h),
        0.0,
    )
    wgt = ox[:, :, None] * oy[:, None, :] * scale[:, None, None]
    flat = ix[:, :, None] * dim + iy[:, None, :]
    rho += np.bincount(
        flat.ravel(), weights=wgt.ravel(), minlength=size
    ).reshape(dim, dim)


# ----------------------------------------------------------------------
# Fixed-rectangle rasterization (exact per-bin overlap area)
# ----------------------------------------------------------------------


def rect_area(x0, x1, y0, y1, dim, bin_w, bin_h):
    """Exact per-bin overlap area via per-axis coverage + one matmul.

    ``covx[i, b]`` is the x-extent rectangle ``i`` covers in bin column
    ``b`` (and ``covy`` its y counterpart); the per-bin area summed over
    rectangles is exactly ``covx.T @ covy``.
    """
    out = np.zeros((dim, dim))
    x0 = np.asarray(x0, dtype=np.float64)
    if len(x0) == 0:
        return out
    x1 = np.asarray(x1, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    edges_x = np.arange(dim + 1) * bin_w
    edges_y = np.arange(dim + 1) * bin_h
    covx = np.minimum(x1[:, None], edges_x[None, 1:]) - np.maximum(
        x0[:, None], edges_x[None, :-1]
    )
    np.clip(covx, 0.0, None, out=covx)
    covy = np.minimum(y1[:, None], edges_y[None, 1:]) - np.maximum(
        y0[:, None], edges_y[None, :-1]
    )
    np.clip(covy, 0.0, None, out=covy)
    out += covx.T @ covy
    return out


# ----------------------------------------------------------------------
# Maze search (label-correcting wavefront with directional scans)
# ----------------------------------------------------------------------

_H = 0
_V = 1


def maze_search(gx0, gy0, gx1, gy1, cost_h, cost_v, xlo, xhi, ylo, yhi):
    """Windowed cheapest path from ``(gx0, gy0)`` to ``(gx1, gy1)``.

    Costs charge the entered Gcell in the movement direction and, on
    turns (or when leaving the start), additionally charge the corner
    cell in the new direction.  Returns ``(h_cells, v_cells)`` flat
    index arrays, or ``None`` when no path exists in the window.

    ``gH[x, y]`` / ``gV[x, y]`` hold the cheapest cost of reaching the
    cell with a last move in that direction.  Each sweep forms the
    pre-move potential ``a = min(g_same, g_other + turn_charge)`` of one
    direction, then relaxes entire straight runs with prefix/suffix
    min-scans along that axis (the batched neighbor expansion), so
    convergence takes on the order of the optimal path's turn count.
    The path is recovered by walking cost-consistent predecessors;
    charged cells follow the same accounting (entered cell in the
    move direction, corner cell on turns and at the start).

    Ties between equal-cost paths break by one rule, the walk back from
    the target in :func:`_backtrack`: it arrives in H when
    ``gH <= gV`` at the target; at every step it ends at the start as
    soon as a direct move out of the start accounts for the label, and
    otherwise takes a straight predecessor before a turn, and the
    lower-coordinate neighbour (left, below) before the higher one.
    Labels are matched to ``1e-9`` relative.

    Sweeps are Gauss-Seidel: the V half forms ``aV`` from the H labels
    this sweep just relaxed, not the ones it started from.  The result
    is the same, bit for bit, as relaxing both halves from the old
    labels (Jacobi).  Each half-update ``F`` is monotone (built from
    ``min`` and round-to-nearest add/subtract of fixed costs, all
    non-decreasing in every label) and deflationary (``F(g) <= g``,
    since each label is a ``min`` with itself).  From the same start
    ``g0``, Jacobi descends to the greatest fixed point ``g*`` below
    ``g0``.  By induction, each Gauss-Seidel iterate lies between
    ``g*`` (``F`` maps it to itself) and the Jacobi iterate of the same
    sweep (its V half reads labels no larger), so both reach ``g*``,
    Gauss-Seidel in no more sweeps; a Gauss-Seidel sweep that changes
    nothing is also a Jacobi fixed point, so the stopping test holds.
    """
    ny_full = cost_h.shape[1]
    ch = np.ascontiguousarray(cost_h[xlo : xhi + 1, ylo : yhi + 1])
    cv = np.ascontiguousarray(cost_v[xlo : xhi + 1, ylo : yhi + 1])
    w, h = ch.shape
    sx, sy = gx0 - xlo, gy0 - ylo
    tx, ty = gx1 - xlo, gy1 - ylo

    gH = np.full((w, h), np.inf)
    gV = np.full((w, h), np.inf)
    # Seed the four moves out of the start (entered cell + start charge).
    if sx + 1 < w:
        gH[sx + 1, sy] = ch[sx + 1, sy] + ch[sx, sy]
    if sx >= 1:
        gH[sx - 1, sy] = ch[sx - 1, sy] + ch[sx, sy]
    if sy + 1 < h:
        gV[sx, sy + 1] = cv[sx, sy + 1] + cv[sx, sy]
    if sy >= 1:
        gV[sx, sy - 1] = cv[sx, sy - 1] + cv[sx, sy]

    sh = np.cumsum(ch, axis=0)  # inclusive prefix of H step costs
    sv = np.cumsum(cv, axis=1)
    ph = sh - ch  # exclusive prefix
    pv = sv - cv

    converged = False
    sweeps = 0
    for _ in range(2 * w * h + 8):
        sweeps += 1
        aH = np.minimum(gH, gV + ch)
        # Straight H runs: cost k -> x (rightward) is sh[x] - sh[k], so
        # cand[x] = sh[x] + min_{k<x}(aH[k] - sh[k]); leftward uses the
        # exclusive prefix ph symmetrically.  One min-scan per direction.
        newH = gH.copy()
        run = np.minimum.accumulate(aH - sh, axis=0)
        np.minimum(newH[1:], run[:-1] + sh[1:], out=newH[1:])
        run = np.minimum.accumulate((aH + ph)[::-1], axis=0)[::-1]
        np.minimum(newH[:-1], run[1:] - ph[:-1], out=newH[:-1])
        aV = np.minimum(gV, newH + cv)
        newV = gV.copy()
        run = np.minimum.accumulate(aV - sv, axis=1)
        np.minimum(newV[:, 1:], run[:, :-1] + sv[:, 1:], out=newV[:, 1:])
        run = np.minimum.accumulate((aV + pv)[:, ::-1], axis=1)[:, ::-1]
        np.minimum(newV[:, :-1], run[:, 1:] - pv[:, :-1], out=newV[:, :-1])
        if np.array_equal(newH, gH) and np.array_equal(newV, gV):
            converged = True
            break
        gH, gV = newH, newV
    obs.histogram("maze/sweeps").observe(sweeps)
    if not converged:
        return None

    return _backtrack(gH, gV, ch, cv, sx, sy, tx, ty, xlo, ylo, ny_full)


def _backtrack(gH, gV, ch, cv, sx, sy, tx, ty, xlo, ylo, ny_full):
    """Charged-cell lists by walking cost-consistent predecessors."""
    w, h = ch.shape
    use_h = gH[tx, ty] <= gV[tx, ty]
    g = gH[tx, ty] if use_h else gV[tx, ty]
    if not np.isfinite(g):
        return None
    h_cells = []
    v_cells = []
    x, y, d = tx, ty, (_H if use_h else _V)
    for _ in range(4 * w * h + 8):
        cells = h_cells if d == _H else v_cells
        cells.append((x + xlo) * ny_full + (y + ylo))
        step = ch[x, y] if d == _H else cv[x, y]
        tol = 1e-9 * (1.0 + abs(g))
        # Direct move out of the start?
        if d == _H and y == sy and abs(x - sx) == 1:
            if abs(ch[x, y] + ch[sx, sy] - g) <= tol:
                cells.append((sx + xlo) * ny_full + (sy + ylo))
                return _as_routes(h_cells, v_cells)
        if d == _V and x == sx and abs(y - sy) == 1:
            if abs(cv[x, y] + cv[sx, sy] - g) <= tol:
                cells.append((sx + xlo) * ny_full + (sy + ylo))
                return _as_routes(h_cells, v_cells)
        g_same = gH if d == _H else gV
        g_turn = gV if d == _H else gH
        preds = ((x - 1, y), (x + 1, y)) if d == _H else ((x, y - 1), (x, y + 1))
        found = False
        for px, py in preds:  # straight continuation first
            if 0 <= px < w and 0 <= py < h and abs(g_same[px, py] + step - g) <= tol:
                x, y, g = px, py, g_same[px, py]
                found = True
                break
        if not found:
            for px, py in preds:  # then a turn (corner charge on pred)
                if not (0 <= px < w and 0 <= py < h):
                    continue
                corner = ch[px, py] if d == _H else cv[px, py]
                if abs(g_turn[px, py] + corner + step - g) <= tol:
                    cells.append((px + xlo) * ny_full + (py + ylo))
                    x, y, g, d = px, py, g_turn[px, py], (_V if d == _H else _H)
                    found = True
                    break
        if not found:
            return None
    return None


def _as_routes(h_cells, v_cells):
    return (
        np.unique(np.asarray(h_cells, dtype=np.int64)),
        np.unique(np.asarray(v_cells, dtype=np.int64)),
    )


# ----------------------------------------------------------------------
# Abacus trial insertion (legalizer cluster dynamic program)
# ----------------------------------------------------------------------

# Below this cluster count the scalar recurrence beats the array setup;
# the vectorized scan takes over on deep merge chains.
_ABACUS_SCALAR_MAX = 8


def abacus_trial(e, q, w, x, n, xlo, xhi, seg_width, width, weight, target_x):
    """Trial Abacus insertion into one row segment.

    The segment's cluster state is given as parallel arrays ``e`` (total
    weight), ``q`` (weighted target sum), ``w`` (total width), ``x``
    (clamped optimal start), of which the first ``n`` entries are valid
    and ordered left to right.  A new cell of ``width`` / ``weight``
    targeting left edge ``target_x`` is merged backwards through the
    classic AddCell / Collapse recurrence without mutating the state.

    Returns:
        ``(x_left, merges)`` — the final left edge the new cell would
        get and the number of existing clusters the insertion collapses
        — or ``None`` when the (merged) cluster cannot fit the segment.

    Below :data:`_ABACUS_SCALAR_MAX` clusters the scalar recurrence
    runs as is.  Above it, the merged cluster's ``(E, Q, W)`` after
    ``s`` collapses is expressed in closed form from prefix/suffix sums,
    every candidate stop position is evaluated at once, and the first
    self-consistent stop wins — identical to the scalar loop's fixed
    point, computed in O(n) numpy instead of O(s) Python iterations.
    """
    if width > seg_width + 1e-9:
        return None
    if n < _ABACUS_SCALAR_MAX:
        return _abacus_scalar(e, q, w, x, n, xlo, xhi, seg_width, width,
                              weight, target_x)
    xi = min(max(target_x, xlo), xhi - width)
    e = e[:n]
    q = q[:n]
    w = w[:n]
    x = x[:n]
    cw = np.cumsum(w)
    totw = cw[-1]
    cw_before = cw - w  # exclusive prefix: total width left of cluster j
    # Suffix sums indexed by k = n - s (k = n means "no merges yet"):
    #   A[k] = sum(q[k:]),  C[k] = sum(e[k:]),  Bv[k] = sum((e*cw_before)[k:])
    A = np.zeros(n + 1)
    A[:n] = np.cumsum(q[::-1])[::-1]
    C = np.zeros(n + 1)
    C[:n] = np.cumsum(e[::-1])[::-1]
    Bv = np.zeros(n + 1)
    Bv[:n] = np.cumsum((e * cw_before)[::-1])[::-1]
    cwb = np.concatenate([cw_before, [totw]])
    s = np.arange(n + 1)
    k = n - s
    # Closed form of the merge recurrence after s collapses:
    #   E(s) = C[k] + weight
    #   W(s) = (totw - cwb[k]) + width
    #   Q(s) = A[k] - Bv[k] + C[k]*cwb[k] + weight*xi - weight*(totw - cwb[k])
    E = C[k] + weight
    W = (totw - cwb[k]) + width
    Q = A[k] - Bv[k] + C[k] * cwb[k] + weight * xi - weight * (totw - cwb[k])
    xc = np.minimum(np.maximum(Q / E, xlo), xhi - W)
    stop = np.empty(n + 1, dtype=bool)
    stop[n] = True
    left = n - 1 - s[:n]  # cluster the s-merge state would collapse next
    stop[:n] = x[left] + w[left] <= xc[:n] + 1e-9
    s_star = int(np.argmax(stop))
    overflow = W > seg_width + 1e-9
    overflow[0] = False  # s = 0 is covered by the entry width check
    if overflow[: s_star + 1].any():
        return None
    return (float(xc[s_star] + W[s_star]) - width, s_star)


def _abacus_scalar(e, q, w, x, n, xlo, xhi, seg_width, width, weight,
                   target_x):
    """:func:`abacus_trial` as the scalar AddCell / Collapse loop."""
    if width > seg_width + 1e-9:
        return None
    xi = min(max(target_x, xlo), xhi - width)
    ce, cq, cw = weight, weight * xi, width
    i = n - 1
    while True:
        xc = min(max(cq / ce, xlo), xhi - cw)
        if i < 0:
            break
        if x[i] + w[i] <= xc + 1e-9:
            break
        ce_new = e[i] + ce
        cq_new = q[i] + cq - ce * w[i]
        cw_new = w[i] + cw
        if cw_new > seg_width + 1e-9:
            return None
        ce, cq, cw = ce_new, cq_new, cw_new
        i -= 1
    xc = min(max(cq / ce, xlo), xhi - cw)
    return (xc + cw - width, n - 1 - i)


# ----------------------------------------------------------------------
# Batched RSMT construction (per-net Steiner trees)
# ----------------------------------------------------------------------

_NO_EDGES = np.zeros((0, 2), dtype=np.int64)
_NO_EDGES.setflags(write=False)
_EDGE_2 = np.array([[0, 1]], dtype=np.int64)
_EDGE_2.setflags(write=False)
_STAR_3 = np.array([[0, 3], [1, 3], [2, 3]], dtype=np.int64)
_STAR_3.setflags(write=False)
_PINS_3S = np.array([True, True, True, False])
_PINS_3S.setflags(write=False)


def _all_pins(d):
    flags = np.ones(d, dtype=bool)
    flags.setflags(write=False)
    return flags


def _prim_batch(dist):
    """Prim MSTs of a ``(B, n, n)`` distance tensor, scalar tie-breaks.

    Batched transcription of :func:`repro.rsmt.rmst.rmst_edges`: the
    same masked argmin (lowest index wins ties) and the same
    strictly-closer parent update, applied to all ``B`` nets per step.
    """
    batch, n, _ = dist.shape
    in_tree = np.zeros((batch, n), dtype=bool)
    in_tree[:, 0] = True
    best = dist[:, 0, :].copy()
    parent = np.zeros((batch, n), dtype=np.int64)
    edges = np.zeros((batch, n - 1, 2), dtype=np.int64)
    rows = np.arange(batch)
    for k in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        j = np.argmin(masked, axis=1)
        edges[:, k, 0] = parent[rows, j]
        edges[:, k, 1] = j
        in_tree[rows, j] = True
        dj = dist[rows, j, :]
        closer = dj < best
        parent = np.where(closer, j[:, None], parent)
        best = np.minimum(best, dj)
    return edges


def steiner_batch(x, y, start, max_degree):
    """Per-net RSMT over CSR-packed point sets, grouped by degree.

    Degree groups dominate the work differently, so each gets its own
    formulation:

    * ``d <= 1`` — points only, no edges.
    * ``d == 2`` — the single edge, no tree search needed.
    * ``d == 3`` — batched Prim plus the exact closed form: the
      rectilinear median of three points is the optimal Steiner point;
      when it coincides with the path's middle vertex the MST is already
      optimal (the per-net builder's zero-gain rejection), otherwise the
      median star replaces the path.
    * ``4 <= d <= max_degree`` — batched Prim for the MST (the O(n^2)
      part), then :mod:`repro.rsmt.steiner`'s Steinerization per net.
    * ``d > max_degree`` — batched Prim only (matching the per-net
      builder's plain-RMST cutoff).

    Returns ``(px, py, is_pin, edges)`` per net, in net order.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    start = np.asarray(start, dtype=np.int64)
    deg = np.diff(start)
    out = [None] * len(deg)
    for d in np.unique(deg).tolist():
        idx = np.flatnonzero(deg == d)
        lo = start[idx]
        if d <= 1:
            for i, l in zip(idx.tolist(), lo.tolist()):
                out[i] = (x[l:l + d], y[l:l + d], _all_pins(d), _NO_EDGES)
            continue
        if d == 2:
            pins = _all_pins(2)
            for i, l in zip(idx.tolist(), lo.tolist()):
                out[i] = (x[l:l + 2], y[l:l + 2], pins, _EDGE_2)
            continue
        gather = lo[:, None] + np.arange(d)[None, :]
        px = x[gather]
        py = y[gather]
        dist = (
            np.abs(px[:, :, None] - px[:, None, :])
            + np.abs(py[:, :, None] - py[:, None, :])
        )
        edges = _prim_batch(dist)
        if d == 3:
            _emit_degree3(out, idx, px, py, edges)
            continue
        if d > max_degree:
            pins = _all_pins(d)
            for b, i in enumerate(idx.tolist()):
                out[i] = (px[b], py[b], pins, edges[b])
            continue
        from .rsmt.steiner import _adjacency, _finalize, _steinerize

        for b, i in enumerate(idx.tolist()):
            pxl = px[b].tolist()
            pyl = py[b].tolist()
            adjacency = _adjacency(d, edges[b])
            _steinerize(pxl, pyl, adjacency, num_pins=d)
            topo = _finalize(pxl, pyl, adjacency, num_pins=d)
            out[i] = (topo.x, topo.y, topo.is_pin, topo.edges)
    return out


def _emit_degree3(out, idx, px, py, edges):
    """Exact three-point RSMTs from the batched MST paths.

    The middle vertex is the one with MST degree 2; the componentwise
    median of the three points is the unique optimal Steiner point, and
    its insertion gain equals its distance to the middle vertex — so a
    star is emitted exactly when that distance clears the per-net
    builder's ``1e-9`` gain threshold.  Non-star nets keep the MST path
    with edges in the per-net builder's canonical (sorted) emission
    order.
    """
    batch = len(idx)
    rows = np.arange(batch)
    occ = edges.reshape(batch, 4)
    counts = (occ[:, :, None] == np.arange(3)[None, None, :]).sum(axis=1)
    mid = np.argmax(counts, axis=1)
    sx = px.sum(axis=1) - px.min(axis=1) - px.max(axis=1)
    sy = py.sum(axis=1) - py.min(axis=1) - py.max(axis=1)
    gain = np.abs(sx - px[rows, mid]) + np.abs(sy - py[rows, mid])
    star = gain > 1e-9
    # Canonical path edges: each (a, b) with a < b, rows in lex order.
    path = np.sort(edges, axis=2)
    swap = (path[:, 0, 0] > path[:, 1, 0]) | (
        (path[:, 0, 0] == path[:, 1, 0]) & (path[:, 0, 1] > path[:, 1, 1])
    )
    path[swap] = path[swap][:, ::-1, :]
    pins3 = _all_pins(3)
    for b, i in enumerate(idx.tolist()):
        if star[b]:
            out[i] = (
                np.append(px[b], sx[b]),
                np.append(py[b], sy[b]),
                _PINS_3S,
                _STAR_3,
            )
        else:
            out[i] = (px[b], py[b], pins3, path[b])
