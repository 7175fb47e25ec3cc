"""Abacus standard-cell legalization [20].

Cells are processed left to right; each cell is tried in the rows nearest
its global-placement position, where the classic cluster dynamic program
(``AddCell`` / ``AddCluster`` / ``Collapse``) yields the minimal quadratic
displacement placement of the row under the no-overlap constraint.  The
row with the cheapest insertion wins.

PUFFER's white-space-assisted legalization passes *padded* cell widths
(paper Eq. 17); cells are placed centered in their padded footprint, so
the extra width becomes distributed white space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import kernels, obs
from ..netlist.design import Design
from .rows import SegmentIndex


class _SegmentState:
    """Cluster state of one row segment, as parallel arrays.

    Clusters (maximal runs of abutting cells) are stored left to right
    in ``e`` (total weight), ``q`` (weighted target sum), ``w`` (total
    width), ``x`` (clamped optimal start); only the first ``n`` entries
    are valid.  The array layout feeds :func:`repro.kernels.abacus_trial`
    directly, so the hot trial-insertion scan runs in the kernel while
    the (once-per-cell) commit stays scalar.
    """

    __slots__ = ("segment", "n", "e", "q", "w", "x", "cells", "used")

    def __init__(self, segment) -> None:
        self.segment = segment
        self.n = 0
        self.e = np.zeros(8)
        self.q = np.zeros(8)
        self.w = np.zeros(8)
        self.x = np.zeros(8)
        self.cells: list = []  # per-cluster lists of (cell, width, target_x)
        self.used = 0.0

    def free(self) -> float:
        return self.segment.width - self.used

    def _reserve(self) -> None:
        if self.n == len(self.e):
            for name in ("e", "q", "w", "x"):
                old = getattr(self, name)
                grown = np.zeros(2 * len(old))
                grown[: self.n] = old
                setattr(self, name, grown)


@dataclass
class LegalizeResult:
    """Outcome of a legalization run."""

    total_displacement: float
    max_displacement: float
    num_cells: int
    failed: int


def legalize_abacus(
    design: Design,
    widths: np.ndarray | None = None,
    max_row_search: int | None = None,
) -> LegalizeResult:
    """Legalize all movable standard cells of ``design`` in place.

    Args:
        design: the placed design; positions are overwritten.
        widths: per-cell *footprint* widths (defaults to ``design.w``);
            PUFFER passes padded widths here.  Cells are centered in
            their footprint.
        max_row_search: inclusive cap on the row-distance search radius;
            ``0`` restricts every cell to its home row, ``None`` (the
            default) searches all rows.

    Returns:
        Displacement statistics.  Raises ``RuntimeError`` when a cell
        fits in no segment at all.
    """
    with obs.span("legalize/abacus") as span:
        result = _legalize_abacus(design, widths, max_row_search)
        span.set(
            displacement=result.total_displacement,
            max_displacement=result.max_displacement,
            cells=result.num_cells,
        )
    return result


def _legalize_abacus(
    design: Design,
    widths: np.ndarray | None,
    max_row_search: int | None,
) -> LegalizeResult:
    widths = design.w if widths is None else np.asarray(widths, dtype=np.float64)
    index = SegmentIndex.build(design)
    if index.num_rows == 0:
        raise RuntimeError("design has no rows")
    states = {}
    for row, segs in index.by_row.items():
        states[row] = [_SegmentState(s) for s in segs]
    site = design.technology.site_width
    row_height = design.technology.row_height
    # `is None`, not falsiness: an explicit 0 means home-row-only.
    if max_row_search is None:
        max_row_search = index.num_rows

    cells = np.flatnonzero(design.movable & ~design.is_macro)
    order = cells[np.argsort(design.x[cells], kind="stable")]
    target_x = design.x.copy()
    target_y = design.y.copy()
    placements = {}
    failed = 0

    for cell in order:
        cell = int(cell)
        width = float(widths[cell])
        w_sites = max(int(math.ceil(width / site - 1e-9)), 1) * site
        tx = target_x[cell] - w_sites / 2.0  # left edge target
        ty = target_y[cell] - design.h[cell] / 2.0
        home = index.nearest_row(ty)
        best = None  # (cost, state, trial_tuple)
        for radius in range(index.num_rows):
            rows = {home - radius, home + radius}
            y_cost = (radius * row_height) ** 2 if radius else 0.0
            if best is not None and y_cost >= best[0]:
                break
            for row in rows:
                if not 0 <= row < index.num_rows:
                    continue
                dy = index.row_ys[row] - ty
                for state in states.get(row, []):
                    if state.free() < w_sites - 1e-9:
                        continue
                    seg = state.segment
                    trial = kernels.abacus_trial(
                        state.e, state.q, state.w, state.x, state.n,
                        seg.xlo, seg.xhi, seg.width,
                        w_sites, _weight(design, cell), tx,
                    )
                    if trial is None:
                        continue
                    x_final = trial[0]
                    cost = (x_final - tx) ** 2 + dy * dy
                    if best is None or cost < best[0]:
                        best = (cost, state, row, x_final)
            # Radius cap checked *after* the radius is searched, so the
            # cap is inclusive and 0 still visits the home row.
            if radius >= max_row_search:
                break
        if best is None:
            failed += 1
            continue
        _, state, row, _ = best
        _commit_insert(state, cell, w_sites, _weight(design, cell), tx)
        state.used += w_sites
        placements[cell] = (state, row)

    disp_total, disp_max = _finalize(design, states, index, widths, site)
    if failed:
        raise RuntimeError(f"legalization failed for {failed} cells")
    return LegalizeResult(
        total_displacement=disp_total,
        max_displacement=disp_max,
        num_cells=len(order),
        failed=failed,
    )


def _weight(design: Design, cell: int) -> float:
    return float(design.w[cell] * design.h[cell])


def _commit_insert(state: _SegmentState, cell, width, weight, target_x) -> None:
    """Mutating Abacus AddCell / Collapse step.

    Runs once per placed cell (the trial scan already found the row), so
    it stays a scalar loop over the cluster arrays.
    """
    seg = state.segment
    state._reserve()
    i = state.n
    x0 = min(max(target_x, seg.xlo), seg.xhi - width)
    state.e[i] = weight
    state.q[i] = weight * x0
    state.w[i] = width
    state.x[i] = min(max(state.q[i] / state.e[i], seg.xlo), seg.xhi - width)
    state.cells.append([(cell, width, target_x)])
    state.n = i + 1
    while state.n >= 2:
        i = state.n - 1
        p = i - 1
        if state.x[p] + state.w[p] <= state.x[i] + 1e-9:
            break
        state.e[p] += state.e[i]
        state.q[p] += state.q[i] - state.e[i] * state.w[p]
        state.w[p] += state.w[i]
        state.cells[p].extend(state.cells.pop())
        state.n = p + 1
        state.x[p] = min(
            max(state.q[p] / state.e[p], seg.xlo), seg.xhi - state.w[p]
        )


def _finalize(design: Design, states, index: SegmentIndex, widths, site) -> tuple:
    """Snap clusters to sites and write cell centers back to the design."""
    disp_total = 0.0
    disp_max = 0.0
    row_height = design.technology.row_height
    for row, seg_states in states.items():
        y = index.row_ys[row]
        for state in seg_states:
            for ci in range(state.n):
                xs = state.segment.xlo + math.floor(
                    (state.x[ci] - state.segment.xlo) / site + 1e-9
                ) * site
                cursor = xs
                for cell, width, _target in state.cells[ci]:
                    old_x, old_y = design.x[cell], design.y[cell]
                    # Center the actual cell in its (possibly padded)
                    # footprint, snapped so the cell edge stays on a site.
                    slack = width - design.w[cell]
                    left_pad = math.floor(slack / 2.0 / site + 1e-9) * site
                    design.x[cell] = cursor + left_pad + design.w[cell] / 2.0
                    design.y[cell] = y + design.h[cell] / 2.0
                    d = math.hypot(design.x[cell] - old_x, design.y[cell] - old_y)
                    disp_total += d
                    disp_max = max(disp_max, d)
                    cursor += width
    return disp_total, disp_max
