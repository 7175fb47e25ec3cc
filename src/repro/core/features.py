"""Multi-feature extraction for cell padding (paper Sec. III-B1).

Three feature classes, each covering a blind spot of the previous one:

* **Local** features — the signed congestion (Eq. 9) and pin density of
  the Gcells a cell overlaps.  Clipped views used by prior work cannot
  tell clustered cells apart; keeping the sign preserves the deviation
  between the estimate and the eventual routing result.
* **CNN-inspired** features — a mean-filter "convolution" over an
  expanded bounding box captures the surrounding region, like a CNN
  kernel aggregating neighbouring elements.
* **GNN-inspired** features — pin congestion (Eqs. 12-13) aggregates
  congestion along the *netlist topology*: for every pin, the best
  (minimum over candidate L/Z paths) of the worst (maximum along the
  path) congestion of its two-point nets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from ..netlist.design import Design
from ..router.router import pin_flat_indices
from .congestion import CongestionMap
from .demand import TopologyBatch


FEATURE_NAMES = (
    "local_cg",
    "local_pin",
    "around_cg",
    "around_pin",
    "pin_cg",
)


@dataclass
class FeatureParams:
    """Feature-extraction knobs.

    Attributes:
        kernel_size: mean-filter size (Gcells) of the CNN-inspired
            features — the convolution-kernel analogue.
        z_samples: interior Z-path positions sampled per direction when
            enumerating candidate paths for pin congestion.
        use_cnn / use_gnn: feature-class switches (ablation A1).
    """

    kernel_size: int = 3
    z_samples: int = 2
    use_cnn: bool = True
    use_gnn: bool = True


@dataclass
class FeatureSet:
    """Per-cell feature arrays, in :data:`FEATURE_NAMES` order."""

    values: dict

    def matrix(self, names=FEATURE_NAMES) -> np.ndarray:
        """``(num_cells, num_features)`` matrix in the given name order."""
        return np.stack([self.values[n] for n in names], axis=1)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[name]


class FeatureExtractor:
    """Computes the padding features for one design."""

    def __init__(self, design: Design, params: FeatureParams | None = None) -> None:
        self.design = design
        self.params = params or FeatureParams()

    def extract(self, cmap: CongestionMap, topologies: TopologyBatch) -> FeatureSet:
        """All features at the design's current placement.

        Fixed cells and macros receive zero features (they are never
        padded).
        """
        design = self.design
        n = design.num_cells
        grid = cmap.grid
        movable = design.movable & ~design.is_macro
        values = {name: np.zeros(n) for name in FEATURE_NAMES}

        idx = np.flatnonzero(movable)
        if len(idx) == 0:
            return FeatureSet(values)
        xlo = design.x[idx] - design.w[idx] / 2
        xhi = design.x[idx] + design.w[idx] / 2
        ylo = design.y[idx] - design.h[idx] / 2
        yhi = design.y[idx] + design.h[idx] / 2

        # Local features: max over the (up to four) overlapped Gcells.
        values["local_cg"][idx] = _corner_max(grid, cmap.cg, xlo, ylo, xhi, yhi)
        values["local_pin"][idx] = _corner_max(
            grid, cmap.pin_density, xlo, ylo, xhi, yhi
        )

        if self.params.use_cnn:
            k = max(int(self.params.kernel_size), 1)
            around_cg = uniform_filter(cmap.cg, size=k, mode="nearest")
            around_pin = uniform_filter(cmap.pin_density, size=k, mode="nearest")
            gx, gy = grid.gcell_of(design.x[idx], design.y[idx])
            values["around_cg"][idx] = around_cg[gx, gy]
            values["around_pin"][idx] = around_pin[gx, gy]

        if self.params.use_gnn:
            values["pin_cg"] = self._pin_congestion(cmap, topologies)
            values["pin_cg"][~movable] = 0.0
        return FeatureSet(values)

    # ------------------------------------------------------------------
    # GNN-inspired pin congestion (Eqs. 12-13)
    # ------------------------------------------------------------------

    def _pin_congestion(self, cmap: CongestionMap, batch: TopologyBatch) -> np.ndarray:
        design = self.design
        grid = cmap.grid
        if len(batch) == 0:
            return np.zeros(design.num_cells)
        # Best (min over candidate paths) worst-Gcell congestion per
        # topology point, over the point's two-point nets.
        a, b = batch.edges.T
        value = path_congestion(
            cmap.cg, batch.gx[a], batch.gy[a], batch.gx[b], batch.gy[b],
            self.params.z_samples,
        )
        best = np.full(len(batch.gx), np.inf)
        np.minimum.at(best, a, value)
        np.minimum.at(best, b, value)

        # Each pin of a batch net sits on the net's pin point in its
        # Gcell: match sorted (net, Gcell) keys (Steiner points key -1).
        span = np.int64(grid.nx) * np.int64(grid.ny)
        point_net = np.repeat(batch.net, np.diff(batch.point_start))
        point_key = np.where(
            batch.is_pin, point_net * span + batch.gx * grid.ny + batch.gy, -1
        )
        order = np.argsort(point_key)
        point_key = point_key[order]
        pins = design.net_pins
        pin_key = np.repeat(np.arange(design.num_nets), design.net_degrees()) * span
        pin_key += pin_flat_indices(design, grid)[pins]
        at = np.minimum(np.searchsorted(point_key, pin_key), len(point_key) - 1)
        pin_value = np.where(point_key[at] == pin_key, best[order[at]], np.inf)
        ok = np.isfinite(pin_value)
        # Net-then-pin order: the summation order of a per-pin loop.
        return np.bincount(
            design.pin_cell[pins[ok]], weights=pin_value[ok], minlength=design.num_cells
        )


def path_congestion(cg, ax, ay, bx, by, z_samples: int = 2) -> np.ndarray:
    """Per two-point net: min over both L and up to ``z_samples`` Z paths
    per direction of the max Gcell congestion along the path (Eq. 12).

    Each straight run is the max of two overlapping power-of-two runs
    from a range-max table: O(1), and exact.  Straight and single-Gcell
    edges need no special case: both L paths collapse onto the run.
    """
    ax, ay, bx, by = (np.asarray(v, dtype=np.int64) for v in (ax, ay, bx, by))
    rows, cols = _range_max_table(cg), _range_max_table(cg.T)

    def run(table, across, a, b):  # table[0, min(a,b) : max(a,b) + 1, across].max()
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        k = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(run length))
        return np.maximum(table[k, lo, across], table[k, hi - (1 << k) + 1, across])

    best = np.minimum(
        # L with corner at (bx, ay): H run at ay, V run at bx.
        np.maximum(run(rows, ay, ax, bx), run(cols, bx, ay, by)),
        # L with corner at (ax, by).
        np.maximum(run(rows, by, ax, bx), run(cols, ax, ay, by)),
    )
    bent = np.flatnonzero((ax != bx) & (ay != by))
    if z_samples <= 0 or len(bent) == 0:
        return best
    ax, ay, bx, by = (v[bent, None] for v in (ax, ay, bx, by))
    mid, ok = _interior_samples(np.minimum(ax, bx), np.maximum(ax, bx), z_samples)
    zx = np.maximum.reduce(
        [run(rows, ay, ax, mid), run(cols, mid, ay, by), run(rows, by, mid, bx)]
    )
    mid, ok_y = _interior_samples(np.minimum(ay, by), np.maximum(ay, by), z_samples)
    zy = np.maximum.reduce(
        [run(cols, ax, ay, mid), run(rows, mid, ax, bx), run(cols, bx, mid, by)]
    )
    z = np.minimum(np.where(ok, zx, np.inf), np.where(ok_y, zy, np.inf)).min(axis=1)
    best[bent] = np.minimum(best[bent], z)
    return best


def _range_max_table(cg: np.ndarray) -> np.ndarray:
    """Sparse table ``t[k, x, y] = cg[x : x + 2**k, y].max()``."""
    levels = [cg]
    while 2 ** len(levels) <= len(cg):
        half = 2 ** (len(levels) - 1)
        level = levels[-1].copy()
        level[:-half] = np.maximum(level[:-half], levels[-1][half:])
        levels.append(level)
    return np.stack(levels)


def _interior_samples(lo, hi, count: int) -> tuple:
    """``(mid, ok)``: the Z-path positions strictly inside ``(lo, hi)`` —
    all if at most ``count``, else ``lo + 1 + int(n / (count + 1) * (i + 1))``
    for ``n`` interior cells — and the used-slot mask (unused hold ``lo``)."""
    n = hi - lo - 1
    i = np.arange(count)
    few = n <= count
    step = n / (count + 1)
    mid = lo + 1 + np.where(few, i, (step * (i + 1)).astype(np.int64))
    ok = ~few | (i < n)
    return np.where(ok, mid, lo), ok


def _corner_max(grid, grid_map, xlo, ylo, xhi, yhi) -> np.ndarray:
    """Max of a Gcell map over the rectangle corners of each cell.

    Standard cells rarely span more than 2x2 Gcells, so sampling the four
    corner Gcells realizes Eq. (9)'s max over overlapped Gcells.
    """
    gx0, gy0 = grid.gcell_of(xlo, ylo)
    gx1, gy1 = grid.gcell_of(xhi, yhi)
    return np.maximum.reduce(
        [
            grid_map[gx0, gy0],
            grid_map[gx1, gy0],
            grid_map[gx0, gy1],
            grid_map[gx1, gy1],
        ]
    )
