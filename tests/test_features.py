"""Tests for multi-feature extraction (local / CNN / GNN features)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core import (
    FEATURE_NAMES,
    CongestionEstimator,
    FeatureExtractor,
    FeatureParams,
)
from repro.core.features import path_congestion
from repro.netlist import DesignBuilder, Rect, Technology

# ----------------------------------------------------------------------
# Scalar oracle: Eqs. (12)-(13) as per-net, per-edge, per-pin loops
# ----------------------------------------------------------------------


def oracle_interior_samples(lo: int, hi: int, count: int) -> list:
    interior = range(lo + 1, hi)
    if len(interior) <= count:
        return list(interior)
    step = len(interior) / (count + 1)
    return [interior[int(step * (i + 1))] for i in range(count)]


def oracle_path_congestion(cg, ax, ay, bx, by, z_samples) -> float:
    """Min over L/Z candidate paths of the max Gcell congestion."""
    if ax == bx and ay == by:
        return float(cg[ax, ay])
    if ax == bx:
        lo, hi = sorted((ay, by))
        return float(cg[ax, lo : hi + 1].max())
    if ay == by:
        lo, hi = sorted((ax, bx))
        return float(cg[lo : hi + 1, ay].max())
    xlo, xhi = sorted((ax, bx))
    ylo, yhi = sorted((ay, by))
    best = min(
        # L with corner at (bx, ay): H run at ay, V run at bx.
        max(cg[xlo : xhi + 1, ay].max(), cg[bx, ylo : yhi + 1].max()),
        # L with corner at (ax, by).
        max(cg[xlo : xhi + 1, by].max(), cg[ax, ylo : yhi + 1].max()),
    )
    for mid in oracle_interior_samples(xlo, xhi, z_samples):
        value = max(
            cg[min(ax, mid) : max(ax, mid) + 1, ay].max(),
            cg[mid, ylo : yhi + 1].max(),
            cg[min(mid, bx) : max(mid, bx) + 1, by].max(),
        )
        best = min(best, value)
    for mid in oracle_interior_samples(ylo, yhi, z_samples):
        value = max(
            cg[ax, min(ay, mid) : max(ay, mid) + 1].max(),
            cg[xlo : xhi + 1, mid].max(),
            cg[bx, min(mid, by) : max(mid, by) + 1].max(),
        )
        best = min(best, value)
    return float(best)


def oracle_pin_congestion(design, cmap, batch, z_samples) -> np.ndarray:
    """Per-cell pin congestion from per-net loops over the batch."""
    px, py = design.pin_positions()
    pgx, pgy = cmap.grid.gcell_of(px, py)
    pin_cg = np.zeros(design.num_cells)
    for i, net in enumerate(batch.net.tolist()):
        lo, hi = batch.point_start[i], batch.point_start[i + 1]
        gx, gy, is_pin = batch.gx[lo:hi], batch.gy[lo:hi], batch.is_pin[lo:hi]
        best = np.full(hi - lo, np.inf)
        for a, b in batch.edges[batch.edge_start[i] : batch.edge_start[i + 1]] - lo:
            value = oracle_path_congestion(
                cmap.cg, int(gx[a]), int(gy[a]), int(gx[b]), int(gy[b]), z_samples
            )
            best[a] = min(best[a], value)
            best[b] = min(best[b], value)
        point_of = {
            (int(gx[k]), int(gy[k])): k for k in range(hi - lo) if is_pin[k]
        }
        for p in design.pins_of_net(net):
            point = point_of.get((int(pgx[p]), int(pgy[p])))
            if point is None or not np.isfinite(best[point]):
                continue
            pin_cg[design.pin_cell[p]] += best[point]
    return pin_cg


@pytest.fixture(scope="module")
def extraction(placed_small_design):
    est = CongestionEstimator(placed_small_design)
    cmap, topologies, _ = est.estimate()
    extractor = FeatureExtractor(placed_small_design, FeatureParams(kernel_size=3))
    return placed_small_design, cmap, topologies, extractor.extract(cmap, topologies)


class TestFeatureSet:
    def test_all_features_present(self, extraction):
        design, _, _, features = extraction
        for name in FEATURE_NAMES:
            assert len(features[name]) == design.num_cells

    def test_matrix_shape(self, extraction):
        design, _, _, features = extraction
        m = features.matrix()
        assert m.shape == (design.num_cells, len(FEATURE_NAMES))

    def test_fixed_cells_zero(self, extraction):
        design, _, _, features = extraction
        fixed = ~design.movable | design.is_macro
        for name in FEATURE_NAMES:
            assert np.allclose(features[name][fixed], 0.0)

    def test_local_cg_matches_map(self, extraction):
        design, cmap, _, features = extraction
        grid = cmap.grid
        movable = np.flatnonzero(design.movable & ~design.is_macro)
        probe = movable[:20]
        gx, gy = grid.gcell_of(design.x[probe], design.y[probe])
        # Cells smaller than a Gcell: local congestion >= the value at
        # the center Gcell (it's a max over overlapped Gcells).
        assert (features["local_cg"][probe] >= cmap.cg[gx, gy] - 1e-9).all()

    def test_pin_density_nonnegative(self, extraction):
        _, _, _, features = extraction
        assert (features["local_pin"] >= 0).all()
        assert (features["around_pin"] >= 0).all()

    def test_surrounding_smoother_than_local(self, extraction):
        design, _, _, features = extraction
        movable = design.movable & ~design.is_macro
        assert (
            features["around_cg"][movable].std()
            <= features["local_cg"][movable].std() + 1e-9
        )


class TestFeatureSwitches:
    def test_cnn_disabled(self, placed_small_design):
        est = CongestionEstimator(placed_small_design)
        cmap, topologies, _ = est.estimate()
        extractor = FeatureExtractor(
            placed_small_design, FeatureParams(use_cnn=False)
        )
        features = extractor.extract(cmap, topologies)
        assert np.allclose(features["around_cg"], 0.0)
        assert not np.allclose(features["local_cg"], 0.0)

    def test_gnn_disabled(self, placed_small_design):
        est = CongestionEstimator(placed_small_design)
        cmap, topologies, _ = est.estimate()
        extractor = FeatureExtractor(
            placed_small_design, FeatureParams(use_gnn=False)
        )
        features = extractor.extract(cmap, topologies)
        assert np.allclose(features["pin_cg"], 0.0)

    def test_kernel_size_changes_surrounding(self, placed_small_design):
        est = CongestionEstimator(placed_small_design)
        cmap, topologies, _ = est.estimate()
        small = FeatureExtractor(
            placed_small_design, FeatureParams(kernel_size=1)
        ).extract(cmap, topologies)
        large = FeatureExtractor(
            placed_small_design, FeatureParams(kernel_size=7)
        ).extract(cmap, topologies)
        assert not np.allclose(small["around_cg"], large["around_cg"])


class TestPinCongestion:
    def test_path_congestion_straight(self):
        cg = np.zeros((10, 10))
        cg[3, 5] = 2.0
        # Straight path through the hot cell must see it.
        (value,) = path_congestion(cg, [1], [5], [6], [5])
        assert value == pytest.approx(2.0)

    def test_path_congestion_picks_min_candidate(self):
        cg = np.zeros((10, 10))
        # Make the corner (bx, ay) L expensive.
        cg[6, 1] = 5.0
        (value,) = path_congestion(cg, [1], [1], [6], [6])
        assert value < 5.0  # the other L or a Z avoids the hot corner

    def test_pin_cg_aggregates_over_cell_pins(self, extraction):
        design, _, _, features = extraction
        movable = design.movable & ~design.is_macro
        # Cells with more pins tend to have larger |pin_cg|; at minimum
        # the feature must be finite everywhere.
        assert np.isfinite(features["pin_cg"]).all()


@st.composite
def path_cases(draw):
    """A random ``cg`` grid plus edges of every shape: single-Gcell,
    straight, adjacent (no interior) and long spans that sample Z paths."""
    nx = draw(st.integers(1, 16))
    ny = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Coarse values make ties (and equal maxima on several paths) common.
    cg = np.round(rng.normal(0.0, 1.0, (nx, ny)), 1)
    xs = st.integers(0, nx - 1)
    ys = st.integers(0, ny - 1)
    edges = draw(st.lists(st.tuples(xs, ys, xs, ys), min_size=1, max_size=30))
    edges += [
        (0, 0, nx - 1, ny - 1),  # the longest span
        (nx - 1, 0, 0, ny - 1),
        (0, 0, 0, 0),
        (0, 0, min(1, nx - 1), min(1, ny - 1)),  # adjacent diagonal
        (0, ny - 1, nx - 1, ny - 1),  # straight
    ]
    return cg, np.array(edges, dtype=np.int64).T


class TestPathCongestionOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=path_cases(), z_samples=st.sampled_from([0, 1, 2, 5]))
    def test_matches_scalar_oracle_exactly(self, case, z_samples):
        cg, (ax, ay, bx, by) = case
        expected = [
            oracle_path_congestion(cg, *edge, z_samples)
            for edge in zip(ax.tolist(), ay.tolist(), bx.tolist(), by.tolist())
        ]
        got = path_congestion(cg, ax, ay, bx, by, z_samples)
        assert got.tolist() == expected

    def test_pin_congestion_matches_oracle(self, extraction):
        design, cmap, topologies, features = extraction
        expected = oracle_pin_congestion(design, cmap, topologies, 2)
        expected[~design.movable | design.is_macro] = 0.0
        np.testing.assert_array_equal(features["pin_cg"], expected)

    def test_flow_matches_oracle(self, monkeypatch):
        """The whole PUFFER flow is bit-identical with the scalar oracle
        substituted for the array pass."""

        def run():
            result = api.run("OR1200", "puffer", api.RunConfig(scale=0.0015))
            flow = result.flow_result
            assert flow.padding_rounds > 0
            return result.hpwl, flow.padding, result.design.x, result.design.y

        fast = run()
        monkeypatch.setattr(
            FeatureExtractor,
            "_pin_congestion",
            lambda self, cmap, batch: oracle_pin_congestion(
                self.design, cmap, batch, self.params.z_samples
            ),
        )
        slow = run()
        assert fast[0] == slow[0]
        for a, b in zip(fast[1:], slow[1:]):
            np.testing.assert_array_equal(a, b)


def _gcell_design(cells, nets, fixed=()):
    """Cells centred in the given Gcells of a 10 x 10 grid (16-unit
    Gcells), joined by ``nets`` (lists of cell indices)."""
    tech = Technology()
    b = DesignBuilder("hand", tech, Rect(0, 0, 160, 160))
    ids = [
        b.add_cell(f"c{i}", 2, tech.row_height, x=16 * gx + 8, y=16 * gy + 8,
                   movable=i not in fixed)
        for i, (gx, gy) in enumerate(cells)
    ]
    for k, members in enumerate(nets):
        net = b.add_net(f"n{k}")
        for i in members:
            b.add_pin(ids[i], net)
    return b.build()


class TestHandComputedPinCongestion:
    def test_eqs_12_13(self):
        """Hand-worked Eqs. (12)-(13) on a 10 x 10 ``cg`` map.

        Cells (Gcells): A (1,1), B (4,1), C (4,3), D (6,5), E (7,5),
        F (8,5).  ``cg`` is -0.5 everywhere except cg[2,1] = 3,
        cg[1,3] = 2, cg[3,2] = 1, cg[6,5] = 0.5 and cg[8,5] = 2.5.

        Eq. (12), per two-point net, min over candidate paths of the
        max ``cg`` along the path:

        * A-B is straight along row y=1, x=1..4: max = cg[2,1] = 3.
        * A-C spans x=1..4, y=1..3.  L via corner (4,1) runs row y=1
          through cg[2,1]: 3.  L via corner (1,3) hits cg[1,3]: 2.  The
          Z paths with a vertical jog at x=2 or x=3 (both interior
          columns are sampled) start along row y=1: 3.  The Z path with
          a horizontal jog at y=2 runs x=1 y=1..2, row y=2 x=1..4
          (through cg[3,2]) and x=4 y=2..3: 1.  Min = 1.
        * D-E-F (one net, collinear): the tree has edges D-E (max 0.5)
          and E-F (max 2.5).

        Eq. (13), per pin, min over the pin's two-point nets, summed
        per cell: A = 3 + 1 = 4, B = 3, C = 1, D = 0.5,
        E = min(0.5, 2.5) = 0.5, F = 2.5.
        """
        design = _gcell_design(
            [(1, 1), (4, 1), (4, 3), (6, 5), (7, 5), (8, 5)],
            [[0, 1], [0, 2], [3, 4, 5]],
        )
        cmap, topologies, _ = CongestionEstimator(design).estimate()
        assert len(topologies) == 3
        cg = np.full((10, 10), -0.5)
        cg[2, 1], cg[1, 3], cg[3, 2], cg[6, 5], cg[8, 5] = 3.0, 2.0, 1.0, 0.5, 2.5
        cmap.cg = cg
        features = FeatureExtractor(design).extract(cmap, topologies)
        assert features["pin_cg"].tolist() == [4.0, 3.0, 1.0, 0.5, 0.5, 2.5]


class TestDegenerateDesigns:
    """The padding round's estimate and extract on designs with nothing
    to decompose or nothing to pad."""

    def _round(self, design):
        cmap, topologies, demand = CongestionEstimator(design).estimate()
        return cmap, topologies, demand, FeatureExtractor(design).extract(cmap, topologies)

    def test_zero_nets(self):
        design = _gcell_design([(1, 1), (5, 5)], [])
        cmap, topologies, demand, features = self._round(design)
        assert len(topologies) == 0 and len(demand.i_segments) == 0
        assert not demand.pin_count.any()
        for name in ("local_pin", "around_pin", "pin_cg"):
            assert not features[name].any()
        assert np.isfinite(features.matrix()).all()

    def test_all_local_nets(self):
        # Both nets keep all their pins inside one Gcell: empty batch.
        design = _gcell_design(
            [(2, 2), (2, 2), (7, 7), (7, 7)], [[0, 1], [2, 3]]
        )
        cmap, topologies, demand, features = self._round(design)
        assert len(topologies) == 0 and len(topologies.edges) == 0
        assert len(demand.i_segments) == 0
        assert not features["pin_cg"].any()
        assert demand.pin_count.sum() == 4

    def test_no_movable_cells(self):
        design = _gcell_design(
            [(1, 1), (4, 1), (4, 3)], [[0, 1], [0, 2]], fixed=(0, 1, 2)
        )
        cmap, topologies, demand, features = self._round(design)
        assert len(topologies) == 2
        assert not features.matrix().any()
