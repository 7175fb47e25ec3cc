"""Golden-equivalence suite for :mod:`repro.kernels`.

Every kernel is checked against its loop in ``kernels_oracle`` on
randomized inputs — property-style: many seeded draws covering varying
net degrees, designs with macros/blockages, empty and single-pin nets,
cells clamped at the die boundary, and adversarial cost maps for the
maze.  Tolerances: map kernels agree to ``allclose(rtol=1e-9,
atol=1e-9)`` (kernel and loop sum the same terms in different orders);
the maze agrees on path *cost* to ``1e-6`` relative (ties may break to
a different equal-cost path).
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro import kernels
from repro.benchgen import GeneratorSpec, generate_design
from repro.core.congestion import CongestionEstimator
from repro.core.demand import accumulate_demand, build_topologies
from repro.core.rudy import rudy_maps
from repro.netlist import DesignBuilder, Rect, Technology
from repro.placer.density import ElectrostaticDensity
from repro.placer.params import PlacementParams
from repro.router.grid import build_grid
from repro.router.maze import maze_route
from repro.rsmt.batch import gcell_rsmt_batch

from . import kernels_oracle

MAPS_TOL = dict(rtol=1e-9, atol=1e-9)


def assert_segments_equal(a, b):
    """Straight-segment inventories equal field by field, in order."""
    for f in fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))


def oracle_vs_kernel(fn):
    """Evaluate ``fn()`` with every oracle loop swapped in, then with the
    kernels, each from empty memos; returns (oracle, kernels)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        kernels_oracle.swap_in(monkeypatch)
        ref = fn()
    with pytest.MonkeyPatch.context() as monkeypatch:
        kernels_oracle.fresh_memos(monkeypatch)
        vec = fn()
    return ref, vec


# ----------------------------------------------------------------------
# rect_add
# ----------------------------------------------------------------------


class TestRectAdd:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_rects(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(2, 60, 2)
        n = int(rng.integers(0, 400))
        x0 = rng.integers(0, nx, n)
        x1 = np.minimum(x0 + rng.integers(0, nx, n), nx - 1)
        y0 = rng.integers(0, ny, n)
        y1 = np.minimum(y0 + rng.integers(0, ny, n), ny - 1)
        w = rng.random(n) * 3.0
        ref, vec = oracle_vs_kernel(
            lambda: kernels.rect_add(nx, ny, x0, x1, y0, y1, w)
        )
        np.testing.assert_allclose(vec, ref, **MAPS_TOL)
        # Total mass is exactly the weighted covered area.
        area = (x1 - x0 + 1.0) * (y1 - y0 + 1.0)
        assert vec.sum() == pytest.approx((w * area).sum(), rel=1e-9)

    def test_scalar_weight_and_out_accumulation(self):
        x0 = np.array([0, 2])
        x1 = np.array([4, 2])
        y0 = np.array([1, 0])
        y1 = np.array([1, 4])
        start = np.full((5, 5), 7.0)
        ref, vec = oracle_vs_kernel(
            lambda: kernels.rect_add(5, 5, x0, x1, y0, y1, 0.5, out=start.copy())
        )
        np.testing.assert_allclose(vec, ref, **MAPS_TOL)
        assert vec[0, 0] == 7.0
        assert vec[0, 1] == 7.5
        assert vec[2, 1] == 8.0  # both rectangles overlap here

    def test_empty_batch(self):
        empty = np.zeros(0, dtype=np.int64)
        ref, vec = oracle_vs_kernel(
            lambda: kernels.rect_add(4, 3, empty, empty, empty, empty, 1.0)
        )
        assert ref.shape == vec.shape == (4, 3)
        assert not vec.any() and not ref.any()

    def test_single_cell_and_full_grid_rects(self):
        x0 = np.array([3, 0])
        x1 = np.array([3, 7])
        y0 = np.array([2, 0])
        y1 = np.array([2, 7])
        ref, vec = oracle_vs_kernel(
            lambda: kernels.rect_add(8, 8, x0, x1, y0, y1, np.array([2.0, 1.0]))
        )
        np.testing.assert_allclose(vec, ref, **MAPS_TOL)
        assert vec[3, 2] == 3.0
        assert vec[0, 0] == 1.0


# ----------------------------------------------------------------------
# Demand / RUDY rasterization on whole designs
# ----------------------------------------------------------------------


def _random_design(seed: int):
    rng = np.random.default_rng(seed)
    spec = GeneratorSpec(
        name=f"prop{seed}",
        num_cells=int(rng.integers(60, 220)),
        num_nets=int(rng.integers(90, 320)),
        pins_per_net=float(rng.uniform(2.2, 4.5)),  # varies net degrees
        num_macros=int(rng.integers(0, 4)),  # macros = routing blockages
        num_io=int(rng.integers(0, 10)),
        utilization=float(rng.uniform(0.5, 0.85)),
        seed=seed,
    )
    return generate_design(spec)


def _degenerate_design():
    """Single-pin nets, empty nets, and an all-pins-one-Gcell local net."""
    tech = Technology()
    builder = DesignBuilder("degen", tech, Rect(0, 0, 64, 64))
    cells = [builder.add_cell(f"c{i}", 2, tech.row_height) for i in range(6)]
    empty = builder.add_net("empty")  # no pins at all
    single = builder.add_net("single")  # one pin: skipped by the estimator
    builder.add_pin(cells[0], single)
    local = builder.add_net("local")  # all pins in one Gcell
    for cell in cells[:3]:
        builder.add_pin(cell, local)
    spread = builder.add_net("spread")
    for cell in cells:
        builder.add_pin(cell, spread, dx=0.5)
    design = builder.build()
    # Cluster the local net's cells; spread the rest to distinct Gcells.
    design.x[:] = [4.0, 4.5, 5.0, 20.0, 40.0, 60.0]
    design.y[:] = [4.0, 4.2, 4.4, 30.0, 10.0, 50.0]
    assert empty != single
    return design


class TestDemandEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_designs(self, seed):
        design = _random_design(seed)
        grid = build_grid(design)
        topologies = build_topologies(design, grid)
        ref, vec = oracle_vs_kernel(
            lambda: accumulate_demand(design, grid, topologies)
        )
        np.testing.assert_allclose(vec.dmd_h, ref.dmd_h, **MAPS_TOL)
        np.testing.assert_allclose(vec.dmd_v, ref.dmd_v, **MAPS_TOL)
        np.testing.assert_array_equal(vec.pin_count, ref.pin_count)
        # The I-segment inventory feeds the (order-sensitive) detour
        # expansion: it must match exactly, in order.
        assert_segments_equal(vec.i_segments, ref.i_segments)

    def test_degenerate_nets(self):
        design = _degenerate_design()
        grid = build_grid(design)
        topologies = build_topologies(design, grid)
        ref, vec = oracle_vs_kernel(
            lambda: accumulate_demand(design, grid, topologies)
        )
        np.testing.assert_allclose(vec.dmd_h, ref.dmd_h, **MAPS_TOL)
        np.testing.assert_allclose(vec.dmd_v, ref.dmd_v, **MAPS_TOL)
        assert_segments_equal(vec.i_segments, ref.i_segments)

    def test_no_topologies(self, tiny_design):
        grid = build_grid(tiny_design)
        none = np.zeros(0, dtype=np.int64)
        empty = gcell_rsmt_batch(np.zeros(1, dtype=np.int64), none, none, grid.ny)
        ref, vec = oracle_vs_kernel(
            lambda: accumulate_demand(tiny_design, grid, empty)
        )
        np.testing.assert_allclose(vec.dmd_h, ref.dmd_h, **MAPS_TOL)
        assert len(vec.i_segments) == 0 and len(ref.i_segments) == 0

    def test_estimator_end_to_end(self, small_design):
        def estimate():
            cmap, _, _ = CongestionEstimator(small_design).estimate()
            return cmap

        builds = []

        def estimate_counting():
            with pytest.MonkeyPatch.context() as monkeypatch:
                builds.append(kernels_oracle.count_tree_builds(monkeypatch))
                return estimate()

        ref, vec = oracle_vs_kernel(estimate_counting)
        np.testing.assert_allclose(vec.dmd_h, ref.dmd_h, **MAPS_TOL)
        np.testing.assert_allclose(vec.dmd_v, ref.dmd_v, **MAPS_TOL)
        # Each side built its own trees: none came from the other's memo.
        assert sum(builds[0]) > 0 and builds[0] == builds[1]


class TestRudyEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_designs(self, seed):
        design = _random_design(seed)
        ref, vec = oracle_vs_kernel(lambda: rudy_maps(design)[:2])
        np.testing.assert_allclose(vec[0], ref[0], **MAPS_TOL)
        np.testing.assert_allclose(vec[1], ref[1], **MAPS_TOL)

    def test_degenerate_nets(self):
        design = _degenerate_design()
        ref, vec = oracle_vs_kernel(lambda: rudy_maps(design)[:2])
        np.testing.assert_allclose(vec[0], ref[0], **MAPS_TOL)
        np.testing.assert_allclose(vec[1], ref[1], **MAPS_TOL)


# ----------------------------------------------------------------------
# Density maps
# ----------------------------------------------------------------------


class TestDensityEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_movable_and_fixed_maps(self, seed):
        design = _random_design(seed)

        def build():
            system = ElectrostaticDensity(design, PlacementParams())
            return system.fixed_map, system.movable_density(design.x, design.y)

        (ref_fixed, ref_mov), (vec_fixed, vec_mov) = oracle_vs_kernel(build)
        np.testing.assert_allclose(vec_fixed, ref_fixed, **MAPS_TOL)
        np.testing.assert_allclose(vec_mov, ref_mov, **MAPS_TOL)

    def test_boundary_clamped_cells(self, small_design):
        """Cells pushed onto the die edges hit the loop's boundary-bin
        re-accumulation; the kernel must reproduce it."""
        design = small_design
        system = ElectrostaticDensity(design, PlacementParams())
        mov = system.movable_indices
        x = design.x.copy()
        y = design.y.copy()
        die = design.die
        x[mov[: len(mov) // 2]] = die.xhi
        y[mov[len(mov) // 3 :]] = die.yhi
        x[mov[-3:]] = die.xlo
        y[mov[-3:]] = die.ylo
        ref, vec = oracle_vs_kernel(lambda: system.movable_density(x, y))
        np.testing.assert_allclose(vec, ref, **MAPS_TOL)

    def test_padded_sizes(self, small_design):
        """set_sizes (PUFFER padding) changes the bin span; kernel and
        loop must both track it."""
        design = small_design
        system = ElectrostaticDensity(design, PlacementParams())
        rng = np.random.default_rng(7)
        system.set_sizes(
            design.w * (1.0 + rng.random(design.num_cells)),
            design.h.copy(),
        )
        ref, vec = oracle_vs_kernel(
            lambda: system.movable_density(design.x, design.y)
        )
        np.testing.assert_allclose(vec, ref, **MAPS_TOL)

    def test_area_preserved(self, small_design):
        system = ElectrostaticDensity(small_design, PlacementParams())
        rho = system.movable_density(small_design.x, small_design.y)
        assert rho.sum() == pytest.approx(system.charge.sum(), rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_rect_area_random(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(4, 32))
        bin_w, bin_h = rng.uniform(0.5, 3.0, 2)
        n = int(rng.integers(0, 50))
        x0 = rng.uniform(0, dim * bin_w * 0.9, n)
        x1 = x0 + rng.uniform(0.01, dim * bin_w * 0.5, n)
        x1 = np.minimum(x1, dim * bin_w)
        y0 = rng.uniform(0, dim * bin_h * 0.9, n)
        y1 = np.minimum(y0 + rng.uniform(0.01, dim * bin_h * 0.5, n), dim * bin_h)
        ref, vec = oracle_vs_kernel(
            lambda: kernels.rect_area(x0, x1, y0, y1, dim, bin_w, bin_h)
        )
        np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-12)
        assert vec.sum() == pytest.approx(((x1 - x0) * (y1 - y0)).sum(), rel=1e-9)


# ----------------------------------------------------------------------
# Maze search
# ----------------------------------------------------------------------


def _route_cost(route, cost_h, cost_v):
    h_cells, v_cells = route
    return cost_h.ravel()[h_cells].sum() + cost_v.ravel()[v_cells].sum()


class TestMazeEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_costs_equal_path_cost(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            nx, ny = rng.integers(3, 28, 2)
            cost_h = 1.0 + 9.0 * rng.random((nx, ny))
            cost_v = 1.0 + 9.0 * rng.random((nx, ny))
            if rng.random() < 0.4:  # congestion walls
                cost_h[int(rng.integers(0, nx)), :] += 500.0
                cost_v[:, int(rng.integers(0, ny))] += 500.0
            gx0, gy0 = int(rng.integers(0, nx)), int(rng.integers(0, ny))
            gx1, gy1 = int(rng.integers(0, nx)), int(rng.integers(0, ny))
            if (gx0, gy0) == (gx1, gy1):
                continue
            margin = int(rng.integers(0, 5))
            ref, vec = oracle_vs_kernel(
                lambda: maze_route(gx0, gy0, gx1, gy1, cost_h, cost_v, margin)
            )
            assert (ref is None) == (vec is None)
            if ref is None:
                continue
            ref_cost = _route_cost(ref, cost_h, cost_v)
            vec_cost = _route_cost(vec, cost_h, cost_v)
            assert vec_cost == pytest.approx(ref_cost, rel=1e-6)
            # Both endpoints are charged by any valid route.
            for route in (ref, vec):
                cells = np.concatenate(route)
                assert gx0 * ny + gy0 in cells
                assert gx1 * ny + gy1 in cells

    def test_straight_paths_identical(self):
        cost = np.ones((10, 10))
        for h, v in oracle_vs_kernel(lambda: maze_route(1, 5, 8, 5, cost, cost, 2)):
            assert len(v) == 0
            np.testing.assert_array_equal(
                h, np.arange(1, 9) * 10 + 5
            )
        for h, v in oracle_vs_kernel(lambda: maze_route(3, 2, 3, 7, cost, cost, 2)):
            assert len(h) == 0
            np.testing.assert_array_equal(
                v, 3 * 10 + np.arange(2, 8)
            )

    def test_same_cell_route_is_empty(self):
        cost = np.ones((6, 6))
        for h, v in oracle_vs_kernel(lambda: maze_route(2, 2, 2, 2, cost, cost, 3)):
            assert len(h) == 0 and len(v) == 0

    def test_detour_around_wall(self):
        cost_h = np.ones((9, 9))
        cost_v = np.ones((9, 9))
        cost_h[4, :] = 1000.0  # entering column 4 horizontally is painful
        cost_v[4, :] = 1000.0
        cost_h[4, 8] = 1.0  # except at the top
        cost_v[4, 8] = 1.0
        ref, vec = oracle_vs_kernel(
            lambda: maze_route(0, 0, 8, 0, cost_h, cost_v, 8)
        )
        ref_cost = _route_cost(ref, cost_h, cost_v)
        vec_cost = _route_cost(vec, cost_h, cost_v)
        assert vec_cost == pytest.approx(ref_cost, rel=1e-9)
        assert ref_cost < 100.0  # both detoured over the top


# ----------------------------------------------------------------------
# Abacus trial insertion (legalizer round-2 kernel)
# ----------------------------------------------------------------------


def _random_abacus_state(rng, n):
    """A legal row-segment cluster state: packed left-to-right with
    random gaps inside a segment that sometimes barely fits."""
    w = rng.uniform(0.5, 4.0, n)
    total = w.sum()
    slack = float(rng.uniform(0.0, total * 0.5 + 1.0))
    gaps = rng.uniform(0.0, 1.0, n)
    gaps *= slack * rng.random() / max(gaps.sum(), 1e-12)
    x = np.cumsum(gaps) + np.cumsum(w) - w
    xlo = 0.0
    seg_width = total + slack
    e = rng.uniform(0.1, 5.0, n)
    q = e * (x + rng.uniform(-3.0, 3.0, n))
    return e, q, w, x, xlo, xlo + seg_width, seg_width


class TestAbacusEquivalence:
    """The oracle is the kernel's own scalar loop, which the kernel also
    runs below ``_ABACUS_SCALAR_MAX`` clusters: only the suffix-scan path
    is compared against an independent loop."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_rows(self, seed):
        """Exact (x_left, merges) agreement on random legal states, both
        above and below the kernel's scalar-fallback size."""
        rng = np.random.default_rng(seed)
        checked_none = checked_some = 0
        for _ in range(60):
            n = int(rng.integers(1, 40))
            e, q, w, x, xlo, xhi, seg_width = _random_abacus_state(rng, n)
            width = float(rng.uniform(0.5, 6.0))
            weight = float(rng.uniform(0.1, 4.0))
            target = float(rng.uniform(xlo - 5.0, xhi + 5.0))
            ref, vec = oracle_vs_kernel(
                lambda: kernels.abacus_trial(
                    e, q, w, x, n, xlo, xhi, seg_width, width, weight, target
                )
            )
            assert (ref is None) == (vec is None)
            if ref is None:
                checked_none += 1
                continue
            checked_some += 1
            assert vec[0] == pytest.approx(ref[0], abs=1e-9)
            assert vec[1] == ref[1]
        # The draw must exercise both outcomes or it proves nothing.
        assert checked_none > 0 and checked_some > 0

    def test_deep_merge_chain(self):
        """A fully packed row collapses the whole chain; the suffix scan
        must stop at the same merge count."""
        rng = np.random.default_rng(99)
        n = 50
        w = rng.uniform(1.0, 3.0, n)
        x = np.cumsum(w) - w
        e = rng.uniform(0.5, 2.0, n)
        q = e * x
        xhi = float(x[-1] + w[-1] + 100.0)
        ref, vec = oracle_vs_kernel(
            lambda: kernels.abacus_trial(
                e, q, w, x, n, 0.0, xhi, xhi, 2.0, 1.0, 0.0
            )
        )
        assert ref is not None and vec is not None
        assert vec[1] == ref[1] == n
        assert vec[0] == pytest.approx(ref[0], abs=1e-9)

    def test_overflowing_cell_rejected(self):
        e = np.array([1.0])
        q = np.array([2.0])
        w = np.array([4.0])
        x = np.array([2.0])
        ref, vec = oracle_vs_kernel(
            lambda: kernels.abacus_trial(
                e, q, w, x, 1, 0.0, 8.0, 8.0, 10.0, 1.0, 0.0
            )
        )
        assert ref is None and vec is None

    def test_empty_segment(self):
        z = np.zeros(0)
        ref, vec = oracle_vs_kernel(
            lambda: kernels.abacus_trial(z, z, z, z, 0, 0.0, 10.0, 10.0, 2.0, 1.0, 3.5)
        )
        assert ref == vec == (3.5, 0)


# ----------------------------------------------------------------------
# Batched Steiner construction (RSMT round-2 kernel)
# ----------------------------------------------------------------------


def _random_net_batch(rng, max_deg=14, grid=12):
    batch = int(rng.integers(1, 20))
    degrees = rng.integers(1, max_deg, batch)
    start = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(degrees, out=start[1:])
    x = rng.integers(0, grid, start[-1]).astype(np.float64)
    y = rng.integers(0, grid, start[-1]).astype(np.float64)
    return x, y, start


class TestSteinerEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_nets(self, seed):
        """Bit-exact topology agreement (points, pin flags, edge lists)
        across the degree mix, duplicate pin Gcells included."""
        rng = np.random.default_rng(seed)
        for _ in range(40):
            x, y, start = _random_net_batch(rng)
            ref, vec = oracle_vs_kernel(
                lambda: kernels.steiner_batch(x, y, start, 64)
            )
            assert len(ref) == len(vec) == len(start) - 1
            for r, v in zip(ref, vec):
                for a, b in zip(r, v):
                    np.testing.assert_array_equal(b, a)

    @pytest.mark.parametrize("seed", range(3))
    def test_degree_cap_skips_steinerization(self, seed):
        """Nets above max_degree take the plain-MST path in kernel and
        loop, and still agree exactly."""
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x, y, start = _random_net_batch(rng)
            ref, vec = oracle_vs_kernel(
                lambda: kernels.steiner_batch(x, y, start, 4)
            )
            for r, v in zip(ref, vec):
                for a, b in zip(r, v):
                    np.testing.assert_array_equal(b, a)

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_matches_single_net_builder(self, seed):
        """build_rsmt_batch is a drop-in for per-net build_rsmt, with
        the kernel and with the oracle loop."""
        from repro.rsmt import build_rsmt_batch
        from repro.rsmt.steiner import build_rsmt

        rng = np.random.default_rng(seed)
        degrees = rng.integers(2, 10, 12)
        start = np.zeros(13, dtype=np.int64)
        np.cumsum(degrees, out=start[1:])
        x = rng.integers(0, 30, start[-1]).astype(np.float64)
        y = rng.integers(0, 30, start[-1]).astype(np.float64)
        for topologies in oracle_vs_kernel(lambda: build_rsmt_batch(x, y, start)):
            for i, topo in enumerate(topologies):
                single = build_rsmt(
                    x[start[i] : start[i + 1]], y[start[i] : start[i + 1]]
                )
                np.testing.assert_array_equal(topo.x, single.x)
                np.testing.assert_array_equal(topo.y, single.y)
                np.testing.assert_array_equal(topo.is_pin, single.is_pin)
                np.testing.assert_array_equal(topo.edges, single.edges)

    def test_trivial_degrees(self):
        """Degree-0/1/2 nets: no tree, no tree, one edge."""
        x = np.array([3.0, 5.0, 9.0])
        y = np.array([2.0, 7.0, 7.0])
        start = np.array([0, 0, 1, 3], dtype=np.int64)
        ref, vec = oracle_vs_kernel(lambda: kernels.steiner_batch(x, y, start, 64))
        for out in (ref, vec):
            assert len(out[0][3]) == 0  # empty net: no edges
            assert len(out[1][3]) == 0  # single pin: no edges
            np.testing.assert_array_equal(out[2][3], [[0, 1]])
        for r, v in zip(ref, vec):
            for a, b in zip(r, v):
                np.testing.assert_array_equal(b, a)
