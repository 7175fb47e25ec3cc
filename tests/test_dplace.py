"""Tests for detailed placement: incremental HPWL, moves, legality."""

import numpy as np
import pytest

from repro.dplace import (
    DetailedPlacer,
    IncrementalHpwl,
    RowLayout,
    optimal_position,
)
from repro.legalizer import legalize_abacus
from repro.placer import GlobalPlacer, PlacementParams
from repro.verify import VerifyContext, run_checkers


@pytest.fixture
def legal_design(small_design):
    GlobalPlacer(small_design, PlacementParams(max_iters=300)).run()
    legalize_abacus(small_design)
    return small_design


class TestIncrementalHpwl:
    def test_total_matches_design(self, legal_design):
        evaluator = IncrementalHpwl(legal_design)
        assert evaluator.total == pytest.approx(legal_design.hpwl(), rel=1e-9)

    def test_delta_matches_recompute(self, legal_design):
        evaluator = IncrementalHpwl(legal_design)
        cell = int(np.flatnonzero(legal_design.movable)[0])
        moves = {cell: (legal_design.x[cell] + 5.0, legal_design.y[cell])}
        delta = evaluator.delta(moves)
        x0, y0 = legal_design.snapshot_positions()
        legal_design.x[cell] += 5.0
        expected = legal_design.hpwl() - evaluator.total
        legal_design.restore_positions(x0, y0)
        assert delta == pytest.approx(expected, abs=1e-6)

    def test_commit_keeps_cache_consistent(self, legal_design):
        evaluator = IncrementalHpwl(legal_design)
        cells = np.flatnonzero(legal_design.movable)[:5]
        for cell in cells:
            cell = int(cell)
            evaluator.commit({cell: (legal_design.x[cell] + 1.0, legal_design.y[cell])})
        assert evaluator.verify()

    def test_two_cell_move_delta(self, legal_design):
        evaluator = IncrementalHpwl(legal_design)
        a, b = (int(c) for c in np.flatnonzero(legal_design.movable)[:2])
        moves = {
            a: (float(legal_design.x[b]), float(legal_design.y[b])),
            b: (float(legal_design.x[a]), float(legal_design.y[a])),
        }
        delta = evaluator.delta(moves)
        evaluator.commit(moves)
        assert evaluator.verify()
        assert evaluator.total == pytest.approx(legal_design.hpwl(), rel=1e-9)
        assert delta == pytest.approx(
            evaluator.total - (evaluator.total - delta), abs=1e-6
        )


class TestRowLayout:
    def test_invariants_on_legal_placement(self, legal_design):
        layout = RowLayout(legal_design)
        assert layout.check()

    def test_footprint_at_least_cell_width(self, legal_design):
        layout = RowLayout(legal_design)
        for cells in layout.rows():
            for cell in cells:
                assert layout.footprint(cell) >= legal_design.w[cell] - 1e-9

    def test_rows_sorted_by_x(self, legal_design):
        layout = RowLayout(legal_design)
        for cells in layout.rows():
            xs = [legal_design.x[c] for c in cells]
            assert xs == sorted(xs)

    def test_padded_footprints(self, legal_design):
        widths = legal_design.w.copy()
        movable = legal_design.movable & ~legal_design.is_macro
        widths[movable] += 1.0
        # Re-legalize with the padded widths, then build the layout.
        legalize_abacus(legal_design, widths=widths)
        layout = RowLayout(legal_design, widths)
        assert layout.check()

    def test_row_of_tracks_swaps(self, legal_design):
        layout = RowLayout(legal_design)
        rows = layout.rows()
        two_rows = [r for r in rows if len(r) >= 1]
        a = two_rows[0][0]
        b = two_rows[-1][-1]
        if a != b:
            row_a, row_b = layout.row_of(a), layout.row_of(b)
            layout.swap(a, b)
            assert layout.row_of(a) == row_b
            assert layout.row_of(b) == row_a


class TestOptimalPosition:
    def test_isolated_cell_stays(self, legal_design):
        # A cell with no pins has no pull.
        no_pin_cells = [
            c
            for c in np.flatnonzero(legal_design.movable)
            if len(legal_design.pins_of_cell(int(c))) == 0
        ]
        if no_pin_cells:
            cell = int(no_pin_cells[0])
            ox, oy = optimal_position(legal_design, cell)
            assert ox == legal_design.x[cell]
            assert oy == legal_design.y[cell]

    def test_two_pin_net_pulls_toward_neighbor(self, tiny_design):
        # In the chain, cell c0's optimal x is near its two neighbors.
        from repro.legalizer import legalize_tetris

        legalize_tetris(tiny_design)
        cell = 1  # "c0"
        ox, oy = optimal_position(tiny_design, cell)
        assert tiny_design.die.xlo <= ox <= tiny_design.die.xhi


class TestDetailedPlacer:
    def test_improves_or_preserves_hpwl(self, legal_design):
        before = legal_design.hpwl()
        result = DetailedPlacer(legal_design).run(passes=2)
        assert result.hpwl_after <= before + 1e-6
        assert result.hpwl_before == pytest.approx(before, rel=1e-9)

    def test_preserves_legality(self, legal_design):
        DetailedPlacer(legal_design).run(passes=2)
        assert run_checkers(VerifyContext(design=legal_design)).ok

    def test_result_consistent_with_design(self, legal_design):
        result = DetailedPlacer(legal_design).run(passes=1)
        assert result.hpwl_after == pytest.approx(legal_design.hpwl(), rel=1e-9)

    def test_rejects_illegal_input(self, small_design):
        # Overlapping (unlegalized) placement must be rejected.
        GlobalPlacer(small_design, PlacementParams(max_iters=50)).run()
        with pytest.raises(ValueError):
            DetailedPlacer(small_design)

    def test_respects_padded_widths(self, legal_design):
        widths = legal_design.w.copy()
        movable = legal_design.movable & ~legal_design.is_macro
        widths[np.flatnonzero(movable)[::4]] += 2.0
        legalize_abacus(legal_design, widths=widths)
        DetailedPlacer(legal_design, widths=widths).run(passes=1)
        assert run_checkers(VerifyContext(design=legal_design)).ok


class TestNetBoxVectorization:
    """The vectorized gather in ``_net_box`` must match the reference
    per-pin loop on randomized overrides (issue satellite)."""

    @staticmethod
    def reference_net_box(design, net, overrides):
        xs, ys = [], []
        for p in design.pins_of_net(net):
            cell = int(design.pin_cell[p])
            cx, cy = overrides.get(cell, (design.x[cell], design.y[cell]))
            xs.append(float(cx) + float(design.pin_dx[p]))
            ys.append(float(cy) + float(design.pin_dy[p]))
        return (min(xs), max(xs), min(ys), max(ys))

    def test_randomized_equivalence_with_loop(self, legal_design, rng):
        evaluator = IncrementalHpwl(legal_design)
        movable = np.flatnonzero(legal_design.movable)
        for _ in range(50):
            net = int(rng.integers(legal_design.num_nets))
            if len(legal_design.pins_of_net(net)) == 0:
                continue
            chosen = rng.choice(movable, size=int(rng.integers(0, 4)),
                                replace=False)
            overrides = {
                int(c): (
                    float(rng.uniform(0, legal_design.die.xhi)),
                    float(rng.uniform(0, legal_design.die.yhi)),
                )
                for c in chosen
            }
            expected = self.reference_net_box(legal_design, net, overrides)
            assert evaluator._net_box(net, overrides) == pytest.approx(
                expected, abs=1e-9
            )

    def test_override_of_foreign_cell_is_inert(self, legal_design):
        evaluator = IncrementalHpwl(legal_design)
        net = next(n for n in range(legal_design.num_nets)
                   if len(legal_design.pins_of_net(net := n)) > 0)
        on_net = {int(c) for c in legal_design.pin_cell[
            legal_design.pins_of_net(net)]}
        foreign = next(c for c in range(legal_design.num_cells)
                       if c not in on_net)
        clean = evaluator._net_box(net, {})
        assert evaluator._net_box(net, {foreign: (0.0, 0.0)}) == clean
