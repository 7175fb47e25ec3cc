"""Exactness of the per-pass maze memo (:class:`repro.router.maze.MazeMemo`).

A memo hit must return exactly what the search would have returned, so
routing with the memo and routing with every search run afresh give the
same routes, demand and reports, bit for bit — in the full router, and
through a sequence of ECO deltas.
"""

import dataclasses

import numpy as np
import pytest

from repro import api, obs
from repro.eco import AddCell, EcoSession, RemoveCell, ResizeCell, nets_of_cells
from repro.router import GlobalRouter, incremental, router
from repro.router.maze import MazeMemo, maze_route


def costs(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return 1.0 + 3.0 * rng.random((n, n)), 1.0 + 3.0 * rng.random((n, n))


def hits(tracer) -> float:
    return tracer.metrics().get("maze/memo_hits", {}).get("value", 0.0)


def route_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestMemoUnit:
    def test_repeat_hits_and_returns_the_search_result(self):
        ch, cv = costs()
        memo = MazeMemo()
        with obs.tracing(obs.Tracer()) as tracer:
            first = maze_route(1, 1, 6, 5, ch, cv, 1, memo=memo)
            second = maze_route(1, 1, 6, 5, ch.copy(), cv.copy(), 1, memo=memo)
        assert hits(tracer) == 1
        assert second is first
        assert route_equal(first, maze_route(1, 1, 6, 5, ch, cv, 1))

    def test_cost_change_inside_window_misses(self):
        ch, cv = costs()
        memo = MazeMemo()
        with obs.tracing(obs.Tracer()) as tracer:
            maze_route(1, 1, 6, 5, ch, cv, 1, memo=memo)  # window x0..7, y0..6
            cv[3, 3] = 100.0
            got = maze_route(1, 1, 6, 5, ch, cv, 1, memo=memo)
        assert hits(tracer) == 0
        assert route_equal(got, maze_route(1, 1, 6, 5, ch, cv, 1))

    def test_cost_change_outside_window_hits(self):
        ch, cv = costs()
        memo = MazeMemo()
        with obs.tracing(obs.Tracer()) as tracer:
            first = maze_route(1, 1, 6, 5, ch, cv, 1, memo=memo)
            ch[9, 9] = cv[9, 9] = 100.0
            second = maze_route(1, 1, 6, 5, ch, cv, 1, memo=memo)
        assert hits(tracer) == 1
        assert second is first

    def test_miss_replaces_the_geometry_entry(self):
        ch, cv = costs()
        memo = MazeMemo()
        maze_route(1, 1, 6, 5, ch, cv, 1, memo=memo)
        nbytes = memo.nbytes
        ch[2, 2] = 50.0
        maze_route(1, 1, 6, 5, ch, cv, 1, memo=memo)
        assert len(memo.entries) == 1 and memo.nbytes == nbytes

    def test_no_path_is_memoized(self):
        ch = np.full((10, 10), np.inf)  # every path costs inf: none exists
        cv = np.full((10, 10), np.inf)
        memo = MazeMemo()
        with obs.tracing(obs.Tracer()) as tracer, np.errstate(invalid="ignore"):
            assert maze_route(0, 0, 3, 2, ch, cv, 0, memo=memo) is None
            assert maze_route(0, 0, 3, 2, ch, cv, 0, memo=memo) is None
        assert hits(tracer) == 1
        assert tracer.metrics()["maze/no_path"]["value"] == 2

    def test_memoized_arrays_are_read_only(self):
        ch, cv = costs()
        h_cells, v_cells = maze_route(1, 1, 6, 5, ch, cv, 1, memo=MazeMemo())
        for cells in (h_cells, v_cells):
            with pytest.raises(ValueError):
                cells[:1] = 0

    def test_byte_ceiling_stops_storing(self, monkeypatch):
        monkeypatch.setattr("repro.router.maze.MEMO_MAX_BYTES", 0)
        ch, cv = costs()
        memo = MazeMemo()
        with obs.tracing(obs.Tracer()) as tracer:
            first = maze_route(1, 1, 6, 5, ch, cv, 1, memo=memo)
            second = maze_route(1, 1, 6, 5, ch, cv, 1, memo=memo)
        assert not memo.entries and memo.nbytes == 0
        assert hits(tracer) == 0
        assert route_equal(first, second)


@pytest.fixture
def memoless(monkeypatch):
    """Run every maze search afresh at both module bindings."""

    def search_afresh(*args, memo=None, **kwargs):
        return maze_route(*args, **kwargs)

    monkeypatch.setattr(router, "maze_route", search_afresh)
    monkeypatch.setattr(incremental, "maze_route", search_afresh)


def assert_same_routing(a, b):
    """Equal reports and route states, routes and demand bit for bit."""
    assert (a.hof, a.vof, a.wirelength, a.via_count, a.rounds) == (
        b.hof, b.vof, b.wirelength, b.via_count, b.rounds
    )
    assert a.overflow_history == b.overflow_history
    assert np.array_equal(a.demand.dmd_h, b.demand.dmd_h)
    assert np.array_equal(a.demand.dmd_v, b.demand.dmd_v)
    assert len(a.state.routes) == len(b.state.routes)
    for ra, rb in zip(a.state.routes, b.state.routes):
        assert np.array_equal(ra[0], rb[0]) and np.array_equal(ra[1], rb[1])


CASES = [("OR1200", 0.002, 0), ("OR1200", 0.002, 1), ("MEDIA_SUBSYS", 0.001, 0)]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}@{c[1]}-s{c[2]}")
def placed(request):
    name, scale, seed = request.param
    return api.run(name, "puffer", api.RunConfig(scale=scale, seed=seed)).design


class TestFullRouter:
    def test_memo_routes_bit_identical(self, placed, request):
        with obs.tracing(obs.Tracer()) as tracer:
            memoized = GlobalRouter(placed, keep_state=True).run()
        assert memoized.rounds > 0
        assert hits(tracer) > 0
        request.getfixturevalue("memoless")
        afresh = GlobalRouter(placed, keep_state=True).run()
        assert_same_routing(memoized, afresh)


def eco_deltas(session, rng, pairs=6):
    """Resize, add and remove edits, each followed by its revert."""
    for k in range(pairs):
        d = session.design
        cell = int(rng.choice(np.flatnonzero(d.movable & ~d.is_macro)))
        if k % 2:
            name = f"memo_buf_{k}"
            nets = nets_of_cells(d, [cell])[:2]
            yield AddCell(
                name=name, width=2 * d.technology.site_width,
                height=d.technology.row_height, x=float(d.x[cell]),
                y=float(d.y[cell]), nets=[d.net_names[int(n)] for n in nets],
            )
            yield RemoveCell(cell=session.design.cell_names.index(name))
        else:
            width = float(d.w[cell])
            yield ResizeCell(cell=cell, width=width + 2 * d.technology.site_width)
            yield ResizeCell(cell=cell, width=width)


def run_eco(seed=0):
    session = EcoSession("OR1200", config=api.RunConfig(scale=0.004))
    session.start()
    with obs.tracing(obs.Tracer()) as tracer:
        results = [
            dataclasses.replace(session.apply(delta), seconds={})
            for delta in eco_deltas(session, np.random.default_rng(seed))
        ]
    report = session.route_report
    session.close()
    return results, report, hits(tracer)


class TestEcoSession:
    def test_deltas_bit_identical(self, request):
        results, report, memo_hits = run_eco()
        assert len(results) == 12
        assert memo_hits > 0
        request.getfixturevalue("memoless")
        afresh, afresh_report, afresh_hits = run_eco()
        assert afresh_hits == 0
        assert results == afresh
        assert_same_routing(report, afresh_report)
