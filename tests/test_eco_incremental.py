"""An ECO delta's bookkeeping is exact.

A delta commits routes per cell, rips the dirty nets in one pass, totals
routed wirelength and vias from kept per-route terms, and builds row
segments from per-row blocker selection.  This module replays one mixed
delta stream on OR1200 twice — once as is, once with the loop-level
oracles (``tests/router_oracle.py``, ``tests/legalizer_oracle.py``)
patched in at their module bindings — and requires every result, every
cost map a route search saw, and the final routing state to be equal.
"""

import copy
import hashlib

import numpy as np
import pytest

import repro.legalizer.rows as rows_module
import repro.router.incremental as incremental_module
import repro.router.router as router_module
from repro import api
from repro.eco import (
    AddCell,
    EcoSession,
    MoveMacro,
    RemoveCell,
    ResizeCell,
    delta_from_dict,
    nets_of_cells,
)

from .legalizer_oracle import build_segments_rects
from .router_oracle import (
    commit_route_numpy,
    rip_routes_sequential,
    wirelength_and_vias_loop,
)

SCALE = 0.004
DELTAS = 44


@pytest.fixture(scope="module")
def converged():
    session = EcoSession("OR1200", config=api.RunConfig(scale=SCALE))
    session.start()
    return session


def _next_delta(session, rng, added):
    """One edit of the stream: resize, buffer insert, removal of an
    inserted buffer, or a small macro move."""
    d = session.design
    std = np.flatnonzero(d.movable & ~d.is_macro)
    roll = rng.random()
    if roll < 0.15 and added:
        name = added.pop(int(rng.integers(len(added))))
        return RemoveCell(cell=d.cell_names.index(name))
    if roll < 0.35:
        cell = int(rng.choice(std))
        nets = nets_of_cells(d, [cell])
        picked = rng.choice(nets, size=min(2, len(nets)), replace=False)
        name = f"eco_buf_{len(d.cell_names)}_{int(rng.integers(1 << 30))}"
        added.append(name)
        return AddCell(
            name=name, width=2 * d.technology.site_width,
            height=d.technology.row_height,
            x=float(d.x[cell]), y=float(d.y[cell]),
            nets=[d.net_names[int(n)] for n in picked],
        )
    if roll < 0.45:
        macro = int(rng.choice(np.flatnonzero(d.is_macro)))
        step = d.technology.site_width * float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
        return MoveMacro(macro=macro, x=float(d.x[macro]) + step,
                         y=float(d.y[macro]))
    cell = int(rng.choice(std))
    sites = max(1, round(float(d.w[cell]) * rng.uniform(0.7, 1.4)
                         / d.technology.site_width))
    return ResizeCell(cell=cell, width=sites * d.technology.site_width)


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _record_searches(monkeypatch, seen):
    """Log the cost maps every pattern and maze search reads."""
    for module in (router_module, incremental_module):
        pattern = module.best_pattern_route
        maze = module.maze_route

        def traced_pattern(*args, _fn=pattern, **kwargs):
            seen.append(("pattern", _digest(args[5], args[6])))
            return _fn(*args, **kwargs)

        def traced_maze(*args, _fn=maze, **kwargs):
            seen.append(("maze", _digest(args[4], args[5])))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, "best_pattern_route", traced_pattern)
        monkeypatch.setattr(module, "maze_route", traced_maze)


def _run(converged, monkeypatch, deltas=None, oracle=False):
    """Apply a stream to a copy of the converged session.

    With ``deltas=None`` the stream is drawn (seeded) and returned as
    wire dicts, so the second run replays exactly the same edits.
    """
    session = copy.deepcopy(converged)
    seen: list = []
    with monkeypatch.context() as patch:
        _record_searches(patch, seen)
        if oracle:
            patch.setattr(router_module, "commit_route", commit_route_numpy)
            patch.setattr(incremental_module, "commit_route", commit_route_numpy)
            patch.setattr(incremental_module, "rip_routes", rip_routes_sequential)
            patch.setattr(rows_module, "build_segments", build_segments_rects)
        rng = np.random.default_rng(7)
        added: list = []
        applied, results, totals = [], [], []
        for k in range(DELTAS if deltas is None else len(deltas)):
            delta = (
                _next_delta(session, rng, added) if deltas is None
                else delta_from_dict(deltas[k])
            )
            applied.append(delta.to_dict())
            summary = session.apply(delta).to_summary()
            summary.pop("seconds")
            results.append(summary)
            report = session.route_report
            state = report.state
            recount = wirelength_and_vias_loop(state.routes, state.grid)
            assert (report.wirelength, report.via_count) == recount
            assert len(state.route_terms) == len(state.routes)
            totals.append(recount)
    return session, applied, results, totals, seen


def test_stream_matches_the_oracles(converged, monkeypatch):
    fast, deltas, fast_results, fast_totals, fast_seen = _run(
        converged, monkeypatch
    )
    kinds = {d["kind"] for d in deltas}
    assert kinds == {"resize_cell", "add_cell", "remove_cell", "move_macro"}

    slow, _, slow_results, slow_totals, slow_seen = _run(
        converged, monkeypatch, deltas=deltas, oracle=True
    )
    assert fast_results == slow_results
    assert fast_totals == slow_totals
    assert any(kind == "maze" for kind, _ in fast_seen)
    assert fast_seen == slow_seen

    np.testing.assert_array_equal(fast.design.x, slow.design.x)
    np.testing.assert_array_equal(fast.design.y, slow.design.y)
    a, b = fast.route_report.state, slow.route_report.state
    assert len(a.routes) == len(b.routes)
    for (ah, av), (bh, bv) in zip(a.routes, b.routes):
        assert np.array_equal(ah, bh) and np.array_equal(av, bv)
    assert a.route_terms == b.route_terms
    assert a.segments == b.segments
    np.testing.assert_array_equal(a.seg_net, b.seg_net)
    for name in ("dmd_h", "dmd_v"):
        np.testing.assert_array_equal(
            getattr(a.demand, name), getattr(b.demand, name)
        )
    for name in ("hist_h", "hist_v"):
        np.testing.assert_array_equal(
            getattr(a.cost_model, name), getattr(b.cost_model, name)
        )
    for x, y in zip(a.cost_model.cost_maps(), b.cost_model.cost_maps()):
        np.testing.assert_array_equal(x, y)
    assert fast.route_report.wirelength == slow.route_report.wirelength
    assert fast.route_report.via_count == slow.route_report.via_count


def test_full_verify_sees_a_corrupt_term(converged):
    session = copy.deepcopy(converged)
    cell = int(np.flatnonzero(session.design.movable & ~session.design.is_macro)[3])
    step = session.apply(
        ResizeCell(cell=cell, width=float(session.design.w[cell]) + 2.0),
        verify="full",
    )
    assert step.verify_ok
    state = session.route_report.state
    length, vias = state.route_terms[0]
    state.route_terms[0] = (length + 1.0, vias)
    step = session.apply(
        ResizeCell(cell=cell, width=float(session.design.w[cell]) - 2.0),
        verify="full",
    )
    assert not step.verify_ok
    report = session.verify("full")
    messages = [v.message for v in report.errors]
    assert any("reported wirelength disagrees" in m for m in messages)
    assert not any("via count" in m for m in messages)
