"""Tests for incremental placement sessions (repro.eco).

Covers the delta wire schema, dirty-set computation, the
:class:`EcoSession` engine (including the "metric-close to a cold
rerun" gate from the issue), and the sessions API on the job server.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro import api
from repro.benchgen import make_design
from repro.eco import (
    DELTA_KINDS,
    AddCell,
    ChangeStrategy,
    EcoParams,
    EcoSession,
    MoveMacro,
    RemoveCell,
    ResizeCell,
    compute_dirty,
    delta_from_dict,
    nets_of_cells,
)
from repro.runtime import ArtifactCache
from repro.schema import SCHEMA_VERSION, SchemaError
from repro.serve import (
    HttpServer,
    PlacementService,
    QueueFullError,
    ServiceClosedError,
    ResourceStateError,
    ServiceConfig,
    SessionManager,
    UnknownResourceError,
)

SCALE = 0.002
CONFIG = api.RunConfig(scale=SCALE, seed=0)


def run_async(coro):
    return asyncio.run(coro)


def movable_std(design):
    return np.flatnonzero(design.movable & ~design.is_macro)


# ----------------------------------------------------------------------
# Delta wire schema
# ----------------------------------------------------------------------


class TestDeltaWire:
    EXAMPLES = [
        ResizeCell(cell=7, width=12.0),
        ResizeCell(cell=7, width=12.0, height=16.0),
        MoveMacro(macro=2, x=40.0, y=80.0),
        AddCell(name="buf1", width=4.0, height=8.0, x=10.0, y=10.0,
                nets=["n1", "n2"]),
        RemoveCell(cell=3),
        ChangeStrategy(param="theta", value=0.6),
    ]

    @pytest.mark.parametrize("delta", EXAMPLES, ids=lambda d: d.KIND)
    def test_roundtrip_is_lossless(self, delta):
        wire = delta.to_dict()
        json.dumps(wire)  # JSON-safe
        assert wire["kind"] == delta.KIND
        assert wire["schema_version"] == SCHEMA_VERSION
        assert delta_from_dict(wire) == delta

    def test_all_kinds_registered(self):
        assert set(DELTA_KINDS) == {d.KIND for d in self.EXAMPLES}

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            delta_from_dict({"kind": "teleport_cell", "cell": 1})

    def test_unknown_key_rejected(self):
        wire = ResizeCell(cell=1, width=2.0).to_dict()
        wire["widht"] = 3.0
        with pytest.raises(SchemaError, match="widht"):
            delta_from_dict(wire)

    def test_version_mismatch_rejected(self):
        wire = RemoveCell(cell=1).to_dict()
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="schema_version"):
            delta_from_dict(wire)

    def test_non_dict_rejected(self):
        with pytest.raises(SchemaError):
            delta_from_dict(["resize_cell"])


# ----------------------------------------------------------------------
# Dirty-set computation
# ----------------------------------------------------------------------


class TestDirtySet:
    def test_seeds_margins_and_window(self, small_design):
        from repro.router import build_grid

        grid = build_grid(small_design)
        seed = int(movable_std(small_design)[0])
        d = small_design
        box = (float(d.x[seed]), float(d.y[seed]),
               float(d.x[seed] + d.w[seed]), float(d.y[seed] + d.h[seed]))
        dirty = compute_dirty(
            d, grid, [seed], [box],
            margin_sites=8, margin_rows=1, route_margin_gcells=2,
        )
        assert seed in set(dirty.cells)
        assert 0.0 < dirty.fraction <= 1.0
        assert set(dirty.nets) >= set(nets_of_cells(d, [seed]))
        gx_lo, gy_lo, gx_hi, gy_hi = dirty.window
        assert 0 <= gx_lo <= gx_hi < grid.nx
        assert 0 <= gy_lo <= gy_hi < grid.ny
        # Macros and fixed cells are never swept in by the margins.
        swept = set(dirty.cells) - {seed}
        assert all(d.movable[c] and not d.is_macro[c] for c in swept)

    def test_nets_of_cells_matches_pin_scan(self, small_design):
        d = small_design
        cells = movable_std(d)[:3]
        expected = sorted(
            {int(d.pin_net[p]) for p in range(d.num_pins)
             if d.pin_cell[p] in set(int(c) for c in cells)}
        )
        assert sorted(int(n) for n in nets_of_cells(d, cells)) == expected


# ----------------------------------------------------------------------
# The session engine
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def started_session():
    """One converged session shared by the engine tests (read via fresh
    deltas; each test leaves the design legal and routed)."""
    session = EcoSession("OR1200", config=CONFIG)
    baseline = session.start()
    return session, baseline


class TestEcoSession:
    def test_start_baseline(self, started_session):
        session, baseline = started_session
        assert session.version == 0
        assert baseline.kind == "start"
        assert baseline.hpwl > 0
        assert session.route_report.state is not None
        json.dumps(baseline.to_summary())

    def test_resize_is_incremental_and_clean(self, started_session):
        session, _ = started_session
        cell = int(movable_std(session.design)[0])
        before = session.version
        step = session.apply(
            ResizeCell(cell=cell, width=float(session.design.w[cell]) + 3.0),
            verify="full",
        )
        assert session.version == before + 1
        assert step.dirty_cells > 0 and step.dirty_nets > 0
        assert "place" not in step.full_fallbacks
        assert step.verify_ok and step.verify_errors == 0

    def test_add_then_remove_cell(self, started_session):
        session, _ = started_session
        n0 = session.design.num_cells
        nets = [session.design.net_names[1], session.design.net_names[2]]
        step = session.apply(
            {"kind": "add_cell", "name": "eco_test_buf", "width": 4.0,
             "height": 8.0, "x": 30.0, "y": 30.0, "nets": nets},
            verify="full",
        )
        assert session.design.num_cells == n0 + 1
        assert step.verify_ok
        new_cell = session.design.cell_names.index("eco_test_buf")
        step = session.apply(RemoveCell(cell=new_cell), verify="cheap")
        assert session.design.num_cells == n0
        assert step.verify_ok

    def test_move_macro(self, started_session):
        session, _ = started_session
        d = session.design
        fixed = np.flatnonzero(d.is_macro | ~d.movable)
        macro = int(fixed[0])
        step = session.apply(
            MoveMacro(macro=macro, x=float(d.x[macro]) + 2.0,
                      y=float(d.y[macro])),
            verify="full",
        )
        assert step.verify_ok and step.verify_errors == 0

    def test_change_strategy_warm_replaces(self, started_session):
        session, _ = started_session
        step = session.apply(
            ChangeStrategy(param="tau", value=2.0), verify="cheap"
        )
        assert "place" in step.full_fallbacks
        assert session.strategy.tau == 2.0
        assert step.verify_ok

    def test_bad_deltas_rejected(self, started_session):
        session, _ = started_session
        d = session.design
        fixed = int(np.flatnonzero(d.is_macro | ~d.movable)[0])
        with pytest.raises(ValueError, match="movable"):
            session.apply(ResizeCell(cell=fixed, width=4.0))
        with pytest.raises(ValueError, match="out of range"):
            session.apply(ResizeCell(cell=d.num_cells + 5, width=4.0))
        with pytest.raises(ValueError, match="strategy parameter"):
            session.apply(ChangeStrategy(param="nope", value=1.0))
        with pytest.raises(SchemaError):
            session.apply({"kind": "resize_cell", "cell": 0, "w": 1.0})

    def test_lifecycle_errors(self):
        session = EcoSession("OR1200", config=CONFIG)
        with pytest.raises(RuntimeError, match="not started"):
            session.apply(RemoveCell(cell=0))
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.start()


class TestColdStartCache:
    def test_restart_restores_from_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path / "eco-cache")
        first = EcoSession("OR1200", config=CONFIG, cache=cache)
        first.start()
        second = EcoSession("OR1200", config=CONFIG, cache=cache)
        restored = second.start()
        # The cached start skips the placement stage entirely ...
        assert "place" not in restored.seconds
        # ... and lands on bit-identical converged positions.
        np.testing.assert_array_equal(first.design.x, second.design.x)
        np.testing.assert_array_equal(first.design.y, second.design.y)
        np.testing.assert_allclose(first.pad, second.pad)


class TestIncrementalMatchesColdRerun:
    """The issue's closeness gate: after an edit, the incremental result
    must be invariant-clean and metric-close to a from-scratch rerun on
    the edited netlist."""

    def test_resize_close_to_cold(self):
        session = EcoSession("OR1200", config=CONFIG)
        session.start()
        cell = int(movable_std(session.design)[0])
        new_width = float(session.design.w[cell]) + 4.0
        step = session.apply(
            ResizeCell(cell=cell, width=new_width), verify="full"
        )
        assert step.verify_ok and step.verify_errors == 0

        # Cold rerun: regenerate the benchmark, apply the same edit to
        # the netlist, and run the full flow + router from scratch.
        cold_design = make_design("OR1200", SCALE, seed=0)
        cold_design.w[cell] = new_width
        cold = EcoSession(cold_design, config=CONFIG)
        cold_base = cold.start()

        assert step.hpwl == pytest.approx(cold_base.hpwl, rel=0.15)
        assert abs(step.hof - cold_base.hof) < 3.0
        assert abs(step.vof - cold_base.vof) < 3.0


# ----------------------------------------------------------------------
# Sessions on the service (fast fake engine)
# ----------------------------------------------------------------------


class FakeStep:
    def __init__(self, summary):
        self._summary = summary

    def to_summary(self):
        return dict(self._summary)


class FakeEngine:
    """Engine double obeying the SessionManager contract."""

    def __init__(self, request, gate=None, fail_on=None):
        self.request = request
        self.gate = gate
        self.fail_on = fail_on or {}
        self.version = -1
        self.closed = False

    def start(self):
        if self.gate is not None:
            self.gate.wait(10)
        if "start" in self.fail_on:
            raise self.fail_on["start"]
        self.version = 0
        return FakeStep({"version": 0, "kind": "start", "hpwl": 100.0})

    def apply(self, payload, verify="cheap"):
        if self.gate is not None:
            self.gate.wait(10)
        kind = payload["kind"]
        if kind in self.fail_on:
            raise self.fail_on[kind]
        self.version += 1
        return FakeStep({"version": self.version, "kind": kind,
                         "verify": verify})

    def close(self):
        self.closed = True


def make_manager(**engine_kwargs):
    engines = []

    def factory(request):
        engine = FakeEngine(request, **engine_kwargs)
        engines.append(engine)
        return engine

    return SessionManager(engine_factory=factory, max_pending=2), engines


RESIZE = {"kind": "resize_cell", "cell": 1, "width": 4.0}


class TestSessionManager:
    def test_create_apply_close(self):
        async def main():
            manager, engines = make_manager()
            session = manager.create({"design": "OR1200", "verify": "full"})
            session = await manager.wait_ready(session.id, timeout=10)
            assert session.state == "ready"
            assert session.baseline["kind"] == "start"

            delta = manager.submit_delta(session.id, RESIZE)
            delta = await manager.wait_delta(session.id, delta.id, timeout=10)
            assert delta.state == "done"
            assert delta.result["version"] == 1
            assert delta.result["verify"] == "full"  # session-level knob
            json.dumps(session.to_wire())

            manager.close(session.id)
            assert session.state == "closed"
            assert engines[0].closed
            manager.close(session.id)  # idempotent
            with pytest.raises(ResourceStateError):
                manager.submit_delta(session.id, RESIZE)

        run_async(main())

    def test_unknown_ids(self):
        async def main():
            manager, _ = make_manager()
            with pytest.raises(UnknownResourceError):
                manager.get("sess-404")
            session = manager.create({"design": "OR1200"})
            await manager.wait_ready(session.id, timeout=10)
            with pytest.raises(UnknownResourceError):
                manager.delta(session.id, "sess-1-d404")

        run_async(main())

    def test_request_validation(self):
        async def main():
            manager, _ = make_manager()
            with pytest.raises(ValueError, match="design"):
                manager.create({})
            with pytest.raises(ValueError, match="unknown session request"):
                manager.create({"design": "OR1200", "verbose": True})
            with pytest.raises(ValueError, match="verify"):
                manager.create({"design": "OR1200", "verify": "paranoid"})
            session = manager.create({"design": "OR1200"})
            await manager.wait_ready(session.id, timeout=10)
            with pytest.raises(SchemaError):
                manager.submit_delta(session.id, {"kind": "warp_core"})

        run_async(main())

    def test_bad_delta_fails_delta_not_session(self):
        async def main():
            manager, _ = make_manager(
                fail_on={"remove_cell": ValueError("cell 9 out of range")}
            )
            session = manager.create({"design": "OR1200"})
            await manager.wait_ready(session.id, timeout=10)
            bad = manager.submit_delta(
                session.id, {"kind": "remove_cell", "cell": 9}
            )
            bad = await manager.wait_delta(session.id, bad.id, timeout=10)
            assert bad.state == "failed" and "out of range" in bad.error
            assert session.state == "ready"  # session survives
            good = manager.submit_delta(session.id, RESIZE)
            good = await manager.wait_delta(session.id, good.id, timeout=10)
            assert good.state == "done"

        run_async(main())

    def test_unexpected_error_fails_session(self):
        async def main():
            manager, _ = make_manager(fail_on={"start": OSError("disk gone")})
            session = manager.create({"design": "OR1200"})
            session = await manager.wait_ready(session.id, timeout=10)
            assert session.state == "failed"
            assert "disk gone" in session.error
            with pytest.raises(ResourceStateError):
                manager.submit_delta(session.id, RESIZE)

        run_async(main())

    def test_backpressure_on_pending_deltas(self):
        gate = threading.Event()

        async def main():
            manager, _ = make_manager(gate=gate)
            session = manager.create({"design": "OR1200"})
            gate.set()
            await manager.wait_ready(session.id, timeout=10)
            gate.clear()
            accepted = []
            with pytest.raises(QueueFullError) as info:
                for _ in range(manager.max_pending + 2):
                    accepted.append(manager.submit_delta(session.id, RESIZE))
            assert info.value.retry_after > 0
            gate.set()
            for delta in accepted:
                delta = await manager.wait_delta(session.id, delta.id,
                                                 timeout=10)
                assert delta.state == "done"

        run_async(main())

    def test_drain_closes_sessions_and_refuses_new(self):
        async def main():
            manager, engines = make_manager()
            session = manager.create({"design": "OR1200"})
            await manager.wait_ready(session.id, timeout=10)
            manager.close_all()
            assert session.state == "closed"
            assert engines[0].closed
            assert manager.counts()["closed"] == 1
            with pytest.raises(ServiceClosedError):
                manager.create({"design": "OR1200"})
            with pytest.raises(ServiceClosedError):
                manager.submit_delta(session.id, RESIZE)

        run_async(main())


class TestServiceIntegration:
    def test_drain_gc_and_healthz_counts(self):
        async def main():
            service = PlacementService(
                ServiceConfig(workers=1, capacity=2),
                runner=lambda request: {},
                session_engine_factory=lambda request: FakeEngine(request),
            )
            await service.start()
            session = service.sessions.create({"design": "OR1200"})
            await service.sessions.wait_ready(session.id, timeout=10)
            assert service.healthz()["sessions"]["ready"] == 1
            await service.drain()
            assert session.state == "closed"
            assert service.healthz()["sessions"]["closed"] == 1
            with pytest.raises(ServiceClosedError):
                service.sessions.create({"design": "OR1200"})
            await service.stop()

        run_async(main())


class TestHttpSessions:
    @staticmethod
    def serve_in_thread(**engine_kwargs):
        from repro.serve import HttpServiceClient

        started = threading.Event()
        box = {}

        def thread_main():
            async def amain():
                service = PlacementService(
                    ServiceConfig(workers=1, capacity=2),
                    runner=lambda request: {},
                    session_engine_factory=lambda request: FakeEngine(
                        request, **engine_kwargs
                    ),
                )
                await service.start()
                server = HttpServer(service, port=0)
                box["addr"] = await server.start()
                box["service"] = service
                box["stop"] = asyncio.Event()
                started.set()
                await box["stop"].wait()
                await server.close()
                await service.stop()

            box["loop"] = asyncio.new_event_loop()
            box["loop"].run_until_complete(amain())
            box["loop"].close()

        thread = threading.Thread(target=thread_main, daemon=True)
        thread.start()
        assert started.wait(10)

        def shutdown():
            box["loop"].call_soon_threadsafe(box["stop"].set)
            thread.join(10)

        return HttpServiceClient(*box["addr"]), box, shutdown

    def test_full_session_roundtrip_over_http(self):
        client, box, shutdown = self.serve_in_thread()
        try:
            session = client.create_session(
                "OR1200", config=api.RunConfig(scale=SCALE), verify="cheap"
            )
            assert session["state"] in ("initializing", "ready")
            session = client.wait_session(session["id"], timeout=10)
            assert session["state"] == "ready"
            assert session["baseline"]["hpwl"] == 100.0
            assert session["version"] == 0

            result = client.apply_delta(session["id"], RESIZE,
                                        wait_timeout=10)
            assert result["version"] == 1
            result = client.apply_delta(
                session["id"], ResizeCell(cell=2, width=5.0),
                wait_timeout=10,
            )
            assert result["version"] == 2

            listing = client.sessions()
            assert [s["id"] for s in listing] == [session["id"]]
            assert len(client.session(session["id"])["deltas"]) == 2

            with pytest.raises(ValueError, match="kind"):
                client.submit_delta(session["id"], {"kind": "warp_core"})
            with pytest.raises(UnknownResourceError) as unknown:
                client.session("sess-404")
            assert unknown.value.kind == "session"

            closed = client.close_session(session["id"])
            assert closed["state"] == "closed"
            with pytest.raises(ResourceStateError) as conflict:
                client.submit_delta(session["id"], RESIZE)
            assert conflict.value.kind == "session"
        finally:
            shutdown()

    def test_drain_returns_503_for_sessions(self):
        client, box, shutdown = self.serve_in_thread()
        try:
            session = client.create_session("OR1200")
            client.wait_session(session["id"], timeout=10)
            future = asyncio.run_coroutine_threadsafe(
                box["service"].drain(), box["loop"]
            )
            future.result(timeout=10)
            with pytest.raises(ServiceClosedError):
                client.create_session("OR1200")
            with pytest.raises(ServiceClosedError):
                client.submit_delta(session["id"], RESIZE)
            assert client.session(session["id"])["state"] == "closed"
        finally:
            shutdown()
