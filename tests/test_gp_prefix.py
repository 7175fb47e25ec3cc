"""Exactness of global-placement prefix replay (:mod:`repro.placer.prefix`).

Inside ``prefix.reuse()`` a placement replays the recorded iterations
before the first hook firing instead of recomputing them.  A replayed
(warm) run must equal a run with no store (cold) bit for bit, whatever
the strategy: positions, GP history, gradient-evaluation count, padding,
legal widths and the route report — when the new trigger falls inside
the record (cut), after it (extend), and for every flow.  The matrix at
the end runs one request through each execution mode, store cold and
warm, the tree memo of :mod:`repro.rsmt.batch` with it: its route
report must not move either.
"""

import asyncio
import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api, obs
from repro.baselines import place_replace_like, place_wirelength_driven
from repro.benchgen import make_design
from repro.core.puffer import PufferPlacer
from repro.core.strategy import StrategyParams
from repro.placer import GlobalPlacer, PlacementParams, prefix
from repro.router import GlobalRouter
from repro.rsmt import batch as rsmt_batch
from repro.serve import PlacementService, ServiceClient, ServiceConfig

SCALE = 0.0015


def prefix_iterations(tracer) -> float:
    return tracer.metrics().get("gp/prefix_iterations", {}).get("value", 0.0)


def puffer_run(strategy: StrategyParams, store=None) -> dict:
    """Place and route OR1200; ``store`` activates prefix reuse."""
    design = make_design("OR1200", SCALE)
    placer = PufferPlacer(design, strategy=strategy)
    if store is None:
        result = placer.run()
    else:
        with prefix.reuse(store):
            result = placer.run()
    report = GlobalRouter(design).run()
    gp = result.global_place
    return {
        "x": design.x, "y": design.y, "history": gp.history,
        "iterations": gp.iterations, "grad_evals": gp.grad_evals,
        "converged": gp.converged, "hpwl": result.hpwl,
        "padding": result.padding, "legal_widths": result.legal_widths,
        "padding_rounds": result.padding_rounds,
        "route": (report.hof, report.vof, report.total_overflow,
                  report.wirelength, report.via_count, report.num_segments),
        "dmd": (report.demand.dmd_h, report.demand.dmd_v),
    }


@functools.lru_cache(maxsize=None)
def cold(strategy_items: tuple) -> dict:
    return puffer_run(StrategyParams.from_dict(dict(strategy_items)))


def assert_same(warm: dict, reference: dict) -> None:
    for name, value in reference.items():
        got = warm[name]
        if name == "dmd":
            assert all(np.array_equal(a, b) for a, b in zip(got, value)), name
        elif isinstance(value, np.ndarray):
            assert np.array_equal(got, value), name
        else:
            assert got == value, name


def cold_run(strategy: StrategyParams) -> dict:
    return cold(tuple(sorted(strategy.to_dict().items())))


def check_warm(strategy: StrategyParams, store) -> dict:
    reference = cold_run(strategy)
    warm = puffer_run(strategy, store)
    assert_same(warm, reference)
    return warm


class TestPufferReplay:
    def test_extend_and_cut_equal_cold_runs(self):
        """τ=0.25 records up to its first round; τ=0.15 triggers later
        (replays the whole record, then extends it); τ=0.4 triggers
        earlier (cuts the replay short)."""
        for tau in (0.25, 0.15, 0.4):
            cold_run(StrategyParams(tau=tau))  # outside the traces below
        store = prefix.PrefixStore()
        with obs.tracing(obs.Tracer()) as tracer:
            check_warm(StrategyParams(tau=0.25), store)
        assert prefix_iterations(tracer) == 0
        (entry,) = store._entries.values()
        recorded = len(entry.steps)

        with obs.tracing(obs.Tracer()) as tracer:
            warm = check_warm(StrategyParams(tau=0.15), store)
        assert prefix_iterations(tracer) == recorded
        # gp/grad_evals counts evaluations run; the result stays logical.
        ran = tracer.metrics()["gp/grad_evals"]["value"]
        assert ran == warm["grad_evals"] - entry.steps[-1].grad_evals
        (extended,) = store._entries.values()
        assert len(extended.steps) > recorded

        with obs.tracing(obs.Tracer()) as tracer:
            check_warm(StrategyParams(tau=0.4), store)
        assert 0 < prefix_iterations(tracer) < recorded

    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(st.lists(
        st.builds(
            StrategyParams,
            tau=st.sampled_from([0.15, 0.2, 0.3, 0.4]),
            xi=st.integers(1, 6),
            eta=st.sampled_from([0.5, 0.8, 0.95]),
            mu=st.sampled_from([0.5, 1.5, 3.0]),
            kernel_size=st.sampled_from([1, 3, 5]),
        ),
        min_size=1, max_size=3,
    ))
    def test_any_strategy_sequence_equals_cold_runs(self, strategies):
        store = prefix.PrefixStore()
        for strategy in strategies:
            check_warm(strategy, store)


class TestOtherFlows:
    @pytest.mark.parametrize("place", [place_replace_like, place_wirelength_driven])
    def test_replay_equals_cold(self, place):
        def run(store):
            design = make_design("OR1200", SCALE)
            with prefix.reuse(store):
                gp = place(design).global_place
            return design, gp

        cold_design, cold_gp = run(prefix.PrefixStore())
        store = prefix.PrefixStore()
        run(store)
        with obs.tracing(obs.Tracer()) as tracer:
            warm_design, warm_gp = run(store)
        assert prefix_iterations(tracer) > 0
        assert np.array_equal(warm_design.x, cold_design.x)
        assert np.array_equal(warm_design.y, cold_design.y)
        assert warm_gp.history == cold_gp.history
        assert warm_gp.grad_evals == cold_gp.grad_evals
        assert warm_gp.converged == cold_gp.converged

    def test_warm_start_key_includes_incoming_positions(self):
        params = PlacementParams(max_iters=60)

        def run(store, shift):
            design = make_design("OR1200", SCALE)
            GlobalPlacer(design, params).run()
            design.x[design.movable] += shift
            with obs.tracing(obs.Tracer()) as tracer:
                with prefix.reuse(store):
                    gp = GlobalPlacer(design, params, seed_positions=False).run()
            return design, gp, prefix_iterations(tracer)

        store = prefix.PrefixStore()
        _, first, _ = run(store, 0.0)
        _, _, hit = run(store, 0.0)
        assert hit == first.iterations
        shifted, shifted_gp, hit = run(store, 0.5)
        assert hit == 0
        reference, reference_gp, _ = run(prefix.PrefixStore(), 0.5)
        assert np.array_equal(shifted.x, reference.x)
        assert shifted_gp.history == reference_gp.history

    def test_sizes_set_before_run_bypass_the_store(self):
        store = prefix.PrefixStore()
        design = make_design("OR1200", SCALE)
        placer = GlobalPlacer(design, PlacementParams(max_iters=20, min_iters=10))
        placer.set_density_sizes(design.w * 1.5, design.h)
        with prefix.reuse(store):
            placer.run()
        assert store.nbytes == 0


class TestStore:
    @staticmethod
    def trajectory(n: int, size: int = 4) -> prefix.Trajectory:
        steps = tuple(
            prefix.Step(np.zeros(size), 0.5, 1.0, 1.0, 1.0, 0.1, 1.0, k + 1)
            for k in range(n)
        )
        return prefix.Trajectory(1.0, steps, np.zeros(size), np.zeros(size))

    def test_entry_over_the_ceiling_is_not_stored(self):
        store = prefix.PrefixStore(max_bytes=10 * 32)
        assert not store.put(b"k", self.trajectory(10))  # 12 arrays of 32 B
        assert store.get(b"k") is None and store.nbytes == 0
        assert store.put(b"k", self.trajectory(8))
        assert store.nbytes == 10 * 32

    def test_longer_record_replaces_shorter(self):
        store = prefix.PrefixStore()
        short, long = self.trajectory(3), self.trajectory(5)
        assert store.put(b"k", short)
        assert store.put(b"k", long)
        assert store.get(b"k") is long
        assert not store.put(b"k", self.trajectory(4))
        assert store.get(b"k") is long
        assert store.nbytes == long.nbytes

    def test_stored_arrays_are_read_only(self):
        store = prefix.PrefixStore()
        entry = self.trajectory(2)
        store.put(b"k", entry)
        for array in (entry.v, entry.g_v, *(s.u for s in entry.steps)):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_concurrent_puts_keep_the_longest_and_exact_bytes(self):
        store = prefix.PrefixStore()
        lengths = list(range(1, 41))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker(offset):
                for n in lengths[offset::4] + lengths[::-1]:
                    store.put(bytes([n % 3]), self.trajectory(n))

            threads = [threading.Thread(target=worker, args=(i % 4,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        longest = {bytes([k]): max(n for n in lengths if n % 3 == k) for k in range(3)}
        assert {k: len(store.get(k).steps) for k in longest} == longest
        assert store.nbytes == sum(store.get(k).nbytes for k in longest)

    def test_key_reads_design_start_point_and_params(self):
        design = make_design("OR1200", SCALE)
        params = PlacementParams()
        base = prefix.key(design, params, True)
        assert base == prefix.key(make_design("OR1200", SCALE), params, True)
        assert base != prefix.key(design, params, False)
        assert base != prefix.key(design, PlacementParams(seed=8), True)

    def test_no_store_outside_reuse(self):
        assert prefix.active() is None
        with prefix.reuse() as store:
            assert prefix.active() is store
        assert prefix.active() is None


def test_zero_iterations_report_the_start_point():
    design = make_design("OR1200", SCALE)
    result = GlobalPlacer(design, PlacementParams(max_iters=0, min_iters=0)).run()
    assert result.iterations == 0
    assert result.grad_evals == 0
    assert result.history == []
    assert result.hpwl == design.hpwl() > 0


class TestDeterminismMatrix:
    """One request, every execution mode, store cold then warm."""

    CONFIG = api.RunConfig(scale=SCALE, seed=2)

    @staticmethod
    def untimed(summary: dict) -> dict:
        summary = dict(summary, place_seconds=None)
        summary["route"] = dict(summary["route"], runtime=None)
        return summary

    @pytest.fixture(scope="class")
    def reference(self):
        return self.untimed(api.run("OR1200", config=self.CONFIG, route=True).to_summary())

    def served(self, shards: int, repeats: int) -> list:
        async def main():
            service = PlacementService(ServiceConfig(workers=1, shards=shards, capacity=4))
            await service.start()
            try:
                client = ServiceClient(service)
                return [
                    await client.run("OR1200", config=self.CONFIG, route=True,
                                     wait_timeout=300)
                    for _ in range(repeats)
                ]
            finally:
                await service.stop()

        return asyncio.run(main())

    @pytest.mark.parametrize("mode", ["api", "thread", "shards"])
    def test_every_mode_equals_plain_run(self, mode, reference, monkeypatch):
        store = prefix.PrefixStore()
        monkeypatch.setattr(prefix, "_STORE", store)  # cold, also in forked shards
        memo = rsmt_batch.TreeMemo()  # the tree memo as well
        monkeypatch.setattr(rsmt_batch, "_MEMO", memo)
        if mode == "api":
            summaries = []
            for _ in range(2):
                with prefix.reuse():
                    summaries.append(
                        api.run("OR1200", config=self.CONFIG, route=True).to_summary()
                    )
        else:
            # Two shards may each see one cold job before a warm one.
            summaries = self.served(2 if mode == "shards" else 0,
                                    3 if mode == "shards" else 2)
        if mode != "shards":
            assert store.nbytes > 0 and len(memo) > 0  # the later runs were warm
        for summary in summaries:
            assert self.untimed(summary) == reference

    def test_warm_memo_serves_every_tree(self, reference, monkeypatch):
        """Two runs in one process against one tree memo, cold then warm,
        each equal to the plain run."""
        def run():
            return self.untimed(
                api.run("OR1200", config=self.CONFIG, route=True).to_summary()
            )

        monkeypatch.setattr(rsmt_batch, "_MEMO", rsmt_batch.TreeMemo())
        tracer = obs.Tracer()
        for i in range(2):
            with obs.tracing(tracer if i == 1 else None):
                assert run() == reference
        # The second run found every tree the first one stored.
        topologies = [r["attrs"] for r in tracer.ring if r["name"] == "congestion/topologies"]
        assert topologies and all(t["cached"] == t["nets"] for t in topologies)
