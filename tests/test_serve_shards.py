"""Process-shard execution in the placement service (repro.serve).

The issue scenarios: a worker process killed mid-placement fails only
its job (the shard recycles, the service keeps serving), per-job
timeouts and cancellation actually terminate the worker process, and a
real placement streams gp-iteration progress events over HTTP while it
runs.

Runner fakes live at module level so the fork start method can carry
them into the shard workers.
"""

import asyncio
import json
import os
import signal
import threading
import time

import pytest

from repro import api, obs
from repro.serve.events import ProgressTracer, progress_from_record, read_new_progress
from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    HttpServer,
    HttpServiceClient,
    PlacementService,
    ServiceClient,
    ServiceConfig,
)


def run_async(coro):
    return asyncio.run(coro)


def _seed(request) -> int:
    return request["config"]["seed"]


def quick_runner(request):
    return {"design": request["design"], "pid": os.getpid(), "hpwl": 42.0}


def crashy_runner(request):
    """Seed 9 dies like a segfault; anything else answers normally."""
    if _seed(request) == 9:
        os.kill(os.getpid(), signal.SIGKILL)
    return quick_runner(request)


def sleepy_runner(request):
    """Sleeps seed/10 seconds — per-job control over run time."""
    time.sleep(_seed(request) / 10.0)
    return quick_runner(request)


class TestShardExecution:
    def test_jobs_run_out_of_process(self):
        async def main():
            service = PlacementService(
                ServiceConfig(shards=1, capacity=4), runner=quick_runner
            )
            await service.start()
            client = ServiceClient(service)
            result = await client.run("OR1200", wait_timeout=30)
            assert result["pid"] != os.getpid()
            job = service.jobs()[0]
            assert job.shard == 0
            assert service.healthz()["shards"][0]["jobs_run"] >= 1
            await service.stop()

        run_async(main())

    def test_two_shards_use_distinct_workers(self):
        release = threading.Event()

        async def main():
            service = PlacementService(
                ServiceConfig(shards=2, capacity=4), runner=sleepy_runner
            )
            await service.start()
            client = ServiceClient(service)
            # Both jobs sleep briefly so they overlap across the shards.
            a = await client.submit("OR1200", config=api.RunConfig(seed=3))
            b = await client.submit("OR1200",
                                    config=api.RunConfig(seed=3, scale=0.005))
            a = await service.wait(a.id, timeout=30)
            b = await service.wait(b.id, timeout=30)
            assert a.state == DONE and b.state == DONE
            assert {a.shard, b.shard} == {0, 1}
            assert a.result["pid"] != b.result["pid"]
            await service.stop()

        run_async(main())

    def test_worker_killed_mid_placement_fails_only_its_job(self):
        async def main():
            service = PlacementService(
                ServiceConfig(shards=1, capacity=4), runner=crashy_runner
            )
            await service.start()
            client = ServiceClient(service)
            doomed = await client.submit("OR1200", config=api.RunConfig(seed=9))
            doomed = await service.wait(doomed.id, timeout=30)
            assert doomed.state == FAILED
            assert "worker died" in doomed.error
            # The service never went down and the shard recycled: the
            # next submission runs in a fresh worker process.
            assert service.healthz()["ok"]
            result = await client.run(
                "OR1200", config=api.RunConfig(seed=1), wait_timeout=30
            )
            assert result["hpwl"] == 42.0
            await service.stop()

        run_async(main())

    def test_timeout_kills_the_worker_process(self):
        async def main():
            service = PlacementService(
                ServiceConfig(shards=1, capacity=4), runner=sleepy_runner
            )
            await service.start()
            client = ServiceClient(service)
            # Sleeps 5s against a 0.3s budget.
            hog = await client.submit(
                "OR1200", config=api.RunConfig(seed=50), timeout=0.3
            )
            start = time.monotonic()
            hog = await service.wait(hog.id, timeout=30)
            elapsed = time.monotonic() - start
            assert hog.state == FAILED
            assert "timeout after 0.3s" in hog.error
            assert "worker killed" in hog.error
            # The kill reclaimed the core: nowhere near the 5s sleep.
            assert elapsed < 4.0
            # The shard recycled for the next job.
            result = await client.run(
                "OR1200", config=api.RunConfig(seed=1), wait_timeout=30
            )
            assert result["hpwl"] == 42.0
            await service.stop()

        run_async(main())

    def test_cancel_running_job_terminates_the_worker(self):
        async def main():
            service = PlacementService(
                ServiceConfig(shards=1, capacity=4), runner=sleepy_runner
            )
            await service.start()
            client = ServiceClient(service)
            job = await client.submit("OR1200", config=api.RunConfig(seed=50))
            while service.status(job.id).state != RUNNING:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.1)  # let the worker start sleeping
            start = time.monotonic()
            service.cancel(job.id)
            job = await service.wait(job.id, timeout=30)
            assert job.state == CANCELLED
            # Cancellation killed the process instead of waiting out the
            # 5s sleep (thread mode can only discard the result).
            assert time.monotonic() - start < 4.0
            result = await client.run(
                "OR1200", config=api.RunConfig(seed=1), wait_timeout=30
            )
            assert result["hpwl"] == 42.0
            await service.stop()

        run_async(main())


class TestShardProgressOverHttp:
    """A real placement on process shards streams progress over HTTP."""

    @pytest.fixture(scope="class")
    def server(self):
        started = threading.Event()
        box = {}

        def thread_main():
            async def amain():
                service = PlacementService(
                    ServiceConfig(shards=2, capacity=4)
                )
                await service.start()
                http_server = HttpServer(service, port=0)
                box["addr"] = await http_server.start()
                box["stop"] = asyncio.Event()
                started.set()
                await box["stop"].wait()
                await http_server.close()
                await service.stop()

            box["loop"] = asyncio.new_event_loop()
            box["loop"].run_until_complete(amain())
            box["loop"].close()

        thread = threading.Thread(target=thread_main, daemon=True)
        thread.start()
        assert started.wait(30)
        yield HttpServiceClient(*box["addr"])
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(30)

    def test_follow_streams_gp_iterations_for_a_real_placement(self, server):
        from repro.placer import PlacementParams

        config = api.RunConfig(
            scale=0.0015, placement=PlacementParams(max_iters=40)
        )
        job = server.submit("OR1200", config=config)
        events = list(server.follow(job["id"], timeout=300))
        assert events[-1].state == "done"

        progress = [e.progress for e in events if e.kind == "progress"]
        stages = {p.stage for p in progress}
        assert "gp" in stages  # gp-iteration spans crossed the process
        gp = [p for p in progress if p.stage == "gp"]
        assert len(gp) > 1
        assert [p.step for p in gp] == sorted(p.step for p in gp)
        assert all("hpwl" in p.metrics for p in gp)

        job = server.status(job["id"])
        assert job["state"] == "done"
        assert job["shard"] in (0, 1)
        assert job["result"]["hpwl"] > 0

    def test_follow_and_replay_return_equal_events(self, server):
        # The log keeps progress packed: every read rebuilds the same events.
        from repro.placer import PlacementParams

        config = api.RunConfig(
            scale=0.0015, seed=5, placement=PlacementParams(max_iters=30)
        )
        job = server.submit("OR1200", config=config)
        followed = list(server.follow(job["id"], timeout=300))
        assert sum(e.kind == "progress" for e in followed) > 10
        assert server.events(job["id"]) == followed
        assert server.events(job["id"], after=5) == followed[6:]

    def test_run_with_progress_callback_sees_live_events(self, server):
        from repro.placer import PlacementParams

        config = api.RunConfig(
            scale=0.0015, seed=3, placement=PlacementParams(max_iters=30)
        )
        seen = []
        result = server.run("OR1200", config=config, wait_timeout=300,
                            progress=seen.append)
        assert result["hpwl"] > 0
        assert any(e.kind == "progress" for e in seen)
        assert seen[-1].state == "done"


class TestProgressTracer:
    """Shard workers record the progress spans and nothing else."""

    def test_only_progress_spans_reach_the_writer(self, tmp_path):
        path = str(tmp_path / "job.progress")
        tracer = ProgressTracer(sinks=[obs.JsonlSink(path)])
        with obs.tracing(tracer):
            with obs.span("flow/place"):
                with obs.span("density/movable"):
                    pass
                for i in range(3):
                    with obs.span("gp/iteration", i=i) as sp:
                        sp.set(hpwl=10.0 / (i + 1), overflow=0.5 - 0.1 * i)
                with obs.span("route/rrr_round", round=0) as sp:
                    sp.set(hof=0.25, vof=0.0)
                obs.counter("maze/calls").inc()
                obs.histogram("gp/overflow").observe(0.5)
                obs.event("runtime/task", key="k")
        tracer.close()
        assert [r["name"] for r in tracer.ring] == ["gp/iteration"] * 3 + [
            "route/rrr_round"
        ]
        assert tracer.metrics() == {}
        samples, offset = read_new_progress(path)
        assert [(p.stage, p.step) for p in samples] == [
            ("gp", 0), ("gp", 1), ("gp", 2), ("route", 0)
        ]
        assert samples == [progress_from_record(r) for r in tracer.ring]
        assert samples[0].metrics == {"hpwl": 10.0, "overflow": 0.5}
        # The file is the obs trace of the progress spans, one line each.
        with open(path) as f:
            lines = f.read().splitlines(keepends=True)
        assert offset == sum(len(line.encode()) for line in lines)
        assert len(lines) == len(tracer.ring)
        for line, record in zip(lines, tracer.ring):
            assert line == json.dumps(record, separators=(",", ":")) + "\n"

    def test_reader_skips_garbage_and_waits_for_torn_lines(self, tmp_path):
        path = tmp_path / "job.progress"
        span = {"type": "span", "name": "gp/iteration", "attrs": {"i": 7, "hpwl": 2.0}}
        path.write_text(
            "not json\n[1]\n"
            + json.dumps({"type": "event", "name": "gp/iteration"}) + "\n"
            + json.dumps(span) + "\n" + json.dumps(span)[:10]
        )
        samples, offset = read_new_progress(str(path))
        assert [(p.stage, p.step, p.metrics) for p in samples] == [
            ("gp", 7, {"hpwl": 2.0})
        ]
        assert read_new_progress(str(path), offset) == ([], offset)
        with open(path, "a") as f:
            f.write(json.dumps(span)[10:] + "\n")
        assert len(read_new_progress(str(path), offset)[0]) == 1
