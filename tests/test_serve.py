"""Tests for the placement job service (repro.serve)."""

import asyncio
import json
import threading
import time

import pytest

from repro import api, obs
from repro.runtime import stable_hash
from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    HttpServer,
    HttpServiceClient,
    Job,
    JobFailedError,
    PlacementService,
    QueueFullError,
    ResourceManager,
    ResourceStateError,
    ServiceClient,
    ServiceConfig,
    ServiceClosedError,
    UnknownResourceError,
    execute_request,
    make_request,
)


def run_async(coro):
    return asyncio.run(coro)


def make_service(runner, **kwargs):
    defaults = dict(workers=1, capacity=4)
    defaults.update(kwargs)
    return PlacementService(ServiceConfig(**defaults), runner=runner)


def quick_runner(request):
    """Fast fake placement: returns a deterministic summary."""
    return {"design": request["design"], "hpwl": 42.0}


class TestJobLifecycle:
    def test_legal_path_queued_running_done(self):
        job = Job(id="job-1", request={}, key="k")
        assert job.state == QUEUED and not job.terminal
        job.transition(RUNNING)
        assert job.started_at is not None
        job.transition(DONE)
        assert job.terminal and job.finished_at is not None

    def test_cache_hit_shortcut_queued_to_done(self):
        job = Job(id="job-1", request={}, key="k")
        job.transition(DONE)
        assert job.state == DONE

    @pytest.mark.parametrize("terminal", [DONE, FAILED, CANCELLED])
    def test_terminal_states_are_final(self, terminal):
        job = Job(id="job-1", request={}, key="k")
        job.transition(RUNNING if terminal != DONE else DONE)
        if terminal != DONE:
            job.transition(terminal)
        with pytest.raises(ResourceStateError):
            job.transition(RUNNING)

    def test_queued_cannot_fail_directly(self):
        job = Job(id="job-1", request={}, key="k")
        with pytest.raises(ResourceStateError):
            job.transition(FAILED)

    def test_unknown_state_rejected(self):
        job = Job(id="job-1", request={}, key="k")
        with pytest.raises(ResourceStateError):
            job.transition("exploded")

    def test_store_counts_and_order(self):
        store = ResourceManager(Job)
        a = store.add(Job(id=store.new_id(), request={"n": 1}, key="ka"))
        b = store.add(Job(id=store.new_id(), request={"n": 2}, key="kb"))
        assert [j.id for j in store.list()] == [a.id, b.id]
        store.transition(a, RUNNING)
        assert store.counts()[RUNNING] == 1
        assert store.counts()[QUEUED] == 1
        assert [j.id for j in store.list(state=QUEUED)] == [b.id]

    def test_store_unknown_id(self):
        with pytest.raises(UnknownResourceError):
            ResourceManager(Job).get("job-404")

    def test_wire_dict_is_json_safe(self):
        job = Job(id="job-1", request={"design": "OR1200"}, key="k")
        json.dumps(job.to_wire())


class TestServiceLifecycle:
    def test_submit_runs_to_done(self):
        async def main():
            service = await make_service(quick_runner).start()
            client = ServiceClient(service)
            result = await client.run("OR1200", wait_timeout=10)
            assert result == {"design": "OR1200", "hpwl": 42.0}
            job = service.jobs()[0]
            assert job.state == DONE
            assert job.started_at >= job.submitted_at
            assert job.finished_at >= job.started_at
            await service.stop()

        run_async(main())

    def test_runner_exception_marks_failed(self):
        def broken(request):
            raise RuntimeError("no routes for you")

        async def main():
            service = await make_service(broken).start()
            client = ServiceClient(service)
            with pytest.raises(JobFailedError, match="no routes"):
                await client.run("OR1200", wait_timeout=10)
            assert service.jobs()[0].state == FAILED
            await service.stop()

        run_async(main())

    def test_per_job_timeout_fails_the_job(self):
        release = threading.Event()

        def slow(request):
            release.wait(5)
            return {}

        async def main():
            service = await make_service(slow).start()
            job = service.submit(make_request("OR1200", timeout=0.1))
            job = await service.wait(job.id, timeout=10)
            assert job.state == FAILED
            assert "timeout" in job.error
            release.set()
            await service.stop()

        run_async(main())

    def test_cancel_queued_job(self):
        release = threading.Event()

        def slow(request):
            release.wait(5)
            return {}

        async def main():
            # workers=1: the second job stays queued while the first runs.
            service = await make_service(slow).start()
            first = service.submit(make_request("OR1200"))
            second = service.submit(make_request("OR1200", flow="replace"))
            await asyncio.sleep(0.05)
            cancelled = service.cancel(second.id)
            assert cancelled.state == CANCELLED
            release.set()
            first = await service.wait(first.id, timeout=10)
            assert first.state == DONE
            await service.stop()

        run_async(main())

    def test_cancel_running_job_best_effort(self):
        release = threading.Event()

        def slow(request):
            release.wait(5)
            return {}

        async def main():
            service = await make_service(slow).start()
            job = service.submit(make_request("OR1200"))
            while job.state != RUNNING:
                await asyncio.sleep(0.01)
            service.cancel(job.id)
            job = await service.wait(job.id, timeout=10)
            assert job.state == CANCELLED
            release.set()
            await service.stop()

        run_async(main())

    def test_cancel_terminal_job_conflicts(self):
        async def main():
            service = await make_service(quick_runner).start()
            job = service.submit(make_request("OR1200"))
            await service.wait(job.id, timeout=10)
            with pytest.raises(ResourceStateError):
                service.cancel(job.id)
            await service.stop()

        run_async(main())

    def test_drain_refuses_new_work_and_finishes_accepted(self):
        async def main():
            service = await make_service(quick_runner).start()
            job = service.submit(make_request("OR1200"))
            await service.drain()
            assert service.status(job.id).state == DONE
            with pytest.raises(ServiceClosedError):
                service.submit(make_request("OR1200"))
            assert service.healthz()["status"] == "draining"
            await service.stop()

        run_async(main())


class TestValidationBoundary:
    def test_missing_design_rejected(self):
        async def main():
            service = await make_service(quick_runner).start()
            with pytest.raises(ValueError, match="design"):
                service.submit({})
            await service.stop()

        run_async(main())

    def test_unknown_flow_rejected_at_submit(self):
        async def main():
            service = await make_service(quick_runner).start()
            with pytest.raises(api.UnknownFlowError):
                service.submit({"design": "OR1200", "flow": "bogus"})
            await service.stop()

        run_async(main())

    def test_bad_config_rejected_at_submit(self):
        async def main():
            service = await make_service(quick_runner).start()
            with pytest.raises(Exception, match="verify"):
                service.submit(
                    {"design": "OR1200", "config": {"verify": "paranoid"}}
                )
            with pytest.raises(Exception, match="unknown"):
                service.submit(
                    {"design": "OR1200", "config": {"scalee": 0.002}}
                )
            await service.stop()

        run_async(main())

    def test_unknown_request_key_rejected(self):
        async def main():
            service = await make_service(quick_runner).start()
            with pytest.raises(ValueError, match="unknown request keys"):
                service.submit({"design": "OR1200", "designn": "typo"})
            await service.stop()

        run_async(main())

    def test_memo_key_is_normal_form(self):
        """A bare request and its fully-spelled equivalent share a key."""
        async def main():
            service = await make_service(quick_runner, capacity=8).start()
            bare = service.submit({"design": "OR1200"})
            spelled = service.submit(
                {
                    "design": "OR1200",
                    "flow": "puffer",
                    "route": False,
                    "config": api.RunConfig().to_dict(),
                }
            )
            assert bare.key == spelled.key
            assert bare.key == stable_hash(bare.request)
            await service.stop()

        run_async(main())


class TestConcurrentSubmissions:
    """The issue's integration scenario: 8 jobs against a capacity-2 queue."""

    def test_backpressure_completion_cache_and_trace(self, tmp_path):
        release = threading.Event()
        calls = []

        def gated(request):
            calls.append(request["design"])
            release.wait(10)
            return {"design": request["design"], "hpwl": 1.0}

        tracer = obs.Tracer(sinks=[obs.JsonlSink(tmp_path / "serve.jsonl")])
        accepted, rejections = [], []

        async def main():
            service = PlacementService(
                ServiceConfig(workers=1, capacity=2,
                              cache_dir=str(tmp_path / "cache")),
                runner=gated,
            )
            await service.start()
            for seed in range(8):
                config = api.RunConfig(scale=0.002, seed=seed)
                try:
                    accepted.append(
                        service.submit(make_request("OR1200", config=config))
                    )
                except QueueFullError as exc:
                    rejections.append(exc)
            # Capacity 2 + one in flight: at most 3 accepted, rest rejected
            # with a retry-after hint.
            assert len(accepted) >= 1
            assert len(rejections) == 8 - len(accepted)
            assert rejections and all(r.retry_after > 0 for r in rejections)
            release.set()
            jobs = [await service.wait(job.id, timeout=30) for job in accepted]
            assert all(job.state == DONE for job in jobs)

            # Duplicate configs are served from the artifact cache without
            # touching the queue or the runner again.
            runs_before = len(calls)
            duplicate = service.submit(
                make_request("OR1200", config=api.RunConfig(scale=0.002, seed=0))
            )
            assert duplicate.state == DONE
            assert duplicate.cache_hit
            assert duplicate.key == accepted[0].key
            assert len(calls) == runs_before
            assert service.counts["cache_hits"] == 1
            assert service.metrics()["counters"]["rejected"] == len(rejections)
            await service.stop()

        with obs.tracing(tracer):
            run_async(main())
        tracer.close()

        records = obs.read_trace(tmp_path / "serve.jsonl")
        spans = {r["name"] for r in records if r["type"] == "span"}
        assert "serve/request" in spans
        assert "serve/job" in spans
        metrics = {r["name"]: r for r in records if r["type"] == "metric"}
        assert "serve/queue_depth" in metrics
        assert metrics["serve/queue_depth"]["updates"] > 0
        assert metrics["serve/rejected"]["value"] == len(rejections)
        # Every accepted job ran under a serve/job span; the cache-hit
        # duplicate never reached a worker, so it adds no span.
        job_spans = [r for r in records
                     if r["type"] == "span" and r["name"] == "serve/job"]
        assert len(job_spans) == len(accepted)


class TestEventStream:
    """Lifecycle events publish per job and stream via wait/follow."""

    def test_state_events_bracket_the_run(self):
        async def main():
            service = await make_service(quick_runner).start()
            client = ServiceClient(service)
            await client.run("OR1200", wait_timeout=10)
            job = service.jobs()[0]
            events = service.events(job.id)
            assert [e.kind for e in events] == ["state"] * 3
            assert [e.state for e in events] == [QUEUED, RUNNING, DONE]
            assert [e.seq for e in events] == [0, 1, 2]
            assert all(e.job_id == job.id for e in events)
            # `after` slices strictly past the cursor.
            assert [e.seq for e in service.events(job.id, after=1)] == [2]
            assert service.events(job.id, after=99) == []
            await service.stop()

        run_async(main())

    def test_cache_hit_skips_running(self, tmp_path):
        async def main():
            service = await make_service(
                quick_runner, cache_dir=str(tmp_path / "cache")
            ).start()
            first = service.submit(make_request("OR1200"))
            await service.wait(first.id, timeout=10)
            hit = service.submit(make_request("OR1200"))
            assert hit.cache_hit
            states = [e.state for e in service.events(hit.id)]
            assert states == [QUEUED, DONE]
            await service.stop()

        run_async(main())

    def test_events_unknown_job(self):
        async def main():
            service = await make_service(quick_runner).start()
            with pytest.raises(UnknownResourceError):
                service.events("job-404")
            await service.stop()

        run_async(main())

    def test_wait_events_long_polls_until_new_events(self):
        release = threading.Event()

        def gated(request):
            release.wait(5)
            return {"hpwl": 1.0}

        async def main():
            service = await make_service(gated).start()
            job = service.submit(make_request("OR1200"))
            seen, done = await service.wait_events(job.id, after=-1, timeout=5)
            assert seen and not done
            after = seen[-1].seq
            release.set()
            collected = list(seen)
            while not done:
                fresh, done = await service.wait_events(
                    job.id, after=after, timeout=5
                )
                collected.extend(fresh)
                if fresh:
                    after = fresh[-1].seq
            assert [e.state for e in collected] == [QUEUED, RUNNING, DONE]
            await service.stop()

        run_async(main())

    def test_service_client_follow_ends_at_terminal_event(self):
        async def main():
            service = await make_service(quick_runner).start()
            client = ServiceClient(service)
            job = await client.submit("OR1200")
            events = [e async for e in client.follow(job.id, timeout=10)]
            assert events[-1].kind == "state"
            assert events[-1].state == DONE
            assert [e.state for e in events] == [QUEUED, RUNNING, DONE]
            await service.stop()

        run_async(main())

    def test_service_client_run_invokes_progress_callback(self):
        async def main():
            service = await make_service(quick_runner).start()
            client = ServiceClient(service)
            seen = []
            result = await client.run("OR1200", wait_timeout=10,
                                      progress=seen.append)
            assert result["hpwl"] == 42.0
            assert [e.state for e in seen] == [QUEUED, RUNNING, DONE]
            await service.stop()

        run_async(main())


class TestCoalescing:
    """Duplicate in-flight configs share one execution."""

    def test_duplicate_inflight_attaches_and_mirrors_result(self):
        release = threading.Event()
        calls = []

        def gated(request):
            calls.append(request["design"])
            release.wait(5)
            return {"design": request["design"], "hpwl": 1.0}

        async def main():
            service = await make_service(gated).start()
            primary = service.submit(make_request("OR1200"))
            follower = service.submit(make_request("OR1200"))
            straggler = service.submit(make_request("OR1200"))
            assert not primary.coalesced
            assert follower.coalesced and straggler.coalesced
            assert follower.key == primary.key
            # Followers consume no queue slot.
            assert service.metrics()["queue_depth"] <= 1
            assert service.counts["coalesced"] == 2
            release.set()
            jobs = [
                await service.wait(job.id, timeout=10)
                for job in (primary, follower, straggler)
            ]
            assert all(job.state == DONE for job in jobs)
            assert follower.result == primary.result
            assert len(calls) == 1  # one execution served all three
            await service.stop()

        run_async(main())

    def test_coalesced_duplicates_admitted_at_capacity(self):
        release = threading.Event()

        def gated(request):
            release.wait(5)
            return {}

        async def main():
            service = await make_service(gated, capacity=1).start()
            running = service.submit(make_request("OR1200"))
            await asyncio.sleep(0.05)  # worker picks it up, freeing the slot
            queued = service.submit(make_request("OR1200", flow="replace"))
            with pytest.raises(QueueFullError):
                service.submit(make_request("OR1200", flow="wirelength"))
            # ... but a duplicate of in-flight work still gets in.
            dup = service.submit(make_request("OR1200"))
            assert dup.coalesced
            release.set()
            for job in (running, queued, dup):
                assert (await service.wait(job.id, timeout=10)).state == DONE
            await service.stop()

        run_async(main())

    def test_failed_primary_promotes_first_follower(self):
        calls = []

        def flaky(request):
            calls.append(request["design"])
            if len(calls) == 1:
                raise RuntimeError("transient placement failure")
            return {"hpwl": 2.0}

        async def main():
            service = await make_service(flaky).start()
            primary = service.submit(make_request("OR1200"))
            follower = service.submit(make_request("OR1200"))
            done = await service.wait(follower.id, timeout=10)
            assert service.status(primary.id).state == FAILED
            # The follower reran the work instead of inheriting the failure.
            assert done.state == DONE
            assert done.result == {"hpwl": 2.0}
            assert not done.coalesced
            assert len(calls) == 2
            await service.stop()

        run_async(main())


class TestFairnessAndShedding:
    def test_round_robin_interleaves_clients(self):
        release = threading.Event()
        order = []

        def gated(request):
            order.append(request["config"]["seed"])
            release.wait(10)
            return {}

        async def main():
            service = await make_service(gated, capacity=8).start()
            blocker = service.submit(make_request("OR1200", client_id="z"))
            await asyncio.sleep(0.05)  # blocker occupies the single worker
            submitted = []
            # Client "a" floods first; "b" arrives after — round-robin
            # must still interleave them instead of draining "a" first.
            for seed in (1, 2, 3):
                submitted.append(service.submit(make_request(
                    "OR1200", config=api.RunConfig(seed=seed),
                    client_id="a")))
            for seed in (101, 102, 103):
                submitted.append(service.submit(make_request(
                    "OR1200", config=api.RunConfig(seed=seed),
                    client_id="b")))
            release.set()
            for job in [blocker, *submitted]:
                assert (await service.wait(job.id, timeout=10)).state == DONE
            dispatched = order[1:]  # drop the blocker
            clients = ["a" if seed < 100 else "b" for seed in dispatched]
            assert sorted(clients) == ["a", "a", "a", "b", "b", "b"]
            # Every adjacent pair holds one job of each client.
            for i in (0, 2, 4):
                assert set(clients[i:i + 2]) == {"a", "b"}
            await service.stop()

        run_async(main())

    def test_client_weights_skew_dispatch(self):
        release = threading.Event()
        order = []

        def gated(request):
            order.append(request["config"]["seed"])
            release.wait(10)
            return {}

        async def main():
            service = await make_service(
                gated, capacity=8, client_weights={"a": 2, "b": 1}
            ).start()
            blocker = service.submit(make_request("OR1200", client_id="z"))
            await asyncio.sleep(0.05)
            submitted = []
            for seed in (1, 2, 3, 4):
                submitted.append(service.submit(make_request(
                    "OR1200", config=api.RunConfig(seed=seed),
                    client_id="a")))
            for seed in (101, 102):
                submitted.append(service.submit(make_request(
                    "OR1200", config=api.RunConfig(seed=seed),
                    client_id="b")))
            release.set()
            for job in [blocker, *submitted]:
                assert (await service.wait(job.id, timeout=10)).state == DONE
            clients = ["a" if seed < 100 else "b" for seed in order[1:]]
            # Weight 2 lets "a" dispatch twice per cycle: among the first
            # three picks "a" appears twice, yet "b" is never starved.
            assert clients[:3].count("a") == 2
            assert "b" in clients[:3]
            await service.stop()

        run_async(main())

    def test_high_priority_submission_sheds_lowest_queued(self):
        release = threading.Event()
        order = []

        def gated(request):
            order.append(request["config"]["seed"])
            release.wait(10)
            return {}

        async def main():
            service = await make_service(gated, capacity=2).start()
            blocker = service.submit(make_request(
                "OR1200", config=api.RunConfig(seed=99)))
            await asyncio.sleep(0.05)
            low_old = service.submit(make_request(
                "OR1200", config=api.RunConfig(seed=1)))
            low_new = service.submit(make_request(
                "OR1200", config=api.RunConfig(seed=2)))
            assert service.metrics()["queue_depth"] == 2  # full

            urgent = service.submit(make_request(
                "OR1200", config=api.RunConfig(seed=7), priority=5))
            # The newest of the equal-priority queued jobs was displaced;
            # long-waiting work keeps its place.
            victim = service.status(low_new.id)
            assert victim.state == CANCELLED
            assert "load-shed" in victim.error
            assert "priority-5" in victim.error
            assert service.counts["shed"] == 1
            assert service.status(low_old.id).state == QUEUED

            release.set()
            for job in (blocker, low_old, urgent):
                assert (await service.wait(job.id, timeout=10)).state == DONE
            # Priority also orders dispatch: the urgent job ran before
            # the surviving priority-0 job.
            assert order.index(7) < order.index(1)
            await service.stop()

        run_async(main())

    def test_equal_priority_is_rejected_not_shed(self):
        release = threading.Event()

        def gated(request):
            release.wait(10)
            return {}

        async def main():
            service = await make_service(gated, capacity=1).start()
            running = service.submit(make_request("OR1200"))
            await asyncio.sleep(0.05)  # worker picks it up, freeing the slot
            queued = service.submit(make_request("OR1200", flow="replace"))
            with pytest.raises(QueueFullError):
                service.submit(make_request("OR1200", flow="wirelength"))
            assert service.counts["shed"] == 0
            assert service.counts["rejected"] == 1
            assert service.status(queued.id).state == QUEUED
            release.set()
            for job in (running, queued):
                assert (await service.wait(job.id, timeout=10)).state == DONE
            await service.stop()

        run_async(main())


class TestHttpEndpoints:
    @staticmethod
    def serve_in_thread(runner, config=None):
        """Run service + HTTP server in a background event loop.

        Returns ``(client, shutdown)``.
        """
        started = threading.Event()
        box = {}

        def thread_main():
            async def amain():
                service = PlacementService(
                    config or ServiceConfig(workers=1, capacity=4),
                    runner=runner,
                )
                await service.start()
                server = HttpServer(service, port=0)
                host, port = await server.start()
                box["addr"] = (host, port)
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

        return HttpServiceClient(*box["addr"]), shutdown

    def test_full_http_roundtrip(self):
        client, shutdown = self.serve_in_thread(quick_runner)
        try:
            health = client.healthz()
            assert health["ok"] and health["status"] == "serving"

            job = client.submit("OR1200", config=api.RunConfig(scale=0.002))
            assert job["state"] in ("queued", "running", "done")
            job = client.wait(job["id"], timeout=10)
            assert job["state"] == "done"
            assert job["result"]["hpwl"] == 42.0

            listing = client.jobs()
            assert [j["id"] for j in listing] == [job["id"]]
            assert client.jobs(state="done")
            assert client.jobs(state="failed") == []

            metrics = client.metrics()
            assert metrics["counters"]["done"] == 1
        finally:
            shutdown()

    def test_http_error_mapping(self):
        release = threading.Event()

        def slow(request):
            release.wait(5)
            return {}

        client, shutdown = self.serve_in_thread(
            slow, ServiceConfig(workers=1, capacity=1)
        )
        try:
            with pytest.raises(UnknownResourceError):
                client.status("job-404")
            with pytest.raises(ValueError, match="flow"):
                client.submit("OR1200", flow="bogus")

            first = client.submit("OR1200")
            second = client.submit("OR1200", flow="replace")
            with pytest.raises(QueueFullError) as info:
                for seed in range(3):
                    client.submit("OR1200", flow="wirelength",
                                  config=api.RunConfig(seed=seed))
            assert info.value.retry_after > 0

            cancelled = client.cancel(second["id"])
            assert cancelled["state"] == "cancelled"
            release.set()
            done = client.wait(first["id"], timeout=10)
            assert done["state"] == "done"
            with pytest.raises(ResourceStateError):
                client.cancel(first["id"])
        finally:
            shutdown()

    def test_http_run_raises_on_failure(self):
        def broken(request):
            raise RuntimeError("kaboom")

        client, shutdown = self.serve_in_thread(broken)
        try:
            with pytest.raises(JobFailedError, match="kaboom"):
                client.run("OR1200", wait_timeout=10)
        finally:
            shutdown()

    def test_http_events_and_follow(self):
        from repro.serve import JobEvent

        client, shutdown = self.serve_in_thread(quick_runner)
        try:
            job = client.submit("OR1200")
            events = list(client.follow(job["id"], timeout=10))
            assert all(isinstance(e, JobEvent) for e in events)
            assert [e.state for e in events] == ["queued", "running", "done"]
            # The non-blocking read replays the same history...
            replay = client.events(job["id"])
            assert [e.seq for e in replay] == [e.seq for e in events]
            # ...and `after` resumes past a cursor.
            assert client.events(job["id"], after=events[-1].seq) == []
            with pytest.raises(UnknownResourceError):
                client.events("job-404")
        finally:
            shutdown()

    def test_http_run_with_progress_callback(self):
        client, shutdown = self.serve_in_thread(quick_runner)
        try:
            seen = []
            result = client.run("OR1200", wait_timeout=10,
                                progress=seen.append)
            assert result["hpwl"] == 42.0
            assert seen and seen[-1].state == "done"
        finally:
            shutdown()


class TestRealPlacement:
    def test_end_to_end_placement_through_the_service(self, tmp_path):
        """The real runner places a tiny design and returns a summary."""
        from repro.placer import PlacementParams

        config = api.RunConfig(
            scale=0.0015,
            placement=PlacementParams(max_iters=80),
        )

        async def main():
            service = PlacementService(
                ServiceConfig(workers=1, capacity=2,
                              cache_dir=str(tmp_path / "cache"))
            )
            await service.start()
            client = ServiceClient(service)
            result = await client.run("OR1200", config=config, wait_timeout=300)
            assert result["design"] == "OR1200"
            assert result["flow"] == "puffer"
            assert result["hpwl"] > 0
            assert result["place_seconds"] > 0
            json.dumps(result)  # wire-safe
            # Same config again: served from the cache, bit-identical.
            again = await client.submit("OR1200", config=config)
            assert again.state == DONE and again.cache_hit
            assert again.result == result
            await service.stop()

        run_async(main())

    def test_execute_request_summary_shape(self):
        summary = execute_request(
            {
                "design": "OR1200",
                "flow": "wirelength",
                "config": api.RunConfig(scale=0.0015).to_dict(),
            }
        )
        assert summary["flow"] == "wirelength"
        assert summary["route"] is None
        assert summary["verify"] is None
        json.dumps(summary)


class TestHttpDrainAndCancellation:
    """Issue scenario: graceful drain and queued-job cancellation as a
    client on the wire sees them (503s, 409s, terminal states)."""

    @staticmethod
    def serve_in_thread(runner, config=None):
        """Like TestHttpEndpoints.serve_in_thread, but also exposes the
        service and its loop so tests can drive drain() mid-flight."""
        started = threading.Event()
        box = {}

        def thread_main():
            async def amain():
                service = PlacementService(
                    config or ServiceConfig(workers=1, capacity=4),
                    runner=runner,
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

    def test_drain_503_while_finishing_queued_work(self):
        release = threading.Event()

        def gated(request):
            release.wait(10)
            return {"design": request["design"], "hpwl": 1.0}

        client, box, shutdown = self.serve_in_thread(gated)
        try:
            # One running, one still queued behind the single worker.
            running = client.submit("OR1200")
            queued = client.submit("OR1200", flow="replace")

            drain = asyncio.run_coroutine_threadsafe(
                box["service"].drain(), box["loop"]
            )
            # Drain refuses new submissions immediately with a 503 ...
            with pytest.raises(ServiceClosedError):
                client.submit("OR1200", flow="wirelength")
            assert client.healthz()["status"] == "draining"
            # ... while already-accepted work is still finished.
            release.set()
            drain.result(timeout=10)
            assert client.status(running["id"])["state"] == "done"
            assert client.status(queued["id"])["state"] == "done"
            assert client.status(queued["id"])["result"]["hpwl"] == 1.0
        finally:
            release.set()
            shutdown()

    def test_cancel_queued_job_over_http(self):
        release = threading.Event()

        def gated(request):
            release.wait(10)
            return {}

        client, box, shutdown = self.serve_in_thread(
            gated, ServiceConfig(workers=1, capacity=4)
        )
        try:
            running = client.submit("OR1200")
            queued = client.submit("OR1200", flow="replace")
            assert client.status(queued["id"])["state"] == "queued"

            cancelled = client.cancel(queued["id"])
            assert cancelled["state"] == "cancelled"
            # Cancelling a terminal job is a 409 conflict, not a retry.
            with pytest.raises(ResourceStateError):
                client.cancel(queued["id"])

            release.set()
            done = client.wait(running["id"], timeout=10)
            assert done["state"] == "done"
            # The cancelled job never ran: no result, state preserved.
            assert client.status(queued["id"])["state"] == "cancelled"
            assert client.status(queued["id"])["result"] is None
            states = {j["id"]: j["state"] for j in client.jobs()}
            assert states[queued["id"]] == "cancelled"
        finally:
            release.set()
            shutdown()
