"""Distributed strategy exploration through the placement service.

Covers the three layers of :mod:`repro.serve.exploration`: the
:class:`DistributedEvaluator` batch contract (including journal resume
and failure quarantine), the :class:`ExplorationManager` lifecycle
behind ``/v1/explorations`` (in-process and over HTTP), and the
acceptance-criteria bit-identity of distributed-vs-serial exploration
at ``batch_size=1``.  Placements are faked with a deterministic runner
so every test is a function of the strategy parameters alone.
"""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro import api
from repro.core import exploration as core_exploration
from repro.core.strategy import StrategyParams, default_space
from repro.runtime import ArtifactCache, Journal
from repro.serve import (
    DistributedEvaluator,
    ExplorationCancelledError,
    LocalServiceHost,
    ResourceStateError,
    ServiceConfig,
    UnknownResourceError,
)
from repro.tpe import Space, TransferPriors, Uniform, design_features


def _fake_raw(params):
    """Deterministic stand-in for the placement+routing evaluation."""
    alpha = float(params.get("alpha_local_cg", 1.0))
    beta = float(params.get("beta", 1.0))
    mu = float(params.get("mu", 1.0))
    return (
        (alpha - 1.1) ** 2 + 0.3 * (beta - 0.9) ** 2 + 0.01 * (mu - 2.0) ** 2,
        1000.0 + 10.0 * alpha + mu,
    )


def _strategy_of(request):
    strategy = (request.get("config") or {}).get("strategy") or {}
    return StrategyParams.from_dict(strategy).to_dict()


def _explore_runner(request):
    """Service-side twin of :func:`_fake_raw` (module-level: picklable)."""
    params = _strategy_of(request)
    overflow, wirelength = _fake_raw(params)
    return {
        "design": request["design"], "flow": "puffer", "hpwl": 1.0,
        "place_seconds": 0.0,
        "route": {
            "hof": 0.0, "vof": 0.0, "total_overflow": overflow,
            "wirelength": wirelength, "runtime": 0.0, "rounds": 1,
            "num_segments": 1, "via_count": 1,
        },
        "verify": None,
    }


def _poisoned_runner(request):
    """Fails the job whenever the candidate carries the poison marker."""
    params = _strategy_of(request)
    if params["mu"] == 77.0:
        raise RuntimeError("router diverged")
    return _explore_runner(request)


def _poisoned_raw(params):
    """Local twin of :func:`_poisoned_runner` (same params, same raws)."""
    params = StrategyParams.from_dict(params).to_dict()
    if params["mu"] == 77.0:
        raise RuntimeError("router diverged")
    return _fake_raw(params)


def _slow_runner(request):
    time.sleep(0.2)
    return _explore_runner(request)


def _on_loop(host, fn, *args, **kwargs):
    """Run a manager/client call on the hosted service loop."""

    async def call():
        result = fn(*args, **kwargs)
        if asyncio.iscoroutine(result):
            result = await result
        return result

    return asyncio.run_coroutine_threadsafe(call(), host.loop).result(60)


class TestDistributedEvaluator:
    def test_batch_contract_matches_local_evaluator(self):
        config = api.ExploreConfig(budget=4, priors="off")
        batch = [{"mu": 2.0}, {"mu": 3.0, "beta": 0.5}]
        with LocalServiceHost(
            ServiceConfig(workers=1), runner=_explore_runner
        ) as host:
            evaluator = host.evaluator(config)
            losses = evaluator(batch)
        assert evaluator.jobs_submitted == 2
        assert len(losses) == len(evaluator.last_details) == 2
        details = evaluator.last_details
        for detail in details:
            assert not detail["cached"]
            assert detail["overflow"] >= 0.0 and detail["wirelength"] > 0.0
        # Loss shaping is parent-side: first trial sets the wirelength
        # reference, exactly like the serial objective.
        raw0 = _fake_raw(StrategyParams.from_dict(batch[0]).to_dict())
        assert losses[0] == pytest.approx(raw0[0])

    def test_failed_job_scores_penalty_and_journals(self, tmp_path):
        config = api.ExploreConfig(budget=4, priors="off")
        journal = Journal(tmp_path / "explore.jsonl")
        with LocalServiceHost(
            ServiceConfig(workers=1), runner=_poisoned_runner
        ) as host:
            evaluator = host.evaluator(config, journal=journal)
            losses = evaluator([{"mu": 77.0}, {"mu": 2.0}])
        assert losses[0] == core_exploration.FAILED_TRIAL_LOSS
        assert losses[1] < 1e6
        assert evaluator.last_details[0]["failed"]
        assert "router diverged" in evaluator.last_details[0]["error"]
        kinds = {
            ("failed" in record): record for record in journal.records()
        }
        assert True in kinds and False in kinds  # one failure, one success

    def test_journal_resume_skips_completed_and_failed_trials(self, tmp_path):
        config = api.ExploreConfig(budget=4, priors="off")
        journal = Journal(tmp_path / "explore.jsonl")
        batch = [{"mu": 77.0}, {"mu": 2.0}]
        with LocalServiceHost(
            ServiceConfig(workers=1), runner=_poisoned_runner
        ) as host:
            first = host.evaluator(config, journal=journal)
            first_losses = first(batch)
            # A fresh evaluator over the same journal replays both
            # outcomes without submitting a single job.
            second = host.evaluator(config, journal=Journal(journal.path))
            second_losses = second(batch)
        assert second.jobs_submitted == 0
        assert second_losses == first_losses
        assert all(d["cached"] for d in second.last_details)
        assert second.last_details[0]["failed"]

    def test_cancel_raises_before_any_submit(self):
        evaluator = DistributedEvaluator(None, api.ExploreConfig())
        evaluator.cancel()
        assert evaluator.cancelled
        with pytest.raises(ExplorationCancelledError):
            evaluator([{"mu": 2.0}])

    @pytest.mark.parametrize("writer", ["local", "distributed"])
    def test_cross_transport_resume(self, tmp_path, monkeypatch, writer):
        """A journal written by either transport replays under the other:
        same losses, same cached/failed details, no evaluation."""
        config = api.ExploreConfig(budget=4, priors="off")
        batch = [{"mu": 77.0}, {"mu": 2.0}]
        objective = config.objective()
        raw_calls = []

        def fake_raw(params):
            raw_calls.append(params)
            return _poisoned_raw(params)

        monkeypatch.setattr(objective, "evaluate_raw", fake_raw)
        journal = Journal(tmp_path / "explore.jsonl")
        with LocalServiceHost(
            ServiceConfig(workers=1), runner=_poisoned_runner
        ) as host:
            if writer == "local":
                first = core_exploration.make_batch_evaluator(
                    objective, journal=journal
                )
            else:
                first = host.evaluator(config, journal=journal)
            first_losses = first(batch)
            first_details = first.last_details
            if writer == "local":
                second = host.evaluator(config, journal=Journal(journal.path))
            else:
                second = core_exploration.make_batch_evaluator(
                    objective, journal=Journal(journal.path)
                )
            raw_calls.clear()
            jobs_before = sum(host.service.healthz()["jobs"].values())
            second_losses = second(batch)
            jobs_after = sum(host.service.healthz()["jobs"].values())
        assert first_losses[0] == core_exploration.FAILED_TRIAL_LOSS
        assert second_losses == first_losses
        assert all(d["cached"] for d in second.last_details)
        assert [d.get("failed", False) for d in second.last_details] == [
            d.get("failed", False) for d in first_details
        ]
        assert raw_calls == []
        assert jobs_after == jobs_before

    def test_cancel_mid_wave_aborts_without_journaling(self, tmp_path):
        """A cancel raised by the transport aborts the batch: it is not a
        failed trial, so nothing is journaled."""
        config = api.ExploreConfig(budget=4, priors="off")
        journal = Journal(tmp_path / "explore.jsonl")
        with LocalServiceHost(
            ServiceConfig(workers=1), runner=_slow_runner
        ) as host:
            evaluator = host.evaluator(config, journal=journal)
            submit = evaluator._submit

            def submit_then_cancel(params):
                job_id = submit(params)
                canceller = threading.Thread(target=evaluator.cancel)
                canceller.start()
                canceller.join()
                return job_id

            evaluator._submit = submit_then_cancel
            with pytest.raises(ExplorationCancelledError):
                evaluator([{"mu": 2.0}, {"mu": 3.0}])
        assert evaluator.jobs_submitted == 1
        assert not any("failed" in record for record in journal.records())

    def test_full_exploration_through_the_service(self):
        config = api.ExploreConfig(budget=6, batch_size=2, priors="off")
        with LocalServiceHost(
            ServiceConfig(workers=2), runner=_explore_runner
        ) as host:
            outcome = api.run_exploration(config, evaluator=host.evaluator(config))
        assert outcome.wire.evaluations >= config.budget
        assert outcome.wire.best_loss < 5.0
        assert len(outcome.trials) == outcome.wire.evaluations


class TestSerialDistributedBitIdentity:
    def test_batch_size_one_is_bit_identical(self, monkeypatch):
        """Acceptance criterion: the distributed evaluator is pure
        transport — at ``batch_size=1`` every wire field matches the
        serial run exactly."""
        monkeypatch.setattr(
            core_exploration.PlacementObjective, "evaluate_raw",
            lambda self, params: _fake_raw(params),
        )
        config = api.ExploreConfig(budget=6, batch_size=1, priors="off")
        serial = api.run_exploration(config)
        with LocalServiceHost(
            ServiceConfig(workers=1), runner=_explore_runner
        ) as host:
            distributed = api.run_exploration(
                config, evaluator=host.evaluator(config)
            )
        assert serial.wire.best_loss == distributed.wire.best_loss
        assert serial.wire.best_params == distributed.wire.best_params
        assert serial.wire.evaluations == distributed.wire.evaluations
        assert serial.wire.history == distributed.wire.history
        assert serial.wire.params == distributed.wire.params
        assert [t.loss for t in serial.trials] == [
            t.loss for t in distributed.trials
        ]
        assert [t.params for t in serial.trials] == [
            t.params for t in distributed.trials
        ]


class TestExplorationManager:
    def test_lifecycle_events_and_report(self):
        config = api.ExploreConfig(budget=4, batch_size=2, priors="off")
        with LocalServiceHost(
            ServiceConfig(workers=2), runner=_explore_runner
        ) as host:
            exploration = _on_loop(host, host.client.create_exploration, config)
            assert exploration.state == "running"
            final = _on_loop(
                host, host.client.wait_exploration, exploration.id, timeout=60
            )
            events = _on_loop(
                host, host.client.exploration_events, exploration.id
            )
            report = _on_loop(
                host, host.client.exploration_report, exploration.id
            )
            listed = _on_loop(host, host.client.explorations)
            counts = host.service.healthz()["explorations"]
        assert final.state == "done"
        trial_events = [e for e in events if e.kind == "trial"]
        assert len(trial_events) == final.trials == report["evaluations"]
        assert trial_events[0].trial.stage == "global"
        assert [e.state for e in events if e.kind == "state"] == [
            "running", "done",
        ]
        assert report["best_loss"] == final.to_wire()["best_loss"]
        assert [e.id for e in listed] == [exploration.id]
        assert counts["done"] == 1 and counts["running"] == 0

    def test_unknown_and_premature_report(self):
        with LocalServiceHost(
            ServiceConfig(workers=1), runner=_explore_runner
        ) as host:
            with pytest.raises(UnknownResourceError):
                _on_loop(host, host.client.exploration, "explore-404")
            config = api.ExploreConfig(budget=2, priors="off")
            exploration = _on_loop(host, host.client.create_exploration, config)
            _on_loop(host, host.client.wait_exploration, exploration.id,
                     timeout=60)

    def test_cancel_is_cooperative(self):
        config = api.ExploreConfig(budget=40, priors="off")
        with LocalServiceHost(
            ServiceConfig(workers=1), runner=_slow_runner
        ) as host:
            exploration = _on_loop(host, host.client.create_exploration, config)
            _on_loop(host, host.client.cancel_exploration, exploration.id)
            final = _on_loop(
                host, host.client.wait_exploration, exploration.id, timeout=60
            )
            assert final.state == "cancelled"
            # A report never exists for a cancelled exploration, and a
            # second cancel is an explicit state error.
            with pytest.raises(ResourceStateError):
                _on_loop(host, host.client.exploration_report, exploration.id)
            with pytest.raises(ResourceStateError):
                _on_loop(host, host.client.cancel_exploration, exploration.id)

    def test_create_validates_request(self):
        with LocalServiceHost(
            ServiceConfig(workers=1), runner=_explore_runner
        ) as host:
            manager = host.service.explorations
            with pytest.raises(ValueError, match="unknown request keys"):
                _on_loop(host, manager.create, {"bogus": 1})
            from repro.schema import SchemaError

            with pytest.raises(SchemaError, match="budgett"):
                _on_loop(host, manager.create, {"config": {"budgett": 3}})
            with pytest.raises(ValueError, match="priority"):
                _on_loop(host, manager.create, {"priority": "high"})


class TestExplorationHttp:
    """The ``/v1/explorations`` resource end to end over HTTP."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.serve import HttpServer, PlacementService

        started = threading.Event()
        box = {}

        def thread_main():
            async def amain():
                service = PlacementService(
                    ServiceConfig(workers=2, capacity=8),
                    runner=_explore_runner,
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
        assert started.wait(10)
        yield box["addr"]
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(10)

    @staticmethod
    def request(addr, method, path, payload=None):
        conn = http.client.HTTPConnection(*addr, timeout=30)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return (
                response.status,
                dict(response.getheaders()),
                json.loads(response.read().decode("utf-8")),
            )
        finally:
            conn.close()

    def _await_done(self, server, exploration_id, deadline=60.0):
        limit = time.monotonic() + deadline
        while time.monotonic() < limit:
            status, _, payload = self.request(
                server, "GET", f"/v1/explorations/{exploration_id}"
            )
            assert status == 200
            if payload["state"] in ("done", "failed", "cancelled"):
                return payload
            time.sleep(0.05)
        raise AssertionError("exploration did not finish in time")

    def test_create_stream_and_report(self, server):
        config = api.ExploreConfig(budget=3, batch_size=2, priors="off")
        status, _, created = self.request(
            server, "POST", "/v1/explorations", {"config": config.to_dict()}
        )
        assert status == 202
        assert created["state"] == "running" and created["id"]
        final = self._await_done(server, created["id"])
        assert final["state"] == "done"
        assert final["best_loss"] is not None

        status, _, stream = self.request(
            server, "GET",
            f"/v1/explorations/{created['id']}/events?after=-1",
        )
        assert status == 200 and stream["stream_done"]
        kinds = [event["kind"] for event in stream["events"]]
        assert kinds[0] == "state" and "trial" in kinds
        assert stream["next_after"] == stream["events"][-1]["seq"]

        status, _, report = self.request(
            server, "GET", f"/v1/explorations/{created['id']}/report"
        )
        assert status == 200
        assert report["best_loss"] == final["best_loss"]
        assert report["evaluations"] == final["evaluations"]
        assert len(report["trials"]) == report["evaluations"]

        status, _, listing = self.request(server, "GET", "/v1/explorations")
        assert status == 200
        assert created["id"] in [e["id"] for e in listing["explorations"]]
        status, _, filtered = self.request(
            server, "GET", "/v1/explorations?state=done"
        )
        assert created["id"] in [e["id"] for e in filtered["explorations"]]

    def test_error_statuses(self, server):
        status, _, payload = self.request(
            server, "GET", "/v1/explorations/explore-404"
        )
        assert status == 404 and "error" in payload

        status, _, payload = self.request(
            server, "POST", "/v1/explorations",
            {"config": {"budget": 0}},
        )
        assert status == 400

        status, _, payload = self.request(
            server, "POST", "/v1/explorations", {"config": {"budgett": 2}}
        )
        assert status == 400

        # A finished exploration rejects cancellation with 409.
        config = api.ExploreConfig(budget=2, priors="off")
        _, _, created = self.request(
            server, "POST", "/v1/explorations", {"config": config.to_dict()}
        )
        self._await_done(server, created["id"])
        status, _, payload = self.request(
            server, "DELETE", f"/v1/explorations/{created['id']}"
        )
        assert status == 409 and "error" in payload


class TestTransferPriors:
    def test_save_load_round_trip_and_bucketing(self, tmp_path):
        priors = TransferPriors(ArtifactCache(tmp_path))
        space = default_space()
        features = {"cells_log2": 5, "nets_log2": 6, "utilization": 0.4}
        priors.save(
            space, features,
            [({"mu": 2.0}, 0.1),
             ({"mu": 3.0}, core_exploration.FAILED_TRIAL_LOSS)],
        )
        loaded = priors.load(space, features)
        assert loaded == [({"mu": 2.0}, 0.1)]  # penalty losses dropped
        # A near-miss design class still benefits (fallback buckets).
        other = dict(features, cells_log2=9)
        assert priors.load(space, other) == [({"mu": 2.0}, 0.1)]
        # An incompatible space never replays foreign observations.
        assert priors.load(Space([Uniform("mu", 0.0, 1.0)]), features) == []

    def test_run_exploration_persists_and_reloads_priors(
        self, tmp_path, monkeypatch, tiny_design
    ):
        monkeypatch.setattr(
            core_exploration.PlacementObjective, "evaluate_raw",
            lambda self, params: _fake_raw(params),
        )
        monkeypatch.setattr(api, "resolve_design", lambda *a, **k: tiny_design)
        priors = TransferPriors(ArtifactCache(tmp_path))
        config = api.ExploreConfig(budget=4, priors="auto")
        first = api.run_exploration(config, priors=priors)
        stored = priors.load(
            default_space(), design_features(tiny_design), limit=128
        )
        assert 0 < len(stored) <= first.wire.evaluations
        # The second exploration warm-starts and accumulates more.
        api.run_exploration(config, priors=priors)
        grown = priors.load(
            default_space(), design_features(tiny_design), limit=1024
        )
        assert len(grown) >= len(stored)

    def test_priors_off_never_touches_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            core_exploration.PlacementObjective, "evaluate_raw",
            lambda self, params: _fake_raw(params),
        )
        priors = TransferPriors(ArtifactCache(tmp_path))
        config = api.ExploreConfig(budget=3, priors="off")
        api.run_exploration(config, priors=priors)
        assert priors.load(default_space(), {"cells_log2": 1}) == []
