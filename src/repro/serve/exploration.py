"""Distributed strategy exploration: TPE trials as placement-service jobs.

Strategy exploration (paper Sec. III-C) is embarrassingly parallel
inside each TPE round — the sampler suggests ``batch_size`` candidates
before any of them is evaluated.  This module evaluates those
candidates on :class:`repro.serve.service.PlacementService`, so every
trial inherits the service's whole stack for free: execution shards,
submit-time memoization and in-flight coalescing, the shared-design
cache, fair queueing, and crash quarantine (a trial that kills its
worker fails *that job*, not the exploration).

Three layers:

* :class:`DistributedEvaluator` — the remote *transport* of
  :func:`repro.core.exploration.make_batch_evaluator`.  Each candidate
  becomes one job request (``route=True``, the candidate's
  :class:`~repro.core.strategy.StrategyParams` inside a
  :class:`repro.api.RunConfig`); the whole wave is submitted before any
  result is awaited, so trials saturate every shard, and raw
  ``(total_overflow, wirelength)`` results come back in suggestion
  order.  Journal replay, failed-trial journaling, the
  :data:`repro.core.exploration.FAILED_TRIAL_LOSS` penalty and the
  parent-side loss shaping all stay in ``make_batch_evaluator`` — the
  same code the local evaluator runs, which is why ``batch_size=1``
  through the service is bit-identical to the serial loop and either
  transport can ``--resume`` the other's journal.
* :class:`ExplorationManager` — the ``/v1/explorations`` resource:
  creates explorations from :class:`repro.api.ExploreConfig` wire
  payloads, drives :func:`repro.api.run_exploration` on a worker thread
  with a :class:`DistributedEvaluator` over the owning service, streams
  every completed trial as a ``kind="trial"``
  :class:`repro.schema.JobEvent` on the exploration's event stream
  (long-polled by ``GET /v1/explorations/<id>/events``), and serves the final
  :class:`repro.schema.ExplorationReport` wire record.  When the
  service has an artifact cache, completed trials persist as
  :class:`repro.tpe.TransferPriors` and warm-start later explorations
  on similar designs.
* :class:`LocalServiceHost` — a context manager booting a service (and
  its event loop) on a helper thread so *synchronous* callers — the
  ``repro explore --jobs N`` CLI and the explore benchmark — can use a
  :class:`DistributedEvaluator` without owning an event loop.

Cancellation is cooperative and best-effort: ``DELETE`` sets a flag the
evaluator checks before every submit and between result waits; jobs
already on the queue run to completion (they are plain service jobs and
their results still land in the cache).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

from .. import obs
from .client import JobFailedError, ServiceClient, as_wire
from .queueing import scheduling_hints
from .resources import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    QueueFullError,
    Resource,
    ResourceManager,
    ResourceStateError,
    ServeError,
)

#: Request keys accepted by ``POST /v1/explorations``.
_EXPLORE_KEYS = frozenset({"config", "priority", "client_id"})


class ExplorationCancelledError(ServeError):
    """Raised inside the exploration thread after a cancel request."""


class DistributedEvaluator:
    """Evaluate TPE candidate batches as placement-service jobs.

    A batch evaluator for :func:`repro.tpe.minimize` /
    :func:`repro.api.run_exploration`: a
    :func:`repro.core.exploration.make_batch_evaluator` over
    ``config.objective()`` whose transport runs each candidate as one
    job through a service client — in-process
    (:class:`~repro.serve.client.ServiceClient`, needs the service
    ``loop``) or remote (:class:`~repro.serve.client.HttpServiceClient`).
    This class only submits, awaits and cancels; the shared evaluator
    owns journaling, penalties, loss shaping and ``last_details``.

    Args:
        client: a :class:`~repro.serve.client.BaseClient`.
        config: the :class:`repro.api.ExploreConfig` being explored —
            provides the design, scale, and wirelength weight every
            trial shares.
        loop: the service's event loop, required when ``client`` is the
            async in-process client (calls hop over via
            ``run_coroutine_threadsafe``); ignored for sync clients.
        journal: optional :class:`repro.runtime.Journal` handed to the
            shared evaluator (replays and records like the local one).
        timeout: per-trial wall-clock budget, seconds (becomes the job
            timeout; ``None`` = unlimited).
        priority: fair-queue priority of every submitted job.
        client_id: fair-queue bucket of every submitted job.
    """

    def __init__(self, client, config, *, loop=None, journal=None,
                 timeout: float | None = None, priority: int = 0,
                 client_id: str = "explore") -> None:
        from ..core.exploration import make_batch_evaluator

        self.client = client
        self.config = config
        self.loop = loop
        self.timeout = timeout
        self.priority = int(priority)
        self.client_id = client_id
        self.jobs_submitted = 0
        self._cancelled = threading.Event()
        # The service caches trial results itself, so no cache here.
        self._evaluate = make_batch_evaluator(
            config.objective(), journal=journal,
            transport=self._evaluate_remote,
        )

    # -- cancellation --------------------------------------------------

    def cancel(self) -> None:
        """Request a cooperative stop: the next submit/wait checkpoint
        raises :class:`ExplorationCancelledError`."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def _check_cancelled(self) -> None:
        if self._cancelled.is_set():
            raise ExplorationCancelledError("exploration cancelled")

    # -- transport -----------------------------------------------------

    def _call(self, method, *args, **kwargs):
        """Invoke a client method, bridging async clients onto ``loop``."""
        outcome = method(*args, **kwargs)
        if asyncio.iscoroutine(outcome):
            if self.loop is None:
                outcome.close()
                raise ValueError(
                    "an async client needs the service event loop (loop=)"
                )
            return asyncio.run_coroutine_threadsafe(outcome, self.loop).result()
        return outcome

    def _submit(self, params: dict):
        """Submit one candidate, riding out backpressure.

        A full queue is expected at ``batch_size > capacity``: earlier
        jobs free their slots as they finish, so retrying after the
        server's hint always converges.
        """
        from ..api import RunConfig
        from ..core.strategy import StrategyParams

        wire = RunConfig(
            scale=self.config.scale,
            strategy=StrategyParams.from_dict(params),
        ).to_dict()
        while True:
            self._check_cancelled()
            try:
                job = self._call(
                    self.client.submit, self.config.design, config=wire,
                    route=True, timeout=self.timeout,
                    priority=self.priority, client_id=self.client_id,
                )
            except QueueFullError as exc:
                time.sleep(max(min(float(exc.retry_after or 0.5), 1.0), 0.05))
                continue
            self.jobs_submitted += 1
            return as_wire(job)["id"]

    def _wait_job(self, job_id: str):
        """Await one job's terminal state in cancel-checkable slices (the
        service enforces the trial budget as the job's own timeout)."""
        while True:
            self._check_cancelled()
            try:
                return self._call(self.client.wait, job_id, timeout=2.0)
            except TimeoutError:
                continue

    def _evaluate_remote(self, pending: list) -> list:
        """Submit a wave of candidates, then collect in suggestion order.

        The ``transport`` of
        :func:`~repro.core.exploration.make_batch_evaluator`: returns
        one outcome per candidate, ``(raw, cache_hit)`` on success, the
        exception on failure (never raises for a single bad trial —
        only for cancellation, which aborts the batch unjournaled).
        """
        job_ids = []
        for params in pending:
            try:
                job_ids.append(self._submit(params))
            except ExplorationCancelledError:
                raise
            except Exception as exc:
                job_ids.append(exc)
        outcomes = []
        for job_id in job_ids:
            if isinstance(job_id, BaseException):
                outcomes.append(job_id)
                continue
            try:
                final = as_wire(self._wait_job(job_id))
            except ExplorationCancelledError:
                raise
            except Exception as exc:
                outcomes.append(exc)
                continue
            if final["state"] != DONE:
                outcomes.append(JobFailedError(final))
                continue
            route = (final["result"] or {}).get("route")
            if not route:
                outcomes.append(
                    ServeError(f"job {job_id} returned no route report")
                )
                continue
            raw = (float(route["total_overflow"]), float(route["wirelength"]))
            outcomes.append((raw, bool(final["cache_hit"])))
        return outcomes

    # -- the evaluator contract ----------------------------------------

    def __call__(self, batch: list) -> list:
        self._check_cancelled()
        return self._evaluate(batch)

    @property
    def last_details(self) -> list:
        """Per-candidate details of the last batch (see
        :func:`repro.core.exploration.make_batch_evaluator`)."""
        return self._evaluate.last_details


@dataclass
class Exploration(Resource):
    """One exploration and its lifecycle (the ``/v1/explorations`` row).

    There is no ``queued`` state — trials start queueing the moment the
    exploration is created.

    Attributes:
        id: manager-unique identifier (``explore-N``).
        config: the validated :class:`repro.api.ExploreConfig`.
        state: current lifecycle state.
        report: the :class:`repro.schema.ExplorationReport` wire dict
            once ``done``.
        error: terminal error message once ``failed``.
        trials: completed-trial count so far (grows live).
        created_at / finished_at: ``time.time()`` stamps.
    """

    kind = "exploration"
    path = "explorations"
    prefix = "explore"
    TRANSITIONS = {
        RUNNING: frozenset({DONE, FAILED, CANCELLED}),
        DONE: frozenset(),
        FAILED: frozenset(),
        CANCELLED: frozenset(),
    }

    id: str
    config: object
    state: str = RUNNING
    report: dict | None = None
    error: str | None = None
    trials: int = 0
    created_at: float = field(default_factory=time.time)
    finished_at: float | None = None

    def to_wire(self) -> dict:
        """The JSON-safe status dict served over HTTP.

        The full report (trials included) stays behind
        ``GET /v1/explorations/<id>/report``; status carries only its
        headline numbers.
        """
        report = self.report or {}
        return {
            "id": self.id,
            "state": self.state,
            "config": self.config.to_dict(),
            "trials": self.trials,
            "error": self.error,
            "best_loss": report.get("best_loss"),
            "evaluations": report.get("evaluations"),
            "created_at": self.created_at,
            "finished_at": self.finished_at,
        }


class ExplorationManager(ResourceManager):
    """Owner of every exploration a service runs (``/v1/explorations``).

    One asyncio task per exploration; the exploration itself runs on an
    executor thread (the TPE loop is synchronous) and completed trials
    hop back to the loop via ``call_soon_threadsafe`` to publish
    ``kind="trial"`` events on the exploration's stream.
    """

    def __init__(self, service) -> None:
        super().__init__(Exploration)
        self.service = service
        self._evaluators: dict = {}

    # -- lifecycle -----------------------------------------------------

    def create(self, request: dict) -> Exploration:
        """Validate ``request`` and start an exploration (non-blocking).

        The request is a JSON-safe dict: ``config`` (an
        :meth:`repro.api.ExploreConfig.to_dict` payload, defaults when
        omitted), plus scheduling hints ``priority`` and ``client_id``
        applied to every trial job.

        Raises:
            ServiceClosedError: after :meth:`drain` began.
            repro.schema.SchemaError / ValueError: invalid payloads.
        """
        from .. import api

        with obs.span("serve/request", op="explore"):
            self.check_open()
            self.validate(request, _EXPLORE_KEYS)
            config = api.ExploreConfig.from_dict(request.get("config") or {})
            priority, client_id = scheduling_hints(request, "explore")
            exploration = self.add(Exploration(id=self.new_id(), config=config))
            obs.counter("explore/created").inc()
            self.spawn(self._run(exploration, priority, client_id))
            return exploration

    async def _run(self, exploration: Exploration, priority: int,
                   client_id: str) -> None:
        from .. import api
        from ..tpe import TransferPriors

        loop = asyncio.get_running_loop()
        evaluator = DistributedEvaluator(
            ServiceClient(self.service), exploration.config, loop=loop,
            priority=priority, client_id=client_id,
        )
        self._evaluators[exploration.id] = evaluator
        # Priors live in the service's result cache, so explorations
        # warm-start from every exploration this server ever completed.
        priors = (
            TransferPriors(self.service._cache)
            if self.service._cache is not None else None
        )

        def on_trial(trial) -> None:
            loop.call_soon_threadsafe(self._record_trial, exploration, trial)

        def execute():
            return api.run_exploration(
                exploration.config, evaluator=evaluator,
                on_trial=on_trial, priors=priors,
            )

        try:
            outcome = await loop.run_in_executor(None, execute)
        except ExplorationCancelledError:
            self._finish(exploration, CANCELLED)
        except Exception as exc:
            if evaluator.cancelled:
                # A drain/cancel can surface as a submit-time error
                # before the next cooperative checkpoint fires.
                self._finish(exploration, CANCELLED)
            else:
                self._finish(
                    exploration, FAILED, error=f"{type(exc).__name__}: {exc}"
                )
        else:
            self._finish(exploration, DONE, report=outcome.wire.to_dict())
        finally:
            self._evaluators.pop(exploration.id, None)

    def _record_trial(self, exploration: Exploration, trial) -> None:
        if exploration.terminal:
            return
        exploration.trials += 1
        self.publish(exploration.id, "trial", trial=trial)
        obs.counter("explore/trials").inc()

    def _finish(self, exploration: Exploration, state: str, **fields) -> None:
        self.transition(exploration, state, **fields)
        obs.counter(f"explore/{state}").inc()

    # -- queries -------------------------------------------------------

    def report(self, exploration_id: str) -> dict:
        """The finished exploration's wire report.

        Raises:
            ResourceStateError: not ``done`` yet (HTTP 409) — failed
                and cancelled explorations have no report either.
        """
        exploration = self.get(exploration_id)
        if exploration.state != DONE:
            raise ResourceStateError(
                "exploration",
                f"exploration {exploration_id} is {exploration.state}; "
                f"the report is available once done",
            )
        return exploration.report

    def delete(self, exploration_id: str) -> Exploration:
        """Request a cooperative cancel (jobs already queued finish).

        Raises:
            UnknownResourceError: no such exploration.
            ResourceStateError: already terminal.
        """
        exploration = self.get(exploration_id)
        if exploration.terminal:
            raise ResourceStateError(
                "exploration",
                f"exploration {exploration_id} is already {exploration.state}",
            )
        evaluator = self._evaluators.get(exploration_id)
        if evaluator is not None:
            evaluator.cancel()
        return exploration

    async def drain(self) -> None:
        """Stop intake, cancel live explorations, await their tasks."""
        self.draining = True
        for evaluator in list(self._evaluators.values()):
            evaluator.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)


class LocalServiceHost:
    """A placement service on a private loop, for synchronous callers.

    ``repro explore --jobs N`` and the explore benchmark want the
    distributed evaluator without running a server or owning an event
    loop; this context manager boots the loop on a daemon thread,
    starts the service on it, and tears both down on exit::

        with LocalServiceHost(ServiceConfig(shards=4)) as host:
            evaluator = host.evaluator(config, journal=journal)
            report = api.explore(config=config, evaluator=evaluator)

    Attributes (inside the ``with`` block):
        service: the started :class:`~repro.serve.service.PlacementService`.
        client: an in-process :class:`~repro.serve.client.ServiceClient`.
        loop: the hosted event loop (what :class:`DistributedEvaluator`
            bridges its async calls onto).
    """

    def __init__(self, config=None, runner=None) -> None:
        self.config = config
        self.runner = runner
        self.service = None
        self.client = None
        self.loop = None
        self._thread = None

    def __enter__(self) -> "LocalServiceHost":
        from .service import PlacementService

        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="repro-explore-host", daemon=True
        )
        self._thread.start()

        async def boot():
            service = PlacementService(self.config, runner=self.runner)
            await service.start()
            return service

        self.service = asyncio.run_coroutine_threadsafe(
            boot(), self.loop
        ).result()
        self.client = ServiceClient(self.service)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            asyncio.run_coroutine_threadsafe(
                self.service.stop(), self.loop
            ).result(timeout=60.0)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=10.0)
            self.loop.close()
        return False

    def evaluator(self, config, **kwargs) -> DistributedEvaluator:
        """A :class:`DistributedEvaluator` over the hosted service."""
        return DistributedEvaluator(
            self.client, config, loop=self.loop, **kwargs
        )


__all__ = [
    "DistributedEvaluator",
    "Exploration",
    "ExplorationCancelledError",
    "ExplorationManager",
    "LocalServiceHost",
]
