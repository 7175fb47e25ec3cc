"""The asynchronous placement service: shards, fairness, memoization, events.

:class:`PlacementService` is the transport-independent core that both
the HTTP front end (:mod:`repro.serve.http`) and the in-process
:class:`repro.serve.client.ServiceClient` drive:

* a **bounded fair queue** (:class:`repro.serve.queueing.FairQueue`):
  per-client weighted round-robin dispatch, priority-first within a
  client, explicit backpressure via
  :class:`~repro.serve.resources.QueueFullError` when full — and, before
  rejecting, **load-shedding**: a strictly higher-priority submission
  may evict the lowest-priority queued job instead of bouncing;
* **execution shards** — with ``ServiceConfig.shards > 0``, one
  :class:`repro.serve.shards.ProcessShard` per worker runs placements
  in dedicated worker *processes* through the runtime executor's
  persistent pool, so timeouts kill hung workers (the CPU comes back), a
  crashed worker fails only its own job, and cancellation of a running
  job terminates the process.  ``shards = 0`` keeps the PR-5 thread
  mode (documented degradations and all);
* **memoization** through :class:`repro.runtime.ArtifactCache` plus
  in-flight **coalescing**: a duplicate of a queued/running config
  attaches to the primary job instead of consuming a queue slot, and
  mirrors its result on completion (a failed/cancelled primary promotes
  the first follower to run for real);
* **progress streaming** — shard workers append gp-iteration /
  padding-round / RRR-round samples to a per-job progress file; the
  service pumps new lines into the job's event stream (its
  :class:`~repro.serve.resources.ResourceManager`) alongside every
  lifecycle transition, which ``GET /v1/jobs/<id>/events`` long-polls.

Requests are validated *at the boundary*: a bad config, flow, or verify
level raises before a job is created, so the queue only ever holds
runnable work.  Everything narrates into :mod:`repro.obs` —
``serve/request`` and ``serve/job`` spans, a ``serve/queue_depth``
gauge, and per-outcome counters — all visible on ``/v1/metrics``.

Degradation matrix (also in ``docs/api.md``): in thread mode a
timed-out or cancelled *running* job is marked terminal but its thread
runs to completion in the background; in shard mode the worker process
is killed, so the core is actually reclaimed and the next job starts in
a fresh worker.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from .. import obs
from ..placer import prefix
from ..runtime import ArtifactCache, Task, TaskExecutor, TaskTimeoutError, stable_hash
from ..runtime import shm as shm_runtime
from ..runtime.cache import MISSING
from .events import read_new_progress
from .exploration import ExplorationManager
from .queueing import FairQueue, scheduling_hints
from .resources import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    QueueFullError,
    Resource,
    ResourceManager,
    ResourceStateError,
)
from .sessions import SessionManager
from .shards import ProcessShard

#: Request keys accepted at submit.
_REQUEST_KEYS = frozenset(
    {"design", "flow", "config", "route", "timeout", "priority", "client_id"}
)


@dataclass
class Job(Resource):
    """One placement request and its lifecycle::

        queued ──────────────► running ──► done / failed
           │                      │
           ├──► done (cache hit)  └──► cancelled
           └──► cancelled

    Attributes:
        id: service-unique identifier (``job-N``).
        request: the validated wire request (JSON-safe dict).
        key: memoization key — ``stable_hash`` of the serialized config.
        state: current lifecycle state.
        result: JSON-safe result summary once ``done``.
        error: terminal error message once ``failed``.
        cache_hit: whether the result came from the artifact cache.
        timeout: per-job wall-clock budget in seconds (``None`` = none).
        client_id: fair-queue bucket the job dispatches from.
        priority: scheduling priority (larger int = more important).
        coalesced: the job attached to an in-flight duplicate instead of
            queueing its own execution.
        shard: index of the process shard that ran the job (``None``
            until running, and always in thread mode).
        submitted_at / started_at / finished_at: ``time.time()`` stamps.
    """

    kind = "job"
    path = "jobs"
    prefix = "job"
    TRANSITIONS = {
        QUEUED: frozenset({RUNNING, DONE, CANCELLED}),
        RUNNING: frozenset({DONE, FAILED, CANCELLED}),
        DONE: frozenset(),
        FAILED: frozenset(),
        CANCELLED: frozenset(),
    }
    WIRE = ("id", "state", "key", "request", "result", "error", "cache_hit",
            "timeout", "client_id", "priority", "coalesced", "shard",
            "submitted_at", "started_at", "finished_at")

    id: str
    request: dict
    key: str
    state: str = QUEUED
    result: dict | None = None
    error: str | None = None
    cache_hit: bool = False
    timeout: float | None = None
    client_id: str = "default"
    priority: int = 0
    coalesced: bool = False
    shard: int | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None


class JobManager(ResourceManager):
    """The job registry; creation and cancellation are the service's."""

    def __init__(self, service: "PlacementService") -> None:
        super().__init__(Job)
        self.service = service

    def create(self, request: dict) -> Job:
        return self.service.submit(request)

    def delete(self, job_id: str) -> Job:
        return self.service.cancel(job_id)


def execute_request(request: dict) -> dict:
    """Run one normalized placement request and return its summary.

    The module-level worker function of the service (picklable, so the
    process shards can move it across process boundaries): rebuilds the
    :class:`repro.api.RunConfig` from the wire dict, places through
    :func:`repro.api.run`, and returns the JSON-safe
    :meth:`~repro.api.RunResult.to_summary`.

    When the service published the design to shared memory, the request
    carries a ``_shm`` handle and the worker attaches a zero-copy view
    instead of regenerating the benchmark from its name; a stale or
    unmappable handle falls back to the by-name path (the handle never
    changes *what* runs, only how the design reaches the worker).
    """
    from .. import api

    request = dict(request)
    handle = request.pop("_shm", None)
    design = request["design"]
    if handle is not None:
        try:
            design = shm_runtime.attach_design(
                shm_runtime.SharedDesignHandle.from_dict(handle)
            )
        except shm_runtime.SharedMemoryError:
            design = request["design"]
    config = api.RunConfig.from_dict(request.get("config") or {})
    # Jobs repeat designs with other strategies: replay the shared
    # global-placement prefix (exact; see repro.placer.prefix).
    with prefix.reuse():
        result = api.run(
            design,
            flow=request.get("flow", "puffer"),
            config=config,
            route=bool(request.get("route", False)),
        )
    return result.to_summary()


@dataclass
class ServiceConfig:
    """Deployment knobs of :class:`PlacementService`.

    Attributes:
        workers: concurrent placement workers in thread mode (ignored
            when ``shards > 0`` — then there is one worker per shard).
        capacity: bounded-queue size; submissions beyond it are rejected
            with a retry-after hint (backpressure, not buffering) unless
            load-shedding frees a slot.
        cache_dir: artifact-cache directory enabling result memoization
            across jobs *and* server restarts (``None`` disables).
        default_timeout: per-job wall-clock budget in seconds when the
            request does not carry its own (``None`` = unlimited).
        retry_after: seconds hinted to rejected clients.
        shards: worker *processes*; ``0`` keeps single-process thread
            execution.  Shards stream progress events and enforce
            timeouts/cancellation by killing the worker.
        client_weights: ``client_id -> round-robin weight`` for the fair
            queue (missing clients weigh 1).
        progress_dir: directory for per-job progress files (shard mode);
            ``None`` creates (and owns) a temporary directory.
        progress_poll: parent-side poll interval for progress files.
        shared_memory: publish each job's design once into
            :mod:`repro.runtime.shm` and hand shard workers a zero-copy
            handle instead of regenerating the benchmark per job.
            ``None`` (the default) auto-enables for shard mode with the
            default runner; ``True`` forces it on for custom runners
            that understand the injected ``_shm`` request key; ``False``
            disables it.  Thread mode never uses it (no process
            boundary to cross).
    """

    workers: int = 2
    capacity: int = 8
    cache_dir: str | None = None
    default_timeout: float | None = None
    retry_after: float = 0.5
    shards: int = 0
    client_weights: dict | None = field(default=None)
    progress_dir: str | None = None
    progress_poll: float = 0.04
    shared_memory: bool | None = None


class PlacementService:
    """Transport-independent async job service over the placement flows.

    Args:
        config: deployment knobs (defaults throughout when omitted).
        runner: ``callable(request dict) -> result dict``; defaults to
            :func:`execute_request`.  Tests inject fakes here to
            exercise the lifecycle without placing.  In shard mode the
            runner must be picklable to actually cross the process
            boundary — an unpicklable fake degrades to in-process
            execution (no progress stream, thread-mode semantics).
    """

    def __init__(self, config: ServiceConfig | None = None, runner=None,
                 session_engine_factory=None) -> None:
        self.config = config or ServiceConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.config.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.config.shards < 0:
            raise ValueError("shards must be >= 0")
        self._runner = runner or execute_request
        self.jobs = JobManager(self)
        self.sessions = SessionManager(engine_factory=session_engine_factory)
        self.explorations = ExplorationManager(self)
        #: ``kind -> manager``: what the HTTP routes and clients address.
        self.managers = {
            manager.kind: manager
            for manager in (self.jobs, self.sessions, self.sessions.deltas,
                            self.explorations)
        }
        # The job manager's generic operations under the service's names.
        self.status, self.events = self.jobs.get, self.jobs.events
        self.wait, self.wait_events = self.jobs.wait, self.jobs.wait_events
        self._queue = FairQueue(
            self.config.capacity, weights=self.config.client_weights
        )
        self._cache = (
            ArtifactCache(self.config.cache_dir) if self.config.cache_dir else None
        )
        self._executor = TaskExecutor(jobs=1, retries=0)
        self._shards = [ProcessShard(i) for i in range(self.config.shards)]
        use_shm = self.config.shared_memory
        if use_shm is None:
            use_shm = bool(self._shards) and runner is None
        self._shared_designs = (
            shm_runtime.SharedDesignCache()
            if use_shm and self._shards and shm_runtime.available()
            else None
        )
        self._progress_dir = self.config.progress_dir
        self._owns_progress_dir = False
        if self._shards and self._progress_dir is None:
            self._progress_dir = tempfile.mkdtemp(prefix="repro-serve-progress-")
            self._owns_progress_dir = True
        self._primary: dict = {}    # memo key -> primary job id (non-terminal)
        self._followers: dict = {}  # primary job id -> [follower job ids]
        self._workers: list = []
        self._cancel_events: dict = {}
        self.started_at = time.time()
        self.counts = {
            "submitted": 0,
            "rejected": 0,
            "done": 0,
            "failed": 0,
            "cancelled": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "shed": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "PlacementService":
        """Spawn the worker pool (idempotent).  Must run on the loop.

        Shard mode forks the worker processes eagerly here, before the
        loop accumulates helper threads (fork safety) and before the
        first job pays the fork latency.
        """
        if self._workers:
            return self
        for shard in self._shards:
            shard.warm()
        if self._shards:
            self._workers = [
                asyncio.create_task(
                    self._worker(shard), name=f"serve-shard-{shard.index}"
                )
                for shard in self._shards
            ]
        else:
            self._workers = [
                asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
                for i in range(self.config.workers)
            ]
        return self

    async def drain(self) -> None:
        """Stop intake and wait for every accepted job to finish.

        Open ECO sessions are closed (their retained state GC'd) and
        live explorations are cancelled at their next cooperative
        checkpoint — incremental work cannot outlive the service that
        holds it.
        """
        self.jobs.draining = True
        await self.explorations.drain()
        self.sessions.close_all()
        await self._queue.join()

    async def stop(self) -> None:
        """Graceful shutdown: drain, then retire workers and shards."""
        await self.drain()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        for shard in self._shards:
            shard.close()
        if self._shared_designs is not None:
            self._shared_designs.close()
        if self._owns_progress_dir and self._progress_dir:
            shutil.rmtree(self._progress_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Request boundary
    # ------------------------------------------------------------------

    def submit(self, request: dict) -> Job:
        """Validate and enqueue ``request``; returns the created job.

        The request is a JSON-safe dict: ``design`` (suite benchmark
        name, required), ``flow`` (default ``"puffer"``), ``config``
        (a :meth:`repro.api.RunConfig.to_dict` payload, default config
        when omitted), ``route`` (bool), ``timeout`` (seconds),
        ``priority`` (int, larger = more important, default 0) and
        ``client_id`` (fair-queue bucket, default ``"default"``).
        Priority and client id shape *scheduling*, not the work, so
        they are excluded from the memoization key.

        Raises:
            ServiceClosedError: after :meth:`drain` began.
            QueueFullError: backpressure — queue at capacity and no
                strictly lower-priority job available to shed.
            repro.schema.SchemaError / ValueError /
            repro.api.UnknownFlowError: invalid request payloads.
        """
        with obs.span("serve/request", op="submit"):
            self.jobs.check_open()
            normalized, timeout, client_id, priority = self._normalize(request)
            key = stable_hash(normalized)

            # Cache hits and coalesced duplicates need no queue slot, so
            # they are admitted even at capacity.
            cached = MISSING if self._cache is None else self._cache.get(key)
            if cached is not MISSING:
                job = self._admit(normalized, key, timeout, client_id, priority)
                self._finish(job, DONE, result=cached, cache_hit=True)
                return job
            primary_id = self._primary.get(key)
            if primary_id is not None and not self.jobs.get(primary_id).terminal:
                job = self._admit(normalized, key, timeout, client_id, priority)
                job.coalesced = True
                self._followers.setdefault(primary_id, []).append(job.id)
                self.counts["coalesced"] += 1
                obs.counter("serve/coalesced").inc()
                return job

            if self._queue.full():
                victim = self._queue.shed_lowest(below=priority)
                if victim is None:
                    self.counts["rejected"] += 1
                    obs.counter("serve/rejected").inc()
                    raise QueueFullError(self.config.capacity,
                                         self.config.retry_after)
                self.counts["shed"] += 1
                obs.counter("serve/shed").inc()
                self._finish(
                    victim, CANCELLED,
                    error=(
                        f"load-shed: displaced by a priority-{priority} "
                        f"submission while queued at priority {victim.priority}"
                    ),
                )
            job = self._admit(normalized, key, timeout, client_id, priority)
            self._primary[key] = job.id
            self._queue.put_nowait(job)
            self._set_depth()
            return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: immediate when queued, forceful when running
        on a shard, best-effort in thread mode.

        Queued jobs leave the queue at once (freeing their slot).  A
        running job on a process shard has its worker process
        terminated — the executor's crash path surfaces the kill and
        the shard recycles for the next job.  In thread mode the worker
        thread cannot be preempted; the job is marked ``cancelled`` and
        its result discarded while the thread finishes in the
        background.

        Raises:
            UnknownResourceError: no such job.
            ResourceStateError: the job already reached a terminal state.
        """
        with obs.span("serve/request", op="cancel", job=job_id):
            job = self.jobs.get(job_id)
            if job.terminal:
                raise ResourceStateError("job", f"job {job_id} is already {job.state}")
            if job.state == QUEUED:
                self._queue.remove(job)  # no-op for coalesced followers
                self._set_depth()
                self._finish(job, CANCELLED)
            else:
                self._cancel_events[job.id].set()
                if job.shard is not None and self._shards:
                    self._shards[job.shard].abort()
            return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        """The ``/v1/healthz`` payload."""
        return {
            "ok": True,
            "status": "draining" if self.jobs.draining else "serving",
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": self._queue.qsize(),
            "capacity": self.config.capacity,
            "workers": len(self._shards) or self.config.workers,
            "shards": [shard.describe() for shard in self._shards],
            "jobs": self.jobs.counts(),
            "sessions": self.sessions.counts(),
            "explorations": self.explorations.counts(),
        }

    def metrics(self) -> dict:
        """The ``/v1/metrics`` payload: service counters + obs
        instruments."""
        payload = {
            "queue_depth": self._queue.qsize(),
            "queue_depths_by_client": self._queue.depths(),
            "capacity": self.config.capacity,
            "workers": len(self._shards) or self.config.workers,
            "shards": [shard.describe() for shard in self._shards],
            "counters": dict(self.counts),
            "explorations": self.explorations.counts(),
            "cache": self._cache.stats() if self._cache is not None else None,
            "shared_designs": (
                self._shared_designs.stats()
                if self._shared_designs is not None else None
            ),
        }
        if obs.is_enabled():
            payload["obs"] = obs.get_tracer().metrics()
        return payload

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _normalize(self, request: dict) -> tuple:
        """Boundary validation -> (normal form, timeout, client, priority).

        The normal form is what the memo key hashes: explicit flow and
        route flag plus the fully-expanded config wire dict, so
        ``{"design": "OR1200"}`` and the same request spelled with an
        explicit default config memoize identically.  Scheduling fields
        (``priority``, ``client_id``, ``timeout``) never enter the key.
        """
        from .. import api

        ResourceManager.validate(request, _REQUEST_KEYS)
        design = request.get("design")
        if not isinstance(design, str) or not design:
            raise ValueError("request needs a 'design' benchmark name")
        flow = request.get("flow", "puffer")
        if not isinstance(flow, str):
            raise ValueError("request 'flow' must be a flow name")
        api.resolve_flow(flow)  # raises UnknownFlowError early
        config = api.RunConfig.from_dict(request.get("config") or {})
        timeout = request.get("timeout", self.config.default_timeout)
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise ValueError("request 'timeout' must be positive")
        priority, client_id = scheduling_hints(request, "default")
        normalized = {
            "design": design,
            "flow": flow,
            "route": bool(request.get("route", False)),
            "config": config.to_dict(),
        }
        return normalized, timeout, client_id, priority

    def _admit(self, normalized: dict, key: str, timeout, client_id: str,
               priority: int) -> Job:
        """Register a fresh ``queued`` job plus its cancel bookkeeping."""
        job = self.jobs.add(Job(
            id=self.jobs.new_id(), request=normalized, key=key,
            timeout=timeout, client_id=client_id, priority=priority,
        ))
        self._cancel_events[job.id] = asyncio.Event()
        self.counts["submitted"] += 1
        obs.counter("serve/submitted").inc()
        return job

    def _set_depth(self) -> None:
        obs.gauge("serve/queue_depth").set(self._queue.qsize())

    def _finish(self, job: Job, state: str, result=None, error=None,
                cache_hit: bool = False) -> None:
        self.jobs.transition(job, state, result=result, error=error,
                             cache_hit=cache_hit)
        self.counts[state] += 1
        obs.counter(f"serve/{state}").inc()
        if cache_hit:
            self.counts["cache_hits"] += 1
            obs.counter("serve/cache_hit").inc()
        if self._primary.get(job.key) == job.id:
            del self._primary[job.key]
            self._settle_followers(job)

    def _settle_followers(self, primary: Job) -> None:
        """Resolve jobs coalesced onto ``primary`` after it settles.

        A successful primary mirrors its result onto every live
        follower.  A failed/cancelled primary promotes the first live
        follower to run for real (the rest re-coalesce onto it); when
        the queue cannot take it (draining or full), the followers are
        cancelled with an explanatory error instead of hanging.
        """
        followers = self._followers.pop(primary.id, [])
        pending = [
            job for job in (self.jobs.get(fid) for fid in followers)
            if not job.terminal
        ]
        if not pending:
            return
        if primary.state == DONE:
            for job in pending:
                self._finish(job, DONE, result=primary.result)
            return
        if self.jobs.draining or self._queue.full():
            for job in pending:
                self._finish(
                    job, CANCELLED,
                    error=(
                        f"coalesced onto {primary.id} which was "
                        f"{primary.state}; queue unavailable for a rerun"
                    ),
                )
            return
        leader, rest = pending[0], pending[1:]
        leader.coalesced = False
        self._primary[leader.key] = leader.id
        if rest:
            self._followers[leader.id] = [job.id for job in rest]
        self._queue.put_nowait(leader)
        self._set_depth()

    async def _worker(self, shard: ProcessShard | None = None) -> None:
        while True:
            job = await self._queue.get()
            try:
                self._set_depth()
                if job.state == QUEUED:  # skip jobs cancelled while queued
                    await self._run_job(job, shard)
            finally:
                self._queue.task_done()

    async def _run_job(self, job: Job, shard: ProcessShard | None = None) -> None:
        self.jobs.transition(job, RUNNING)
        if shard is not None:
            job.shard = shard.index
        cancel_event = self._cancel_events[job.id]
        loop = asyncio.get_running_loop()
        progress_path = pump = None
        finished = asyncio.Event()
        if shard is not None and self._progress_dir:
            progress_path = os.path.join(
                self._progress_dir, f"{job.id}.progress.jsonl"
            )
        with obs.span("serve/job", job=job.id, design=job.request["design"],
                      flow=job.request["flow"]) as sp:
            exec_future = loop.run_in_executor(
                None, self._execute, job, shard, progress_path
            )
            if progress_path is not None:
                pump = asyncio.create_task(
                    self._pump_progress(job, progress_path, finished)
                )
            cancel_task = asyncio.create_task(cancel_event.wait())
            # In shard mode the executor enforces the real budget by
            # killing the worker; the loop-side timeout is only a
            # backstop for inline-degraded runners.
            wait_timeout = job.timeout
            if shard is not None and wait_timeout is not None:
                wait_timeout += 10.0
            try:
                done, _pending = await asyncio.wait(
                    {exec_future, cancel_task},
                    timeout=wait_timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                finished.set()
            if pump is not None:
                # Publish the worker's last progress lines before the
                # terminal state: a job shorter than one poll interval
                # would otherwise stream all its progress after "done",
                # where followers have already stopped reading.
                await pump
            if exec_future in done:
                cancel_task.cancel()
                if cancel_event.is_set():
                    # Raced a cancel: the shard worker was terminated (or
                    # the thread result discarded) — cancellation wins.
                    self._finish(job, CANCELLED)
                else:
                    self._settle(job, exec_future)
            elif cancel_task in done:
                if shard is not None:
                    shard.abort()
                    # The kill surfaces through run_one promptly.
                    await asyncio.wait({exec_future}, timeout=15.0)
                self._abandon(exec_future)
                self._finish(job, CANCELLED)
            else:  # loop-side timeout backstop
                cancel_task.cancel()
                if shard is not None:
                    shard.abort()
                self._abandon(exec_future)
                self._finish(job, FAILED,
                             error=f"timeout after {job.timeout:g}s")
            sp.set(state=job.state, cache_hit=job.cache_hit, shard=job.shard)

    def _settle(self, job: Job, exec_future) -> None:
        """Record a completed executor future onto the job."""
        try:
            task_result = exec_future.result()
        except BaseException as exc:  # executor-layer failure
            self._finish(job, FAILED, error=f"{type(exc).__name__}: {exc}")
            return
        if not task_result.ok:
            error = task_result.error
            if isinstance(error, TaskTimeoutError) and job.timeout:
                message = f"timeout after {job.timeout:g}s (shard worker killed)"
            else:
                message = str(error)
            self._finish(job, FAILED, error=message)
            return
        result = task_result.value
        if self._cache is not None:
            self._cache.put(job.key, result)
        self._finish(job, DONE, result=result)

    def _execute(self, job: Job, shard: ProcessShard | None = None,
                 progress_path: str | None = None):
        """Thread-side: funnel the job through its executor."""
        if shard is None:
            task = Task(key=job.id, fn=self._runner, args=(job.request,),
                        retries=0)
            return self._executor.run_one(task)
        request = job.request
        if self._shared_designs is not None:
            # Publish-once (off the event loop — this thread), then ship
            # the tiny handle instead of letting the worker regenerate
            # the design.  A publish failure degrades silently: the
            # request goes out unmodified and the worker falls back.
            handle = self._shared_designs.handle_for_request(request)
            if handle is not None:
                request = dict(request)
                request["_shm"] = handle.to_dict()
        return shard.execute(
            self._runner, request, key=job.id,
            timeout=job.timeout, progress_path=progress_path,
        )

    async def _pump_progress(self, job: Job, path: str,
                             finished: asyncio.Event) -> None:
        """Poll the job's progress file into its event stream.

        Sleeps in ``progress_poll`` slices but wakes immediately when the
        execution returns (``finished``), so a finished job never waits
        out a poll interval before its worker slot frees up.
        """
        offset = 0
        try:
            while not finished.is_set():
                offset = self._publish_progress(job, path, offset)
                try:
                    await asyncio.wait_for(
                        finished.wait(), self.config.progress_poll
                    )
                except asyncio.TimeoutError:
                    pass
            self._publish_progress(job, path, offset)
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _publish_progress(self, job: Job, path: str, offset: int) -> int:
        samples, offset = read_new_progress(path, offset)
        for sample in samples:
            self.jobs.publish(job.id, "progress", progress=sample)
            obs.counter("serve/progress_events").inc()
        return offset

    @staticmethod
    def _abandon(exec_future) -> None:
        """Detach from an execution we no longer await; swallow its
        outcome."""
        exec_future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
