"""Placement-as-a-service: the async job server over the run facade.

After PRs 1–4 every placement still required importing the package
in-process; this package is the step from library to system.  A
:class:`PlacementService` accepts serialized, versioned
:class:`repro.api.RunConfig` payloads (see :mod:`repro.schema`), runs
them through a bounded fair queue onto **process shards** (persistent
single-worker :class:`repro.runtime.TaskExecutor` pools — a crashed or
timed-out worker fails only its job, the shard recycles and the service
stays up), dedupes identical in-flight configs, memoizes results in the
artifact cache, and exposes the whole thing over versioned JSON-HTTP
(:class:`HttpServer`, all routes under ``/v1``) or in-process
(:class:`ServiceClient`):

    service = PlacementService(ServiceConfig(shards=2, capacity=8))
    await service.start()
    client = ServiceClient(service)
    summary = await client.run("OR1200", config=RunConfig(scale=0.002))

Both clients implement the :class:`BaseClient` protocol — including the
live event stream: every job publishes :class:`repro.schema.JobEvent`
records (lifecycle states plus gp-iteration / padding-round / RRR-round
progress out of the worker process) consumed via ``follow(job_id)`` or
``GET /v1/jobs/<id>/events`` long-polls.

From the shell: ``repro serve --shards N`` boots the HTTP server,
``repro submit --follow`` posts a job and streams its progress,
``repro jobs`` inspects or cancels.  Backpressure is explicit — a full
queue sheds strictly-lower-priority queued work for a higher-priority
submission, otherwise rejects with a retry-after hint (HTTP 429) —
scheduling is weighted round-robin across ``client_id`` buckets, and
shutdown drains: accepted jobs finish, new submissions are refused.

Jobs, ECO sessions (and their deltas) and explorations share one
lifecycle (:mod:`repro.serve.resources`): every kind is a
:class:`Resource` with a declared transition table, owned by a
:class:`ResourceManager` that allocates ids, publishes each transition
on the kind's event stream, and raises the one error pair
:class:`UnknownResourceError` (HTTP 404) / :class:`ResourceStateError`
(HTTP 409).  The ``/v1`` routes and both clients' generic operations
(``status``, ``list``, ``cancel``, ``events``, ``follow``, ``wait``)
are derived from those managers; any other path is a plain 404.

The service also hosts **stateful ECO sessions** (:mod:`repro.eco`):
``POST /v1/sessions`` converges a design once, ``POST
/v1/sessions/<id>/deltas`` applies incremental edits against the
retained state, and draining closes (GCs) every open session.

**Strategy exploration is a first-class service workload**
(:mod:`repro.serve.exploration`): ``POST /v1/explorations`` starts a
TPE exploration whose trials run as ordinary jobs across the shards
(inheriting memoization, coalescing, fairness, and crash quarantine),
``GET /v1/explorations/<id>/events`` long-polls per-trial events, and
``GET /v1/explorations/<id>/report`` serves the final
:class:`repro.schema.ExplorationReport`.  Completed trials persist as
:class:`repro.tpe.TransferPriors` in the service cache and warm-start
later explorations on similar designs.
"""

from ..schema import JobEvent, JobProgress
from .client import (
    BaseClient,
    HttpServiceClient,
    JobFailedError,
    ServiceClient,
    make_exploration_request,
    make_request,
    make_session_request,
)
from .events import EventLog, ProgressWriter, read_new_progress
from .exploration import (
    DistributedEvaluator,
    Exploration,
    ExplorationCancelledError,
    ExplorationManager,
    LocalServiceHost,
)
from .http import HttpServer
from .queueing import FairQueue
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
    ServeError,
    ServiceClosedError,
    UnknownResourceError,
)
from .service import Job, PlacementService, ServiceConfig, execute_request
from .sessions import DeltaJob, Session, SessionManager
from .shards import ProcessShard

__all__ = [
    "BaseClient",
    "CANCELLED",
    "DONE",
    "DeltaJob",
    "DistributedEvaluator",
    "EventLog",
    "Exploration",
    "ExplorationCancelledError",
    "ExplorationManager",
    "FAILED",
    "FairQueue",
    "HttpServer",
    "HttpServiceClient",
    "Job",
    "JobEvent",
    "JobFailedError",
    "JobProgress",
    "LocalServiceHost",
    "PlacementService",
    "ProcessShard",
    "ProgressWriter",
    "QUEUED",
    "QueueFullError",
    "RUNNING",
    "Resource",
    "ResourceManager",
    "ResourceStateError",
    "ServeError",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceConfig",
    "Session",
    "SessionManager",
    "UnknownResourceError",
    "execute_request",
    "make_exploration_request",
    "make_request",
    "make_session_request",
    "read_new_progress",
]
