"""Stateful ECO sessions on the placement service.

A session owns a converged :class:`repro.eco.EcoSession` and accepts
incremental deltas keyed to it.  The lifecycle::

    initializing ──► ready ⇄ busy ──► closed
          │                    │        ▲
          └──────► failed ◄────┘ ───────┘

The cold start runs in a worker thread while the session reports
``initializing``; deltas submitted to a session are applied strictly in
submission order (an asyncio lock serializes them — incremental state is
inherently sequential), each as its own tracked :class:`DeltaJob` with
``queued -> running -> done/failed`` states.  Closing a session (or
draining the service) releases the retained engine state — sessions are
GC'd on drain, exactly like the job queue refuses new work.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from .. import obs
from ..schema import SchemaError
from .resources import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    QueueFullError,
    Resource,
    ResourceManager,
    ResourceStateError,
)

#: Session lifecycle states (plus the shared ``failed``).
INITIALIZING = "initializing"
READY = "ready"
BUSY = "busy"
CLOSED = "closed"

#: Request keys accepted by ``POST /v1/sessions``.
_SESSION_KEYS = frozenset({"design", "config", "eco", "verify"})


def build_engine(request: dict):
    """Default engine factory: an :class:`repro.eco.EcoSession` from the
    normalized session request (tests inject fakes instead)."""
    from ..api import RunConfig
    from ..eco import EcoParams, EcoSession

    config = RunConfig.from_dict(request.get("config") or {})
    eco = EcoParams.from_dict(request.get("eco") or {})
    return EcoSession(request["design"], config=config, eco=eco)


class DeltaJob(Resource):
    """One submitted delta and its lifecycle within a session."""

    kind = "delta"
    path = "deltas"
    TRANSITIONS = {
        QUEUED: frozenset({RUNNING, FAILED}),
        RUNNING: frozenset({DONE, FAILED}),
        DONE: frozenset(),
        FAILED: frozenset(),
    }
    WIRE = ("id", "session", "state", "delta", "result", "error",
            "submitted_at", "finished_at")

    def __init__(self, delta_id: str, session_id: str, payload: dict) -> None:
        self.id = delta_id
        self.session = self.parent = session_id
        self.delta = payload
        self.state = QUEUED
        self.result: dict | None = None
        self.error: str | None = None
        self.submitted_at = time.time()


class Session(Resource):
    """One live ECO session: engine + delta history + serialization lock."""

    kind = "session"
    path = "sessions"
    prefix = "sess"
    TRANSITIONS = {
        INITIALIZING: frozenset({READY, FAILED, CLOSED}),
        READY: frozenset({BUSY, CLOSED}),
        BUSY: frozenset({READY, FAILED, CLOSED}),
        FAILED: frozenset({CLOSED}),
        CLOSED: frozenset(),
    }
    #: ``wait`` returns once the cold start is over (ready or failed).
    PENDING = frozenset({INITIALIZING})

    def __init__(self, session_id: str, request: dict, engine) -> None:
        self.id = session_id
        self.request = request
        self.engine = engine
        self.state = INITIALIZING
        self.error: str | None = None
        self.baseline: dict | None = None
        self.deltas: list = []
        self.created_at = time.time()
        self.lock = asyncio.Lock()
        self._delta_ids = itertools.count(1)

    @property
    def open(self) -> bool:
        return self.state in (INITIALIZING, READY, BUSY)

    def next_delta_id(self) -> str:
        return f"{self.id}-d{next(self._delta_ids)}"

    def to_wire(self) -> dict:
        """The JSON-safe status dict served over HTTP."""
        return {
            "id": self.id,
            "state": self.state,
            "request": self.request,
            "version": getattr(self.engine, "version", -1),
            "baseline": self.baseline,
            "deltas": [d.to_wire() for d in self.deltas],
            "error": self.error,
            "created_at": self.created_at,
        }


class DeltaManager(ResourceManager):
    """Every session's deltas (``/v1/sessions/<id>/deltas``)."""

    def __init__(self, sessions: "SessionManager") -> None:
        super().__init__(DeltaJob, parent=sessions)

    def create(self, payload: dict, session_id: str) -> DeltaJob:
        return self.parent.submit_delta(session_id, payload)


class SessionManager(ResourceManager):
    """Owns every session; serializes each session's work on the loop.

    Args:
        engine_factory: ``callable(request dict) -> engine`` where the
            engine exposes ``start()``, ``apply(delta, verify=...)``
            (both returning objects with ``to_summary()``), and
            ``close()``.  Defaults to :func:`build_engine`.
        max_pending: per-session bound on queued deltas (backpressure).
        retry_after: seconds hinted to rejected clients.
    """

    def __init__(self, engine_factory=None, max_pending: int = 16,
                 retry_after: float = 0.5) -> None:
        super().__init__(Session)
        self.deltas = DeltaManager(self)
        self._factory = engine_factory or build_engine
        self.max_pending = max_pending
        self.retry_after = retry_after

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def create(self, request: dict) -> Session:
        """Validate ``request``, build the engine, start converging.

        The request is a JSON-safe dict: ``design`` (required), and
        optional ``config`` (:class:`repro.api.RunConfig` wire dict),
        ``eco`` (:class:`repro.eco.EcoParams` wire dict), and ``verify``
        (checker level applied to every delta, default ``"cheap"``).
        """
        with obs.span("serve/session", op="create"):
            self.check_open()
            normalized = self._normalize(request)
            engine = self._factory(normalized)
            session = self.add(Session(self.new_id(), normalized, engine))
            obs.counter("eco/sessions").inc()
            self.spawn(self._initialize(session))
            return session

    def delete(self, session_id: str) -> Session:
        """Release a session's retained state (idempotent)."""
        session = self.get(session_id)
        if session.state != CLOSED:
            self.transition(session, CLOSED)
            close = getattr(session.engine, "close", None)
            if close is not None:
                close()
            obs.counter("eco/sessions_closed").inc()
        return session

    close = delete
    wait_ready = ResourceManager.wait

    def close_all(self) -> None:
        """Drain-time GC: close every session and refuse new ones."""
        self.draining = self.deltas.draining = True
        for session_id in list(self._items):
            self.close(session_id)

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------

    def submit_delta(self, session_id: str, payload: dict) -> DeltaJob:
        """Queue one delta payload against a session.

        Raises:
            UnknownResourceError: no such session.
            ResourceStateError: the session is closed or failed.
            QueueFullError: too many deltas already pending.
            repro.schema.SchemaError: an invalid delta payload.
        """
        with obs.span("serve/session", op="delta", session=session_id):
            self.deltas.check_open()
            session = self.get(session_id)
            if not session.open:
                raise ResourceStateError(
                    "session", f"session {session_id} is {session.state}"
                )
            from ..eco import delta_from_dict

            delta_from_dict(payload)  # boundary validation; raises SchemaError
            pending = sum(1 for d in session.deltas if d.state == QUEUED)
            if pending >= self.max_pending:
                raise QueueFullError(self.max_pending, self.retry_after)
            delta = DeltaJob(session.next_delta_id(), session.id, dict(payload))
            session.deltas.append(self.deltas.add(delta))
            self.spawn(self._apply(session, delta))
            return delta

    def delta(self, session_id: str, delta_id: str) -> DeltaJob:
        """The delta ``delta_id`` of session ``session_id``."""
        self.get(session_id)
        return self.deltas.get(delta_id, session_id)

    async def wait_delta(self, session_id: str, delta_id: str,
                         timeout: float | None = None) -> DeltaJob:
        """Await a delta's terminal state and return it."""
        return await self.deltas.wait(self.delta(session_id, delta_id).id, timeout)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _normalize(self, request: dict) -> dict:
        from ..api import RunConfig
        from ..eco import EcoParams
        from ..verify import LEVELS

        self.validate(request, _SESSION_KEYS, what="session request")
        design = request.get("design")
        if not isinstance(design, str) or not design:
            raise ValueError("session request needs a 'design' benchmark name")
        config = RunConfig.from_dict(request.get("config") or {})
        eco = EcoParams.from_dict(request.get("eco") or {})
        verify = request.get("verify", "cheap")
        if verify not in LEVELS:
            raise ValueError(
                f"unknown verify level {verify!r}; expected one of {LEVELS}"
            )
        return {
            "design": design,
            "config": config.to_dict(),
            "eco": eco.to_dict(),
            "verify": verify,
        }

    async def _initialize(self, session: Session) -> None:
        loop = asyncio.get_running_loop()
        async with session.lock:
            if session.state == CLOSED:
                return
            try:
                result = await loop.run_in_executor(None, session.engine.start)
            except BaseException as exc:
                if session.state != CLOSED:
                    self.transition(session, FAILED,
                                    error=f"{type(exc).__name__}: {exc}")
                    obs.counter("eco/sessions_failed").inc()
            else:
                session.baseline = result.to_summary()
                if session.state == INITIALIZING:
                    self.transition(session, READY)

    async def _apply(self, session: Session, delta: DeltaJob) -> None:
        loop = asyncio.get_running_loop()
        async with session.lock:
            if not session.open:
                self.deltas.transition(
                    delta, FAILED, error=f"session {session.id} is {session.state}"
                )
                return
            self.deltas.transition(delta, RUNNING)
            self.transition(session, BUSY)
            verify = session.request.get("verify", "cheap")
            try:
                result = await loop.run_in_executor(
                    None, lambda: session.engine.apply(delta.delta, verify=verify)
                )
            except (SchemaError, ValueError, TypeError, RuntimeError) as exc:
                # A bad delta fails the delta, not the session.
                self.deltas.transition(delta, FAILED,
                                       error=f"{type(exc).__name__}: {exc}")
                if session.state == BUSY:
                    self.transition(session, READY)
            except BaseException as exc:
                error = f"{type(exc).__name__}: {exc}"
                self.deltas.transition(delta, FAILED, error=error)
                if session.state == BUSY:
                    self.transition(session, FAILED, error=error)
            else:
                self.deltas.transition(delta, DONE, result=result.to_summary())
                obs.counter("eco/deltas_applied").inc()
                if session.state == BUSY:
                    self.transition(session, READY)
