"""Clients of the placement service.

Both clients implement one protocol, :class:`BaseClient` — same method
names, same typed errors, same request surface — so tests, the CLI, and
the exploration loop are written once against the protocol and work
in-process or over the wire:

* :class:`ServiceClient` — in-process, async: drives the service's
  resource managers directly (``service.managers[kind]``, no sockets).
  This is what tests and the strategy-exploration loop use — the
  service becomes a callable evaluation backend.
* :class:`HttpServiceClient` — synchronous, over :mod:`http.client`
  against the ``/v1`` HTTP API: what ``repro submit`` / ``repro jobs``
  use to talk to a ``repro serve`` process.  Raises the same typed
  errors as the service (:class:`QueueFullError` on 429 with the
  server's retry-after, :class:`UnknownResourceError` with the right
  ``kind`` on 404, …) so callers handle them identically in and out of
  process.

The generic operations — ``status``, ``list``, ``cancel`` (close, for
sessions), ``events``, ``follow`` and ``wait`` — take a resource
``kind`` (``"job"`` by default; ``"session"``, ``"delta"``,
``"exploration"``) and are written once per transport.  ``follow``
iterates a resource's :class:`repro.schema.JobEvent` stream live until
its terminal state event, and ``wait`` rides the same stream until the
resource leaves its pending states (the HTTP client long-polls
``GET /v1/<kind>/<id>/events``).  Per-kind spellings such as
``wait_session`` or ``exploration_events`` are aliases of them.
"""

from __future__ import annotations

import http.client
import json
import time

from ..schema import JobEvent
from .resources import (
    DONE,
    KINDS,
    QueueFullError,
    ResourceStateError,
    ServeError,
    ServiceClosedError,
    UnknownResourceError,
)

#: Longest single events long-poll a client asks for, seconds.
_POLL = 10.0


class JobFailedError(ServeError):
    """A waited-on job (or delta) reached ``failed`` or ``cancelled``.

    Attributes:
        job: the terminal resource (an object for the in-process client,
            a wire dict for the HTTP client).
    """

    def __init__(self, job) -> None:
        self.job = job
        wire = as_wire(job)
        super().__init__(
            f"job {wire['id']} {wire['state']}: {wire.get('error') or 'no result'}"
        )


def _wire(value):
    """A dataclass payload's wire dict (``to_dict``), or ``value`` as is."""
    return value.to_dict() if hasattr(value, "to_dict") else value


def as_wire(resource) -> dict:
    """A resource's status dict: in-process clients return the resource
    itself, the HTTP client its wire dict already."""
    return resource if isinstance(resource, dict) else resource.to_wire()


def _compact(**fields) -> dict:
    """A wire request of the fields that are set (``None`` = server
    default); dataclass values are serialized via ``to_dict``."""
    return {name: _wire(value) for name, value in fields.items() if value is not None}


def make_request(design: str, *, flow: str = "puffer", config=None,
                 route: bool = False, timeout: float | None = None,
                 priority: int = 0, client_id: str | None = None) -> dict:
    """Build the JSON-safe wire request both clients POST.

    ``config`` may be a :class:`repro.api.RunConfig` (serialized via
    ``to_dict``), an already-serialized wire dict, or ``None``.
    ``priority`` and ``client_id`` are scheduling hints (fair-queue
    bucket and shed order) and never affect the memoization key.
    """
    return _compact(design=design, flow=flow, config=config,
                    route=True if route else None, timeout=timeout,
                    priority=int(priority) or None, client_id=client_id)


def make_session_request(design: str, *, config=None, eco=None,
                         verify: str | None = None) -> dict:
    """Build the JSON-safe wire request both clients POST to
    ``/v1/sessions``.  ``config``/``eco`` may be dataclasses
    (serialized via ``to_dict``) or already-serialized wire dicts."""
    return _compact(design=design, config=config, eco=eco, verify=verify)


def make_exploration_request(config=None, *, priority: int = 0,
                             client_id: str | None = None) -> dict:
    """Build the JSON-safe wire request both clients POST to
    ``/v1/explorations``.  ``config`` may be a
    :class:`repro.api.ExploreConfig` (serialized via ``to_dict``), an
    already-serialized wire dict, or ``None`` (server defaults);
    ``priority``/``client_id`` schedule the exploration's trial jobs.
    """
    return _compact(config=config, priority=int(priority) or None,
                    client_id=client_id)


def _poll_budget(deadline: float | None, what: str) -> float:
    """Seconds the next events long-poll may hold before ``deadline``
    (a ``time.monotonic`` instant, ``None`` = unbounded)."""
    if deadline is None:
        return _POLL
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"{what} event stream still open")
    return min(_POLL, remaining)


def _ends(event: JobEvent, states) -> bool:
    return event.kind == "state" and event.state in states


def _settled(kind: str) -> frozenset:
    """The states ``wait`` returns at for ``kind``."""
    resource = KINDS[kind]
    return frozenset(resource.STATES) - resource.PENDING


def _alias(op: str, kind: str):
    """A per-kind spelling of the generic operation ``op``."""

    def method(self, *args, **kwargs):
        return getattr(self, op)(*args, kind=kind, **kwargs)

    method.__doc__ = f"``{op}(..., kind={kind!r})``."
    return method


class BaseClient:
    """The client protocol both transports implement.

    Each transport supplies the generic operations — ``create(kind,
    request, parent=None)``, ``status(id, kind=)``, ``list(state,
    kind=)``, ``cancel(id, kind=)`` (closes a session), ``events(id,
    after, kind=)``, ``follow(id, after=, timeout=, kind=)``, ``wait(id,
    timeout, kind=)`` — plus the composed ``run`` (submit + wait + the
    result, or :class:`JobFailedError`), ``apply_delta``,
    ``exploration_report``, ``healthz`` and ``metrics``.  Names and
    arguments, payload shapes (resource wire dicts,
    :class:`repro.schema.JobEvent`), and raised error types match; the
    in-process client is ``async`` where the HTTP client blocks.  This
    base derives every per-kind creation and spelling from them.
    """

    # -- creation, one builder per kind --------------------------------

    def submit(self, design: str, **kwargs):
        """Submit one placement; returns the created job."""
        return self.create("job", make_request(design, **kwargs))

    def create_session(self, design: str, **kwargs):
        """Open an incremental session (``initializing``)."""
        return self.create("session", make_session_request(design, **kwargs))

    def submit_delta(self, session_id: str, delta):
        """Queue one delta (typed or wire dict) against a session."""
        return self.create("delta", _wire(delta), parent=session_id)

    def create_exploration(self, config=None, **kwargs):
        """Start an exploration (``running``)."""
        return self.create("exploration", make_exploration_request(config, **kwargs))

    # -- per-kind spellings of the generic operations ------------------

    jobs = _alias("list", "job")
    sessions = _alias("list", "session")
    session = _alias("status", "session")
    close_session = _alias("cancel", "session")
    wait_session = _alias("wait", "session")
    explorations = _alias("list", "exploration")
    exploration = _alias("status", "exploration")
    cancel_exploration = _alias("cancel", "exploration")
    wait_exploration = _alias("wait", "exploration")
    exploration_events = _alias("events", "exploration")


class ServiceClient(BaseClient):
    """In-process async client over a started :class:`PlacementService`."""

    def __init__(self, service) -> None:
        self.service = service

    async def create(self, kind: str, request: dict, parent: str | None = None):
        """Create through the kind's manager (async, so ``submit`` and the
        other builders are awaited like every in-process operation)."""
        scope = () if parent is None else (parent,)
        return self.service.managers[kind].create(request, *scope)

    def status(self, resource_id: str, *, kind: str = "job"):
        return self.service.managers[kind].get(resource_id)

    def list(self, state: str | None = None, *, kind: str = "job") -> list:
        return self.service.managers[kind].list(state)

    def cancel(self, resource_id: str, *, kind: str = "job"):
        return self.service.managers[kind].delete(resource_id)

    def events(self, resource_id: str, after: int = -1, *,
               kind: str = "job") -> list:
        return self.service.managers[kind].events(resource_id, after)

    async def follow(self, resource_id: str, *, after: int = -1,
                     timeout: float | None = None, kind: str = "job"):
        """Async-iterate the resource's events until its terminal event."""
        manager = self.service.managers[kind]
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            poll = _poll_budget(deadline, f"{kind} {resource_id}")
            batch, _done = await manager.wait_events(resource_id, after, poll)
            for event in batch:
                yield event
                if _ends(event, manager.resource.TERMINAL):
                    return
            if batch:
                after = batch[-1].seq

    async def wait(self, resource_id: str, timeout: float | None = None, *,
                   kind: str = "job"):
        return await self.service.managers[kind].wait(resource_id, timeout)

    async def run(self, design: str, *, wait_timeout: float | None = None,
                  progress=None, **kwargs) -> dict:
        """Submit, await completion, and return the result summary.

        Args:
            progress: optional callable invoked with every
                :class:`repro.schema.JobEvent` as it arrives.

        Raises:
            JobFailedError: the job failed or was cancelled.
        """
        job = await self.submit(design, **kwargs)
        if progress is not None:
            async for event in self.follow(job.id, timeout=wait_timeout):
                progress(event)
        job = await self.wait(job.id, timeout=wait_timeout)
        if job.state != DONE:
            raise JobFailedError(job)
        return job.result

    async def apply_delta(self, session_id: str, delta,
                          wait_timeout: float | None = None) -> dict:
        record = await self.submit_delta(session_id, delta)
        record = await self.wait(record.id, wait_timeout, kind="delta")
        if record.state != DONE:
            raise JobFailedError(record)
        return record.result

    def exploration_report(self, exploration_id: str) -> dict:
        return self.service.explorations.report(exploration_id)

    def healthz(self) -> dict:
        return self.service.healthz()

    def metrics(self) -> dict:
        return self.service.metrics()


class HttpServiceClient(BaseClient):
    """Synchronous JSON client for a ``repro serve`` endpoint (``/v1``).

    Args:
        host, port: the server address.
        timeout: socket timeout per request, seconds.  Long-poll
            requests extend it by the requested server-side wait.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8180,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    @staticmethod
    def _url(kind: str, resource_id: str | None = None,
             parent: str | None = None) -> str:
        """The ``/v1`` path of a collection or one resource.

        A delta lives under its session; its id (``<session>-dN``)
        names that session when ``parent`` is not given.
        """
        path = KINDS[kind].path
        if kind == "delta":
            parent = parent or resource_id.rpartition("-d")[0]
            path = f"sessions/{parent}/{path}"
        return f"/v1/{path}" + ("" if resource_id is None else f"/{resource_id}")

    def _request(self, method: str, path: str, payload: dict | None = None,
                 timeout: float | None = None) -> dict:
        body = None if payload is None else json.dumps(payload)
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            conn.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            response = conn.getresponse()
            data = json.loads(response.read().decode("utf-8") or "{}")
            status = response.status
            retry_after = response.getheader("Retry-After")
        finally:
            conn.close()
        if status < 400:
            return data
        message = data.get("error", f"HTTP {status}")
        if status == 429:
            # Capacity isn't on the wire; keep the server's message.
            raise QueueFullError(capacity=-1, retry_after=float(retry_after or 1.0),
                                 message=message)
        if status in (404, 409):
            kind, resource_id = self._addressed(path)
            if status == 404:
                raise UnknownResourceError(kind, resource_id, message=message)
            raise ResourceStateError(kind, message)
        if status == 503:
            raise ServiceClosedError(message)
        if status == 400:
            raise ValueError(message)
        raise ServeError(f"HTTP {status}: {message}")

    @staticmethod
    def _addressed(path: str) -> tuple:
        """``(kind, id)`` of the innermost resource a ``/v1`` path names
        (``/v1/sessions/<sid>/deltas`` names the session)."""
        parts = [part for part in path.partition("?")[0].split("/") if part][1:]
        kinds = {resource.path: kind for kind, resource in KINDS.items()}
        found = ("resource", "")
        for collection, resource_id in zip(parts[::2], parts[1::2]):
            if collection in kinds:
                found = (kinds[collection], resource_id)
        return found

    # -- the generic operations ----------------------------------------

    def create(self, kind: str, request: dict, parent: str | None = None) -> dict:
        return self._request("POST", self._url(kind, parent=parent), request)

    def status(self, resource_id: str, *, kind: str = "job") -> dict:
        return self._request("GET", self._url(kind, resource_id))

    def list(self, state: str | None = None, *, kind: str = "job") -> list:
        query = "" if state is None else f"?state={state}"
        return self._request("GET", self._url(kind) + query)[KINDS[kind].path]

    def cancel(self, resource_id: str, *, kind: str = "job") -> dict:
        return self._request("DELETE", self._url(kind, resource_id))

    def events(self, resource_id: str, after: int = -1, *, kind: str = "job",
               wait: float | None = None) -> list:
        """GET the resource's events past ``after`` as typed
        :class:`~repro.schema.JobEvent`; ``wait`` long-polls up to that
        many seconds for the first new event."""
        path = f"{self._url(kind, resource_id)}/events?after={after}"
        timeout = None
        if wait:
            path += f"&wait={wait:g}"
            timeout = self.timeout + wait
        payload = self._request("GET", path, timeout=timeout)
        return [JobEvent.from_dict(event) for event in payload["events"]]

    def _stream(self, resource_id: str, kind: str, after: int,
                timeout: float | None, until):
        """Long-poll events past ``after`` until a state event in
        ``until``; raises ``TimeoutError`` past ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            poll = _poll_budget(deadline, f"{kind} {resource_id}")
            batch = self.events(resource_id, after, kind=kind, wait=max(poll, 0.05))
            for event in batch:
                yield event
                if _ends(event, until):
                    return
            if batch:
                after = batch[-1].seq

    def follow(self, resource_id: str, *, after: int = -1,
               timeout: float | None = None, kind: str = "job"):
        """Yield the resource's events live until its terminal state event."""
        return self._stream(resource_id, kind, after, timeout, KINDS[kind].TERMINAL)

    def wait(self, resource_id: str, timeout: float | None = None, *,
             kind: str = "job") -> dict:
        """Ride the event stream until the resource settles; returns its
        wire dict."""
        for _event in self._stream(resource_id, kind, -1, timeout, _settled(kind)):
            pass
        return self.status(resource_id, kind=kind)

    # -- composed operations -------------------------------------------

    def run(self, design: str, *, wait_timeout: float | None = None,
            progress=None, **kwargs) -> dict:
        """Submit, wait to completion, and return the result summary;
        ``progress`` is called with every event seen while waiting."""
        job = self.submit(design, **kwargs)
        for event in self.follow(job["id"], timeout=wait_timeout):
            if progress is not None:
                progress(event)
        job = self.status(job["id"])
        if job["state"] != DONE:
            raise JobFailedError(job)
        return job["result"]

    def apply_delta(self, session_id: str, delta,
                    wait_timeout: float | None = None) -> dict:
        record = self.submit_delta(session_id, delta)
        record = self.wait(record["id"], wait_timeout, kind="delta")
        if record["state"] != DONE:
            raise JobFailedError(record)
        return record["result"]

    def exploration_report(self, exploration_id: str) -> dict:
        return self._request("GET", f"{self._url('exploration', exploration_id)}/report")

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")
