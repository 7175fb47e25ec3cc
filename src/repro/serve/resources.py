"""One lifecycle for every resource the placement service hosts.

Jobs, ECO sessions, their deltas, and strategy explorations are all the
same shape: a server-allocated id, a state that moves only along a
transition table the kind declares, time stamps, a JSON-safe wire form,
and an ordered event stream a client can long-poll.  :class:`Resource`
is that shape; :class:`ResourceManager` owns a registry of one kind:

* prefixed id allocation (``job-N``, ``sess-N``, ``explore-N``);
* ``get`` / ``list(state)`` / ``counts`` — an unknown id raises
  :class:`UnknownResourceError`, an unknown state filter ``ValueError``;
* ``transition`` — the only way a state changes: it checks the table
  (an illegal move raises :class:`ResourceStateError`), stamps times,
  sets the outcome fields, and publishes a ``state``
  :class:`repro.schema.JobEvent` on the kind's :class:`EventLog`;
* ``events`` / ``wait_events`` / ``wait`` over that stream;
* the drain refusal (:class:`ServiceClosedError`) and request-key
  validation at the boundary.

Kinds keep only their own logic (queueing and coalescing for jobs, the
engine and lock for sessions, the TPE thread for explorations) and
supply ``create`` and, when they can be stopped, ``delete``; the HTTP
routes (:mod:`repro.serve.http`) and both clients
(:mod:`repro.serve.client`) are derived from these managers.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from .events import EventLog

#: State names shared by the kinds' transition tables.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: ``kind -> Resource subclass`` for every declared kind.
KINDS: dict = {}


class ServeError(Exception):
    """Base class of service-boundary errors."""


class QueueFullError(ServeError):
    """A bounded queue rejected a submission (backpressure).

    Attributes:
        retry_after: hint, in seconds, before the client should retry
            (becomes the HTTP ``Retry-After`` header).
    """

    def __init__(self, capacity: int, retry_after: float,
                 message: str | None = None) -> None:
        self.capacity = capacity
        self.retry_after = retry_after
        super().__init__(
            message
            or f"job queue is full (capacity {capacity}); retry in {retry_after:g}s"
        )


class ServiceClosedError(ServeError):
    """A creation after the service began draining."""


class UnknownResourceError(ServeError, KeyError):
    """An id with no entry in its kind's registry (HTTP 404)."""

    def __init__(self, kind: str, resource_id: str,
                 message: str | None = None) -> None:
        self.kind = kind
        self.id = resource_id
        self._message = message or f"unknown {kind} {resource_id!r}"
        super().__init__(self._message)

    def __str__(self) -> str:
        # KeyError.__str__ repr-quotes its argument; keep the message plain
        # so it survives the HTTP error round-trip unmangled.
        return self._message


class ResourceStateError(ServeError):
    """An operation the resource's current state does not allow (HTTP 409)."""

    def __init__(self, kind: str, message: str) -> None:
        self.kind = kind
        super().__init__(message)


class Resource:
    """Base of every service resource.

    A subclass declares its ``kind`` (error and event naming), ``path``
    (the ``/v1`` collection), id ``prefix`` (kinds whose manager
    allocates ids), and ``TRANSITIONS`` (``state -> states it may move
    to``; the first key is the initial state, states without exits are
    terminal).  ``PENDING`` — the states ``wait`` waits through —
    defaults to the non-terminal ones.  ``WIRE`` names the attributes
    the default :meth:`to_wire` serves.
    """

    #: The owning resource's id for nested kinds (a delta's session).
    parent = None
    started_at: float | None = None
    finished_at: float | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.STATES = tuple(cls.TRANSITIONS)
        cls.TERMINAL = frozenset(s for s, nxt in cls.TRANSITIONS.items() if not nxt)
        if "PENDING" not in cls.__dict__:
            cls.PENDING = frozenset(cls.STATES) - cls.TERMINAL
        KINDS[cls.kind] = cls

    @property
    def terminal(self) -> bool:
        return self.state in self.TERMINAL

    def transition(self, state: str) -> None:
        """Move to ``state``, stamping times; an unknown state or a move
        the table lacks raises :class:`ResourceStateError`."""
        if state not in self.TRANSITIONS:
            raise ResourceStateError(self.kind, f"unknown {self.kind} state {state!r}")
        if state not in self.TRANSITIONS[self.state]:
            raise ResourceStateError(
                self.kind,
                f"{self.kind} {self.id} cannot move {self.state!r} -> {state!r}",
            )
        self.state = state
        if state == RUNNING:
            self.started_at = time.time()
        elif state in self.TERMINAL:
            self.finished_at = time.time()

    def to_wire(self) -> dict:
        """The JSON-safe status dict served over HTTP."""
        return {name: getattr(self, name) for name in self.WIRE}


class ResourceManager:
    """Registry, state machine driver and event stream of one kind.

    Loop-confined: every method runs on the service's event-loop thread.
    Subclasses implement ``create(request)`` (nested kinds:
    ``create(request, parent_id)``) and, if the kind can be stopped,
    ``delete(resource_id)``.

    Args:
        resource: the :class:`Resource` subclass managed.
        parent: the manager of the owning kind, for nested kinds.
    """

    delete = None

    def __init__(self, resource: type, parent: "ResourceManager | None" = None) -> None:
        self.resource = resource
        self.kind = resource.kind
        self.path = resource.path
        self.parent = parent
        self.draining = False
        self._items: dict = {}
        self._ids = itertools.count(1)
        self._events = EventLog()
        self._tasks: set = set()

    # -- registry ------------------------------------------------------

    def new_id(self) -> str:
        return f"{self.resource.prefix}-{next(self._ids)}"

    def add(self, resource: Resource) -> Resource:
        """Register a fresh resource and publish its initial state."""
        self._items[resource.id] = resource
        self._events.publish(resource.id, "state", state=resource.state)
        return resource

    def get(self, resource_id: str, parent: str | None = None) -> Resource:
        """The resource ``resource_id`` (of ``parent``, for nested kinds)."""
        resource = self._items.get(resource_id)
        if resource is None or (parent is not None and resource.parent != parent):
            raise UnknownResourceError(self.kind, resource_id)
        return resource

    def list(self, state: str | None = None, parent: str | None = None) -> list:
        """Resources in creation order, optionally filtered by state and
        (nested kinds) parent id."""
        if state is not None and state not in self.resource.STATES:
            raise ValueError(
                f"unknown {self.kind} state {state!r}; expected one of "
                f"{list(self.resource.STATES)}"
            )
        return [
            r for r in self._items.values()
            if (state is None or r.state == state)
            and (parent is None or r.parent == parent)
        ]

    __call__ = list

    def counts(self) -> dict:
        """``state -> count`` over every state (zeros included)."""
        counts = dict.fromkeys(self.resource.STATES, 0)
        for resource in self._items.values():
            counts[resource.state] += 1
        return counts

    # -- lifecycle -----------------------------------------------------

    def transition(self, resource: Resource, state: str, **fields) -> None:
        """Move ``resource`` to ``state``, set ``fields``, publish."""
        resource.transition(state)
        for name, value in fields.items():
            setattr(resource, name, value)
        self._events.publish(resource.id, "state", state=state)

    def publish(self, resource_id: str, kind: str, **payload) -> None:
        """Append a non-state (progress / trial) event to the stream."""
        self._events.publish(resource_id, kind, **payload)

    def spawn(self, coro) -> None:
        """Run ``coro`` as a task the manager holds until it finishes."""
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def check_open(self) -> None:
        if self.draining:
            raise ServiceClosedError(
                f"service is draining; not accepting {self.path}"
            )

    @staticmethod
    def validate(request, keys, what: str = "request") -> dict:
        """Boundary check: ``request`` is a dict using only ``keys``."""
        if not isinstance(request, dict):
            raise ValueError(f"{what} must be a dict, got {type(request).__name__}")
        unknown = set(request) - set(keys)
        if unknown:
            raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
        return request

    # -- event stream --------------------------------------------------

    def events(self, resource_id: str, after: int = -1) -> list:
        """Events with ``seq > after`` (non-blocking)."""
        self.get(resource_id)
        return self._events.events(resource_id, after)

    async def wait_events(self, resource_id: str, after: int = -1,
                          timeout: float | None = 30.0) -> tuple:
        """Long-poll for events past ``after``.

        Returns ``(events, stream_done)``: a possibly-empty ordered
        slice plus whether the resource is terminal (after which no
        further events arrive).
        """
        resource = self.get(resource_id)
        fresh = self._events.events(resource_id, after)
        if not fresh and not resource.terminal:
            fresh = await self._events.wait(resource_id, after, timeout)
        return fresh, resource.terminal

    async def wait(self, resource_id: str, timeout: float | None = None) -> Resource:
        """Await the end of the resource's ``PENDING`` states; return it.

        Raises ``TimeoutError`` past ``timeout`` seconds.
        """
        resource = self.get(resource_id)
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        after = self._events.last_seq(resource_id)
        while resource.state in resource.PENDING:
            remaining = None if deadline is None else deadline - loop.time()
            if remaining is not None and remaining <= 0:
                raise TimeoutError(f"{self.kind} {resource_id} still {resource.state}")
            fresh = await self._events.wait(resource_id, after, remaining)
            if fresh:
                after = fresh[-1].seq
        return resource
