"""Fair, shed-capable job queue for the placement service.

:class:`FairQueue` replaces the plain ``asyncio.Queue`` the service used
through PR 5.  It keeps the same externally observable contract — a
bounded buffer with ``put_nowait`` / ``get`` / ``task_done`` / ``join``
— and adds the two scheduling policies the serving tier needs once many
clients share one deployment:

* **per-client fairness** — jobs are bucketed by ``client_id`` and
  dispatched by weighted round-robin across clients, so one chatty
  client saturating the queue cannot starve everyone else.  A client's
  integer weight (default 1) is how many jobs it may dispatch per
  round-robin cycle.
* **priority + load-shedding** — within one client's bucket the highest
  ``priority`` (larger int wins, default 0) dispatches first, FIFO
  among equals.  When the queue is full, :meth:`shed_lowest` lets the
  service evict the globally lowest-priority queued job to make room
  for a strictly more important submission; among equals the newest is
  shed so long-waiting work keeps its place.

The queue is loop-confined like the rest of the service: every method
must be called from the event-loop thread, so no locks are needed.
"""

from __future__ import annotations

import asyncio
from collections import deque


def scheduling_hints(request: dict, default_client: str) -> tuple:
    """Validated ``(priority, client_id)`` of a request dict.

    Both shape scheduling only — never the work — so jobs and
    explorations (whose trials become jobs) read them the same way.
    """
    priority = request.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ValueError("request 'priority' must be an int")
    client_id = request.get("client_id", default_client)
    if not isinstance(client_id, str) or not client_id:
        raise ValueError("request 'client_id' must be a non-empty string")
    return priority, client_id


class FairQueue:
    """Bounded multi-client job buffer with weighted-RR dispatch.

    Args:
        capacity: maximum number of buffered (queued) jobs.
        weights: ``client_id -> dispatch weight`` (missing clients get
            weight 1; non-positive weights are clamped to 1).
    """

    def __init__(self, capacity: int, weights: dict | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._weights = dict(weights or {})
        self._buckets: dict = {}   # client_id -> deque[Job]
        self._ring: list = []      # client ids in first-seen order
        self._credits: dict = {}   # client_id -> remaining slots this cycle
        self._cursor = 0
        self._size = 0
        self._unfinished = 0
        self._getters: deque = deque()
        self._drained: deque = deque()

    # -- introspection -------------------------------------------------

    def qsize(self) -> int:
        return self._size

    def full(self) -> bool:
        return self._size >= self.capacity

    def weight(self, client_id: str) -> int:
        return max(1, int(self._weights.get(client_id, 1)))

    def depths(self) -> dict:
        """``client_id -> queued jobs`` for every client with work."""
        return {
            cid: len(bucket)
            for cid, bucket in self._buckets.items()
            if bucket
        }

    # -- producer side -------------------------------------------------

    def put_nowait(self, job) -> None:
        """Buffer ``job`` (keyed by ``job.client_id``); raises when full."""
        if self.full():
            raise asyncio.QueueFull(f"queue at capacity {self.capacity}")
        client = job.client_id
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = deque()
            self._ring.append(client)
            self._credits[client] = self.weight(client)
        bucket.append(job)
        self._size += 1
        self._unfinished += 1
        while self._getters:
            getter = self._getters.popleft()
            if not getter.done():
                getter.set_result(None)
                break

    # -- consumer side -------------------------------------------------

    async def get(self):
        """The next job per fairness policy; waits while empty."""
        while self._size == 0:
            getter = asyncio.get_running_loop().create_future()
            self._getters.append(getter)
            await getter
        return self._pick()

    def _pick(self):
        """Weighted-RR across clients, priority-then-FIFO within one."""
        n = len(self._ring)
        for _cycle in range(2):
            for step in range(n):
                client = self._ring[(self._cursor + step) % n]
                bucket = self._buckets.get(client)
                if not bucket or self._credits.get(client, 0) <= 0:
                    continue
                self._credits[client] -= 1
                self._cursor = (self._cursor + step + 1) % n
                job = self._pop_best(bucket)
                self._size -= 1
                return job
            # Every client with work exhausted its credits: new cycle.
            for client in self._ring:
                self._credits[client] = self.weight(client)
        raise RuntimeError("FairQueue._pick on an empty queue")  # pragma: no cover

    @staticmethod
    def _pop_best(bucket: deque):
        """Remove and return the oldest highest-priority job."""
        best = 0
        for i in range(1, len(bucket)):
            if bucket[i].priority > bucket[best].priority:
                best = i
        job = bucket[best]
        del bucket[best]
        return job

    def task_done(self) -> None:
        """One previously-gotten job finished processing."""
        if self._unfinished <= 0:
            raise ValueError("task_done() called more times than items buffered")
        self._unfinished -= 1
        if self._unfinished == 0:
            while self._drained:
                waiter = self._drained.popleft()
                if not waiter.done():
                    waiter.set_result(None)

    async def join(self) -> None:
        """Wait until every buffered job has been processed."""
        while self._unfinished:
            waiter = asyncio.get_running_loop().create_future()
            self._drained.append(waiter)
            await waiter

    # -- eviction ------------------------------------------------------

    def remove(self, job) -> bool:
        """Drop ``job`` from its bucket (e.g. cancelled while queued).

        Returns ``True`` when the job was buffered; a job already picked
        up (or never enqueued) is a ``False`` no-op.
        """
        bucket = self._buckets.get(job.client_id)
        if not bucket:
            return False
        try:
            bucket.remove(job)
        except ValueError:
            return False
        self._size -= 1
        self.task_done()
        return True

    def shed_lowest(self, below: int):
        """Evict and return the lowest-priority queued job, if any is
        strictly below ``below``; among equals the newest goes first.

        Returns ``None`` (and evicts nothing) when every queued job is
        at least as important as the incoming one.
        """
        victim_bucket = None
        victim_index = None
        victim = None
        for bucket in self._buckets.values():
            for i, job in enumerate(bucket):
                if job.priority >= below:
                    continue
                if (
                    victim is None
                    or job.priority < victim.priority
                    or (
                        job.priority == victim.priority
                        and job.submitted_at >= victim.submitted_at
                    )
                ):
                    victim, victim_bucket, victim_index = job, bucket, i
        if victim is None:
            return None
        del victim_bucket[victim_index]
        self._size -= 1
        self.task_done()
        return victim
