"""Process-pool task executor with timeouts, retries, and crash recovery.

The executor runs a batch of independent :class:`Task`s across worker
processes (``concurrent.futures.ProcessPoolExecutor``) and degrades
gracefully to inline execution when ``jobs=1`` or when a task payload
cannot cross the process boundary (e.g. a lambda flow).  It is the
substrate under the parallel suite matrix and batched strategy
exploration.

Fault model:

* A task that **raises** is retried up to its retry budget with
  exponential backoff, then reported as a failed :class:`TaskResult`
  carrying a :class:`repro.runtime.errors.TaskExecutionError` (the run
  continues; callers decide whether a failed cell is fatal).
* A task that **exceeds its timeout** is cancelled; if it is already
  running, the worker pool is torn down and rebuilt so the hung worker
  cannot poison later tasks.  In-flight innocents are resubmitted
  without an attempt penalty.
* A **worker crash** (``os._exit``, segfault, OOM kill) breaks the whole
  pool.  If exactly one task was in flight it is the culprit and is
  charged an attempt, failing with ``WorkerCrashError`` once its budget
  runs out.  With several tasks in flight the culprit cannot be told
  from the victims, so nobody is charged: the pool is rebuilt and the
  suspects are re-probed one at a time until each has either completed
  or broken the pool alone — innocents never lose attempts to someone
  else's crash, and the quarantine bounds the number of restarts.

Timeouts are enforced only in pool mode — inline execution cannot
preempt a running Python call, so ``jobs=1`` runs every task to
completion (documented degradation, mirrored by the tests).

Long-lived services (:mod:`repro.serve`) use two extra knobs:
``persistent=True`` keeps one process pool alive across ``run()``
calls instead of building and tearing one down per batch (call
:meth:`TaskExecutor.close` when done), and ``force_pool=True`` sends
work to the pool even at ``jobs=1`` — a single-process *shard* whose
tasks can crash, hang, time out, or be :meth:`~TaskExecutor.abort`-ed
without taking the parent down.  Aborting terminates the live workers,
so whatever is in flight fails through the ordinary crash-quarantine
path and the pool is rebuilt for the next task.
"""

from __future__ import annotations

import concurrent.futures as cf
import os
import pickle
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from .. import obs
from .errors import TaskExecutionError, TaskTimeoutError, WorkerCrashError

#: Scheduler poll interval (seconds) while futures are in flight.
_TICK = 0.05


def emit(kind: str, key: str = "", attempt: int = 0, wall_time: float = 0.0,
         detail: str = "") -> None:
    """Narrate one runtime event into the current tracer.

    Records a ``runtime/<kind>`` event (``key``: the task or cache key,
    ``""`` for global events such as pool restarts; ``wall_time``:
    seconds of a finished or failed attempt; ``attempt``: 1-based;
    ``detail``: free-form context) and counts it in the
    ``runtime/<kind>`` counter.  Kinds: ``task_started``,
    ``task_finished``, ``task_retried``, ``task_failed``,
    ``task_inline``, ``pool_restarted``, ``cache_hit``, ``cache_miss``
    and ``journal_replayed``.
    """
    name = "runtime/" + kind
    obs.event(name, key=key, wall_time=wall_time, attempt=attempt, detail=detail)
    obs.counter(name).inc()


def _warmup() -> int:
    """No-op task used by :meth:`TaskExecutor.warm` to spawn workers."""
    return os.getpid()


@dataclass
class Task:
    """One unit of work.

    Attributes:
        key: unique identifier (also the journal / event key).
        fn: callable executed as ``fn(*args, **kwargs)``; must be
            picklable (with its arguments) to run in a worker process,
            otherwise the task silently runs inline.
        args, kwargs: call arguments.
        timeout: per-task wall-clock budget in seconds (``None`` uses
            the executor default).
        retries: extra attempts after the first (``None`` uses the
            executor default).
    """

    key: str
    fn: object
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    timeout: float | None = None
    retries: int | None = None


@dataclass
class TaskResult:
    """Outcome of one task after all attempts.

    Attributes:
        key: the task's key.
        value: return value (``None`` on failure).
        error: the terminal exception, or ``None`` on success.
        attempts: attempts consumed.
        wall_time: seconds of the final attempt.
    """

    key: str
    value: object = None
    error: Exception | None = None
    attempts: int = 0
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class _Flight:
    """Bookkeeping for one submitted attempt."""

    task: Task
    attempt: int
    started: float
    deadline: float | None


class TaskExecutor:
    """Runs task batches inline or across a recoverable process pool.

    Args:
        jobs: worker-process count; ``<= 1`` means inline execution.
        retries: default extra attempts per task after the first.
        backoff: base retry delay in seconds, doubled per attempt.
        timeout: default per-task timeout (pool mode only).
        mp_context: ``multiprocessing`` context (``None`` = platform
            default; tests use it to force ``spawn``).
        persistent: keep one process pool alive across ``run()`` calls
            (the serving shards); call :meth:`close` to release it.
        force_pool: use the process pool even at ``jobs=1`` instead of
            degrading to inline execution — isolates every picklable
            task in a worker process.
    """

    def __init__(
        self,
        jobs: int = 1,
        retries: int = 1,
        backoff: float = 0.2,
        timeout: float | None = None,
        mp_context=None,
        persistent: bool = False,
        force_pool: bool = False,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = max(int(jobs), 1)
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.mp_context = mp_context
        self.persistent = persistent
        self.force_pool = force_pool
        self._pool: cf.ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, tasks: list, on_result=None) -> list:
        """Execute ``tasks`` and return their results in task order.

        Args:
            tasks: :class:`Task` batch; keys must be unique.
            on_result: optional callable receiving each final
                :class:`TaskResult` in *completion* order (the natural
                place to append a checkpoint journal).

        Returns:
            ``TaskResult`` list aligned with ``tasks``.
        """
        tasks = list(tasks)
        keys = [t.key for t in tasks]
        if len(set(keys)) != len(keys):
            raise ValueError("task keys must be unique")
        results: dict = {}
        if self.jobs <= 1 and not self.force_pool:
            for task in tasks:
                results[task.key] = self._run_inline(task, on_result)
            return [results[k] for k in keys]

        pool_tasks, inline_tasks = self._split_picklable(tasks)
        if pool_tasks:
            self._run_pool(pool_tasks, results, on_result)
        for task in inline_tasks:
            results[task.key] = self._run_inline(task, on_result)
        return [results[k] for k in keys]

    def run_one(self, task: Task) -> TaskResult:
        """Execute a single task and return its :class:`TaskResult`.

        The submission hook used by the :mod:`repro.serve` worker pool:
        each service worker owns an inline executor and funnels one job
        at a time through it, inheriting the retry/backoff accounting
        and runtime events of :meth:`run`.  Safe to call concurrently
        from several threads on an inline (``jobs=1``) executor — the
        inline path keeps no shared mutable state of its own.
        """
        return self.run([task])[0]

    def map(self, fn, items: list, key_prefix: str = "item") -> list:
        """Apply ``fn`` to every item, preserving order; raise on failure.

        A thin convenience for callers (batched exploration) that want
        plain values back and treat any task failure as fatal.
        """
        tasks = [
            Task(key=f"{key_prefix}-{i}", fn=fn, args=(item,))
            for i, item in enumerate(items)
        ]
        out = []
        for result in self.run(tasks):
            if not result.ok:
                raise result.error
            out.append(result.value)
        return out

    # ------------------------------------------------------------------
    # Inline path
    # ------------------------------------------------------------------

    def _budget(self, task: Task) -> int:
        return self.retries if task.retries is None else task.retries

    def _run_inline(self, task: Task, on_result) -> TaskResult:
        budget = self._budget(task)
        attempt = 0
        while True:
            attempt += 1
            emit("task_started", task.key, attempt=attempt)
            start = time.perf_counter()
            try:
                value = task.fn(*task.args, **task.kwargs)
            except BaseException as exc:
                wall = time.perf_counter() - start
                error = TaskExecutionError(task.key, str(exc), traceback.format_exc())
                if attempt <= budget:
                    emit("task_retried", task.key, attempt=attempt, detail=str(exc))
                    time.sleep(self.backoff * (2 ** (attempt - 1)))
                    continue
                return self._finalize(
                    task, on_result,
                    TaskResult(task.key, error=error, attempts=attempt, wall_time=wall),
                )
            wall = time.perf_counter() - start
            return self._finalize(
                task, on_result,
                TaskResult(task.key, value=value, attempts=attempt, wall_time=wall),
            )

    # ------------------------------------------------------------------
    # Pool path
    # ------------------------------------------------------------------

    def _split_picklable(self, tasks: list) -> tuple:
        pool_tasks, inline_tasks = [], []
        payload_bytes = 0
        with obs.span("runtime/ipc/pickle_check", tasks=len(tasks)) as span:
            for task in tasks:
                try:
                    blob = pickle.dumps((task.fn, task.args, task.kwargs))
                except (pickle.PicklingError, TypeError, AttributeError):
                    emit("task_inline", task.key, detail="unpicklable payload")
                    inline_tasks.append(task)
                else:
                    payload_bytes += len(blob)
                    pool_tasks.append(task)
            span.set(bytes=payload_bytes)
        return pool_tasks, inline_tasks

    def _make_pool(self) -> cf.ProcessPoolExecutor:
        return cf.ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=self.mp_context
        )

    def _acquire_pool(self) -> cf.ProcessPoolExecutor:
        """The pool for one ``run()``: fresh, or the retained one."""
        if self.persistent:
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool
        return self._make_pool()

    def _kill_pool(self, pool: cf.ProcessPoolExecutor) -> None:
        """Tear a pool down hard, terminating any hung workers."""
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except (OSError, ValueError, AttributeError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def warm(self) -> None:
        """Spawn the persistent pool's worker processes eagerly.

        Forking is safest before the caller grows helper threads, so
        services call this once at startup from their main thread.  A
        no-op unless the executor is persistent and pool-capable.
        """
        if not (self.persistent and (self.jobs > 1 or self.force_pool)):
            return
        pool = self._acquire_pool()
        futures = [pool.submit(_warmup) for _ in range(self.jobs)]
        for future in futures:
            future.result()

    def abort(self) -> None:
        """Terminate the persistent pool's workers (best effort).

        Whatever is in flight fails through the crash-quarantine path
        of the scheduling loop — the observable outcome of the aborted
        task is a ``WorkerCrashError`` once its retry budget is spent —
        and the pool is rebuilt for the next task.  Callers use this to
        actually stop a running task, which cooperative cancellation
        cannot do.
        """
        pool = self._pool
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except (OSError, ValueError, AttributeError):
                pass

    def close(self) -> None:
        """Release the persistent pool (idempotent)."""
        if self._pool is not None:
            self._kill_pool(self._pool)
            self._pool = None

    def _run_pool(self, tasks: list, results: dict, on_result) -> None:
        # Ready queue entries are (task, attempt, ready_at); the ready_at
        # stamp implements non-blocking retry backoff.
        queue = [(task, 1, 0.0) for task in tasks]
        inflight: dict = {}
        # Keys quarantined after a multi-task pool break: probed one at a
        # time so a repeat break implicates exactly one task.
        suspects: set = set()
        pool = self._acquire_pool()
        try:
            while queue or inflight:
                now = time.perf_counter()
                ready = [item for item in queue if item[2] <= now]
                window = 1 if suspects else self.jobs
                if suspects:
                    ready.sort(key=lambda item: item[0].key not in suspects)
                while ready and len(inflight) < window:
                    task, attempt, _ = item = ready.pop(0)
                    queue.remove(item)
                    emit("task_started", task.key, attempt=attempt)
                    start = time.perf_counter()
                    timeout = self.timeout if task.timeout is None else task.timeout
                    deadline = None if timeout is None else start + timeout
                    try:
                        future = pool.submit(task.fn, *task.args, **task.kwargs)
                    except (BrokenProcessPool, RuntimeError):
                        # A persistent pool aborted (or broken) between
                        # batches: rebuild and resubmit without penalty.
                        queue.append((task, attempt, 0.0))
                        pool = self._restart_pool(pool, "broken at submit")
                        break
                    inflight[future] = _Flight(task, attempt, start, deadline)

                if not inflight:
                    # Everything queued is backing off; sleep to the
                    # earliest ready stamp instead of busy-waiting.
                    wake = min(item[2] for item in queue)
                    time.sleep(max(wake - time.perf_counter(), 0.0) + 0.001)
                    continue

                done, _pending = cf.wait(
                    set(inflight), timeout=_TICK, return_when=cf.FIRST_COMPLETED
                )
                doomed = []
                for future in done:
                    flight = inflight.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        doomed.append(flight)
                    except cf.CancelledError:
                        # Cancelled by the timeout sweep of an earlier
                        # iteration; already accounted for there.
                        continue
                    except BaseException as exc:
                        suspects.discard(flight.task.key)
                        self._after_failure(flight, exc, queue, results, on_result)
                    else:
                        suspects.discard(flight.task.key)
                        wall = time.perf_counter() - flight.started
                        result = TaskResult(
                            flight.task.key, value=value,
                            attempts=flight.attempt, wall_time=wall,
                        )
                        results[flight.task.key] = self._finalize(
                            flight.task, on_result, result
                        )

                if doomed:
                    # The pool is broken: every in-flight future is doomed.
                    doomed.extend(inflight.values())
                    inflight.clear()
                    if len(doomed) == 1:
                        # Sole occupant of the pool: definitely the culprit.
                        # Stays quarantined while retrying; released once a
                        # result (terminal failure here, or a later
                        # success) is recorded.
                        flight = doomed[0]
                        self._after_crash(flight, queue, results, on_result)
                        if flight.task.key in results:
                            suspects.discard(flight.task.key)
                        else:
                            suspects.add(flight.task.key)
                    else:
                        # Ambiguous break: charge nobody, quarantine all.
                        for flight in doomed:
                            suspects.add(flight.task.key)
                            queue.append((flight.task, flight.attempt, 0.0))
                    pool = self._restart_pool(pool, "worker crash")
                    continue

                # Timeout sweep.
                now = time.perf_counter()
                hung = False
                for future, flight in list(inflight.items()):
                    if flight.deadline is None or now <= flight.deadline or future.done():
                        continue
                    cancelled = future.cancel()
                    del inflight[future]
                    self._after_timeout(flight, queue, results, on_result)
                    if flight.task.key in results:
                        suspects.discard(flight.task.key)
                    if not cancelled:
                        hung = True  # already running: worker must die
                if hung:
                    for future, flight in list(inflight.items()):
                        if not future.done():
                            # Innocent victims of the restart: resubmit
                            # with no attempt penalty.
                            del inflight[future]
                            queue.append((flight.task, flight.attempt, 0.0))
                    pool = self._restart_pool(pool, "hung worker")
        finally:
            if not self.persistent:
                pool.shutdown(wait=False, cancel_futures=True)

    def _restart_pool(self, pool, why: str) -> cf.ProcessPoolExecutor:
        self._kill_pool(pool)
        emit("pool_restarted", detail=why)
        fresh = self._make_pool()
        if self.persistent:
            self._pool = fresh
        return fresh

    # ------------------------------------------------------------------
    # Attempt accounting
    # ------------------------------------------------------------------

    def _retry_or_fail(self, flight: _Flight, error, queue, results, on_result) -> None:
        task = flight.task
        if flight.attempt <= self._budget(task):
            emit("task_retried", task.key, attempt=flight.attempt, detail=str(error))
            ready_at = time.perf_counter() + self.backoff * (2 ** (flight.attempt - 1))
            queue.append((task, flight.attempt + 1, ready_at))
            return
        wall = time.perf_counter() - flight.started
        result = TaskResult(task.key, error=error, attempts=flight.attempt, wall_time=wall)
        results[task.key] = self._finalize(task, on_result, result)

    def _after_failure(self, flight, exc, queue, results, on_result) -> None:
        remote_tb = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        error = TaskExecutionError(flight.task.key, str(exc), remote_tb)
        self._retry_or_fail(flight, error, queue, results, on_result)

    def _after_timeout(self, flight, queue, results, on_result) -> None:
        timeout = self.timeout if flight.task.timeout is None else flight.task.timeout
        error = TaskTimeoutError(flight.task.key, timeout)
        self._retry_or_fail(flight, error, queue, results, on_result)

    def _after_crash(self, flight, queue, results, on_result) -> None:
        error = WorkerCrashError(flight.task.key)
        self._retry_or_fail(flight, error, queue, results, on_result)

    def _finalize(self, task: Task, on_result, result: TaskResult) -> TaskResult:
        kind = "task_finished" if result.ok else "task_failed"
        detail = "" if result.ok else str(result.error)
        emit(kind, task.key, attempt=result.attempts,
             wall_time=result.wall_time, detail=detail)
        if on_result is not None:
            on_result(result)
        return result
