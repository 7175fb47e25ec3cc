"""Process shards: persistent single-worker executors hosting placements.

A :class:`ProcessShard` wraps one :class:`repro.runtime.TaskExecutor`
configured as a *serving shard* (``persistent=True, force_pool=True,
jobs=1``): a long-lived single-process pool that executes one placement
at a time out-of-process.  The shard inherits the executor's whole
reliability surface for free — per-task timeouts kill a hung worker
(reclaiming the CPU, unlike the thread mode's abandon-and-hope), a
crashed worker fails only its own job through the crash-quarantine
path, and the pool is transparently rebuilt afterwards so the next
submit lands in a fresh process.

:func:`run_sharded` is the module-level (picklable) entry point every
sharded job funnels through.  Inside the worker process it installs a
private :class:`repro.serve.events.ProgressTracer` whose only sink is a
:class:`repro.obs.JsonlSink` on the per-job progress file, so the
progress spans the flow already emits (gp iteration, padding round, RRR
round) stream out through that file while every other span and
instrument stays a no-op.  When
the runner cannot cross the process boundary (test fakes built from
closures), the executor degrades inline in the parent — ``run_sharded``
detects that by pid and leaves the parent's tracer untouched.
"""

from __future__ import annotations

import os
import threading

from .. import obs
from ..runtime import Task, TaskExecutor
from .events import ProgressTracer


def run_sharded(runner, request: dict, progress_path: str | None,
                parent_pid: int):
    """Execute ``runner(request)``, streaming progress when out-of-process.

    The tracer install is strictly worker-process-local: running inline
    in the parent (unpicklable runner fallback) must not clobber the
    parent's tracer, and the per-job tracer is uninstalled before the
    persistent worker picks up its next job.
    """
    if progress_path is None or os.getpid() == parent_pid:
        return runner(request)
    tracer = ProgressTracer(sinks=[obs.JsonlSink(progress_path)])
    try:
        with obs.tracing(tracer):
            return runner(request)
    finally:
        tracer.close()


class ProcessShard:
    """One serving shard: a persistent single-process placement executor.

    The shard serializes its own submissions with a lock: after the
    service abandons a timed-out execution future, the executor thread
    may still be inside ``run_one`` for a moment while the pool worker
    is being killed, and the next job must wait for that to unwind
    rather than race the shared pool state.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.jobs_run = 0
        self._executor = TaskExecutor(
            jobs=1, retries=0, persistent=True, force_pool=True
        )
        self._lock = threading.Lock()

    def warm(self) -> None:
        """Fork the worker process up front (before helper threads)."""
        self._executor.warm()

    def execute(self, runner, request: dict, key: str,
                timeout: float | None = None,
                progress_path: str | None = None):
        """Blocking (thread-side): run one job, returning a TaskResult."""
        task = Task(
            key=key,
            fn=run_sharded,
            args=(runner, request, progress_path, os.getpid()),
            timeout=timeout,
            retries=0,
        )
        with self._lock:
            self.jobs_run += 1
            return self._executor.run_one(task)

    def abort(self) -> None:
        """Kill the worker process; the in-flight job fails, the shard
        recycles on the next submit."""
        self._executor.abort()

    def close(self) -> None:
        self._executor.close()

    def describe(self) -> dict:
        return {"index": self.index, "jobs_run": self.jobs_run}
