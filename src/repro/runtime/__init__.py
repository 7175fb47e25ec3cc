"""Parallel job-execution runtime: executor, artifact cache, checkpointing.

The runtime packages the machinery every expensive loop in the repo
shares — the Table-II suite matrix and batched strategy exploration
today, sharded/serving workloads later:

* :class:`TaskExecutor` — process-pool execution with per-task
  timeouts, bounded retry with backoff, and worker-crash recovery;
  degrades to inline execution at ``jobs=1`` or for unpicklable tasks.
* :class:`ArtifactCache` / :func:`stable_hash` — content-addressed
  on-disk cache keyed by configuration hash.
* :class:`Journal` — append-only JSON-lines checkpoint enabling
  resume-after-kill.

Every layer narrates through the current :mod:`repro.obs` tracer: task
lifecycles, cache lookups and journal replays become ``runtime/<kind>``
events plus a ``runtime/<kind>`` counter each, which the CLI's
``runtime:`` summary line (:func:`repro.obs.report.runtime_summary`)
and the benchmarks read back.
"""

from .cache import MISSING, ArtifactCache, stable_hash
from .checkpoint import Journal
from .errors import (
    CheckpointError,
    RuntimeTaskError,
    TaskExecutionError,
    TaskTimeoutError,
    WorkerCrashError,
)
from .executor import Task, TaskExecutor, TaskResult
from .shm import (
    SharedDesign,
    SharedDesignCache,
    SharedDesignHandle,
    SharedMemoryError,
    attach_design,
    publish_design,
)

__all__ = [
    "ArtifactCache",
    "CheckpointError",
    "Journal",
    "MISSING",
    "RuntimeTaskError",
    "SharedDesign",
    "SharedDesignCache",
    "SharedDesignHandle",
    "SharedMemoryError",
    "Task",
    "TaskExecutionError",
    "TaskExecutor",
    "TaskResult",
    "TaskTimeoutError",
    "WorkerCrashError",
    "attach_design",
    "publish_design",
    "stable_hash",
]
