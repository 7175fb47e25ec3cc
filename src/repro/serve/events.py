"""Job event streams: progress capture in shard workers, fan-out to clients.

The streaming pipeline has three small parts:

* :class:`ProgressWriter` — the sink of a :class:`ProgressTracer`
  installed *inside the worker process* (see
  :func:`repro.serve.shards.run_sharded`).
  It filters the span stream down to the three progress loops the flow
  already narrates (``gp/iteration``, ``puffer/padding_round``,
  ``route/rrr_round``), converts each closed span into a
  :class:`repro.schema.JobProgress`, and appends it as one JSONL line to
  a per-job progress file, flushed per line.  A file is the channel on
  purpose: it survives the worker being killed mid-placement (the
  parent just stops seeing new lines) and needs no picklable plumbing
  through the process pool.
* :func:`read_new_progress` — the parent-side incremental reader: parse
  every *complete* line past a byte offset (a torn final line is left
  for the next poll) and return the samples plus the new offset.
* :class:`EventLog` — the loop-confined per-resource event journal
  each :class:`repro.serve.resources.ResourceManager` keeps.  Every
  lifecycle transition, progress sample and exploration trial becomes
  a monotonically sequenced :class:`repro.schema.JobEvent`; long-poll
  readers park a future and are woken by the next publish.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time

from ..obs import Tracer
from ..obs.trace import NOOP_INSTRUMENT, NOOP_SPAN
from ..schema import PROGRESS_STAGES, JobEvent, JobProgress

#: Span attribute holding the loop counter, per stage.
_STEP_ATTR = {"gp": "i", "padding": "round", "route": "round"}


def progress_from_record(record: dict):
    """Map one tracer record to a :class:`JobProgress`, or ``None``.

    Only closed-span records whose name is a known progress stage
    qualify; the stage's loop-counter attribute becomes ``step`` and
    every other scalar attribute is carried in ``metrics``.
    """
    if record.get("type") != "span":
        return None
    stage = PROGRESS_STAGES.get(record.get("name"))
    if stage is None:
        return None
    attrs = dict(record.get("attrs") or {})
    step = attrs.pop(_STEP_ATTR[stage], None)
    if not isinstance(step, int) or isinstance(step, bool) or step < 0:
        return None
    metrics = {
        key: value
        for key, value in attrs.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    return JobProgress(stage=stage, step=step, metrics=metrics)


class ProgressTracer(Tracer):
    """A tracer that records the progress spans and nothing else.

    Every other span, event and instrument is the shared no-op
    singleton, so a shard worker pays for the few records its
    :class:`ProgressWriter` keeps rather than for the whole trace.
    """

    def span(self, name: str, **attrs):
        if name in PROGRESS_STAGES:
            return super().span(name, **attrs)
        return NOOP_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def _instrument(self, kind: str, name: str):
        return NOOP_INSTRUMENT


class ProgressWriter:
    """Tracer sink writing progress samples as JSONL to ``path``."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file = open(self.path, "a")

    def __call__(self, record: dict) -> None:
        progress = progress_from_record(record)
        if progress is None:
            return
        # json.dumps, not json.dump: the one-shot encoder is the C one.
        self._file.write(
            json.dumps(progress.to_dict(), separators=(",", ":")) + "\n"
        )
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


def read_new_progress(path: str, offset: int = 0) -> tuple:
    """Parse complete progress lines past ``offset``.

    Returns ``(samples, new_offset)``.  A missing file (worker not
    started yet, or already cleaned up) and a torn final line are both
    "nothing new yet"; a garbled complete line is skipped rather than
    poisoning the stream.
    """
    try:
        with open(path, "rb") as f:
            f.seek(offset)
            data = f.read()
    except OSError:
        return [], offset
    end = data.rfind(b"\n")
    if end < 0:
        return [], offset
    samples = []
    for line in data[: end + 1].splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            samples.append(JobProgress.from_dict(json.loads(line)))
        except ValueError:  # includes SchemaError and JSONDecodeError
            continue
    return samples, offset + end + 1


class EventLog:
    """Per-resource ordered event journal with long-poll wakeups.

    Loop-confined like the service: ``publish`` and ``wait`` must both
    run on the event-loop thread, which makes the waiter bookkeeping
    race-free without locks.  A served job publishes hundreds of
    progress samples and the log keeps them until the service stops, so
    each is stored as a compact record (:func:`_pack`) and rebuilt into
    an equal :class:`JobEvent` on read.
    """

    def __init__(self) -> None:
        self._events: dict = {}   # job_id -> [JobEvent | packed progress, ...]
        self._waiters: dict = {}  # job_id -> [Future, ...]

    def publish(self, job_id: str, kind: str, state: str | None = None,
                progress: JobProgress | None = None, trial=None) -> JobEvent:
        """Append one event (seq auto-assigned) and wake every waiter."""
        events = self._events.setdefault(job_id, [])
        event = JobEvent(
            seq=len(events), kind=kind, job_id=job_id, ts=time.time(),
            state=state, progress=progress, trial=trial,
        )
        events.append(_pack(event))
        for waiter in self._waiters.pop(job_id, []):
            if not waiter.done():
                waiter.set_result(None)
        return event

    def events(self, job_id: str, after: int = -1) -> list:
        """Every event of ``job_id`` with ``seq > after``, in order."""
        first = max(after + 1, 0)
        stored = self._events.get(job_id, [])[first:]
        return [_unpack(job_id, seq, entry) for seq, entry in enumerate(stored, first)]

    def last_seq(self, job_id: str) -> int:
        """The newest event's ``seq`` (``-1`` for an empty stream)."""
        return len(self._events.get(job_id, ())) - 1

    async def wait(self, job_id: str, after: int = -1,
                   timeout: float | None = None) -> list:
        """Long-poll: events past ``after``, waiting up to ``timeout``
        for the first one.  A timeout returns the (possibly empty)
        current slice rather than raising.
        """
        fresh = self.events(job_id, after)
        if fresh:
            return fresh
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.setdefault(job_id, []).append(waiter)
        try:
            await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            pending = self._waiters.get(job_id)
            if pending and waiter in pending:
                pending.remove(waiter)
        return self.events(job_id, after)


#: Layouts of packed progress records, shared by every record of the
#: same stage and metric names and types: ``(stage, names, codec)``.
_LAYOUTS: dict = {}
_CODES = {float: "d", int: "q"}


def _pack(event: JobEvent):
    """A progress event as ``(layout, bytes)``: its timestamp, step and
    metric values in one ``struct`` blob (lossless: float64 stays
    float64, ints stay ints).  Any other event, or a value that does
    not fit, is kept as it is."""
    if event.kind != "progress":
        return event
    progress = event.progress
    values = (event.ts, progress.step, *progress.metrics.values())
    codes = "".join(_CODES.get(type(value), "?") for value in values)
    if "?" in codes:
        return event
    key = (progress.stage, tuple(progress.metrics), codes)
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS[key] = (*key[:2], struct.Struct("<" + codes))
    try:
        return layout, layout[2].pack(*values)
    except struct.error:  # an int beyond 64 bits
        return event


def _unpack(job_id: str, seq: int, entry) -> JobEvent:
    if isinstance(entry, JobEvent):
        return entry
    (stage, names, codec), blob = entry
    ts, step, *values = codec.unpack(blob)
    return JobEvent(
        seq=seq, kind="progress", job_id=job_id, ts=ts,
        progress=JobProgress(stage=stage, step=step, metrics=dict(zip(names, values))),
    )
