"""The tracer: hierarchical spans, typed metrics, and trace sinks.

A :class:`Tracer` turns a run of the flow into an append-only stream of
small JSON-serializable *records*:

* ``span`` records — one per closed :class:`Span`, carrying the span
  name, a tracer-unique id, the parent span id (hierarchy), the
  monotonic start offset, the duration, and free-form attributes.
* ``event`` records — instantaneous points (e.g. the runtime telemetry
  events merged in by :class:`repro.runtime.Telemetry`).
* ``metric`` records — final aggregates of every typed instrument
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram`), emitted once
  when the tracer closes so hot-loop updates never touch a sink.

Records go to a bounded in-memory ring buffer (always) and to optional
sinks such as :class:`JsonlSink`.  The module also defines
:class:`NullTracer`, whose spans and instruments are shared no-op
singletons — the disabled path costs one attribute lookup and one call,
so uninstrumented runs pay ~nothing.

Tracers are single-threaded by design: the flow, the suite driver, and
the executor's scheduling loop all run on one thread.  Worker
*processes* never share the parent's tracer: a forked child that
inherits an installed tracer (and its open sink files) is muted — its
records are dropped instead of interleaving into the parent's stream.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque


class _NoopSpan:
    """Shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


class _NoopInstrument:
    """Shared do-nothing counter/gauge/histogram (a counter that reads 0)."""

    __slots__ = ()
    value = 0.0

    def inc(self, value: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NOOP_SPAN = _NoopSpan()
NOOP_INSTRUMENT = _NoopInstrument()


class NullTracer:
    """The default tracer: accepts everything, records nothing."""

    enabled = False

    def span(self, name: str, **attrs) -> _NoopSpan:
        return NOOP_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def counter(self, name: str) -> _NoopInstrument:
        return NOOP_INSTRUMENT

    def gauge(self, name: str) -> _NoopInstrument:
        return NOOP_INSTRUMENT

    def histogram(self, name: str) -> _NoopInstrument:
        return NOOP_INSTRUMENT

    def close(self) -> None:
        pass


class Span:
    """One timed, named region of the flow (a context manager).

    Spans nest: entering pushes the span onto the tracer's stack, so
    spans (and events) opened inside record this span's id as their
    parent.  Timing uses the tracer's monotonic clock.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "t0", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = 0
        self.t0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer._next_id()
        self.parent_id = tracer._current_id()
        tracer._stack.append(self)
        self.t0 = tracer.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        duration = tracer.now() - self.t0
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # tolerate out-of-order exits
            stack.remove(self)
        record = {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "t0": round(self.t0, 6),
            "dur": round(duration, 6),
        }
        if exc_type is not None:
            record["error"] = f"{exc_type.__name__}: {exc}"
        if self.attrs:
            record["attrs"] = _clean(self.attrs)
        tracer._emit(record)
        return False


class Counter:
    """Monotonically increasing count (e.g. maze-router rip-ups)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, value: float = 1.0) -> None:
        self.value += value

    def snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-value instrument (e.g. current overflow)."""

    kind = "gauge"
    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = None
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1

    def snapshot(self) -> dict:
        return {"value": self.value, "updates": self.updates}


class Histogram:
    """Streaming distribution summary (count/sum/min/max/mean).

    Aggregates in memory only; the distribution is written to the trace
    once, as a ``metric`` record, when the tracer closes — so observing
    inside a hot loop costs a few float operations and no I/O.
    """

    kind = "histogram"
    __slots__ = ("name", "count", "total", "lo", "hi")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.lo = None
        self.hi = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.lo is None or value < self.lo:
            self.lo = value
        if self.hi is None or value > self.hi:
            self.hi = value

    def snapshot(self) -> dict:
        mean = self.total / self.count if self.count else None
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.lo,
            "max": self.hi,
            "mean": mean,
        }


_INSTRUMENTS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Tracer:
    """Collects spans, events, and metrics from one run.

    Args:
        sinks: callables receiving each record dict (e.g. a
            :class:`JsonlSink`).
        ring_size: bound of the in-memory ring buffer (oldest records
            are dropped first).

    Example:
        >>> tracer = Tracer()
        >>> with tracer.span("flow", design="OR1200"):
        ...     with tracer.span("stage"):
        ...         tracer.counter("widgets").inc()
        >>> [r["name"] for r in tracer.ring]
        ['stage', 'flow']
    """

    enabled = True

    def __init__(self, sinks: list | None = None, ring_size: int = 4096) -> None:
        self.sinks = list(sinks or [])
        self.ring: deque = deque(maxlen=ring_size)
        self._born = time.perf_counter()
        self._ids = 0
        self._stack: list = []
        self._instruments: dict = {}
        self._closed = False
        self._pid = os.getpid()

    # -- clock / ids ---------------------------------------------------

    def now(self) -> float:
        """Monotonic seconds since the tracer was created."""
        return time.perf_counter() - self._born

    def _next_id(self) -> int:
        self._ids += 1
        return self._ids

    def _current_id(self) -> int:
        return self._stack[-1].span_id if self._stack else 0

    # -- recording -----------------------------------------------------

    def _emit(self, record: dict) -> None:
        # Fork safety: a worker forked while this tracer was installed
        # inherits both the tracer and its open sink files; letting the
        # child write would interleave buffered fragments into the
        # parent's JSONL stream.  Children keep their in-memory copy
        # but never touch the shared ring or sinks.
        if os.getpid() != self._pid:
            return
        self.ring.append(record)
        for sink in self.sinks:
            sink(record)

    def span(self, name: str, **attrs) -> Span:
        """Open a named span; use as a context manager."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record an instantaneous event under the current span."""
        record = {
            "type": "event",
            "name": name,
            "parent": self._current_id(),
            "t": round(self.now(), 6),
        }
        if attrs:
            record["attrs"] = _clean(attrs)
        self._emit(record)

    # -- instruments ---------------------------------------------------

    def _instrument(self, kind: str, name: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = _INSTRUMENTS[kind](name)
            self._instruments[name] = instrument
        elif instrument.kind != kind:
            raise TypeError(
                f"instrument {name!r} is a {instrument.kind}, not a {kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._instrument("counter", name)

    def gauge(self, name: str) -> Gauge:
        return self._instrument("gauge", name)

    def histogram(self, name: str) -> Histogram:
        return self._instrument("histogram", name)

    def metrics(self) -> dict:
        """``name -> snapshot`` of every instrument so far."""
        return {
            name: dict(kind=inst.kind, **inst.snapshot())
            for name, inst in sorted(self._instruments.items())
        }

    # -- lifecycle -----------------------------------------------------

    def flush_metrics(self) -> None:
        """Emit one ``metric`` record per instrument (idempotent data)."""
        for name, inst in sorted(self._instruments.items()):
            record = {"type": "metric", "kind": inst.kind, "name": name}
            record.update(_clean(inst.snapshot()))
            self._emit(record)

    def close(self) -> None:
        """Flush metric aggregates and close every closable sink."""
        if self._closed:
            return
        self._closed = True
        self.flush_metrics()
        for sink in self.sinks:
            closer = getattr(sink, "close", None)
            if closer is not None:
                closer()


class JsonlSink:
    """Appends one compact JSON object per record to ``path``."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file = open(self.path, "a")

    def __call__(self, record: dict) -> None:
        json.dump(record, self._file, separators=(",", ":"), default=_json_default)
        self._file.write("\n")

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


def read_trace(path: str) -> list:
    """Parse a JSONL trace file back into record dicts.

    Blank lines are skipped; a malformed line raises ``ValueError``
    naming the line number.
    """
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{lineno}: bad trace line: {error}") from None
    return records


def _clean(attrs: dict) -> dict:
    """JSON-safe copies of attribute values (numpy scalars included)."""
    return {key: _coerce(value) for key, value in attrs.items()}


def _coerce(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)  # numpy scalars
    if item is not None:
        try:
            return item()
        except (TypeError, ValueError):
            pass
    if isinstance(value, (list, tuple)):
        return [_coerce(v) for v in value]
    if isinstance(value, dict):
        return _clean(value)
    return str(value)


def _json_default(value):
    return _coerce(value) if not isinstance(value, (list, tuple, dict)) else str(value)
