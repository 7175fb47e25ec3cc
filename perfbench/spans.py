"""In-memory span recorder for the traced benchmark run.

The traced run times calls into each layer's public functions from the
benchmark's own files: :meth:`SpanRecorder.installed` swaps a timing
wrapper in at the binding the caller looks up (``repro.router.router.
maze_route``, ``repro.kernels.maze_search``, a class attribute for a
method), and puts the original back on exit.  Nothing in ``src/`` is
edited and untraced runs carry no wrapper at all.

Each call becomes one :class:`Span` with a parent link (per thread), so
a layer's *self time* is its duration minus the time of the wrapped
calls it made.  The benchmark wraps each traced op in a root span named
``op``; the root's self time is the share of the op no wrapper
accounts for.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Name of the root span the benchmark opens around each traced op.
ROOT = "op"

#: Dispatchers of :mod:`repro.kernels`, wrapped at the module attribute
#: their callers look up on every call.
KERNELS = (
    "rect_add", "bin_overlap", "rect_area", "maze_search", "abacus_trial",
    "steiner_batch",
)

#: Layers whose self time is reported as a share of the op.  ``worker``
#: has no span: it is shard compute, read off the ``Job`` records and
#: taken out of the client's ``serve`` self time.
LAYERS = (
    "placer", "core", "legalizer", "router", "kernels", "eco", "serve",
    "worker", "tpe",
)


class Span:
    """One wrapped call: name, start, end, and the enclosing span."""

    __slots__ = ("name", "t0", "t1", "parent", "thread")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.t0 = time.perf_counter()
        self.t1 = self.t0


def _count_true(name: str):
    def observe(counts, result):
        counts[name] += bool(result)
    return observe


def _count_attr(name: str, attr: str):
    def observe(counts, result):
        counts[name] += getattr(result, attr)
    return observe


def _count_found(counts, result):
    counts["router.maze_found"] += result is not None


def layer_targets() -> list:
    """``(owner, attribute, span name, observe)`` for every wrapped call.

    ``observe(counts, result)`` reads a count off the call's return
    value (GP iterations, RRR rounds, whether a maze search found a
    path); it runs outside the span.
    """
    mod = importlib.import_module
    engine = mod("repro.placer.engine")
    density = mod("repro.placer.density").ElectrostaticDensity
    congestion = mod("repro.core.congestion")
    puffer = mod("repro.core.puffer")
    router = mod("repro.router.router")
    reroute = mod("repro.router.incremental")
    region = mod("repro.legalizer.incremental")
    session = mod("repro.eco.session")
    rounds = _count_attr("router.rrr_rounds", "rounds")
    targets = [
        (engine.GlobalPlacer, "run", "placer.gp",
         _count_attr("placer.iterations", "iterations")),
        (mod("repro.placer.wirelength").WirelengthModel, "wa_and_grad",
         "placer.wa_grad", None),
        (density, "penalty_and_grad", "placer.density_grad", None),
        (density, "potential_and_field", "placer.poisson", None),
        (mod("repro.placer.nesterov").NesterovOptimizer, "step",
         "placer.nesterov", None),
        (mod("repro.core.optimizer").RoutabilityOptimizer, "__call__",
         "core.padding_hook", _count_true("core.padding_rounds")),
        (congestion.CongestionEstimator, "estimate", "core.estimate", None),
        (congestion, "build_topologies", "core.topologies", None),
        (congestion, "accumulate_demand", "core.demand", None),
        (congestion, "expand_demand", "core.expansion", None),
        (mod("repro.core.features").FeatureExtractor, "extract",
         "core.features", None),
        (mod("repro.core.padding").PaddingEngine, "run_round", "core.padding",
         None),
        (puffer, "legalize_abacus", "legalizer.abacus", None),
        (puffer, "padded_widths", "legalizer.padded_widths", None),
        (region, "legalize_abacus", "legalizer.abacus", None),
        (session, "legalize_abacus", "legalizer.abacus", None),
        (session, "padded_widths", "legalizer.padded_widths", None),
        (session, "legalize_region", "legalizer.region", None),
        (router.GlobalRouter, "run", "router.route", rounds),
        (session, "reroute_nets", "router.reroute", rounds),
        (session, "compute_dirty", "eco.dirty", None),
        (mod("repro.tpe.tpe").TPESampler, "suggest", "tpe.suggest", None),
        (mod("repro.runtime.shm").SharedDesignCache, "handle_for",
         "runtime.shm_publish", None),
        (mod("repro.serve.exploration").DistributedEvaluator, "__call__",
         "serve.wave", None),
    ]
    for module in (router, reroute):
        targets += [
            (module, "build_net_segments", "router.rsmt", None),
            (module, "best_pattern_route", "router.pattern", None),
            (module, "maze_route", "router.maze", _count_found),
            (module, "select_victims", "router.victims", None),
        ]
    kernels = mod("repro.kernels")
    targets += [(kernels, name, f"kernels.{name}", None) for name in KERNELS]
    return targets


class SpanRecorder:
    """Collects spans and counts in memory across the traced ops."""

    def __init__(self, targets: list | None = None) -> None:
        self.targets = layer_targets() if targets is None else targets
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the enclosed block."""
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            stack.pop()

    def _wrap(self, fn, name: str, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counts, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the enclosed block, then restore them."""
        saved = []
        try:
            for owner, attr, name, observe in self.targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> tuple:
        """``(per-name [self seconds, calls], per-layer self seconds,
        total root seconds)``.

        Layer sums cover only spans under an ``op`` root, so work on
        other threads (the service's executor publishing shared memory)
        is reported by name but never counted into an op's shares.
        """
        child = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child[id(span.parent)] += span.t1 - span.t0
        per_name: dict = defaultdict(lambda: [0.0, 0])
        per_layer: dict = defaultdict(float)
        roots: dict = {}
        root_total = 0.0
        for span in self.spans:
            own = (span.t1 - span.t0) - child[id(span)]
            entry = per_name[span.name]
            entry[0] += own
            entry[1] += 1
            # A parent is recorded before its children, so its root is known.
            root = span if span.parent is None else roots[id(span.parent)]
            roots[id(span)] = root
            if root.name == ROOT:
                per_layer[span.name.split(".")[0]] += own
                if span is root:
                    root_total += span.t1 - span.t0
        return per_name, per_layer, root_total

    def to_records(self) -> list:
        """Spans as ``[name, t0, t1, parent index, thread]`` rows."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [span.name, span.t0, span.t1,
             -1 if span.parent is None else index[id(span.parent)],
             span.thread]
            for span in self.spans
        ]
