"""Incremental placement sessions: converge once, then apply deltas.

An :class:`EcoSession` owns a converged PUFFER run — cell positions, the
accumulated *continuous* padding (the input of Eq. 17), the discretized
legalization widths, and the router's live demand/segment state — and
applies typed :mod:`repro.eco.deltas` edits against it:

* geometric edits (resize, add, remove, macro move) re-legalize only the
  dirtied rows via the existing Abacus path
  (:func:`repro.legalizer.legalize_region`) and re-route only the nets
  crossing the dirtied Gcell window
  (:func:`repro.router.incremental.reroute_nets`);
* strategy edits (and geometric edits whose dirty fraction exceeds
  ``EcoParams.full_place_threshold``) warm-start global placement from
  the previous converged positions with the padding history recycled
  across runs (paper Eq. 15 via ``PaddingEngine(initial_pad=...)``),
  then legalize and route fully.

Each applied delta bumps the session version and yields an
:class:`EcoResult`, and the :mod:`repro.verify` invariant checkers can
audit every intermediate state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .. import obs
from ..api import RunConfig
from ..core import PufferPlacer, StrategyParams
from ..core.optimizer import RoutabilityOptimizer
from ..legalizer import legalize_abacus, legalize_region, padded_widths
from ..legalizer.abacus import LegalizeResult
from ..netlist import add_cell as netlist_add_cell
from ..netlist import remove_cell as netlist_remove_cell
from ..netlist.design import Design
from ..placer import GlobalPlacer
from ..router import GlobalRouter, reroute_nets
from ..router.router import RouteReport
from ..runtime.cache import MISSING, stable_hash
from ..schema import dataclass_from_dict, dataclass_to_dict
from ..verify import VerifyContext, run_checkers
from .deltas import (
    AddCell,
    ChangeStrategy,
    MoveMacro,
    RemoveCell,
    ResizeCell,
)
from .dirty import compute_dirty, nets_of_cells


@dataclass
class EcoParams:
    """Knobs of the incremental engine.

    Attributes:
        legal_margin_sites: horizontal inflation (sites) of an edit's
            footprint when collecting cells to re-legalize.
        legal_margin_rows: vertical inflation (rows) of the same.
        route_margin_gcells: Gcell inflation of the dirty routing window.
        reroute_rounds: bounded local RRR rounds per incremental reroute.
        max_reroute: rip-up cap per local round.
        max_row_search: Abacus row-search radius for dirty-region
            legalization (small keeps the repair local).
        warm_gp_iters: Nesterov iteration cap for warm-started global
            re-placement.
        full_place_threshold: dirty movable-cell fraction above which a
            geometric edit escalates to the warm re-place path.
    """

    legal_margin_sites: int = 24
    legal_margin_rows: int = 1
    route_margin_gcells: int = 4
    reroute_rounds: int = 2
    max_reroute: int = 2000
    max_row_search: int = 4
    warm_gp_iters: int = 48
    full_place_threshold: float = 0.25

    def to_dict(self) -> dict:
        """JSON-safe wire dict (see :mod:`repro.schema`)."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EcoParams":
        """Rebuild from :meth:`to_dict`; unknown keys raise ``SchemaError``."""
        return dataclass_from_dict(cls, data)


@dataclass
class EcoResult:
    """Outcome of one session step (the cold start or one delta).

    Attributes:
        version: session version after this step (0 = cold start).
        kind: ``"start"`` or the applied delta's kind tag.
        delta: the applied delta's wire dict (``None`` for the start).
        hpwl: post-step legalized HPWL.
        hof / vof / wirelength: post-step routing metrics.
        dirty_cells / dirty_nets: size of the recomputed region.
        full_fallbacks: stages that escalated to a full recompute
            (``"place"`` for the warm re-place path, ``"legalize"``
            when the local repair did not fit).
        seconds: wall time per stage plus ``"total"``.
        verify_ok / verify_errors / verify_warnings: invariant-checker
            outcome (``None``/0/0 when verification was off).
    """

    version: int
    kind: str
    delta: dict | None
    hpwl: float
    hof: float
    vof: float
    wirelength: float
    dirty_cells: int = 0
    dirty_nets: int = 0
    full_fallbacks: list = field(default_factory=list)
    seconds: dict = field(default_factory=dict)
    verify_ok: bool | None = None
    verify_errors: int = 0
    verify_warnings: int = 0

    def to_summary(self) -> dict:
        """A JSON-safe summary (the sessions-API result format)."""
        return {
            "version": int(self.version),
            "kind": self.kind,
            "delta": self.delta,
            "hpwl": float(self.hpwl),
            "hof": float(self.hof),
            "vof": float(self.vof),
            "wirelength": float(self.wirelength),
            "dirty_cells": int(self.dirty_cells),
            "dirty_nets": int(self.dirty_nets),
            "full_fallbacks": list(self.full_fallbacks),
            "seconds": {k: float(v) for k, v in self.seconds.items()},
            "verify": None
            if self.verify_ok is None
            else {
                "ok": bool(self.verify_ok),
                "errors": int(self.verify_errors),
                "warnings": int(self.verify_warnings),
            },
        }


class EcoSession:
    """A stateful incremental-placement session.

    Args:
        design: a :class:`~repro.netlist.design.Design` or a suite
            benchmark name (generated from ``config.scale`` /
            ``config.seed``; name-based sessions can reuse a cold start
            from ``cache``).
        config: the run configuration of the underlying flow.
        eco: incremental-engine knobs.
        cache: optional :class:`repro.runtime.cache.ArtifactCache`; the
            converged cold-start state (positions + padding) is memoized
            under a :func:`~repro.runtime.cache.stable_hash` key.

    Example:
        >>> from repro.eco import EcoSession, ResizeCell
        >>> session = EcoSession("OR1200", config=RunConfig(scale=0.002))
        >>> base = session.start()                       # doctest: +SKIP
        >>> step = session.apply(ResizeCell(cell=7, width=12.0))  # doctest: +SKIP
    """

    def __init__(
        self,
        design,
        config: RunConfig | None = None,
        eco: EcoParams | None = None,
        cache=None,
    ) -> None:
        self.config = config or RunConfig()
        self.eco = eco or EcoParams()
        self.cache = cache
        self._from_name = isinstance(design, str)
        if self._from_name:
            from ..benchgen import make_design

            self._name = design
            design = make_design(design, self.config.scale, seed=self.config.seed)
        else:
            self._name = design.name
        self.design: Design = design
        self.strategy = self.config.strategy or StrategyParams()
        self.pad: np.ndarray | None = None
        self.legal_widths: np.ndarray | None = None
        self.padding_rounds = 0
        self.route_report: RouteReport | None = None
        self.version = -1
        self.history: list = []
        self.closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self.route_report is not None

    def close(self) -> None:
        """Release the retained state (the session becomes unusable)."""
        self.closed = True
        self.route_report = None

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("session is closed")

    def _cache_key(self) -> str:
        return stable_hash(
            {
                "eco_start": self._name,
                "config": self.config.to_dict(),
            }
        )

    def start(self) -> EcoResult:
        """Run (or restore) the converged baseline; version becomes 0."""
        self._check_open()
        if self.started:
            raise RuntimeError("session already started")
        start = time.perf_counter()
        seconds: dict = {}
        with obs.span("eco/start", design=self._name) as span:
            restored = self._restore_start() if self._from_name else False
            if not restored:
                t0 = time.perf_counter()
                flow = PufferPlacer(
                    self.design,
                    strategy=self.config.strategy,
                    placement=self.config.placement,
                )
                result = flow.run()
                seconds["place"] = time.perf_counter() - t0
                self.pad = result.padding
                self.legal_widths = result.legal_widths
                self.padding_rounds = result.padding_rounds
                if self.cache is not None and self._from_name:
                    self.cache.put(
                        self._cache_key(),
                        {
                            "x": self.design.x.copy(),
                            "y": self.design.y.copy(),
                            "pad": self.pad.copy(),
                            "legal_widths": np.asarray(self.legal_widths).copy(),
                            "padding_rounds": self.padding_rounds,
                        },
                    )
            t0 = time.perf_counter()
            self.route_report = GlobalRouter(
                self.design, self.config.router, keep_state=True
            ).run()
            seconds["route"] = time.perf_counter() - t0
            self.version = 0
            span.set(restored=restored, hpwl=self.design.hpwl())
        result = self._result(
            kind="start", delta=None, dirty=None, fallbacks=[], seconds=seconds,
            start=start, verify_report=None,
        )
        self.history.append(result)
        return result

    def _restore_start(self) -> bool:
        """Warm the session from a cached cold start, if present."""
        if self.cache is None:
            return False
        cached = self.cache.get(self._cache_key())
        if cached is MISSING:
            return False
        self.design.x[:] = cached["x"]
        self.design.y[:] = cached["y"]
        self.pad = np.asarray(cached["pad"]).copy()
        self.legal_widths = np.asarray(cached["legal_widths"]).copy()
        self.padding_rounds = int(cached["padding_rounds"])
        return True

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------

    def apply(self, delta, verify: str = "off") -> EcoResult:
        """Apply one typed delta; returns the step's :class:`EcoResult`.

        Args:
            delta: a :mod:`repro.eco.deltas` instance or its wire dict.
            verify: invariant-checker level run on the updated state
                (``"off"``, ``"cheap"``, or ``"full"``).
        """
        self._check_open()
        if not self.started:
            raise RuntimeError("session not started; call start() first")
        if isinstance(delta, dict):
            from .deltas import delta_from_dict

            delta = delta_from_dict(delta)
        start = time.perf_counter()
        seconds: dict = {}
        with obs.span("eco/apply", kind=delta.KIND, version=self.version + 1) as span:
            dirty, fallbacks = self._dispatch(delta, seconds)
            obs.counter("eco/deltas").inc()
            if dirty is not None:
                span.set(
                    dirty_cells=len(dirty.cells),
                    dirty_nets=len(dirty.nets),
                    fraction=dirty.fraction,
                )
            verify_report = None
            if verify != "off":
                t0 = time.perf_counter()
                verify_report = run_checkers(self._verify_context(), level=verify)
                seconds["verify"] = time.perf_counter() - t0
                span.set(verify_errors=len(verify_report.errors))
        self.version += 1
        result = self._result(
            kind=delta.KIND,
            delta=delta.to_dict(),
            dirty=dirty,
            fallbacks=fallbacks,
            seconds=seconds,
            start=start,
            verify_report=verify_report,
        )
        self.history.append(result)
        return result

    def _dispatch(self, delta, seconds) -> tuple:
        if isinstance(delta, ResizeCell):
            return self._apply_resize(delta, seconds)
        if isinstance(delta, MoveMacro):
            return self._apply_move_macro(delta, seconds)
        if isinstance(delta, AddCell):
            return self._apply_add_cell(delta, seconds)
        if isinstance(delta, RemoveCell):
            return self._apply_remove_cell(delta, seconds)
        if isinstance(delta, ChangeStrategy):
            return self._apply_change_strategy(delta, seconds)
        raise TypeError(f"unsupported delta type {type(delta).__name__}")

    # -- geometric edits ------------------------------------------------

    def _cell_rect(self, cell: int) -> tuple:
        d = self.design
        return (
            float(d.x[cell]),
            float(d.y[cell]),
            float(d.x[cell] + d.w[cell]),
            float(d.y[cell] + d.h[cell]),
        )

    def _apply_resize(self, delta: ResizeCell, seconds) -> tuple:
        d = self.design
        cell = int(delta.cell)
        if not (0 <= cell < d.num_cells):
            raise ValueError(f"cell index {cell} out of range")
        if not (d.movable[cell] and not d.is_macro[cell]):
            raise ValueError(f"cell {cell} is not a movable standard cell")
        if delta.width <= 0:
            raise ValueError("width must be positive")
        old = self._cell_rect(cell)
        d.w[cell] = float(delta.width)
        if delta.height is not None:
            d.h[cell] = float(delta.height)
        new = self._cell_rect(cell)
        return self._local_repair([cell], [old, new], seconds)

    def _apply_move_macro(self, delta: MoveMacro, seconds) -> tuple:
        d = self.design
        macro = int(delta.macro)
        if not (0 <= macro < d.num_cells):
            raise ValueError(f"macro index {macro} out of range")
        if not (d.is_macro[macro] or not d.movable[macro]):
            raise ValueError(f"cell {macro} is not a macro or fixed cell")
        old = self._cell_rect(macro)
        d.x[macro] = float(delta.x)
        d.y[macro] = float(delta.y)
        new = self._cell_rect(macro)
        return self._local_repair([macro], [old, new], seconds)

    def _apply_add_cell(self, delta: AddCell, seconds) -> tuple:
        new_design, cell = netlist_add_cell(
            self.design,
            delta.name,
            delta.width,
            delta.height,
            x=delta.x,
            y=delta.y,
            nets=list(delta.nets),
        )
        self._swap_design(new_design, pad=np.append(self.pad, 0.0))
        return self._local_repair([cell], [self._cell_rect(cell)], seconds)

    def _apply_remove_cell(self, delta: RemoveCell, seconds) -> tuple:
        cell = int(delta.cell)
        old = self._cell_rect(cell)
        orphan_nets = nets_of_cells(self.design, [cell])
        new_design = netlist_remove_cell(self.design, cell)
        self._swap_design(new_design, pad=np.delete(self.pad, cell))
        # Nothing to legalize (a removal cannot create overlap); the
        # orphaned nets still need their RSMTs rebuilt.
        return self._local_repair([], [old], seconds, extra_nets=orphan_nets)

    def _swap_design(self, new_design: Design, pad: np.ndarray) -> None:
        """Install a rebuilt design (topology edit) and remap state."""
        self.design = new_design
        self.pad = pad

    def _local_repair(self, seed_cells, boxes, seconds, extra_nets=None) -> tuple:
        """Dirty-region legalization + windowed reroute (the fast path)."""
        d = self.design
        state = self.route_report.state
        dirty = compute_dirty(
            d,
            state.grid,
            seed_cells,
            boxes,
            margin_sites=self.eco.legal_margin_sites,
            margin_rows=self.eco.legal_margin_rows,
            route_margin_gcells=self.eco.route_margin_gcells,
            extra_nets=extra_nets,
        )
        if dirty.fraction > self.eco.full_place_threshold:
            fallbacks = self._warm_replace(seconds)
            return dirty, ["place", *fallbacks]

        fallbacks = []
        self.legal_widths = padded_widths(
            d, self.pad, theta=self.strategy.theta,
            area_cap=self.strategy.legal_area_cap,
        )
        t0 = time.perf_counter()
        if len(dirty.cells):
            try:
                legalize_region(
                    d,
                    dirty.cells,
                    widths=self.legal_widths,
                    max_row_search=self.eco.max_row_search,
                )
            except RuntimeError:
                # The edit does not fit locally — full legalization.
                fallbacks.append("legalize")
                legalize_abacus(d, widths=self.legal_widths)
        seconds["legalize"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.route_report = reroute_nets(
            state,
            d,
            dirty.nets,
            window=dirty.window,
            rounds=self.eco.reroute_rounds,
            max_reroute=self.eco.max_reroute,
        )
        seconds["route"] = time.perf_counter() - t0
        return dirty, fallbacks

    # -- strategy edits -------------------------------------------------

    def _apply_change_strategy(self, delta: ChangeStrategy, seconds) -> tuple:
        names = {f.name for f in fields(StrategyParams)}
        if delta.param not in names:
            raise ValueError(
                f"unknown strategy parameter {delta.param!r}; "
                f"expected one of {sorted(names)}"
            )
        current = getattr(self.strategy, delta.param)
        value = type(current)(delta.value) if not isinstance(current, str) else str(delta.value)
        self.strategy = self.strategy.replaced(**{delta.param: value})
        fallbacks = self._warm_replace(seconds)
        return None, ["place", *fallbacks]

    def _warm_replace(self, seconds) -> list:
        """Warm-started global re-place with recycled padding (Eq. 15),
        then full legalization and routing."""
        d = self.design
        with obs.span("eco/warm_replace") as span:
            t0 = time.perf_counter()
            optimizer = RoutabilityOptimizer(
                d,
                self.strategy,
                initial_padding=self.pad,
                initial_round=self.padding_rounds,
            )
            params = replace(
                self.config.placement,
                max_iters=self.eco.warm_gp_iters,
                min_iters=min(self.config.placement.min_iters, self.eco.warm_gp_iters),
            )
            placer = GlobalPlacer(d, params, hooks=[optimizer], seed_positions=False)
            placer.set_density_sizes(*optimizer.padding.padded_sizes())
            gp = placer.run()
            self.pad = optimizer.padding.pad.copy()
            self.padding_rounds += optimizer.calls
            seconds["place"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            self.legal_widths = padded_widths(
                d, self.pad, theta=self.strategy.theta,
                area_cap=self.strategy.legal_area_cap,
            )
            legalize_abacus(d, widths=self.legal_widths)
            seconds["legalize"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            self.route_report = GlobalRouter(
                d, self.config.router, keep_state=True
            ).run()
            seconds["route"] = time.perf_counter() - t0
            span.set(iterations=gp.iterations, hpwl=d.hpwl())
        return []

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _verify_context(self) -> VerifyContext:
        report = self.route_report
        return VerifyContext(
            design=self.design,
            pad=self.pad,
            padded_widths=self.legal_widths,
            area_cap=self.strategy.legal_area_cap,
            grid=None if report is None else report.grid,
            demand=None if report is None else report.demand,
            route_report=report,
        )

    def verify(self, level: str = "full"):
        """Run the invariant checkers on the current session state."""
        self._check_open()
        return run_checkers(self._verify_context(), level=level)

    def _result(
        self, kind, delta, dirty, fallbacks, seconds, start, verify_report
    ) -> EcoResult:
        report = self.route_report
        seconds = dict(seconds)
        seconds["total"] = time.perf_counter() - start
        return EcoResult(
            version=self.version,
            kind=kind,
            delta=delta,
            hpwl=float(self.design.hpwl()),
            hof=float(report.hof),
            vof=float(report.vof),
            wirelength=float(report.wirelength),
            dirty_cells=0 if dirty is None else len(dirty.cells),
            dirty_nets=0 if dirty is None else len(dirty.nets),
            full_fallbacks=list(fallbacks),
            seconds=seconds,
            verify_ok=None if verify_report is None else bool(verify_report.ok),
            verify_errors=0 if verify_report is None else len(verify_report.errors),
            verify_warnings=0 if verify_report is None else len(verify_report.warnings),
        )

    def to_summary(self) -> dict:
        """JSON-safe session snapshot (the sessions-API wire shape)."""
        return {
            "design": self._name,
            "version": int(self.version),
            "started": self.started,
            "closed": self.closed,
            "deltas_applied": max(self.version, 0),
            "hpwl": float(self.design.hpwl()) if self.started else None,
            "config": self.config.to_dict(),
            "eco": self.eco.to_dict(),
        }
