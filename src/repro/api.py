"""Unified run facade: one front door for every placement flow.

Every entry point — the CLI, the suite runner
(:func:`repro.evalkit.run_benchmark`), exploration and served jobs —
resolves flows and threads parameters through this module:

* a canonical **flow registry** (:data:`FLOWS`) of picklable,
  module-level flow functions, plus :data:`FLOW_ALIASES` mapping the
  paper's Table-II column names onto canonical flow names;
* :class:`RunConfig`, one dataclass holding everything a run depends on
  (scale, seed, placement/router parameters, PUFFER strategy);
* :func:`run` / :func:`route` / :func:`suite` / :func:`explore`, thin
  orchestration entry points that accept an optional ``trace`` target
  and execute under :func:`repro.obs.tracing`.

Flow resolution has exactly one home: :func:`flow_puffer` and the
other registry functions are the flows, and :func:`table2_flows` is the
Table-II column set.

Example:
    >>> from repro import api
    >>> result = api.run("OR1200", flow="puffer",
    ...                  config=api.RunConfig(scale=0.002))
    >>> result.hpwl > 0
    True
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from . import obs, schema
from .baselines import (
    place_commercial_like,
    place_replace_like,
    place_wirelength_driven,
)
from .benchgen import make_design
from .core import PufferPlacer, StrategyParams
from .netlist import check_legal
from .netlist.design import Design
from .placer import PlacementParams
from .router import GlobalRouter, RouterParams
from .schema import dataclass_from_dict, dataclass_to_dict


class UnknownFlowError(ValueError):
    """A flow name that is neither canonical nor a known alias.

    Attributes:
        flow: the name that failed to resolve.
        available: the canonical flow names (sorted).
    """

    def __init__(self, flow: str, available: tuple) -> None:
        self.flow = flow
        self.available = tuple(available)
        super().__init__(
            f"unknown flow {flow!r}; available flows: {', '.join(self.available)}"
            f" (aliases: {', '.join(sorted(FLOW_ALIASES))})"
        )


def flow_puffer(design, placement=None, strategy=None):
    """The PUFFER flow (routability padding + inherited legalization)."""
    return PufferPlacer(design, strategy=strategy, placement=placement).run()


def resolve_design(design, scale: float = 0.004, seed: int = 0):
    """Resolve a design argument into a :class:`~repro.netlist.design.Design`.

    A :class:`Design` passes through.  A string ending in ``.json`` is
    loaded as a Yosys ``write_json`` netlist
    (:func:`repro.netlist.load_yosys`); any other string is a suite
    benchmark name generated at ``scale`` / ``seed``.
    """
    if not isinstance(design, str):
        return design
    if design.endswith(".json"):
        from .netlist import load_yosys

        return load_yosys(design)
    return make_design(design, scale, seed=seed)


#: Canonical flow name -> module-level flow function.  Every function is
#: picklable, so resolved flows can cross process boundaries.
_FLOW_IMPLS = {
    "commercial": place_commercial_like,
    "puffer": flow_puffer,
    "replace": place_replace_like,
    "wirelength": place_wirelength_driven,
}

#: Canonical flow names, sorted (the CLI's ``--flow`` choices).
FLOWS = tuple(sorted(_FLOW_IMPLS))

#: Display-name aliases (the paper's Table-II column headings) mapped
#: onto canonical flow names.
FLOW_ALIASES = {
    "Commercial_Inn*": "commercial",
    "PUFFER": "puffer",
    "RePlAce-like": "replace",
}

#: Table-II column order (paper order, not alphabetical).
TABLE2_COLUMNS = ("Commercial_Inn*", "RePlAce-like", "PUFFER")


def resolve_flow(flow, strategy: StrategyParams | None = None):
    """Resolve ``flow`` into ``(name, callable)``.

    Args:
        flow: a canonical flow name, a Table-II alias, or a custom
            callable ``flow(design, placement_params)`` (returned as-is
            with its ``__name__``).
        strategy: PUFFER strategy parameters, bound into the returned
            callable for the ``puffer`` flow (ignored by others).

    Returns:
        ``(canonical_name, flow_fn)`` where ``flow_fn(design,
        placement)`` runs the flow.  The callable is picklable whenever
        ``flow`` and ``strategy`` are.

    Raises:
        UnknownFlowError: when a string name matches no flow or alias.
    """
    if callable(flow):
        return getattr(flow, "__name__", str(flow)), flow
    name = FLOW_ALIASES.get(flow, flow)
    impl = _FLOW_IMPLS.get(name)
    if impl is None:
        raise UnknownFlowError(flow, FLOWS)
    if name == "puffer" and strategy is not None:
        impl = functools.partial(flow_puffer, strategy=strategy)
    return name, impl


def table2_flows(strategy: StrategyParams | None = None) -> dict:
    """The three Table-II flows keyed by paper column name, in order."""
    return {
        alias: resolve_flow(alias, strategy)[1] for alias in TABLE2_COLUMNS
    }


@dataclass
class RunConfig:
    """Everything a single run depends on.

    Attributes:
        scale: benchmark-generation scale (for name-based designs).
        seed: benchmark-generation seed offset.
        placement: global-placement engine parameters.
        router: evaluation-router parameters.
        strategy: PUFFER strategy parameters (``None`` = defaults).
        verify: invariant-checker level — ``"off"`` (default),
            ``"cheap"`` (placement legality + padding accounting), or
            ``"full"`` (adds netlist integrity and routing accounting).
            Checkers run post-legalization and, when routing, post-route;
            the report lands on :attr:`RunResult.verify_report`.

    A ``RunConfig`` is the service wire format: :meth:`to_dict` /
    :meth:`from_dict` round-trip losslessly (``schema_version``-stamped,
    unknown keys rejected), and :func:`repro.runtime.cache.stable_hash`
    of :meth:`to_dict` is a reproducible cross-process cache key.
    Validation happens at construction — a bad ``verify`` level raises
    here, not mid-run.
    """

    scale: float = 0.004
    seed: int = 0
    placement: PlacementParams = field(default_factory=PlacementParams)
    router: RouterParams = field(default_factory=RouterParams)
    strategy: StrategyParams | None = None
    verify: str = "off"

    def __post_init__(self) -> None:
        from .verify import LEVELS

        if self.verify not in LEVELS:
            raise ValueError(
                f"unknown verify level {self.verify!r}; expected one of {LEVELS}"
            )

    def to_dict(self) -> dict:
        """JSON-safe wire dict; nested params carry their own versions."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Rebuild from :meth:`to_dict`.

        Raises:
            repro.schema.SchemaError: on unknown keys or an unsupported
                ``schema_version`` (at any nesting level).
            ValueError: on a bad ``verify`` level (via ``__post_init__``).
        """
        return dataclass_from_dict(
            cls,
            data,
            nested={
                "placement": PlacementParams.from_dict,
                "router": RouterParams.from_dict,
                "strategy": StrategyParams.from_dict,
            },
        )


@dataclass
class RunResult:
    """Outcome of :func:`run`.

    Attributes:
        design: the placed design (positions mutated in place).
        flow: canonical name of the flow that ran.
        flow_result: whatever the flow returned (e.g.
            :class:`repro.core.PufferResult`).
        hpwl: post-flow half-perimeter wirelength.
        place_seconds: wall time of the flow call alone.
        route_report: router evaluation, when ``route=True``.
        legality: :func:`repro.netlist.check_legal` report, when
            ``verify_legal=True``.
        verify_report: :class:`repro.verify.VerifyReport` of the
            invariant checkers, when ``config.verify != "off"``.
    """

    design: Design
    flow: str
    flow_result: object
    hpwl: float
    place_seconds: float
    route_report: object | None = None
    legality: object | None = None
    verify_report: object | None = None

    def to_summary(self) -> dict:
        """A JSON-safe summary of the run (the service result format).

        Carries everything a remote caller can consume — metrics, not
        live objects: the placed :attr:`design` itself stays behind.
        """
        summary = {
            "design": self.design.name,
            "flow": self.flow,
            "hpwl": float(self.hpwl),
            "place_seconds": float(self.place_seconds),
            "route": _route_report_summary(self.route_report),
            "legal": None if self.legality is None else bool(self.legality.ok),
            "verify": None,
        }
        if self.verify_report is not None:
            summary["verify"] = {
                "ok": bool(self.verify_report.ok),
                "errors": len(self.verify_report.errors),
                "warnings": len(self.verify_report.warnings),
            }
        return summary


def _route_report_summary(report) -> dict | None:
    """JSON-safe metrics of a :class:`repro.router.RouteReport`."""
    if report is None:
        return None
    return {
        "hof": float(report.hof),
        "vof": float(report.vof),
        "total_overflow": float(report.total_overflow),
        "wirelength": float(report.wirelength),
        "runtime": float(report.runtime),
        "rounds": int(report.rounds),
        "num_segments": int(report.num_segments),
        "via_count": int(report.via_count),
    }


@dataclass
class RouteResult:
    """Outcome of :func:`route`, mirroring :class:`RunResult`.

    Attributes:
        design: the routed design (unchanged by routing).
        route_report: the :class:`repro.router.RouteReport`.
        route_seconds: wall time of the routing call.
    """

    design: Design
    route_report: object
    route_seconds: float

    def to_summary(self) -> dict:
        """A JSON-safe summary of the route (the service result format)."""
        return {
            "design": self.design.name,
            "hpwl": float(self.design.hpwl()),
            "route_seconds": float(self.route_seconds),
            "route": _route_report_summary(self.route_report),
        }


def run(
    design,
    flow="puffer",
    config: RunConfig | None = None,
    *,
    trace=None,
    route: bool = False,
    verify_legal: bool = False,
    verify: str | None = None,
) -> RunResult:
    """Place ``design`` with ``flow`` — the unified entry point.

    Args:
        design: a :class:`~repro.netlist.design.Design` (placed in
            place), a suite benchmark name (generated from
            ``config.scale`` / ``config.seed``), or a path to a Yosys
            ``*_mapped.json`` netlist (loaded via
            :func:`repro.netlist.load_yosys`).
        flow: flow name, Table-II alias, or custom callable.
        config: run configuration (defaults throughout when omitted).
        trace: observability target — a trace-file path or a
            :class:`repro.obs.Tracer`; the whole run executes under
            :func:`repro.obs.tracing`.
        route: also evaluate the result with the global router.
        verify_legal: also run the legality checker on the result.
        verify: invariant-checker level override; defaults to
            ``config.verify``.

    Returns:
        A :class:`RunResult`.

    Raises:
        UnknownFlowError: for an unrecognized flow name.
        ValueError: for an unrecognized verify level.
    """
    from .verify import LEVELS

    config = config or RunConfig()
    verify = config.verify if verify is None else verify
    if verify not in LEVELS:
        raise ValueError(f"unknown verify level {verify!r}; expected one of {LEVELS}")
    flow_name, flow_fn = resolve_flow(flow, strategy=config.strategy)
    with obs.tracing(trace):
        with obs.span("api/run", flow=flow_name) as run_span:
            if isinstance(design, str):
                run_span.set(design=design)
                design = resolve_design(design, config.scale, config.seed)
            start = time.perf_counter()
            flow_result = flow_fn(design, config.placement)
            place_seconds = time.perf_counter() - start
            report = GlobalRouter(design, config.router).run() if route else None
            legality = check_legal(design) if verify_legal else None
            verify_report = (
                _verify_run(design, config, flow_result, report, verify)
                if verify != "off"
                else None
            )
            run_span.set(hpwl=design.hpwl(), place_seconds=place_seconds)
            if verify_report is not None:
                run_span.set(verify_errors=len(verify_report.errors))
    return RunResult(
        design=design,
        flow=flow_name,
        flow_result=flow_result,
        hpwl=design.hpwl(),
        place_seconds=place_seconds,
        route_report=report,
        legality=legality,
        verify_report=verify_report,
    )


def _verify_run(design, config: RunConfig, flow_result, route_report, level: str):
    """Post-legalization / post-route invariant checking for :func:`run`.

    Pulls the padding arrays off the flow result when the flow exposes
    them (the PUFFER flow does) and the routing maps off the route
    report when the run routed, so the padding and routing checkers have
    their inputs whenever they can.
    """
    from .legalizer import DEFAULT_AREA_CAP
    from .verify import VerifyContext, run_checkers

    area_cap = (
        config.strategy.legal_area_cap
        if config.strategy is not None
        else DEFAULT_AREA_CAP
    )
    ctx = VerifyContext(
        design=design,
        pad=getattr(flow_result, "padding", None),
        padded_widths=getattr(flow_result, "legal_widths", None),
        area_cap=area_cap,
        grid=getattr(route_report, "grid", None),
        demand=getattr(route_report, "demand", None),
        route_report=route_report,
    )
    return run_checkers(ctx, level=level)


def route(design: Design, config: RunConfig | None = None, *, trace=None) -> RouteResult:
    """Route an already-placed design.

    Returns:
        A typed :class:`RouteResult`; the
        :class:`repro.router.RouteReport` is its ``route_report``.
    """
    config = config or RunConfig()
    with obs.tracing(trace):
        with obs.span("api/route", design=design.name):
            start = time.perf_counter()
            report = GlobalRouter(design, config.router).run()
            route_seconds = time.perf_counter() - start
    return RouteResult(design=design, route_report=report, route_seconds=route_seconds)


def suite(
    config: RunConfig | None = None,
    benchmarks: list | None = None,
    flows: dict | None = None,
    *,
    trace=None,
    progress=None,
    jobs: int = 1,
    cache=None,
    journal=None,
    resume: bool = False,
    retries: int = 0,
) -> list:
    """The Table-II suite evaluation through the facade.

    Thin wrapper over :func:`repro.evalkit.runner.run_suite`: converts
    :class:`RunConfig` into the runner's configuration, threads the
    strategy, and executes under :func:`repro.obs.tracing`.
    """
    from .evalkit.runner import SuiteRunConfig, run_suite

    config = config or RunConfig()
    suite_config = SuiteRunConfig(
        scale=config.scale,
        placement=config.placement,
        router=config.router,
        benchmarks=benchmarks,
        seed=config.seed,
        verify=config.verify,
    )
    with obs.tracing(trace):
        return run_suite(
            suite_config,
            flows,
            progress,
            strategy=config.strategy,
            jobs=jobs,
            cache=cache,
            journal=journal,
            resume=resume,
            retries=retries,
        )



#: Transfer-prior modes an :class:`ExploreConfig` accepts.
PRIOR_MODES = ("auto", "off")


@dataclass
class ExploreConfig:
    """Everything one strategy exploration depends on.

    The typed counterpart of :func:`explore`'s historical loose kwargs,
    mirroring :class:`RunConfig`: :meth:`to_dict` / :meth:`from_dict`
    round-trip losslessly (``schema_version``-stamped, unknown keys
    rejected) and :func:`repro.runtime.cache.stable_hash` of
    :meth:`to_dict` is a reproducible cross-process key.  This is the
    wire format of ``POST /v1/explorations``.

    Attributes:
        design: suite benchmark name (or Yosys ``.json`` path) to
            explore on.
        scale: benchmark-generation scale.
        budget: global-stage evaluation budget (paper ``TC``).
        group_evals: per-group budget per round (``None`` derives
            ``max(budget // 3, 3)``, as the CLI always has).
        patience: early-stop limit per stage (``None`` derives
            ``max(budget // 3, 3)``).
        max_group_rounds: cap on sweeps over the parameter groups.
        seed: exploration RNG seed.
        batch_size: TPE candidates evaluated per round; ``1`` is
            bit-identical to the strictly-serial protocol.
        wl_weight: wirelength tiebreak weight of the objective.
        priors: transfer-prior mode — ``"auto"`` seeds the global TPE
            stage from completed explorations on similar designs when a
            prior store is available, ``"off"`` never does.
        prior_limit: maximum prior observations replayed.
    """

    design: str = "OR1200"
    scale: float = 0.008
    budget: int = 12
    group_evals: int | None = None
    patience: int | None = None
    max_group_rounds: int = 1
    seed: int = 7
    batch_size: int = 1
    wl_weight: float = 0.02
    priors: str = "auto"
    prior_limit: int = 32

    def __post_init__(self) -> None:
        if not isinstance(self.design, str) or not self.design:
            raise ValueError(f"design must be a non-empty string, got {self.design!r}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale!r}")
        if not isinstance(self.budget, int) or self.budget < 1:
            raise ValueError(f"budget must be a positive int, got {self.budget!r}")
        for name in ("group_evals", "patience"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ValueError(f"{name} must be None or a positive int, got {value!r}")
        if not isinstance(self.max_group_rounds, int) or self.max_group_rounds < 1:
            raise ValueError(
                f"max_group_rounds must be a positive int, got {self.max_group_rounds!r}"
            )
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ValueError(f"batch_size must be a positive int, got {self.batch_size!r}")
        if self.priors not in PRIOR_MODES:
            raise ValueError(
                f"unknown priors mode {self.priors!r}; expected one of {PRIOR_MODES}"
            )
        if not isinstance(self.prior_limit, int) or self.prior_limit < 0:
            raise ValueError(
                f"prior_limit must be a non-negative int, got {self.prior_limit!r}"
            )

    def objective(self):
        """The :class:`~repro.core.exploration.PlacementObjective` this
        config explores.

        The one place an exploration config becomes an objective.  The
        objective fixes the journal keys, so every transport that builds
        it here — the local evaluator and the serve tier's
        ``DistributedEvaluator`` alike — can resume the other's journal.
        """
        from .core.exploration import PlacementObjective, SuiteDesignFactory

        return PlacementObjective(
            SuiteDesignFactory(self.design, self.scale), wl_weight=self.wl_weight
        )

    @property
    def resolved_group_evals(self) -> int:
        return self.group_evals if self.group_evals is not None else max(self.budget // 3, 3)

    @property
    def resolved_patience(self) -> int:
        return self.patience if self.patience is not None else max(self.budget // 3, 3)

    def to_dict(self) -> dict:
        """JSON-safe wire dict (``schema_version``-stamped)."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExploreConfig":
        """Rebuild from :meth:`to_dict`.

        Raises:
            repro.schema.SchemaError: on unknown keys or an unsupported
                ``schema_version``.
            ValueError: on out-of-range values (via ``__post_init__``).
        """
        return dataclass_from_dict(cls, data)


class _RecordingEvaluator:
    """Wrap a batch evaluator, recording every candidate as a wire Trial.

    The wrapper is loss- and RNG-transparent: it forwards each batch
    unchanged and returns the inner losses unchanged, so wrapping does
    not perturb the exploration.  Per-trial measurements come from the
    inner evaluator's ``last_details`` when it publishes them (every
    :func:`repro.core.exploration.make_batch_evaluator` does, whatever
    its transport).
    """

    def __init__(self, inner, on_trial=None) -> None:
        self.inner = inner
        self.on_trial = on_trial
        self.trials: list = []
        self.stage = "global"

    def set_stage(self, stage: str) -> None:
        self.stage = stage

    def __call__(self, batch: list) -> list:
        losses = self.inner(batch)
        details = getattr(self.inner, "last_details", None)
        if not details or len(details) != len(batch):
            details = [None] * len(batch)
        for params, loss, detail in zip(batch, losses, details):
            detail = detail or {}
            trial = schema.Trial(
                index=len(self.trials),
                stage=self.stage,
                params={key: value for key, value in params.items()},
                loss=float(loss),
                overflow=detail.get("overflow"),
                wirelength=detail.get("wirelength"),
                cached=bool(detail.get("cached", False)),
            )
            self.trials.append(trial)
            if self.on_trial is not None:
                self.on_trial(trial)
        return losses


@dataclass
class ExplorationOutcome:
    """What :func:`run_exploration` returns.

    Attributes:
        config: the :class:`ExploreConfig` that ran.
        report: the live :class:`repro.core.exploration.ExplorationReport`
            (holds ``StrategyParams`` and the final ``Space``).
        wire: the :class:`repro.schema.ExplorationReport` wire record,
            trials included — what the ``/v1/explorations`` resource
            serves.
    """

    config: ExploreConfig
    report: object
    wire: schema.ExplorationReport

    @property
    def trials(self) -> list:
        return self.wire.trials


def _wire_exploration_report(design: str, report, trials: list) -> schema.ExplorationReport:
    """Flatten a live exploration report into its wire record."""
    return schema.ExplorationReport(
        design=design,
        params=report.params.to_dict(),
        best_loss=float(report.best_loss),
        best_params={key: value for key, value in report.best_params.items()},
        evaluations=int(report.evaluations),
        group_rounds=int(report.group_rounds),
        history=[[stage, float(loss)] for stage, loss in report.history],
        trials=list(trials),
    )


def run_exploration(
    config: ExploreConfig | None = None,
    *,
    evaluator=None,
    on_trial=None,
    priors=None,
    trace=None,
) -> ExplorationOutcome:
    """Drive one full strategy exploration under a typed config.

    The engine under both :func:`explore` power users and the
    ``/v1/explorations`` service resource: builds the placement
    objective, wraps the evaluator so every candidate is recorded as a
    :class:`repro.schema.Trial` (streamed through ``on_trial`` as it
    completes), optionally seeds the global TPE stage from a
    :class:`repro.tpe.TransferPriors` store, and returns both the live
    report and its wire form.

    Args:
        config: the :class:`ExploreConfig` (defaults throughout).
        evaluator: optional batch evaluator (``list[params] ->
            list[loss]``); defaults to a local
            :func:`~repro.core.exploration.make_batch_evaluator` over
            the objective.  The serve tier passes its
            ``DistributedEvaluator`` here.
        on_trial: optional callable receiving each completed
            :class:`repro.schema.Trial` in evaluation order.
        priors: optional :class:`repro.tpe.TransferPriors`; consulted
            (and updated with this run's trials) unless
            ``config.priors == "off"``.  Seeding changes the TPE RNG
            stream, so bit-identity comparisons must run without it.
        trace: observability target (path or tracer).

    Returns:
        An :class:`ExplorationOutcome`.
    """
    from .core.exploration import make_batch_evaluator, strategy_exploration
    from .core.strategy import default_space

    config = config or ExploreConfig()
    objective = config.objective()
    recorder = _RecordingEvaluator(
        evaluator if evaluator is not None else make_batch_evaluator(objective),
        on_trial=on_trial,
    )
    use_priors = priors is not None and config.priors != "off"
    warm_start = None
    features = None
    space = default_space()
    if use_priors:
        from .tpe import design_features

        features = design_features(resolve_design(config.design, config.scale, config.seed))
        warm_start = priors.load(space, features, limit=config.prior_limit) or None
    with obs.tracing(trace):
        with obs.span(
            "explore/run",
            design=config.design,
            budget=config.budget,
            batch_size=config.batch_size,
        ) as run_span:
            report = strategy_exploration(
                objective,
                space=space,
                global_evals=config.budget,
                group_evals=config.resolved_group_evals,
                patience=config.resolved_patience,
                max_group_rounds=config.max_group_rounds,
                rng=config.seed,
                batch_size=config.batch_size,
                evaluator=recorder,
                warm_start=warm_start,
                on_stage=recorder.set_stage,
            )
            run_span.set(
                best_loss=float(report.best_loss),
                evaluations=int(report.evaluations),
                warm_trials=0 if warm_start is None else len(warm_start),
            )
    if use_priors:
        priors.save(
            space, features, [(trial.params, trial.loss) for trial in recorder.trials]
        )
    wire = _wire_exploration_report(config.design, report, recorder.trials)
    return ExplorationOutcome(config=config, report=report, wire=wire)


def explore(
    design: str = "OR1200",
    *,
    scale: float = 0.008,
    budget: int = 12,
    seed: int = 7,
    trace=None,
    batch_size: int = 1,
    evaluator=None,
    config: ExploreConfig | None = None,
):
    """Strategy exploration (paper Sec. III-C) through the facade.

    Args:
        design: suite benchmark to explore on.
        scale: benchmark-generation scale.
        budget: global-stage evaluation budget (group stages derive
            their budget and patience from it, as the CLI always has).
        seed: RNG seed (named like :attr:`RunConfig.seed`).
        trace: observability target (path or tracer).
        batch_size: TPE candidates per round.
        evaluator: optional parallel batch evaluator.
        config: a full :class:`ExploreConfig`; when given it wins over
            the individual kwargs.  (Callers wanting trial streams or
            transfer priors use :func:`run_exploration` directly.)

    Returns:
        The :class:`repro.core.exploration.ExplorationReport`.
    """
    from .core.exploration import strategy_exploration

    if config is None:
        config = ExploreConfig(
            design=design,
            scale=scale,
            budget=budget,
            seed=seed,
            batch_size=batch_size,
        )
    with obs.tracing(trace):
        return strategy_exploration(
            config.objective(),
            global_evals=config.budget,
            group_evals=config.resolved_group_evals,
            patience=config.resolved_patience,
            max_group_rounds=config.max_group_rounds,
            rng=config.seed,
            batch_size=config.batch_size,
            evaluator=evaluator,
        )


__all__ = [
    "ExplorationOutcome",
    "ExploreConfig",
    "FLOWS",
    "FLOW_ALIASES",
    "PRIOR_MODES",
    "RouteResult",
    "RunConfig",
    "RunResult",
    "TABLE2_COLUMNS",
    "UnknownFlowError",
    "explore",
    "flow_puffer",
    "resolve_design",
    "resolve_flow",
    "route",
    "run",
    "run_exploration",
    "suite",
    "table2_flows",
]
