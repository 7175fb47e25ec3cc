"""Bayesian-based strategy exploration (paper Sec. III-C, Algs. 2-3).

Placement with a router in the loop is an evaluation-expensive,
derivative-free black box, so strategy parameters are explored with SMBO
and the tree-structured Parzen estimator instead of manual tuning.

The protocol has two levels:

* :func:`parameter_exploration` (Algorithm 2) runs an SMBO loop over one
  (sub-)space with a time budget and an early-stop patience, then
  *shrinks the parameter ranges* around the good observations.
* :func:`strategy_exploration` (Algorithm 3) first explores all
  parameters together to get rough ranges, then repeatedly explores each
  relevance group with the other parameters pinned at their range
  midpoints, until every group stops early.  The final configuration is
  the midpoint of the final ranges.

Following the paper, exploration runs on a *small design with the
routability problem* and the resulting configuration transfers to the
large benchmarks (experiment A4 measures this transfer).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..placer import prefix
from ..runtime import MISSING, stable_hash
from ..tpe import Choice, Space, TPESampler, minimize
from .strategy import PARAM_GROUPS, StrategyParams, default_space

#: Loss assigned to a trial whose evaluation raised.  Large but finite:
#: ``inf`` would reach the TPE quantile split and risk NaN arithmetic,
#: while any finite penalty just banishes the region from the good half.
FAILED_TRIAL_LOSS = 1e18

#: Internal marker for a raw evaluation that failed (fresh, or replayed
#: from a ``failed`` journal record).
_TRIAL_FAILED = object()


@dataclass
class SuiteDesignFactory:
    """Picklable design factory over the Table-I suite.

    Equivalent to ``lambda: make_design(name, scale, seed)`` but able to
    cross a process boundary (parallel exploration workers) and to be
    hashed into runtime cache keys.  Each call returns a deep copy of a
    design generated once per process.
    """

    name: str
    scale: float
    seed: int = 0

    def __call__(self):
        key = (self.name, self.scale, self.seed)
        template = _TEMPLATES.get(key)
        if template is None:
            from ..benchgen import make_design

            template = _TEMPLATES[key] = make_design(self.name, self.scale, seed=self.seed)
        return copy.deepcopy(template)


#: The design each :class:`SuiteDesignFactory` configuration generated
#: in this process; a deep copy costs about 1/40 of a generation.
_TEMPLATES: dict = {}


class PlacementObjective:
    """The paper's evaluation function, packaged.

    Evaluates a configuration by running the full PUFFER flow on a fresh
    design from ``design_factory`` and routing it; the loss is the total
    overflow ratio (HOF + VOF, in percent).  A small wirelength term
    (``wl_weight`` loss points per 100 % wirelength growth over the first
    evaluation) breaks ties between configurations that all reach zero
    overflow — without it the estimator receives no gradient on easy
    designs and can wander into grossly over-padding regions that fail to
    transfer.

    The expensive part (:meth:`evaluate_raw`) is separated from the
    loss shaping (:meth:`loss_from_raw`) so batched exploration can run
    evaluations in worker processes while the wirelength reference —
    which is stateful, taken from the first evaluation — is applied in
    the parent, in suggestion order, exactly as the serial loop would.

    Instances are picklable whenever ``design_factory`` is (use
    :class:`SuiteDesignFactory` rather than a lambda for parallel runs).
    """

    def __init__(
        self,
        design_factory,
        placement=None,
        wl_weight: float = 0.02,
        router_params=None,
    ) -> None:
        from ..placer import PlacementParams

        self.design_factory = design_factory
        self.placement = placement or PlacementParams()
        self.wl_weight = wl_weight
        self.router_params = router_params
        self.reference_wl = None

    def evaluate_raw(self, params: dict) -> tuple:
        """Stateless expensive evaluation: ``(total_overflow, wirelength)``."""
        from ..router import GlobalRouter
        from .puffer import PufferPlacer

        strategy = StrategyParams.from_dict(params)
        design = self.design_factory()
        # Trials differ only in the strategy, so they share the global
        # placement up to the first padding round (repro.placer.prefix).
        with prefix.reuse():
            PufferPlacer(design, strategy=strategy, placement=self.placement).run()
        report = GlobalRouter(design, self.router_params).run()
        return (report.total_overflow, report.wirelength)

    def loss_from_raw(self, raw: tuple) -> float:
        """Shape a raw evaluation into the exploration loss."""
        overflow, wirelength = raw
        if self.reference_wl is None:
            self.reference_wl = max(wirelength, 1e-9)
        wl_term = self.wl_weight * 100.0 * (wirelength / self.reference_wl - 1.0)
        return overflow + wl_term

    def __call__(self, params: dict) -> float:
        return self.loss_from_raw(self.evaluate_raw(params))

    def cache_key(self, params: dict):
        """Runtime cache key of one evaluation, or ``None``.

        ``None`` (no caching) when the design factory cannot be
        canonicalized — e.g. a user-supplied lambda, whose identity the
        key could not soundly capture.
        """
        try:
            return stable_hash(
                {
                    "kind": "explore-eval",
                    "factory": self.design_factory,
                    "placement": self.placement,
                    "router": self.router_params,
                    "params": params,
                }
            )
        except TypeError:
            return None


def make_batch_evaluator(objective, cache=None, journal=None, transport=None):
    """Build a ``list[params] -> list[loss]`` batch evaluator.

    Used as the ``evaluator`` of :func:`strategy_exploration` /
    :func:`repro.tpe.minimize`.  It is the one place that turns raw
    evaluations into losses: it replays the journal, reads the cache,
    journals successes and failures, and shapes losses parent-side in
    suggestion order.  Where a candidate is evaluated is up to
    ``transport``:

    * ``transport(pending)`` receives the candidates no journal or
      cache entry answered and returns, per candidate in order, either
      a ``(raw, cached)`` pair or the exception that candidate failed
      with.  The default evaluates in-process with
      ``objective.evaluate_raw`` (``cached=False``);
      :class:`repro.serve.DistributedEvaluator` ships the candidates to
      a placement service instead.  An exception the transport
      *raises* (e.g. cancellation) aborts the whole batch and is never
      journaled.
    * with a ``cache`` (:class:`repro.runtime.ArtifactCache`) and/or a
      ``journal`` (:class:`repro.runtime.Journal`), raw evaluations are
      reused across runs — because exploration RNG is deterministic, a
      killed run resumes by replaying its journal hits at full speed,
      whichever transport wrote the journal.

    Objectives exposing the :class:`PlacementObjective` split
    (``evaluate_raw`` / ``loss_from_raw`` / ``cache_key``) get caching
    and parent-side loss shaping; plain callables are mapped directly
    (and are never cached, since their configuration is unknown).

    A trial that fails does not abort the exploration: it scores
    :data:`FAILED_TRIAL_LOSS` and — when a journal is attached — leaves
    a ``failed`` record, so a ``--resume`` replays the failure instead
    of re-running the poisoned params on every restart.

    After each call the evaluator exposes ``evaluate.last_details``: one
    dict per candidate (``overflow``/``wirelength``/``cached`` for
    successes, ``failed``/``error`` for failures; ``None`` entries for
    unstructured objectives).
    """
    raw_fn = getattr(objective, "evaluate_raw", None)
    key_fn = getattr(objective, "cache_key", None)
    loss_fn = getattr(objective, "loss_from_raw", None)
    structured = raw_fn is not None and key_fn is not None and loss_fn is not None
    if transport is None:
        def transport(pending: list) -> list:
            outcomes = []
            for params in pending:
                try:
                    outcomes.append((raw_fn(params), False))
                except Exception as exc:
                    outcomes.append(exc)
            return outcomes

    journaled: dict = {}
    if journal is not None:
        for record in journal.records():
            if "overflow" in record and "wirelength" in record:
                journaled[record["key"]] = (record["overflow"], record["wirelength"])
            elif "failed" in record:
                journaled[record["key"]] = _TRIAL_FAILED

    def evaluate(batch: list) -> list:
        evaluate.last_details = [None] * len(batch)
        if not structured:
            return [objective(params) for params in batch]
        keys = [key_fn(params) for params in batch]
        raws: list = [None] * len(batch)
        details: list = evaluate.last_details
        todo = []
        for i, key in enumerate(keys):
            if key is not None and key in journaled:
                raws[i] = journaled[key]
                details[i] = {"cached": True}
            elif key is not None and cache is not None:
                value = cache.get(key)
                if value is not MISSING:
                    raws[i] = tuple(value)
                    details[i] = {"cached": True}
                else:
                    todo.append(i)
            else:
                todo.append(i)
        outcomes = transport([batch[i] for i in todo]) if todo else []
        for i, outcome in zip(todo, outcomes):
            if isinstance(outcome, BaseException):
                raws[i] = _TRIAL_FAILED
                details[i] = {"cached": False, "error": str(outcome)}
                if keys[i] is not None and journal is not None:
                    journal.append(
                        {"key": keys[i],
                         "failed": f"{type(outcome).__name__}: {outcome}"}
                    )
                    journaled[keys[i]] = _TRIAL_FAILED
                continue
            raw, cached = outcome
            raw = (float(raw[0]), float(raw[1]))
            raws[i] = raw
            details[i] = {"cached": bool(cached)}
            if keys[i] is None:
                continue
            if cache is not None:
                cache.put(keys[i], raw)
            if journal is not None:
                journal.append(
                    {"key": keys[i], "overflow": raw[0], "wirelength": raw[1]}
                )
                journaled[keys[i]] = raw
        losses = []
        for i, raw in enumerate(raws):
            if raw is _TRIAL_FAILED:
                losses.append(FAILED_TRIAL_LOSS)
                details[i] = dict(details[i] or {}, failed=True)
            else:
                losses.append(loss_fn(raw))
                details[i] = dict(
                    details[i] or {}, overflow=raw[0], wirelength=raw[1]
                )
        return losses

    evaluate.last_details = []
    return evaluate


@dataclass
class ExplorationReport:
    """Outcome of a full strategy exploration.

    Attributes:
        params: the final (midpoint-of-range) strategy parameters.
        best_loss: best objective seen during exploration.
        best_params: the raw best configuration (not the midpoint).
        evaluations: total objective evaluations spent.
        space: the final, shrunken search space.
        group_rounds: sweeps over the group list (Algorithm 3 loop count).
    """

    params: StrategyParams
    best_loss: float
    best_params: dict
    evaluations: int
    space: Space
    group_rounds: int
    history: list = field(default_factory=list)


def parameter_exploration(
    objective,
    space: Space,
    explore_names: list,
    fixed: dict,
    max_evals: int,
    patience: int,
    rng,
    batch_size: int = 1,
    evaluator=None,
    warm_start=None,
) -> tuple:
    """Paper Algorithm 2 over the sub-space ``explore_names``.

    Args:
        objective: callable ``params_dict -> float`` over the full space.
        space: the current full space (provides ranges and midpoints).
        explore_names: dimensions explored in this call.
        fixed: values pinned for the non-explored dimensions.
        max_evals: evaluation budget ``TC``.
        patience: early-stop limit ``EC``.
        rng: ``numpy.random.Generator``.
        batch_size: SMBO batch size (1 = the bit-exact serial loop).
        evaluator: optional batch evaluator over *full* parameter dicts
            (see :func:`make_batch_evaluator`).
        warm_start: prior ``(full_params, loss)`` observations seeding
            the TPE good/bad split without being re-evaluated (transfer
            priors from other designs); entries missing any explored
            dimension are skipped, values are clipped into range.

    Returns:
        ``(new_space, stopped_early, result)`` where ``new_space`` has
        the explored dimensions' ranges shrunk around the good
        observations (Algorithm 2 line 14).
    """
    subspace = space.subspace(explore_names)
    sub_start = None
    if warm_start:
        sub_start = []
        for params, loss in warm_start:
            if any(dim.name not in params for dim in subspace):
                continue
            sub_start.append((
                {dim.name: dim.clip(params[dim.name]) for dim in subspace},
                float(loss),
            ))

    def sub_objective(sub_params: dict) -> float:
        full = dict(fixed)
        full.update(sub_params)
        return objective(full)

    sub_evaluator = None
    if evaluator is not None:
        def sub_evaluator(batch: list) -> list:
            full_batch = []
            for sub_params in batch:
                full = dict(fixed)
                full.update(sub_params)
                full_batch.append(full)
            return evaluator(full_batch)

    result = minimize(
        sub_objective,
        subspace,
        max_evals=max_evals,
        patience=patience,
        sampler=TPESampler(n_startup=max(3, max_evals // 8)),
        rng=rng,
        warm_start=sub_start,
        batch_size=batch_size,
        evaluator=sub_evaluator,
    )
    # Shrink ranges around the better half of the observations.
    losses = np.asarray([t.loss for t in result.trials])
    keep = max(len(losses) // 3, 1)
    good_idx = np.argsort(losses, kind="stable")[:keep]
    new_space = space
    for dim in subspace:
        if isinstance(dim, Choice):
            continue
        good_values = np.asarray(
            [result.trials[i].params[dim.name] for i in good_idx], dtype=np.float64
        )
        new_space = new_space.replaced(dim.shrunk(good_values))
    return new_space, result.stopped_early, result


def strategy_exploration(
    objective,
    space: Space | None = None,
    groups: dict | None = None,
    global_evals: int = 20,
    group_evals: int = 10,
    patience: int = 6,
    max_group_rounds: int = 3,
    rng=None,
    batch_size: int = 1,
    evaluator=None,
    warm_start=None,
    on_stage=None,
) -> ExplorationReport:
    """Paper Algorithm 3: global exploration, then grouped refinement.

    Args:
        objective: callable ``params_dict -> float`` (total overflow
            ratio of a placement + routing evaluation in the paper).
        space: initial parameter ranges (defaults to
            :func:`repro.core.strategy.default_space`).
        groups: name -> parameter-name-list relevance groups (defaults
            to :data:`repro.core.strategy.PARAM_GROUPS`).
        global_evals: budget of the initial all-parameter exploration.
        group_evals: budget per group per round.
        patience: early-stop limit per exploration.
        max_group_rounds: cap on sweeps over the group list (the paper's
            outer ``TC``).
        rng: seed or generator.
        batch_size: SMBO candidates evaluated per round.  ``1`` keeps
            the exploration bit-identical to the strictly-serial
            protocol; larger batches evaluate concurrently through
            ``evaluator`` at a small sequential-information cost.
        evaluator: optional batch evaluator over full parameter dicts
            (see :func:`make_batch_evaluator`); adds cached/journaled
            evaluations and, through its transport, concurrency.
        warm_start: prior ``(full_params, loss)`` observations seeding
            the *global* stage's TPE split (transfer priors from other
            designs); the grouped refinements run on this design's own
            observations only.
        on_stage: optional callable receiving each stage name
            (``"global"``, then group names) just before it runs —
            used to label streamed trial records.

    Returns:
        An :class:`ExplorationReport`; ``report.params`` is the final
        configuration (midpoint of the explored ranges).
    """
    rng = np.random.default_rng(rng)
    space = space or default_space()
    groups = groups or PARAM_GROUPS
    history = []
    evaluations = 0
    best_loss = np.inf
    best_params = None

    # Line 1-2: rough ranges from exploring everything simultaneously.
    if on_stage is not None:
        on_stage("global")
    with obs.span("explore/stage", stage="global") as stage_span:
        space, _early, result = parameter_exploration(
            objective, space, space.names(), {}, global_evals, patience, rng,
            batch_size=batch_size, evaluator=evaluator, warm_start=warm_start,
        )
        stage_span.set(best_loss=result.best.loss, evaluations=len(result.trials))
    evaluations += len(result.trials)
    history.append(("global", result.best.loss))
    if result.best.loss < best_loss:
        best_loss = result.best.loss
        best_params = dict(result.best.params)

    # Lines 3-11: grouped exploration with the rest pinned at midpoints.
    group_rounds = 0
    for _round in range(max_group_rounds):
        group_rounds += 1
        all_early = True
        for group_name, names in groups.items():
            fixed = {
                name: value
                for name, value in space.midpoint().items()
                if name not in names
            }
            if on_stage is not None:
                on_stage(group_name)
            with obs.span("explore/stage", stage=group_name) as stage_span:
                space, early, result = parameter_exploration(
                    objective, space, names, fixed, group_evals, patience, rng,
                    batch_size=batch_size, evaluator=evaluator,
                )
                stage_span.set(
                    best_loss=result.best.loss, evaluations=len(result.trials)
                )
            evaluations += len(result.trials)
            history.append((group_name, result.best.loss))
            all_early = all_early and early
            full_best = dict(fixed)
            full_best.update(result.best.params)
            if result.best.loss < best_loss:
                best_loss = result.best.loss
                best_params = full_best
        if all_early:
            break

    # Final configuration: midpoint of the explored ranges (the paper's
    # "median of the range").  Categorical strategies have no meaningful
    # range median, so they take their best-observed value instead.
    final = space.midpoint()
    if best_params:
        for dim in space:
            if isinstance(dim, Choice) and dim.name in best_params:
                final[dim.name] = best_params[dim.name]
    params = StrategyParams.from_dict(final)
    return ExplorationReport(
        params=params,
        best_loss=float(best_loss),
        best_params=best_params or space.midpoint(),
        evaluations=evaluations,
        space=space,
        group_rounds=group_rounds,
        history=history,
    )
