"""Suite runner: place each benchmark with each flow, route, and score.

This drives the Table-II reproduction: every flow places a freshly
generated copy of each benchmark (so flows never see each other's
positions), the evaluation router scores the legalized result, and the
rows feed :func:`repro.evalkit.tables.format_table2`.

The design×flow grid is embarrassingly parallel, and
:func:`run_suite` runs it through :mod:`repro.runtime`:

* ``jobs > 1`` fans the matrix cells out across worker processes (the
  default flows are reconstructed by name inside each worker; custom
  flow callables that cannot be pickled fall back to inline execution).
* an :class:`repro.runtime.ArtifactCache` skips cells whose
  (benchmark, scale, seed, placement, router, strategy) configuration
  was already evaluated in an earlier run.
* a :class:`repro.runtime.Journal` records each finished cell, so an
  interrupted run resumes with only the remainder.

``jobs=1`` without cache or journal executes the grid inline, in grid
order, exactly like the historical serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import api, obs
from ..core import StrategyParams
from ..placer import PlacementParams
from ..router import RouterParams
from ..runtime import MISSING, ArtifactCache, Journal, Task, TaskExecutor, stable_hash
from ..runtime import shm
from ..runtime.executor import emit
from .metrics import PlacerMetrics


@dataclass
class SuiteRunConfig:
    """Configuration of a suite evaluation run.

    Attributes:
        scale: benchmark generation scale.
        placement: engine parameters shared by all flows.
        router: evaluation-router parameters.
        benchmarks: names to run (defaults to the full Table-I suite).
        seed: explicit benchmark-generation seed offset, threaded into
            every :func:`repro.benchgen.make_design` call so serial and
            parallel runs generate identical designs and the runtime
            cache key fully determines the generated netlist.
        verify: :mod:`repro.verify` checker level per cell (``"off"``,
            ``"cheap"``, ``"full"``).  When enabled, each row records
            its error-severity violation count and :func:`run_suite`
            raises :class:`repro.verify.VerificationError` if any cell
            produced violations.
    """

    scale: float = 0.004
    placement: PlacementParams = field(default_factory=PlacementParams)
    router: RouterParams = field(default_factory=RouterParams)
    benchmarks: list | None = None
    seed: int = 0
    verify: str = "off"


def suite_cell_key(
    name: str,
    flow_name: str,
    config: SuiteRunConfig,
    strategy: StrategyParams | None = None,
    flow=None,
) -> str:
    """Content-address of one (benchmark, flow) matrix cell.

    The key covers everything the cell's result depends on: benchmark
    identity, generation scale and seed, placement and router
    parameters, the flow, and (for PUFFER) the strategy parameters.
    Custom flow callables contribute their module-qualified name, which
    is stable across runs but deliberately coarse — changing a custom
    flow's *body* without renaming it requires clearing the cache.
    """
    payload = {
        "kind": "suite-cell",
        "benchmark": name,
        "flow": flow_name,
        "scale": config.scale,
        "seed": config.seed,
        "placement": config.placement,
        "router": config.router,
        "strategy": strategy,
    }
    if config.verify != "off":
        # Only key on the level when it changes what the row records, so
        # enabling verification never invalidates existing `off` caches.
        payload["verify"] = config.verify
    if flow is not None:
        payload["flow_impl"] = (
            f"{getattr(flow, '__module__', '?')}.{getattr(flow, '__qualname__', '?')}"
        )
    return stable_hash(payload)


def run_benchmark(
    name: str,
    flow,
    config: SuiteRunConfig,
    flow_name: str,
    design=None,
) -> PlacerMetrics:
    """Place + route one benchmark with one flow.

    Thin wrapper over :func:`repro.api.run`: the facade generates the
    design, times the flow call, and routes the result; this adapter
    repackages the outcome as a :class:`PlacerMetrics` row.  When
    ``design`` is given (the zero-copy shared-memory path) it is placed
    directly instead of regenerating ``name``.
    """
    result = api.run(
        design if design is not None else name,
        flow=flow,
        config=api.RunConfig(
            scale=config.scale,
            seed=config.seed,
            placement=config.placement,
            router=config.router,
            verify=config.verify,
        ),
        route=True,
    )
    report = result.route_report
    violations = (
        len(result.verify_report.errors) if result.verify_report is not None else 0
    )
    return PlacerMetrics(
        benchmark=name,
        placer=flow_name,
        hof=report.hof,
        vof=report.vof,
        wirelength=report.wirelength,
        runtime=result.place_seconds,
        hpwl=result.hpwl,
        violations=violations,
    )


def _default_flow_cell(
    name: str, flow_name: str, config: SuiteRunConfig, strategy
) -> PlacerMetrics:
    """Picklable task body: resolve the default flow by column name.

    The flow crosses the process boundary as its column name, so
    workers resolve it locally through the facade registry.  An
    unresolvable name raises :class:`repro.api.UnknownFlowError` naming
    the flow and the available registry — previously this surfaced as a
    bare ``KeyError`` with no context.
    """
    _, flow = api.resolve_flow(flow_name, strategy=strategy)
    return run_benchmark(name, flow, config, flow_name)


def _shared_flow_cell(
    handle_dict: dict, name: str, flow_name: str, config: SuiteRunConfig, strategy
) -> PlacerMetrics:
    """Picklable task body: attach the parent-published shared design.

    The parent generated ``name`` once and published its arrays into
    shared memory; the worker maps them read-only instead of
    regenerating the benchmark.  A failed attach (segment evicted or
    unlinked) falls back to the by-name path — same result, just
    slower.
    """
    from ..runtime import shm as shm_runtime

    _, flow = api.resolve_flow(flow_name, strategy=strategy)
    try:
        design = shm_runtime.attach_design(
            shm_runtime.SharedDesignHandle.from_dict(handle_dict)
        )
    except shm_runtime.SharedMemoryError:
        design = None
    return run_benchmark(name, flow, config, flow_name, design=design)


def _row_record(key: str, row: PlacerMetrics) -> dict:
    from dataclasses import asdict

    return {"key": key, "row": asdict(row)}


def run_suite(
    config: SuiteRunConfig | None = None,
    flows: dict | None = None,
    progress=None,
    *,
    strategy: StrategyParams | None = None,
    jobs: int = 1,
    cache=None,
    journal=None,
    resume: bool = False,
    retries: int = 0,
    executor: TaskExecutor | None = None,
) -> list:
    """Evaluate every flow on every benchmark.

    Args:
        config: run configuration.
        flows: ``name -> flow(design, placement_params)`` mapping
            (defaults to :func:`repro.api.table2_flows`; the defaults are
            reconstructed inside workers, so they parallelize — custom
            callables must be picklable to leave the main process).
        progress: optional callable receiving each finished
            :class:`PlacerMetrics` row (completion order when
            ``jobs > 1``, grid order otherwise).
        strategy: PUFFER strategy parameters for the default flows
            (also part of the cache key).
        jobs: worker-process count; ``1`` runs inline.
        cache: :class:`ArtifactCache` or directory path; finished cells
            are stored and later runs reuse them.
        journal: :class:`Journal` or file path; every finished cell is
            checkpointed for :func:`run_suite(..., resume=True)`.
        resume: replay journaled cells instead of starting over.
        retries: extra attempts per failed cell (worker crashes always
            consume the retry budget).
        executor: pre-built :class:`TaskExecutor` (overrides ``jobs``
            and ``retries``).

    Task lifecycles, cache lookups and journal replays are narrated as
    ``runtime/*`` events and counters into the current :mod:`repro.obs`
    tracer; :func:`repro.obs.report.runtime_summary` summarizes them.

    Returns:
        All metric rows, benchmark-major in flow order (independent of
        completion order).

    Raises:
        The terminal error of the first cell whose attempts are
        exhausted.
    """
    from ..benchgen import suite_names

    config = config or SuiteRunConfig()
    custom_flows = flows is not None
    flows = flows if custom_flows else api.table2_flows(strategy)
    names = config.benchmarks or suite_names()
    if isinstance(cache, str):
        cache = ArtifactCache(cache)
    if isinstance(journal, str):
        journal = Journal(journal)
    if journal is not None and not resume:
        journal.clear()

    cells = [(name, flow_name) for name in names for flow_name in flows]
    keys = {
        cell: suite_cell_key(
            cell[0], cell[1], config, strategy,
            flow=flows[cell[1]] if custom_flows else None,
        )
        for cell in cells
    }
    rows: dict = {}

    def settle(cell, key, row, journal_it: bool) -> None:
        rows[cell] = row
        if getattr(row, "violations", 0):
            obs.event(
                "suite/cell_violations",
                benchmark=cell[0],
                flow=cell[1],
                violations=row.violations,
            )
        if cache is not None:
            cache.put(key, row)
        if journal is not None and journal_it:
            journal.append(_row_record(key, row))
        if progress is not None:
            progress(row)

    # 1. Resume: replay journaled cells.
    if resume and journal is not None:
        done = journal.completed()
        for cell in cells:
            record = done.get(keys[cell])
            if record is None:
                continue
            row = PlacerMetrics(**record["row"])
            emit("journal_replayed", keys[cell])
            settle(cell, keys[cell], row, journal_it=False)

    # 2. Cache: reuse identical cells from earlier runs.
    if cache is not None:
        for cell in cells:
            if cell in rows:
                continue
            value = cache.get(keys[cell])
            if value is not MISSING:
                settle(cell, keys[cell], value, journal_it=True)

    # 3. Execute the remainder.
    remainder = [cell for cell in cells if cell not in rows]
    if remainder:
        if executor is None:
            executor = TaskExecutor(jobs=jobs, retries=retries)
        key_to_cell = {keys[cell]: cell for cell in remainder}

        # Zero-copy fan-out: with a worker pool and the default flows,
        # generate each benchmark once here and publish its arrays to
        # shared memory; workers attach instead of regenerating the
        # design per (benchmark, flow) cell.  Custom flows keep the
        # pickling path (their callables cross the boundary anyway).
        shared = None
        if (
            not custom_flows
            and getattr(executor, "jobs", 1) > 1
            and shm.available()
        ):
            shared = shm.SharedDesignCache(
                capacity=max(len({cell[0] for cell in remainder}), 1)
            )

        tasks = []
        for cell in remainder:
            name, flow_name = cell
            if custom_flows:
                task = Task(
                    key=keys[cell],
                    fn=run_benchmark,
                    args=(name, flows[flow_name], config, flow_name),
                )
            else:
                handle = (
                    shared.handle_for(name, config.scale, config.seed)
                    if shared is not None else None
                )
                if handle is not None:
                    task = Task(
                        key=keys[cell],
                        fn=_shared_flow_cell,
                        args=(handle.to_dict(), name, flow_name, config, strategy),
                    )
                else:
                    task = Task(
                        key=keys[cell],
                        fn=_default_flow_cell,
                        args=(name, flow_name, config, strategy),
                    )
            tasks.append(task)

        def on_result(result) -> None:
            if not result.ok:
                cell = key_to_cell[result.key]
                obs.event(
                    "suite/cell_failed",
                    benchmark=cell[0],
                    flow=cell[1],
                    key=result.key,
                    error=repr(result.error),
                )
                raise result.error
            settle(key_to_cell[result.key], result.key, result.value, journal_it=True)

        try:
            executor.run(tasks, on_result=on_result)
        finally:
            if shared is not None:
                shared.close()

    ordered = [rows[cell] for cell in cells]
    illegal = [row for row in ordered if getattr(row, "violations", 0)]
    if illegal:
        from ..verify import VerificationError

        offenders = ", ".join(
            f"{row.benchmark}/{row.placer} ({row.violations})" for row in illegal
        )
        raise VerificationError(
            f"suite produced invariant violations in {len(illegal)} cells: {offenders}",
            rows=ordered,
        )
    return ordered
