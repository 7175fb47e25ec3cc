"""Cross-backend differential harness.

The vectorized kernels of :mod:`repro.kernels` are only trustworthy
while they stay equivalent to the reference loops *as both evolve*; the
golden unit tests pin the kernels in isolation, and this harness pins
the composed system: the same randomized designs run through every
map-building stage, through the evaluation router, and through the full
placer → legalizer flow under each backend, and the outputs are diffed
within stated tolerances.

Two tolerance regimes apply, deliberately:

* **single-shot stages** (demand, RUDY, density maps) are one kernel
  evaluation deep — the backends must agree to ``1e-9`` relative.
* **iterative stages** (routing rounds, the full flow) amplify
  ulp-level differences through feedback (cost-tie breaks, hundreds of
  Nesterov iterations), so they are compared on *metrics* with loose,
  explicitly stated tolerances, and each backend's end result must
  independently pass the invariant checkers.

:func:`run_differential` returns a :class:`DiffReport` whose
``to_dict()`` is the machine-readable artifact the CI ``verify`` job
uploads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .. import kernels, obs
from ..benchgen import make_design
from ..placer import PlacementParams
from ..router import GlobalRouter, RouterParams
from .checkers import VerifyContext, run_checkers

#: The two backends every case runs under, golden one first.
BACKENDS = ("reference", "vectorized")

#: Map-stage agreement (single kernel evaluation, no feedback).
MAP_RTOL = 1e-9
MAP_ATOL = 1e-9

#: Metric-stage agreement (iterative, feedback-amplified stages).
HPWL_RTOL = 0.05
OVERFLOW_ATOL = 1.0  # percentage points of HOF/VOF
WIRELENGTH_RTOL = 0.05


@dataclass
class DiffCase:
    """One compared quantity.

    Attributes:
        name: stage/quantity, e.g. ``"maps/demand_h"`` or ``"flow/hpwl"``.
        measured: the observed discrepancy (max abs error for maps,
            relative or absolute difference for metrics).
        tolerance: the stated bound ``measured`` must stay under.
        ok: whether the case passed.
        detail: free-form context (per-backend values, shapes).
    """

    name: str
    measured: float
    tolerance: float
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass
class DiffReport:
    """Machine-readable outcome of a differential run."""

    design: str
    scale: float
    seed: int
    quick: bool
    backends: tuple = BACKENDS
    cases: list = field(default_factory=list)
    #: backend name -> ``VerifyReport.to_dict()`` of its end-to-end run.
    invariants: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """All cases within tolerance and all invariant runs clean."""
        return all(c.ok for c in self.cases) and all(
            r["num_errors"] == 0 for r in self.invariants.values()
        )

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "scale": self.scale,
            "seed": self.seed,
            "quick": self.quick,
            "backends": list(self.backends),
            "ok": self.ok,
            "cases": [c.to_dict() for c in self.cases],
            "invariants": self.invariants,
        }

    def to_json(self, path: str) -> None:
        """Write the report as JSON to ``path``."""
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)

    def summary(self) -> str:
        failed = [c for c in self.cases if not c.ok]
        status = "OK" if self.ok else f"FAIL ({len(failed)} cases)"
        lines = [
            f"differential {self.design} scale={self.scale} seed={self.seed}: {status}"
        ]
        for c in self.cases:
            mark = "ok " if c.ok else "FAIL"
            lines.append(
                f"  {mark} {c.name:<24} err {c.measured:.3e} tol {c.tolerance:.3e}"
            )
        for backend, inv in sorted(self.invariants.items()):
            lines.append(
                f"  invariants[{backend}]: {inv['num_errors']} errors, "
                f"{inv['num_warnings']} warnings over {len(inv['checkers_run'])} checkers"
            )
        return "\n".join(lines)


def _both(fn):
    """Evaluate ``fn()`` under each backend: ``(reference, vectorized)``."""
    with kernels.using(BACKENDS[0]):
        ref = fn()
    with kernels.using(BACKENDS[1]):
        vec = fn()
    return ref, vec


def _map_case(name: str, ref: np.ndarray, vec: np.ndarray) -> DiffCase:
    ref = np.asarray(ref, dtype=np.float64)
    vec = np.asarray(vec, dtype=np.float64)
    if ref.shape != vec.shape:
        return DiffCase(
            name=name,
            measured=float("inf"),
            tolerance=MAP_ATOL,
            ok=False,
            detail=f"shape mismatch {ref.shape} vs {vec.shape}",
        )
    err = float(np.abs(ref - vec).max()) if ref.size else 0.0
    bound = MAP_ATOL + MAP_RTOL * float(np.abs(ref).max() if ref.size else 0.0)
    return DiffCase(name=name, measured=err, tolerance=bound, ok=err <= bound)


def _metric_case(name: str, a: float, b: float, *, rtol=0.0, atol=0.0) -> DiffCase:
    err = abs(a - b)
    bound = atol + rtol * max(abs(a), abs(b))
    return DiffCase(
        name=name,
        measured=float(err),
        tolerance=float(bound),
        ok=err <= bound,
        detail=f"{BACKENDS[0]}={a:.6g} {BACKENDS[1]}={b:.6g}",
    )


def diff_maps(design) -> list:
    """Single-shot map stages: congestion demand, RUDY, density."""
    from ..core.demand import accumulate_demand, build_topologies
    from ..core.rudy import rudy_maps
    from ..placer.density import ElectrostaticDensity
    from ..router.grid import build_grid

    cases = []
    grid = build_grid(design)
    # Each backend builds its own topology batch (``steiner_batch``).
    ref, vec = _both(
        lambda: accumulate_demand(design, grid, build_topologies(design, grid))
    )
    cases.append(_map_case("maps/demand_h", ref.dmd_h, vec.dmd_h))
    cases.append(_map_case("maps/demand_v", ref.dmd_v, vec.dmd_v))

    ref, vec = _both(lambda: rudy_maps(design)[:2])
    cases.append(_map_case("maps/rudy_h", ref[0], vec[0]))
    cases.append(_map_case("maps/rudy_v", ref[1], vec[1]))

    def density():
        system = ElectrostaticDensity(design, PlacementParams())
        return system.movable_density(design.x, design.y)

    ref, vec = _both(density)
    cases.append(_map_case("maps/density", ref, vec))
    return cases


def diff_route(design, router: RouterParams | None = None) -> list:
    """Route the same placement under each backend, diff the report.

    Maze cost ties may break to different equal-cost paths, and the
    committed demand feeds back into later costs, so the comparison is
    on report metrics with loose tolerances.
    """
    ref, vec = _both(lambda: GlobalRouter(design, router).run())
    return [
        _metric_case("route/hof", ref.hof, vec.hof, atol=OVERFLOW_ATOL),
        _metric_case("route/vof", ref.vof, vec.vof, atol=OVERFLOW_ATOL),
        _metric_case(
            "route/wirelength", ref.wirelength, vec.wirelength, rtol=WIRELENGTH_RTOL
        ),
    ]


def diff_flow(
    name: str,
    scale: float,
    seed: int,
    placement: PlacementParams | None = None,
    level: str = "full",
):
    """Run placer → legalizer end-to-end under each backend.

    Each backend places a freshly generated (identical) copy of the
    design; the HPWLs are diffed and each result independently runs the
    invariant checkers.

    Returns:
        ``(cases, invariants, results)`` where ``invariants`` maps
        backend name to the ``VerifyReport`` of its run.
    """
    from .. import api

    results = {}
    invariants = {}
    for backend in BACKENDS:
        with kernels.using(backend):
            result = api.run(
                name,
                flow="puffer",
                config=api.RunConfig(scale=scale, seed=seed, placement=placement or PlacementParams()),
            )
        ctx = VerifyContext(
            design=result.design,
            pad=getattr(result.flow_result, "padding", None),
            padded_widths=getattr(result.flow_result, "legal_widths", None),
        )
        invariants[backend] = run_checkers(ctx, level=level)
        results[backend] = result
    cases = [
        _metric_case(
            "flow/hpwl",
            results[BACKENDS[0]].hpwl,
            results[BACKENDS[1]].hpwl,
            rtol=HPWL_RTOL,
        )
    ]
    return cases, invariants, results


def run_differential(
    design: str = "OR1200",
    scale: float = 0.004,
    seed: int = 0,
    quick: bool = False,
    placement: PlacementParams | None = None,
    router: RouterParams | None = None,
) -> DiffReport:
    """The full differential sweep on one generated Table-I design.

    Args:
        design: suite benchmark name.
        scale: generation scale (``quick`` shrinks it).
        seed: generation seed offset.
        quick: CI smoke mode — smaller design, fewer placer iterations.
        placement: placement parameters for the end-to-end stage.
        router: router parameters for the routing stage.

    Returns:
        A :class:`DiffReport` (see :meth:`DiffReport.to_dict` for the
        machine-readable form).
    """
    if quick:
        scale = min(scale, 0.002)
        placement = placement or PlacementParams(max_iters=300)
    with obs.span("verify/differential", design=design, scale=scale, quick=quick):
        report = DiffReport(design=design, scale=scale, seed=seed, quick=quick)

        placed = make_design(design, scale, seed=seed)
        flow_cases, invariants, results = diff_flow(
            design, scale, seed, placement=placement
        )

        # Map stages diff on the legalized placement of the golden run
        # (any fixed placement would do; a legal one exercises the
        # boundary-clamp paths).
        golden = results[BACKENDS[0]].design
        placed.x[:], placed.y[:] = golden.x, golden.y
        report.cases.extend(diff_maps(placed))
        report.cases.extend(diff_route(placed, router))
        report.cases.extend(flow_cases)
        report.invariants = {
            backend: rep.to_dict() for backend, rep in invariants.items()
        }
        obs.counter("verify/differential_cases").inc(len(report.cases))
        if not report.ok:
            obs.counter("verify/differential_failures").inc(
                sum(not c.ok for c in report.cases)
            )
    return report
