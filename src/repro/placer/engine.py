"""The ePlace-style global placement engine.

Minimizes ``f = W_WA + lambda * D`` (paper Eq. 1) with Nesterov's method.
The engine exposes an iteration *hook* interface: after every iteration
each registered hook receives a :class:`PlacerState` and may mutate the
effective (padded) cell sizes through
:meth:`GlobalPlacer.set_density_sizes` — this is the seam PUFFER's
routability optimizer plugs into.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..netlist.design import Design
from .density import ElectrostaticDensity
from .initial import clamp_to_die, initial_place
from .nesterov import NesterovOptimizer
from .params import PlacementParams
from .wirelength import WirelengthModel, gamma_schedule


@dataclass
class IterationRecord:
    """Progress snapshot of one engine iteration."""

    iteration: int
    hpwl: float
    overflow: float
    penalty_factor: float
    gamma: float


@dataclass
class GlobalPlaceResult:
    """Outcome of :meth:`GlobalPlacer.run`."""

    hpwl: float
    overflow: float
    iterations: int
    runtime: float
    grad_evals: int
    converged: bool
    history: list = field(default_factory=list)


class PlacerState:
    """Read-mostly view of the running engine handed to iteration hooks."""

    def __init__(self, placer: "GlobalPlacer") -> None:
        self.placer = placer
        self.design = placer.design
        self.density = placer.density

    @property
    def iteration(self) -> int:
        return self.placer.iteration

    @property
    def overflow(self) -> float:
        return self.placer.overflow

    @property
    def hpwl(self) -> float:
        return self.placer.hpwl

    @property
    def penalty_factor(self) -> float:
        return self.placer.penalty_factor

    def set_density_sizes(self, w_eff: np.ndarray, h_eff: np.ndarray) -> None:
        """Replace effective cell extents (PUFFER padding entry point)."""
        self.placer.set_density_sizes(w_eff, h_eff)


class GlobalPlacer:
    """Analytical global placement with pluggable routability hooks.

    Args:
        design: design to place; positions are updated in place.
        params: engine parameters.
        hooks: callables ``hook(state) -> bool``; a ``True`` return means
            the hook changed the objective (e.g. applied padding) and the
            optimizer momentum must be reset.
        seed_positions: when ``True``, run the star-model initial
            placement first; otherwise start from the current positions.
    """

    def __init__(
        self,
        design: Design,
        params: PlacementParams | None = None,
        hooks: list | None = None,
        seed_positions: bool = True,
    ) -> None:
        self.design = design
        self.params = params or PlacementParams()
        self.params.validate()
        self.hooks = list(hooks or [])
        self._seed_positions = seed_positions
        self.density = ElectrostaticDensity(design, self.params)
        self.wirelength = WirelengthModel(design)
        self._mov = np.flatnonzero(design.movable)
        pin_counts = np.bincount(design.pin_cell, minlength=design.num_cells)
        self._pin_counts = pin_counts[self._mov]
        # Feasible box of the movable centers: every cell inside the die.
        die = design.die
        half_w, half_h = design.w[self._mov] / 2, design.h[self._mov] / 2
        self._lo = np.concatenate((die.xlo + half_w, die.ylo + half_h))
        self._hi = np.concatenate((die.xhi - half_w, die.yhi - half_h))
        self.iteration = 0
        self.overflow = 1.0
        self.hpwl = 0.0
        self.penalty_factor = 0.0
        self.gamma = 1.0
        self._objective_changed = False

    # ------------------------------------------------------------------
    # Hook support
    # ------------------------------------------------------------------

    def set_density_sizes(self, w_eff: np.ndarray, h_eff: np.ndarray) -> None:
        """Install padded cell extents into the electrostatic system."""
        self.density.set_sizes(w_eff, h_eff)
        self._objective_changed = True

    # ------------------------------------------------------------------
    # Gradient plumbing
    # ------------------------------------------------------------------

    def _project(self, z: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(z, self._lo), self._hi)

    def _evaluate(self, z: np.ndarray) -> tuple:
        """WA and density gradients at ``z``, in movable order."""
        x, y = self.design.x.copy(), self.design.y.copy()
        x[self._mov], y[self._mov] = np.split(z, 2)
        _, gwx, gwy = self.wirelength.wa_and_grad(x, y, self.gamma)
        _, gdx, gdy, self._eval_overflow = self.density.penalty_and_grad(x, y)
        return gwx[self._mov], gwy[self._mov], gdx, gdy

    def _combine(self, gwx, gwy, gdx, gdy) -> np.ndarray:
        """Preconditioned gradient of ``W + lambda * D``."""
        lam = self.penalty_factor
        precond = np.maximum(self._pin_counts + lam * self.density.charge, 1.0)
        return np.concatenate(
            ((gwx + lam * gdx) / precond, (gwy + lam * gdy) / precond)
        )

    def _gradient(self, z: np.ndarray) -> np.ndarray:
        return self._combine(*self._evaluate(z))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> GlobalPlaceResult:
        """Place the design; returns the convergence record."""
        with obs.span("gp/run") as run_span:
            result = self._run()
            run_span.set(
                iterations=result.iterations,
                hpwl=result.hpwl,
                overflow=result.overflow,
                converged=result.converged,
            )
        return result

    def _run(self) -> GlobalPlaceResult:
        start = time.perf_counter()
        params = self.params
        design = self.design
        if self._seed_positions:
            with obs.span("gp/initial_place", placer=params.initial_placer):
                if params.initial_placer == "quadratic":
                    from .quadratic import initial_place_quadratic

                    initial_place_quadratic(design, params)
                else:
                    initial_place(design, params)
        clamp_to_die(design)

        base_gamma = params.gamma_scale * max(self.density.bin_w, self.density.bin_h)
        self.overflow = self.density.overflow(design.x, design.y)
        self.gamma = gamma_schedule(base_gamma, self.overflow)
        z = self._project(np.concatenate((design.x[self._mov], design.y[self._mov])))
        # One evaluation at the start point sets the penalty factor (WA
        # and density gradient norms balanced) and seeds the optimizer.
        grads = self._evaluate(z)
        wl_norm = float(np.abs(grads[0]).sum() + np.abs(grads[1]).sum())
        d_norm = float(np.abs(grads[2]).sum() + np.abs(grads[3]).sum())
        self.penalty_factor = wl_norm / max(d_norm, 1e-12)
        g0 = self._combine(*grads)
        g_inf = float(np.abs(g0).max()) if len(g0) else 1.0
        initial_step = 0.1 * self.density.bin_w / max(g_inf, 1e-12)
        optimizer = NesterovOptimizer(
            self._gradient, self._project, z, initial_step, g0=g0
        )

        hpwl_prev = self.wirelength.hpwl(design.x, design.y)
        hpwl_ref = max(params.delta_hpwl_ref_frac * max(hpwl_prev, 1.0), 1e-9)
        history = []
        converged = False
        state = PlacerState(self)

        overflow_hist = obs.histogram("gp/overflow")
        hpwl_hist = obs.histogram("gp/hpwl")
        for k in range(params.max_iters):
            self.iteration = k
            with obs.span("gp/iteration", i=k) as it_span:
                z = optimizer.step()
                design.x[self._mov], design.y[self._mov] = np.split(z, 2)
                self.overflow = self._eval_overflow
                self.hpwl = self.wirelength.hpwl(design.x, design.y)

                # Penalty-factor schedule (ePlace): reward HPWL reduction.
                delta = self.hpwl - hpwl_prev
                mu = params.lambda_mu_max ** (1.0 - delta / hpwl_ref)
                mu = float(min(max(mu, params.lambda_mu_min), params.lambda_mu_max))
                self.penalty_factor *= mu
                hpwl_prev = self.hpwl
                self.gamma = gamma_schedule(base_gamma, self.overflow)

                history.append(
                    IterationRecord(k, self.hpwl, self.overflow, self.penalty_factor, self.gamma)
                )
                overflow_hist.observe(self.overflow)
                hpwl_hist.observe(self.hpwl)
                if params.verbose and k % 25 == 0:
                    print(
                        f"  iter {k:4d}  hpwl {self.hpwl:.4g}  ovf {self.overflow:.4f}"
                        f"  lambda {self.penalty_factor:.3g}"
                    )

                self._objective_changed = False
                for hook in self.hooks:
                    if hook(state):
                        self._objective_changed = True
                if self._objective_changed:
                    optimizer.reset_momentum()
                it_span.set(hpwl=self.hpwl, overflow=self.overflow)

            if self.overflow < params.target_overflow and k >= params.min_iters:
                converged = True
                break

        return GlobalPlaceResult(
            hpwl=self.hpwl,
            overflow=self.overflow,
            iterations=self.iteration + 1,
            runtime=time.perf_counter() - start,
            grad_evals=optimizer.grad_evals,
            converged=converged,
            history=history,
        )
