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
from . import prefix
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
            optimizer momentum must be reset.  A hook returning ``False``
            must change nothing the placer reads, so the iterations
            before the first ``True`` depend on the design and
            ``params`` alone (:mod:`repro.placer.prefix` replays them).
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
        self.reused_iterations = 0
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
                reused_iterations=self.reused_iterations,
            )
        return result

    def _start(self) -> tuple:
        """Seed positions and evaluate the start point; returns the
        optimizer and the reference HPWL change of the penalty schedule."""
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

        self.overflow = self.density.overflow(design.x, design.y)
        self.gamma = gamma_schedule(self._base_gamma, self.overflow)
        self.hpwl = self.wirelength.hpwl(design.x, design.y)
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
        hpwl_ref = max(params.delta_hpwl_ref_frac * max(self.hpwl, 1.0), 1e-9)
        return optimizer, hpwl_ref

    def _replay(self, optimizer, step, tail) -> None:
        """Restore the state a recorded step left; ``tail`` (the
        trajectory, on its last step) supplies the optimizer's ``v``."""
        v, g_v = (tail.v, tail.g_v) if tail is not None else (step.u, None)
        optimizer.restore(step.u, v, g_v, step.a, step.alpha, step.grad_evals)
        self.design.x[self._mov], self.design.y[self._mov] = np.split(step.u, 2)
        self.overflow, self.hpwl = step.overflow, step.hpwl
        self.penalty_factor, self.gamma = step.penalty_factor, step.gamma

    def _run(self) -> GlobalPlaceResult:
        start = time.perf_counter()
        params = self.params
        design = self.design
        self._base_gamma = params.gamma_scale * max(self.density.bin_w, self.density.bin_h)
        # With a prefix store active, the steps up to the first hook
        # firing are recorded on a miss and replayed on a hit (see
        # repro.placer.prefix).  Sizes installed before run() are not in
        # the key, so such a placement bypasses the store.
        store = None if self._objective_changed else prefix.active()
        key = stored = None
        if store is not None:
            key = prefix.key(design, params, self._seed_positions)
            stored = store.get(key)
        if stored is None:
            optimizer, hpwl_ref = self._start()
            replay = ()
        else:
            first = stored.steps[0]
            optimizer = NesterovOptimizer(self._gradient, self._project, first.u, first.alpha)
            hpwl_ref = stored.hpwl_ref
            replay = stored.steps
        known = len(replay)
        recorded = list(replay) if store is not None else None

        def publish() -> None:
            # Only a record that ran past the stored one is news.
            if recorded is not None and len(recorded) > known:
                store.put(key, prefix.Trajectory(
                    hpwl_ref, tuple(recorded), optimizer.v, optimizer.g_v
                ))

        hpwl_prev = self.hpwl
        history = []
        converged = False
        state = PlacerState(self)

        overflow_hist = obs.histogram("gp/overflow")
        hpwl_hist = obs.histogram("gp/hpwl")
        for k in range(params.max_iters):
            self.iteration = k
            with obs.span("gp/iteration", i=k) as it_span:
                if k < len(replay):
                    self._replay(optimizer, replay[k], stored if k == known - 1 else None)
                else:
                    z = optimizer.step()
                    design.x[self._mov], design.y[self._mov] = np.split(z, 2)
                    self.overflow = self._eval_overflow
                    self.hpwl = self.wirelength.hpwl(design.x, design.y)

                    # Penalty-factor schedule (ePlace): reward HPWL reduction.
                    delta = self.hpwl - hpwl_prev
                    mu = params.lambda_mu_max ** (1.0 - delta / hpwl_ref)
                    mu = float(min(max(mu, params.lambda_mu_min), params.lambda_mu_max))
                    self.penalty_factor *= mu
                    self.gamma = gamma_schedule(self._base_gamma, self.overflow)
                    if recorded is not None:
                        recorded.append(prefix.Step(
                            z, self.overflow, self.hpwl, self.penalty_factor,
                            self.gamma, optimizer.alpha, optimizer.a,
                            optimizer.grad_evals,
                        ))
                hpwl_prev = self.hpwl

                history.append(
                    IterationRecord(k, self.hpwl, self.overflow, self.penalty_factor, self.gamma)
                )
                overflow_hist.observe(self.overflow)
                hpwl_hist.observe(self.hpwl)

                self._objective_changed = False
                for hook in self.hooks:
                    if hook(state):
                        self._objective_changed = True
                if self._objective_changed:
                    # The prefix ends here: stop replaying and recording.
                    replay = replay[: k + 1]
                    publish()
                    recorded = None
                    optimizer.reset_momentum()
                it_span.set(hpwl=self.hpwl, overflow=self.overflow)

            if self.overflow < params.target_overflow and k >= params.min_iters:
                converged = True
                break

        publish()
        self.reused_iterations = min(len(replay), len(history))
        if self.reused_iterations:
            obs.counter("gp/prefix_iterations").inc(self.reused_iterations)
        return GlobalPlaceResult(
            hpwl=self.hpwl,
            overflow=self.overflow,
            iterations=len(history),
            runtime=time.perf_counter() - start,
            grad_evals=optimizer.grad_evals,
            converged=converged,
            history=history,
        )
