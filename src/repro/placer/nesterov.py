"""Nesterov's accelerated gradient method with Lipschitz backtracking.

This is the optimizer of ePlace [14]: the steplength is predicted from the
inverse of a local Lipschitz-constant estimate
``alpha_k = ||v_k - v_{k-1}|| / ||g(v_k) - g(v_{k-1})||`` and corrected by
a short backtracking loop.  The optimizer is objective-agnostic: it pulls
gradients from a callable, so the engine can swap smoothing parameters,
density penalties, and cell padding between iterations (calling
:meth:`NesterovOptimizer.reset_momentum` whenever the objective changed
discontinuously).
"""

from __future__ import annotations

import numpy as np

from .. import obs


class NesterovOptimizer:
    """Accelerated gradient descent over concatenated ``(x, y)`` vectors.

    Args:
        grad_fn: callable mapping a solution vector ``z`` to its
            (preconditioned) gradient; evaluated at reference points.
        project_fn: callable clamping a solution vector to the feasible
            box (die bounds); applied to every candidate.
        z0: initial solution.
        initial_step: first steplength (before Lipschitz prediction).
        g0: the gradient at the projected ``z0``, when the caller has
            already evaluated it; otherwise the first step evaluates it.
        backtracks: maximum extra gradient evaluations per iteration.
        shrink_tolerance: accept the predicted step when the re-estimated
            steplength is at least this fraction of it.
    """

    def __init__(
        self,
        grad_fn,
        project_fn,
        z0: np.ndarray,
        initial_step: float,
        backtracks: int = 2,
        shrink_tolerance: float = 0.95,
        g0: np.ndarray | None = None,
    ) -> None:
        self._grad_fn = grad_fn
        self._project = project_fn
        self.u = project_fn(np.asarray(z0, dtype=np.float64).copy())
        self.v = self.u.copy()
        self._a = 1.0
        self._alpha = float(initial_step)
        self._g_v = g0
        self._backtracks = backtracks
        self._tol = shrink_tolerance
        self.grad_evals = 0

    @property
    def a(self) -> float:
        """Nesterov momentum coefficient ``a_k``."""
        return self._a

    @property
    def alpha(self) -> float:
        """Steplength the next step starts from."""
        return self._alpha

    @property
    def g_v(self) -> "np.ndarray | None":
        """Gradient at :attr:`v`, or ``None`` until the next step needs it."""
        return self._g_v

    def restore(self, u, v, g_v, a: float, alpha: float, grad_evals: int) -> None:
        """Resume from the state a recorded :meth:`step` left behind
        (``g_v=None``: the next step evaluates the gradient at ``v``)."""
        self.u, self.v, self._g_v = u, v, g_v
        self._a, self._alpha, self.grad_evals = a, alpha, grad_evals

    def reset_momentum(self) -> None:
        """Forget acceleration history after an objective change."""
        self._a = 1.0
        self.v = self.u.copy()
        self._g_v = None

    def step(self) -> np.ndarray:
        """One accelerated iteration; returns the new major solution."""
        evals_before = self.grad_evals
        if self._g_v is None:
            self._g_v = self._grad_fn(self.v)
            self.grad_evals += 1
        alpha = self._alpha
        accepted = None
        for attempt in range(self._backtracks + 1):
            u_next = self._project(self.v - alpha * self._g_v)
            a_next = (1.0 + np.sqrt(4.0 * self._a * self._a + 1.0)) / 2.0
            v_next = self._project(
                u_next + (self._a - 1.0) / a_next * (u_next - self.u)
            )
            g_next = self._grad_fn(v_next)
            self.grad_evals += 1
            alpha_hat = _steplength(v_next - self.v, g_next - self._g_v, alpha)
            accepted = (u_next, v_next, a_next, g_next, alpha_hat)
            if alpha_hat >= self._tol * alpha or attempt == self._backtracks:
                break
            alpha = alpha_hat
        self.u, self.v, self._a, self._g_v, self._alpha = accepted
        obs.counter("gp/grad_evals").inc(self.grad_evals - evals_before)
        if attempt:
            obs.counter("gp/backtracks").inc(attempt)
        return self.u


def _steplength(dz: np.ndarray, dg: np.ndarray, fallback: float) -> float:
    """Inverse local Lipschitz estimate ``||dz|| / ||dg||``."""
    num = float(np.linalg.norm(dz))
    den = float(np.linalg.norm(dg))
    if den <= 1e-18 or num <= 1e-18:
        return fallback
    return num / den
