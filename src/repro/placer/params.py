"""Tunable parameters of the electrostatic global placer."""

from __future__ import annotations

from dataclasses import dataclass

from ..schema import dataclass_from_dict, dataclass_to_dict


@dataclass
class PlacementParams:
    """Knobs of :class:`repro.placer.engine.GlobalPlacer`.

    Attributes:
        target_density: bin-utilization target for the density penalty.
        grid_dim: density grid dimension ``M`` (``None`` picks a power of
            two from the movable-cell count, clamped to [16, 256]; see
            :func:`repro.placer.density.auto_grid_dim`).
        target_overflow: density-overflow value at which global placement
            stops (paper engines typically use 0.07-0.10).
        max_iters: Nesterov iteration cap.
        min_iters: iterations run before convergence may be declared.
        gamma_scale: multiplier on the bin size in the wirelength
            smoothing schedule (ePlace uses 8.0).
        lambda_mu_max / lambda_mu_min: clamp on the per-iteration density
            penalty multiplier.
        delta_hpwl_ref_frac: reference HPWL change for the penalty update,
            as a fraction of the initial HPWL.
        initial_noise: uniform jitter (in bin widths) applied by the
            initial placement to break symmetry.
        initial_placer: seed algorithm, ``"star"`` (damped fixed-point
            star model) or ``"quadratic"`` (sparse-CG quadratic solve).
        seed: RNG seed for the initial placement.
    """

    target_density: float = 0.9
    grid_dim: int | None = None
    target_overflow: float = 0.08
    max_iters: int = 700
    min_iters: int = 30
    gamma_scale: float = 8.0
    lambda_mu_max: float = 1.05
    lambda_mu_min: float = 0.98
    delta_hpwl_ref_frac: float = 0.05
    initial_noise: float = 0.25
    initial_placer: str = "star"
    seed: int = 7

    def to_dict(self) -> dict:
        """JSON-safe wire dict (see :mod:`repro.schema`)."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PlacementParams":
        """Rebuild from :meth:`to_dict`; unknown keys raise ``SchemaError``."""
        return dataclass_from_dict(cls, data)

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range settings."""
        if not 0.1 <= self.target_density <= 1.0:
            raise ValueError(f"target_density out of range: {self.target_density}")
        if self.grid_dim is not None and self.grid_dim < 8:
            raise ValueError("grid_dim must be at least 8")
        if not 0.0 < self.target_overflow < 1.0:
            raise ValueError("target_overflow must be in (0, 1)")
        if self.max_iters < self.min_iters:
            raise ValueError("max_iters < min_iters")
        if self.lambda_mu_min > self.lambda_mu_max:
            raise ValueError("lambda mu clamp inverted")
        if self.initial_placer not in ("star", "quadratic"):
            raise ValueError(f"unknown initial placer {self.initial_placer!r}")
