"""Time-step algebra and bounds: the SSP RK3 stage update, the per-block
stable step, and the controls of the time loop.

The loop itself is ``runner.RankWorker.run``, the one driver every run path
goes through, serial runs included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import GasModel, spectral_radius

STAGES = 3


def stage_state(stage: int, dt: float, q0, q_stage, r):
    """One SSP RK3 stage; every execution path goes through this algebra.

    stage 0:  q1 = q0 + dt r(q0)
    stage 1:  q2 = 3/4 q0 + 1/4 (q1 + dt r(q1))
    stage 2:  q  = 1/3 q0 + 2/3 (q2 + dt r(q2))
    """
    if stage == 0:
        return q_stage + dt * r
    if stage == 1:
        return 0.75 * q0 + 0.25 * (q_stage + dt * r)
    if stage == 2:
        return (1.0 / 3.0) * q0 + (2.0 / 3.0) * (q_stage + dt * r)
    raise ValueError(f"stage must be 0..2, got {stage}")


def block_dt_bound(w_int: np.ndarray, gas: GasModel, spacing: tuple[float, float, float]) -> float:
    """Largest stable dt (unit CFL) over one block interior.

    dt = min over cells of h_min / (sum of directional wavespeeds
    + 2 (mu gamma / Pr) / (rho h_min^2) when viscous).
    """
    h_min = min(spacing)
    denom = spectral_radius(w_int, 0, gas)
    denom = denom + spectral_radius(w_int, 1, gas)
    denom = denom + spectral_radius(w_int, 2, gas)
    if gas.viscous:
        coeff = 2.0 * gas.viscosity * gas.gamma / gas.prandtl
        denom = denom + coeff / (w_int[0] * h_min * h_min)
    return h_min / float(np.max(denom))


@dataclass
class IterationControls:
    """Knobs of the time loop (``runner.RankWorker.run``).

    ``tolerance`` is the relative drop of the residual L2 norm against the
    first iteration; ``None`` disables the convergence check.
    """

    max_iters: int = 50
    cfl: float = 0.5
    fixed_dt: float | None = None
    t_end: float | None = None
    tolerance: float | None = 1.0e-8


def clip_dt(dt: float, sim_time: float, t_end: float | None) -> float:
    """Shorten the last step so the run lands exactly on t_end."""
    if t_end is None:
        return dt
    remaining = t_end - sim_time
    return remaining if remaining < dt else dt
