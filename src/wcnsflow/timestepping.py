"""Time-step algebra and bounds: the SSP RK3 stage update, the per-block
stable step, and the controls of the time loop.

The loop itself is ``runner.RankWorker.run``, the one driver every run path
goes through, serial runs included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import GasModel, spectral_radii

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


def block_dt_bound(w_int: np.ndarray, gas: GasModel,
                   spacing: tuple[float, float, float],
                   radii: np.ndarray | None = None) -> float:
    """Largest stable dt (unit CFL) over one block interior.

    dt = min over cells of h_min / (sum of directional wavespeeds
    + 2 (mu gamma / Pr) / (rho h_min^2) when viscous).  ``radii`` are the
    wavespeeds ``spectral_radii(w_int, gas)`` when already formed.
    """
    h_min = min(spacing)
    if radii is None:
        radii = spectral_radii(w_int, gas)
    denom = radii[0] + radii[1]
    denom += radii[2]
    if gas.viscous:
        coeff = 2.0 * gas.viscosity * gas.gamma / gas.prandtl
        denom = denom + coeff / (w_int[0] * h_min * h_min)
    return h_min / float(np.max(denom))


@dataclass
class IterationControls:
    """Knobs of the time loop (``runner.RankWorker.run``).

    ``tolerance`` is the relative drop of the residual L2 norm against the
    first iteration; ``None`` disables the convergence check.  ``cfl``, and
    each of the others that is not None, must be finite and positive.
    """

    max_iters: int = 50
    cfl: float = 0.5
    fixed_dt: float | None = None
    t_end: float | None = None
    tolerance: float | None = 1.0e-8

    def __post_init__(self):
        for name in ("cfl", "fixed_dt", "t_end", "tolerance"):
            v = getattr(self, name)
            if (v is not None or name == "cfl") and not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {v}")


def clip_dt(dt: float, sim_time: float, t_end: float | None) -> float:
    """Shorten the last step so the run lands exactly on t_end."""
    if t_end is None:
        return dt
    remaining = t_end - sim_time
    return remaining if remaining < dt else dt


def reached_t_end(sim_time: float, t_end: float | None) -> bool:
    """The time loop's stop rule: t_end reached, to a relative 1e-15."""
    return t_end is not None and sim_time >= t_end * (1.0 - 1e-15)


def fixed_dt_steps(controls: IterationControls) -> int:
    """The steps the time loop takes at ``controls.fixed_dt``: up to
    ``max_iters``, and none once ``t_end`` is reached."""
    sim_time, steps = 0.0, 0
    while steps < controls.max_iters and not reached_t_end(sim_time,
                                                           controls.t_end):
        sim_time += clip_dt(controls.fixed_dt, sim_time, controls.t_end)
        steps += 1
    return steps
