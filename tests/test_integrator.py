"""Three-stage integrator, step-size bounds, and the time loop.

The loop is ``runner.RankWorker.run``; its tests go through ``run_case``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcnsflow import runner
from wcnsflow.cases import exact_density, initial_fields, sod_case, wave_case
from wcnsflow.errors import DivergenceError
from wcnsflow.fields import cell_centers
from wcnsflow.riemann import SOD_LEFT, SOD_RIGHT, solve_riemann
from wcnsflow.runner import (STOP_DIVERGED, STOP_NONE, RankWorker,
                             build_simulation, run_case)
from wcnsflow.state import GasModel, primitive_from_conserved
from wcnsflow.timestepping import (
    IterationControls,
    STAGES,
    block_dt_bound,
    clip_dt,
    stage_state,
)

GAS = GasModel()

finite = {"allow_nan": False, "allow_infinity": False}


def rk3_step(q0, dt, f):
    """One full step: the three stages composed as ``RankWorker.run`` does."""
    q = q0
    for stage in range(STAGES):
        q = stage_state(stage, dt, q0, q, f(q))
    return q


def rest_state(n: int = 4) -> np.ndarray:
    w = np.empty((5, n, n, n))
    w[0], w[1:4], w[4] = 1.0, 0.0, 1.0
    return w


# ---------------------------------------------------------------------------
# Stage algebra

def test_scalar_decay_single_step_frozen_value():
    """The frozen value was printed by the root oracle script
    ``scratch_oracles.py`` (section 2), since deleted."""
    # Hand evaluation for dq/dt = -q, dt = 0.1:
    #   q1 = 0.9, q2 = 0.9525, q = 1/3 + 2/3 * (0.9525 - 0.09525)
    got = rk3_step(1.0, 0.1, lambda q: -q)
    assert abs(got - 0.9048333333333333) <= 1e-12
    assert got == 0.9048333333333334


def test_scalar_step_is_the_cubic_taylor_polynomial():
    dt = 0.1
    got = rk3_step(1.0, dt, lambda q: -q)
    taylor3 = 1.0 - dt + dt * dt / 2.0 - dt ** 3 / 6.0
    assert got == pytest.approx(taylor3, abs=1e-16)
    err = abs(got - math.exp(-dt))
    assert 3e-6 <= err <= 5e-6   # exactly third order, no higher


def test_stage_state_convex_coefficients():
    assert stage_state(0, 0.5, 99.0, 2.0, 4.0) == 4.0   # q_stage + dt r
    assert stage_state(1, 0.0, 1.0, 0.0, 0.0) == 0.75
    assert stage_state(1, 0.0, 0.0, 1.0, 0.0) == 0.25
    assert stage_state(2, 0.0, 1.0, 0.0, 0.0) == pytest.approx(1.0 / 3.0)
    assert stage_state(2, 0.0, 0.0, 1.0, 0.0) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        stage_state(3, 0.1, 0.0, 0.0, 0.0)
    assert STAGES == 3


def test_zero_residual_is_a_fixed_point():
    q0 = np.array([1.5, 2.0, 0.25, -4.0])
    np.testing.assert_array_equal(rk3_step(q0, 0.37, lambda q: 0.0 * q), q0)


def test_blocks_advance_independently():
    """The stage update is elementwise: advancing two cells together gives
    each the value it gets alone."""
    out = rk3_step(np.array([1.0, 2.0]), 0.1, lambda q: -q)
    assert out[0] == rk3_step(1.0, 0.1, lambda q: -q)
    assert out[1] == rk3_step(2.0, 0.1, lambda q: -q)


# ---------------------------------------------------------------------------
# Step-size bounds

def test_rest_gas_dt_bound_frozen_value():
    """The frozen value was printed by the root oracle script
    ``scratch_oracles.py`` (section 3), since deleted."""
    got = block_dt_bound(rest_state(), GAS, (0.1, 0.1, 0.1))
    assert got == 0.028171808490950558
    assert got == pytest.approx(0.1 / (3.0 * math.sqrt(1.4)), rel=1e-15)


def test_dt_bound_uses_smallest_spacing():
    a = block_dt_bound(rest_state(), GAS, (0.1, 0.1, 0.1))
    b = block_dt_bound(rest_state(), GAS, (0.1, 0.05, 0.2))
    assert b == pytest.approx(0.5 * a, rel=1e-15)


def test_viscous_term_shrinks_the_bound():
    viscous = GasModel(reynolds=100.0)
    w = rest_state()
    assert block_dt_bound(w, viscous, (0.1,) * 3) < \
        block_dt_bound(w, GAS, (0.1,) * 3)


@given(st.floats(min_value=0.0, max_value=5.0, **finite),
       st.floats(min_value=0.0, max_value=5.0, **finite))
def test_faster_flow_never_raises_the_bound(u_small, du):
    w = rest_state()
    w[1] = u_small
    slow = block_dt_bound(w, GAS, (0.1,) * 3)
    w[1] = u_small + du
    fast = block_dt_bound(w, GAS, (0.1,) * 3)
    assert fast <= slow


def test_step_is_cfl_times_smallest_block_bound():
    """A step without a fixed dt is the CFL times the smallest block bound."""
    case = sod_case(24, t_end=None, cfl=0.3, blocks=2)
    case = replace(case, controls=replace(case.controls, max_iters=1))
    out = run_case(case, warmup=False, max_workers=1)
    start = initial_fields(case, out.plan)
    bounds = [block_dt_bound(primitive_from_conserved(f.interior, GAS), GAS,
                             case.zone.spacing) for f in start.values()]
    assert len(bounds) == 2 and bounds[0] != bounds[1]
    assert out.sim_time == 0.3 * min(bounds)


def test_clip_dt_lands_on_the_end_time():
    assert clip_dt(0.1, 0.95, 1.0) == pytest.approx(0.05)
    assert clip_dt(0.1, 0.5, 1.0) == 0.1
    assert clip_dt(0.1, 0.5, None) == 0.1


# ---------------------------------------------------------------------------
# Residual norm and divergence, as the rank reductions compute them

def one_rank_worker() -> RankWorker:
    return RankWorker(build_simulation(small_wave()), 0, max_workers=1)


def test_residual_norm_matches_direct_sum():
    a = np.array([3.0, 4.0])
    b = np.array([[1.0, 2.0], [2.0, 4.0]])
    want = math.sqrt(float(np.sum(a * a) + np.sum(b * b)))
    worker = one_rank_worker()
    worker.residual = {0: a, 1: b}
    assert math.sqrt(worker._normsq_partial()) == want
    worker.residual = {1: b, 0: a}   # insertion order irrelevant
    assert math.sqrt(worker._normsq_partial()) == want
    worker.close()


def test_check_divergence_rejects_non_finite():
    """Stage 1's reduction stops the run on a non-finite norm or one past
    ``DIVERGENCE_FACTOR`` times the first."""
    worker = one_rank_worker()
    controls = IterationControls()

    def stop(normsq: float) -> float:
        parts = np.zeros((1, 6))
        parts[0, :2] = 1.0, normsq
        return worker._make_finalize(controls, 0.0, 1, [1.0])(parts)[1]

    assert stop(float("nan")) == STOP_DIVERGED
    assert stop(float("inf")) == STOP_DIVERGED
    assert stop(1.0e13) == STOP_DIVERGED      # norm 1e6.5 x the first
    assert stop(2.0) == STOP_NONE             # in bounds
    worker.close()


# ---------------------------------------------------------------------------
# The time loop, through run_case

def small_wave(**controls):
    """Wave 8^3, one block, fixed dt, no end time."""
    case = wave_case(8, t_end=None, fixed_dt=1e-3)
    return replace(case, controls=replace(case.controls, **controls))


def test_zero_max_iters_returns_input_unchanged():
    case = small_wave(max_iters=0)
    out = run_case(case)
    start = initial_fields(case, out.plan)
    for bid, f in out.fields.items():
        np.testing.assert_array_equal(f.data, start[bid].data)
    assert out.iterations == 0
    assert out.wall_seconds == 0.0
    assert out.norm_history == []


def test_iteration_cap_is_honored():
    out = run_case(small_wave(max_iters=6, tolerance=None), warmup=False)
    assert out.iterations == 6
    assert len(out.norm_history) == 6
    assert not out.converged


def test_convergence_check_stops_early():
    """A standing density wave at Re = 1 diffuses, so its residual decays."""
    case = replace(wave_case(8, velocity=(0.0, 0.0, 0.0), t_end=None),
                   gas=GasModel(reynolds=1.0))
    case = replace(case, controls=replace(case.controls, max_iters=500,
                                          tolerance=0.1))
    out = run_case(case, warmup=False)
    assert out.converged
    assert out.iterations < 100
    hist = out.norm_history
    assert len(hist) == out.iterations
    assert hist[-1] <= 0.1 * hist[0]
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_fixed_dt_and_end_time_land_exactly():
    case = wave_case(8, t_end=0.1, fixed_dt=0.03)
    case = replace(case, controls=replace(case.controls, max_iters=100))
    out = run_case(case, warmup=False)
    assert out.iterations == 4
    assert abs(out.sim_time - 0.1) <= 1e-15


def test_repeat_runs_are_bitwise_identical():
    outs = [run_case(small_wave(max_iters=5), warmup=False)
            for _ in range(2)]
    for bid, f in outs[0].fields.items():
        np.testing.assert_array_equal(f.interior, outs[1].fields[bid].interior)
    assert outs[0].norm_history == outs[1].norm_history


def test_divergence_raises_structured_error(monkeypatch):
    """Far past the stable step the residual norm grows without bound."""
    monkeypatch.setattr(runner, "DIVERGENCE_FACTOR", 5.0)
    case = wave_case(8, amplitude=0.01, t_end=None, fixed_dt=0.08)
    case = replace(case, controls=replace(case.controls, max_iters=200))
    with pytest.raises(DivergenceError) as err:
        run_case(case, warmup=False)
    assert err.value.step is not None and 0 < err.value.step < 200
    assert err.value.__cause__ is None    # the norm rule, not a bad state


# ---------------------------------------------------------------------------
# Run-level accuracy: whole runs through ``run_case`` against exact solutions

def zone_l1(out, exact: dict) -> float:
    """Mean |rho - exact| over every cell of the zone."""
    total = sum(float(np.sum(np.abs(out.fields[bid].interior[0] - rho)))
                for bid, rho in exact.items())
    return total / out.plan.total_cells


def test_sod_density_error_against_the_exact_riemann_solution():
    case = sod_case(100, 4, t_end=0.1)
    out = run_case(case, warmup=False)
    assert abs(out.sim_time - 0.1) <= 1e-15
    sol = solve_riemann(SOD_LEFT, SOD_RIGHT, gamma=case.gas.gamma)
    x0 = float(case.init["x0"])
    exact = {}
    for b in out.plan.blocks:
        x, _, _ = cell_centers(b, case.zone)
        rho, _, _ = sol.sample((x - x0) / out.sim_time)
        exact[b.id] = rho[:, None, None]
    # 6.02e-3 in 92 steps when this bound was set.
    assert zone_l1(out, exact) < 6.3e-3


def test_wave_density_error_converges_at_fourth_order_or_better():
    errors = []
    for n in (8, 16):
        out = run_case(wave_case(n, t_end=0.05, fixed_dt=0.1 / n),
                       warmup=False)
        assert abs(out.sim_time - 0.05) <= 1e-15
        errors.append(zone_l1(out, exact_density(out.case, out.plan,
                                                 out.sim_time)))
    # About 3.98 when this bound was set.
    assert math.log2(errors[0] / errors[1]) >= 3.5
