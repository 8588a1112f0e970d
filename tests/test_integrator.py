"""Three-stage integrator, step-size bounds, and the iteration driver."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcnsflow.errors import DivergenceError
from wcnsflow.state import GasModel
from wcnsflow.timestepping import (
    IterationControls,
    STAGES,
    block_dt_bound,
    check_divergence,
    clip_dt,
    iterate,
    residual_norm,
    rk3_advance,
    rk3_scalar,
    stable_dt,
    stage_state,
)

GAS = GasModel()

finite = {"allow_nan": False, "allow_infinity": False}


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
    got = rk3_scalar(1.0, 0.1, lambda q: -q)
    assert abs(got - 0.9048333333333333) <= 1e-12
    assert got == 0.9048333333333334


def test_scalar_step_is_the_cubic_taylor_polynomial():
    dt = 0.1
    got = rk3_scalar(1.0, dt, lambda q: -q)
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
    q0 = {0: np.array([1.5, 2.0, 0.25, -4.0]), 1: np.array([8.0, 0.5])}
    out = rk3_advance(q0, 0.37, lambda s, stage: {b: 0.0 * s[b] for b in s})
    for b in q0:
        np.testing.assert_array_equal(out[b], q0[b])


def test_blocks_advance_independently():
    q0 = {0: np.array([1.0]), 1: np.array([2.0])}
    out = rk3_advance(q0, 0.1, lambda s, stage: {b: -s[b] for b in s})
    solo = rk3_scalar(2.0, 0.1, lambda q: -q)
    assert float(out[1][0]) == solo
    assert float(out[0][0]) == rk3_scalar(1.0, 0.1, lambda q: -q)


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


def test_stable_dt_combines_and_scales():
    assert stable_dt([0.4, 0.2, 0.9], 0.5) == 0.1
    assert stable_dt(0.2, 0.25) == 0.05
    assert stable_dt([0.3], 1.0) == 0.3


def test_clip_dt_lands_on_the_end_time():
    assert clip_dt(0.1, 0.95, 1.0) == pytest.approx(0.05)
    assert clip_dt(0.1, 0.5, 1.0) == 0.1
    assert clip_dt(0.1, 0.5, None) == 0.1


# ---------------------------------------------------------------------------
# Residual norm

def test_residual_norm_matches_direct_sum():
    a = np.array([3.0, 4.0])
    b = np.array([[1.0, 2.0], [2.0, 4.0]])
    want = math.sqrt(float(np.sum(a * a) + np.sum(b * b)))
    assert residual_norm({0: a, 1: b}) == want
    assert residual_norm({1: b, 0: a}) == want   # insertion order irrelevant


# ---------------------------------------------------------------------------
# Iteration driver

def decay_system(n: int = 3):
    states = {0: np.linspace(1.0, 2.0, n)}
    residual_of = lambda s, stage: {b: -s[b] for b in s}
    dt_of = lambda s: 0.1
    return states, residual_of, dt_of


def test_zero_max_iters_returns_input_unchanged():
    states, residual_of, dt_of = decay_system()
    out, result = iterate(states, residual_of, dt_of,
                          IterationControls(max_iters=0))
    assert out is states
    assert result.iterations == 0
    assert result.wall_seconds == 0.0
    assert result.norm_history == []


def test_iteration_cap_is_honored():
    states, residual_of, dt_of = decay_system()
    out, result = iterate(states, residual_of, dt_of,
                          IterationControls(max_iters=50, tolerance=None))
    assert result.iterations == 50
    assert len(result.norm_history) == 50
    assert not result.converged


def test_convergence_check_stops_early():
    states, residual_of, dt_of = decay_system()
    controls = IterationControls(max_iters=500, tolerance=1e-3)
    out, result = iterate(states, residual_of, dt_of, controls)
    assert result.converged
    assert result.iterations < 100
    assert result.final_norm <= 1e-3 * result.initial_norm
    hist = result.norm_history
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_fixed_dt_and_end_time_land_exactly():
    states, residual_of, dt_of = decay_system()
    controls = IterationControls(max_iters=100, tolerance=None,
                                 fixed_dt=0.03, t_end=0.1)
    out, result = iterate(states, residual_of, dt_of, controls)
    assert result.iterations == 4
    assert abs(result.sim_time - 0.1) <= 1e-15


def test_repeat_runs_are_bitwise_identical():
    outs = []
    hists = []
    for _ in range(2):
        states, residual_of, dt_of = decay_system(5)
        out, result = iterate(states, residual_of, dt_of,
                              IterationControls(max_iters=20, tolerance=None))
        outs.append(out[0])
        hists.append(result.norm_history)
    np.testing.assert_array_equal(outs[0], outs[1])
    assert hists[0] == hists[1]


def test_divergence_raises_structured_error():
    states = {0: np.array([1.0, 1.0])}
    residual_of = lambda s, stage: {b: +s[b] for b in s}   # growth
    controls = IterationControls(max_iters=200, tolerance=None,
                                 divergence_factor=5.0)
    with pytest.raises(DivergenceError) as err:
        iterate(states, residual_of, lambda s: 0.5, controls)
    assert err.value.step is not None


def test_check_divergence_rejects_non_finite():
    with pytest.raises(DivergenceError):
        check_divergence(float("nan"), 1.0, 1e6, step=3)
    with pytest.raises(DivergenceError):
        check_divergence(float("inf"), 1.0, 1e6, step=3)
    check_divergence(2.0, 1.0, 1e6, step=3)   # in bounds: no raise


def test_on_step_callback_sees_every_iteration():
    states, residual_of, dt_of = decay_system()
    seen = []
    iterate(states, residual_of, dt_of,
            IterationControls(max_iters=7, tolerance=None),
            on_step=lambda k, cur: seen.append(k))
    assert seen == list(range(7))
