"""Conversions, fluxes, and wave speeds of the perfect-gas state layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcnsflow.errors import InvalidStateError
from wcnsflow.state import (GasModel, conserved_from_primitive, inviscid_flux,
                            primitive_from_conserved, sound_speed,
                            spectral_radius, temperature, viscous_flux)

GAS = GasModel()


def col(*vals) -> np.ndarray:
    """A single-cell (5, 1, 1, 1) state column."""
    return np.asarray(vals, dtype=np.float64).reshape(5, 1, 1, 1)


def scalars(a: np.ndarray) -> tuple:
    return tuple(float(v) for v in a.reshape(5))


# ---------------------------------------------------------------------------
# Conversions

def test_primitive_from_conserved_rest():
    w = primitive_from_conserved(col(1.0, 0.0, 0.0, 0.0, 2.5), GAS)
    assert scalars(w) == pytest.approx((1.0, 0.0, 0.0, 0.0, 1.0), rel=1e-15)


def test_primitive_from_conserved_into_out_is_bitwise_equal():
    rng = np.random.default_rng(3)
    w = np.concatenate([rng.uniform(0.5, 2.0, (1, 4, 3, 2)),
                        rng.uniform(-1.0, 1.0, (3, 4, 3, 2)),
                        rng.uniform(0.5, 2.0, (1, 4, 3, 2))])
    q = conserved_from_primitive(w, GAS)
    out = np.full_like(q, np.nan)
    assert primitive_from_conserved(q, GAS, out=out) is out
    assert np.array_equal(out, primitive_from_conserved(q, GAS))


def test_primitive_from_conserved_moving():
    w = primitive_from_conserved(col(1.0, 1.0, 0.0, 0.0, 3.0), GAS)
    assert scalars(w) == pytest.approx((1.0, 1.0, 0.0, 0.0, 1.0), abs=1e-15)


def test_conserved_from_primitive_rest():
    q = conserved_from_primitive(col(1.0, 0.0, 0.0, 0.0, 1.0), GAS)
    assert scalars(q) == pytest.approx((1.0, 0.0, 0.0, 0.0, 2.5), rel=1e-15)


def test_conserved_from_primitive_moving():
    # rho E = p/(gamma-1) + rho |u|^2 / 2 = 2/0.4 + 3 = 8
    q = conserved_from_primitive(col(2.0, 1.0, 1.0, 1.0, 2.0), GAS)
    assert scalars(q) == pytest.approx((2.0, 2.0, 2.0, 2.0, 8.0), abs=1e-14)


finite = {"allow_nan": False, "allow_infinity": False}
primitive_states = st.tuples(
    st.floats(min_value=0.1, max_value=10.0, **finite),
    st.floats(min_value=-5.0, max_value=5.0, **finite),
    st.floats(min_value=-5.0, max_value=5.0, **finite),
    st.floats(min_value=-5.0, max_value=5.0, **finite),
    st.floats(min_value=0.05, max_value=20.0, **finite),
)


@settings(max_examples=1000)
@given(primitive_states)
def test_conversion_round_trip(vals):
    w = col(*vals)
    q = conserved_from_primitive(w, GAS)
    w2 = primitive_from_conserved(q, GAS)
    q2 = conserved_from_primitive(w2, GAS)
    # the energy subtraction bounds the achievable accuracy, so "relative"
    # is measured against the state magnitude
    scale = max(1.0, float(np.max(np.abs(q))))
    assert float(np.max(np.abs(w2 - w))) <= 1e-14 * scale
    assert float(np.max(np.abs(q2 - q))) <= 1e-14 * scale


def test_negative_density_raises_with_location():
    q = np.ones((5, 2, 2, 2))
    q[4] = 2.5
    q[0, 1, 0, 1] = -1.0
    with pytest.raises(InvalidStateError) as err:
        primitive_from_conserved(q, GAS, block_id=7)
    assert err.value.block_id == 7
    assert err.value.index == (1, 0, 1)
    assert "density" in str(err.value)


def test_negative_pressure_raises():
    # kinetic energy exceeds total energy -> negative pressure
    q = col(1.0, 3.0, 0.0, 0.0, 2.5)
    with pytest.raises(InvalidStateError) as err:
        primitive_from_conserved(q, GAS)
    assert "pressure" in str(err.value)


def test_temperature_is_pressure_over_density():
    w = col(2.0, 0.0, 0.0, 0.0, 3.0)
    assert temperature(w).item() == 1.5


# ---------------------------------------------------------------------------
# Sound speed and spectral radius

def test_sound_speed_reference_value():
    w = col(1.0, 0.0, 0.0, 0.0, 1.0)
    assert sound_speed(w, GAS).item() == pytest.approx(math.sqrt(1.4),
                                                          rel=1e-15)


def test_spectral_radius_at_rest_is_sound_speed():
    w = col(1.0, 0.0, 0.0, 0.0, 1.0)
    for axis in range(3):
        assert spectral_radius(w, axis, GAS).item() == sound_speed(w, GAS).item()


def test_spectral_radius_direct_sum():
    # a = sqrt(gamma p / rho) = 1 for p = rho / gamma
    w = col(1.0, 2.0, 0.0, 0.0, 1.0 / 1.4)
    assert spectral_radius(w, 0, GAS).item() == pytest.approx(3.0,
                                                                 rel=1e-15)


@given(primitive_states, st.integers(min_value=0, max_value=2))
def test_spectral_radius_bounds_velocity(vals, axis):
    w = col(*vals)
    lam = spectral_radius(w, axis, GAS).item()
    assert lam >= abs(vals[1 + axis])
    assert lam > 0.0


# ---------------------------------------------------------------------------
# Inviscid flux

def reference_flux(w, axis, gas):
    """Straight transcription of the convective flux, one cell at a time."""
    rho, u, v, uw, p = (float(x) for x in w.reshape(5))
    vel = (u, v, uw)
    un = vel[axis]
    e = p / (gas.gamma - 1.0) + 0.5 * rho * (u * u + v * v + uw * uw)
    f = [rho * un, rho * u * un, rho * v * un, rho * uw * un, un * (e + p)]
    f[1 + axis] += p
    return np.asarray(f)


def test_rest_state_flux_is_pure_pressure():
    w = col(1.0, 0.0, 0.0, 0.0, 1.0)
    for axis in range(3):
        f = inviscid_flux(w, axis, gas=GAS)
        expected = np.zeros(5)
        expected[1 + axis] = 1.0
        np.testing.assert_array_equal(f.reshape(5), expected)


def test_moving_state_flux_direct_algebra():
    # rho=u=p=1: rho E = 3.0, energy flux = u (rho E + p) = 4.0
    w = col(1.0, 1.0, 0.0, 0.0, 1.0)
    f = inviscid_flux(w, 0, gas=GAS)
    assert scalars(f) == pytest.approx((1.0, 2.0, 0.0, 0.0, 4.0), abs=1e-14)


@settings(max_examples=100)
@given(primitive_states, st.integers(min_value=0, max_value=2),
       st.floats(min_value=-3.0, max_value=3.0, **finite))
def test_flux_matches_reference_and_boost_difference(vals, axis, boost):
    w = col(*vals)
    np.testing.assert_allclose(inviscid_flux(w, axis, gas=GAS).reshape(5),
                               reference_flux(w, axis, GAS),
                               rtol=1e-13, atol=1e-13)
    boosted = list(vals)
    boosted[1 + axis] += boost
    wb = col(*boosted)
    got = (inviscid_flux(wb, axis, gas=GAS)
           - inviscid_flux(w, axis, gas=GAS)).reshape(5)
    want = reference_flux(wb, axis, GAS) - reference_flux(w, axis, GAS)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Viscous flux

VGAS = GasModel(reynolds=1.0)   # mu = 1


def test_zero_gradients_zero_viscous_flux():
    vel = np.zeros((3, 2, 2))
    grad_vel = np.zeros((3, 3, 2, 2))
    grad_temp = np.zeros((3, 2, 2))
    for axis in range(3):
        f = viscous_flux(vel, grad_vel, grad_temp, VGAS, axis)
        assert not f.any()


def test_pure_shear_stress():
    # du/dy = 1, mu = 1: the y-direction flux carries tau_xy = 1 in the
    # x-momentum slot, and the first component is always zero.
    vel = np.zeros((3, 1))
    grad_vel = np.zeros((3, 3, 1))
    grad_vel[0, 1] = 1.0
    grad_temp = np.zeros((3, 1))
    g = viscous_flux(vel, grad_vel, grad_temp, VGAS, 1)
    assert g[0].item() == 0.0
    assert g[1].item() == 1.0
    assert g[2].item() == 0.0


def test_rigid_rotation_has_traceless_stress():
    # u = (-y, x, 0) is divergence-free with antisymmetric gradient, so
    # every normal stress vanishes and the stress trace is exactly zero.
    rng = np.random.default_rng(3)
    y, x = rng.normal(size=(2, 8))
    vel = np.stack([-y, x, np.zeros(8)])
    grad_vel = np.zeros((3, 3, 8))
    grad_vel[0, 1] = -1.0
    grad_vel[1, 0] = 1.0
    grad_temp = np.zeros((3, 8))
    trace = sum(viscous_flux(vel, grad_vel, grad_temp, VGAS, ax)[1 + ax]
                for ax in range(3))
    np.testing.assert_allclose(trace, 0.0, atol=1e-15)


def test_heat_flux_uses_conductivity():
    vel = np.zeros((3, 1))
    grad_vel = np.zeros((3, 3, 1))
    grad_temp = np.zeros((3, 1))
    grad_temp[0] = 2.0
    f = viscous_flux(vel, grad_vel, grad_temp, VGAS, 0)
    k = VGAS.conductivity
    assert f[4].item() == pytest.approx(2.0 * k, rel=1e-15)
    assert k == pytest.approx(1.4 / (0.4 * 0.72), rel=1e-15)
