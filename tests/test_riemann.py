"""Exact Riemann solver used as the shock-tube verification oracle."""

import math

import numpy as np
import pytest

from wcnsflow.errors import InvalidStateError
from wcnsflow.riemann import (SOD_LEFT, SOD_RIGHT, RiemannState,
                              solve_riemann)

GAMMA = 1.4


def test_sod_star_state_frozen_values():
    """p* and u* were frozen from the star state printed by the root oracle
    script ``scratch_oracles.py`` (section 8), since deleted."""
    sol = solve_riemann(SOD_LEFT, SOD_RIGHT, gamma=GAMMA)
    assert sol.p_star == pytest.approx(0.3031301780506468, rel=1e-12)
    assert sol.u_star == pytest.approx(0.9274526200489499, rel=1e-12)


def test_symmetric_states_have_zero_contact_speed():
    s = RiemannState(rho=1.0, u=0.0, p=1.0)
    sol = solve_riemann(s, s, gamma=GAMMA)
    assert sol.u_star == pytest.approx(0.0, abs=1e-14)
    assert sol.p_star == pytest.approx(1.0, rel=1e-12)


def test_trivial_uniform_sampling():
    s = RiemannState(rho=2.0, u=0.5, p=3.0)
    sol = solve_riemann(s, s, gamma=GAMMA)
    rho, u, p = sol.sample(np.linspace(-2.0, 2.0, 11))
    np.testing.assert_allclose(rho, 2.0, rtol=1e-12)
    np.testing.assert_allclose(u, 0.5, rtol=1e-12)
    np.testing.assert_allclose(p, 3.0, rtol=1e-12)


def test_star_pressure_satisfies_pressure_function():
    # independent check: plugging p* back into the jump relations must
    # reproduce the velocity match across the contact
    sol = solve_riemann(SOD_LEFT, SOD_RIGHT, gamma=GAMMA)
    g = GAMMA
    ps = sol.p_star

    # left rarefaction relation
    al = math.sqrt(g * SOD_LEFT.p / SOD_LEFT.rho)
    fl = 2 * al / (g - 1) * ((ps / SOD_LEFT.p) ** ((g - 1) / (2 * g)) - 1)
    u_left = SOD_LEFT.u - fl

    # right shock relation
    ak = 2.0 / ((g + 1) * SOD_RIGHT.rho)
    bk = (g - 1) / (g + 1) * SOD_RIGHT.p
    fr = (ps - SOD_RIGHT.p) * math.sqrt(ak / (ps + bk))
    u_right = SOD_RIGHT.u + fr

    assert u_left == pytest.approx(u_right, abs=1e-11)
    assert sol.u_star == pytest.approx(u_left, abs=1e-11)


def test_sod_profile_structure_at_t02():
    sol = solve_riemann(SOD_LEFT, SOD_RIGHT, gamma=GAMMA)
    x = np.linspace(0.0, 1.0, 2001)
    rho, u, p = sol.sample((x - 0.5) / 0.2)

    # undisturbed ends
    assert rho[0] == pytest.approx(1.0)
    assert rho[-1] == pytest.approx(0.125)
    # contact jump separates two constant-pressure regions
    np.testing.assert_allclose(p[(x > 0.60) & (x < 0.84)], sol.p_star,
                               rtol=1e-10)
    # density decreases monotonically through the left rarefaction
    fan = (x > 0.35) & (x < 0.48)
    assert np.all(np.diff(rho[fan]) <= 1e-12)
    # post-shock density from the Rankine-Hugoniot relation
    pr = sol.p_star / SOD_RIGHT.p
    g = GAMMA
    rho2 = SOD_RIGHT.rho * ((g + 1) * pr + (g - 1)) / ((g - 1) * pr + (g + 1))
    shock_zone = (x > 0.72) & (x < 0.84)
    np.testing.assert_allclose(rho[shock_zone], rho2, rtol=1e-10)


def test_double_rarefaction_and_double_shock():
    # receding flow opens two rarefactions: p* below both inputs
    sol = solve_riemann(RiemannState(1.0, -0.5, 1.0),
                        RiemannState(1.0, 0.5, 1.0), gamma=GAMMA)
    assert sol.p_star < 1.0
    # colliding flow drives two shocks: p* above both inputs
    sol = solve_riemann(RiemannState(1.0, 0.5, 1.0),
                        RiemannState(1.0, -0.5, 1.0), gamma=GAMMA)
    assert sol.p_star > 1.0


def test_vacuum_generation_rejected():
    with pytest.raises(InvalidStateError):
        solve_riemann(RiemannState(1.0, -20.0, 1.0),
                      RiemannState(1.0, 20.0, 1.0), gamma=GAMMA)
    with pytest.raises(InvalidStateError):
        solve_riemann(RiemannState(-1.0, 0.0, 1.0), SOD_RIGHT, gamma=GAMMA)


def test_mirrored_sod_samples_the_left_shock():
    # States swapped and velocities negated: the shock now moves left, so
    # sampling takes the left-shock and right-rarefaction branches, and the
    # solution is Sod's mirrored, to rounding.
    sod = solve_riemann(SOD_LEFT, SOD_RIGHT, gamma=GAMMA)
    mirror = solve_riemann(RiemannState(SOD_RIGHT.rho, -SOD_RIGHT.u,
                                        SOD_RIGHT.p),
                           RiemannState(SOD_LEFT.rho, -SOD_LEFT.u, SOD_LEFT.p),
                           gamma=GAMMA)
    assert mirror.left.p < mirror.p_star < mirror.right.p
    assert mirror.u_star == pytest.approx(-sod.u_star, rel=1e-12)
    xi = np.linspace(-2.0, 2.0, 2001)
    rho, u, p = sod.sample(xi)
    rho_m, u_m, p_m = mirror.sample(-xi)
    np.testing.assert_allclose(rho_m, rho, rtol=1e-12)
    np.testing.assert_allclose(u_m, -u, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(p_m, p, rtol=1e-12)
    # Both sides of the left shock are sampled: the undisturbed state and
    # the post-shock plateau.
    assert rho_m[-1] == SOD_RIGHT.rho and np.any(rho_m > 0.25)
