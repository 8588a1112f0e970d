"""Exact Riemann solver for a calorically perfect gas.

Used as an independent verification oracle for shock-tube runs; the solver
path never calls it.  The star-region pressure comes from Newton iteration
on the standard pressure function, and ``sample`` evaluates the self-similar
solution at ``xi = x / t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

NEWTON_TOL = 1e-13           # relative pressure change that ends Newton
NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class RiemannState:
    rho: float
    u: float
    p: float


@dataclass
class RiemannSolution:
    left: RiemannState
    right: RiemannState
    gamma: float
    p_star: float
    u_star: float
    iterations: int

    def sample(self, xi):
        """Primitive (rho, u, p) arrays at similarity coordinates ``xi``."""
        return _sample(self, np.asarray(xi, dtype=np.float64))


def _pressure_function(p, state: RiemannState, gamma: float):
    a = np.sqrt(gamma * state.p / state.rho)
    if p > state.p:  # shock
        ak = 2.0 / ((gamma + 1.0) * state.rho)
        bk = (gamma - 1.0) / (gamma + 1.0) * state.p
        f = (p - state.p) * np.sqrt(ak / (p + bk))
        df = np.sqrt(ak / (p + bk)) * (1.0 - 0.5 * (p - state.p) / (p + bk))
    else:  # rarefaction
        f = 2.0 * a / (gamma - 1.0) * ((p / state.p) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)
        df = (p / state.p) ** (-(gamma + 1.0) / (2.0 * gamma)) / (state.rho * a)
    return f, df


def solve_riemann(left: RiemannState, right: RiemannState,
                  gamma: float = 1.4) -> RiemannSolution:
    if left.rho <= 0 or right.rho <= 0 or left.p <= 0 or right.p <= 0:
        raise InvalidStateError("Riemann states need positive density and pressure")
    al = np.sqrt(gamma * left.p / left.rho)
    ar = np.sqrt(gamma * right.p / right.rho)
    if 2.0 * (al + ar) / (gamma - 1.0) <= right.u - left.u:
        raise InvalidStateError("initial states generate vacuum")

    # Two-rarefaction guess; robust for the mild cases exercised here.
    z = (gamma - 1.0) / (2.0 * gamma)
    p = ((al + ar - 0.5 * (gamma - 1.0) * (right.u - left.u))
         / (al / left.p ** z + ar / right.p ** z)) ** (1.0 / z)
    p = max(p, 1e-12)

    it = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        fl, dfl = _pressure_function(p, left, gamma)
        fr, dfr = _pressure_function(p, right, gamma)
        delta = (fl + fr + right.u - left.u) / (dfl + dfr)
        p_new = max(p - delta, 1e-14)
        if abs(p_new - p) < NEWTON_TOL * max(p, p_new):
            p = p_new
            break
        p = p_new
    fl, _ = _pressure_function(p, left, gamma)
    fr, _ = _pressure_function(p, right, gamma)
    u = 0.5 * (left.u + right.u) + 0.5 * (fr - fl)
    return RiemannSolution(left=left, right=right, gamma=gamma,
                           p_star=float(p), u_star=float(u), iterations=it)


def _fan_state(state: RiemannState, gamma: float, xi, sign: float):
    """State inside a rarefaction fan attached to the left (+1) / right (-1)."""
    a = np.sqrt(gamma * state.p / state.rho)
    g1 = 2.0 / (gamma + 1.0)
    g2 = (gamma - 1.0) / (gamma + 1.0)
    fac = g1 + sign * g2 / a * (state.u - xi)
    rho = state.rho * fac ** (2.0 / (gamma - 1.0))
    u = g1 * (sign * a + 0.5 * (gamma - 1.0) * state.u + xi)
    p = state.p * fac ** (2.0 * gamma / (gamma - 1.0))
    return rho, u, p


def _sample(sol: RiemannSolution, xi: np.ndarray):
    g = sol.gamma
    L, R = sol.left, sol.right
    ps, us = sol.p_star, sol.u_star
    al = np.sqrt(g * L.p / L.rho)
    ar = np.sqrt(g * R.p / R.rho)

    rho = np.empty_like(xi)
    u = np.empty_like(xi)
    p = np.empty_like(xi)

    left_side = xi <= us
    # Left wave
    if ps > L.p:  # left shock
        rho_sl = L.rho * ((ps / L.p + (g - 1) / (g + 1))
                          / ((g - 1) / (g + 1) * ps / L.p + 1.0))
        s = L.u - al * np.sqrt((g + 1) / (2 * g) * ps / L.p + (g - 1) / (2 * g))
        pre = left_side & (xi < s)
        post = left_side & ~pre
        rho[pre], u[pre], p[pre] = L.rho, L.u, L.p
        rho[post], u[post], p[post] = rho_sl, us, ps
    else:  # left rarefaction
        rho_sl = L.rho * (ps / L.p) ** (1.0 / g)
        a_sl = al * (ps / L.p) ** ((g - 1) / (2 * g))
        head, tail = L.u - al, us - a_sl
        pre = left_side & (xi < head)
        fan = left_side & (xi >= head) & (xi <= tail)
        post = left_side & (xi > tail)
        rho[pre], u[pre], p[pre] = L.rho, L.u, L.p
        rho[fan], u[fan], p[fan] = _fan_state(L, g, xi[fan], +1.0)
        rho[post], u[post], p[post] = rho_sl, us, ps

    right_side = ~left_side
    # Right wave
    if ps > R.p:  # right shock
        rho_sr = R.rho * ((ps / R.p + (g - 1) / (g + 1))
                          / ((g - 1) / (g + 1) * ps / R.p + 1.0))
        s = R.u + ar * np.sqrt((g + 1) / (2 * g) * ps / R.p + (g - 1) / (2 * g))
        pre = right_side & (xi > s)
        post = right_side & ~pre
        rho[pre], u[pre], p[pre] = R.rho, R.u, R.p
        rho[post], u[post], p[post] = rho_sr, us, ps
    else:  # right rarefaction
        rho_sr = R.rho * (ps / R.p) ** (1.0 / g)
        a_sr = ar * (ps / R.p) ** ((g - 1) / (2 * g))
        head, tail = R.u + ar, us + a_sr
        pre = right_side & (xi > head)
        fan = right_side & (xi <= head) & (xi >= tail)
        post = right_side & (xi < tail)
        rho[pre], u[pre], p[pre] = R.rho, R.u, R.p
        rho[fan], u[fan], p[fan] = _fan_state(R, g, xi[fan], -1.0)
        rho[post], u[post], p[post] = rho_sr, us, ps

    return rho, u, p


SOD_LEFT = RiemannState(rho=1.0, u=0.0, p=1.0)
SOD_RIGHT = RiemannState(rho=0.125, u=0.0, p=0.1)
