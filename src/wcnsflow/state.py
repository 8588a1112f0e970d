"""Gas model and state algebra for the five-component compressible solver.

Conserved states are component-major: ``q[0] = rho``, ``q[1:4] = rho*(u,v,w)``,
``q[4] = rho*E`` with ``E`` the total specific energy per unit mass.
Primitive states are ``(rho, u, v, w, p)``.  Every function accepts arrays of
shape ``(5, ...)`` (or ``(3, ...)`` for velocity bundles) and operates
elementwise, so the same code serves scalar sanity checks and whole blocks.

Nondimensionalization: gas constant 1, so temperature is ``p / rho`` and the
specific heat at constant pressure is ``gamma / (gamma - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

NCOMP = 5


@dataclass(frozen=True)
class GasModel:
    """Calorically perfect gas with constant transport properties.

    ``reynolds is None`` selects the inviscid path: viscous terms are skipped
    entirely.  Otherwise the dynamic viscosity is ``1 / reynolds`` (constant,
    Stokes hypothesis for the bulk term) and conductivity follows from the
    Prandtl number.
    """

    gamma: float = 1.4
    prandtl: float = 0.72
    reynolds: float | None = None

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if not self.prandtl > 0.0:
            raise ValueError(f"prandtl must be positive, got {self.prandtl}")
        if self.reynolds is not None and not self.reynolds > 0.0:
            raise ValueError(f"reynolds must be positive, got {self.reynolds}")

    @property
    def viscous(self) -> bool:
        return self.reynolds is not None

    @property
    def viscosity(self) -> float:
        if self.reynolds is None:
            return 0.0
        return 1.0 / self.reynolds

    @property
    def conductivity(self) -> float:
        """Fourier conductivity ``mu * gamma / ((gamma - 1) * Pr)``."""
        return self.viscosity * self.gamma / ((self.gamma - 1.0) * self.prandtl)


def _first_bad_index(mask: np.ndarray) -> tuple:
    idx = np.argwhere(mask)
    return tuple(int(i) for i in idx[0]) if len(idx) else ()


def primitive_from_conserved(q: np.ndarray, gas: GasModel, *,
                             block_id: int | None = None,
                             validate: bool = True,
                             out: np.ndarray | None = None) -> np.ndarray:
    """Convert conserved ``(5, ...)`` to primitive ``(rho, u, v, w, p)``,
    into ``out`` when it is given."""
    rho = q[0]
    if validate and not np.all(rho > 0.0):
        raise InvalidStateError("non-positive density", block_id=block_id,
                                index=_first_bad_index(~(rho > 0.0)))
    w = np.empty_like(q) if out is None else out
    w[0] = rho
    inv_rho = 1.0 / rho
    w[1] = q[1] * inv_rho
    w[2] = q[2] * inv_rho
    w[3] = q[3] * inv_rho
    kinetic = 0.5 * (q[1] * w[1] + q[2] * w[2] + q[3] * w[3])
    w[4] = (gas.gamma - 1.0) * (q[4] - kinetic)
    if validate and not np.all(w[4] > 0.0):
        raise InvalidStateError("non-positive pressure", block_id=block_id,
                                index=_first_bad_index(~(w[4] > 0.0)))
    return w


def conserved_from_primitive(w: np.ndarray, gas: GasModel, *,
                             validate: bool = True) -> np.ndarray:
    """Convert primitive ``(rho, u, v, w, p)`` to conserved ``(5, ...)``."""
    if validate and not np.all(w[0] > 0.0):
        raise InvalidStateError("non-positive density",
                                index=_first_bad_index(~(w[0] > 0.0)))
    if validate and not np.all(w[4] > 0.0):
        raise InvalidStateError("non-positive pressure",
                                index=_first_bad_index(~(w[4] > 0.0)))
    q = np.empty_like(w)
    q[0] = w[0]
    q[1] = w[0] * w[1]
    q[2] = w[0] * w[2]
    q[3] = w[0] * w[3]
    kinetic = 0.5 * w[0] * (w[1] * w[1] + w[2] * w[2] + w[3] * w[3])
    q[4] = w[4] / (gas.gamma - 1.0) + kinetic
    return q


def temperature(w: np.ndarray) -> np.ndarray:
    return w[4] / w[0]


def sound_speed(w: np.ndarray, gas: GasModel) -> np.ndarray:
    return np.sqrt(gas.gamma * w[4] / w[0])


def spectral_radius(w: np.ndarray, axis: int, gas: GasModel) -> np.ndarray:
    """Largest convective wave speed ``|u_axis| + a`` per point."""
    return np.abs(w[1 + axis]) + sound_speed(w, gas)


def inviscid_flux(w: np.ndarray, axis: int, q: np.ndarray | None = None,
                  gas: GasModel | None = None, *,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Convective flux along ``axis`` (0, 1 or 2) from primitives.

    Passing the matching conserved array avoids recomputing it; otherwise
    ``gas`` is required to rebuild it.  ``out`` (the shape of ``w``, sharing
    no memory with ``w`` or ``q``) receives the flux when given.
    """
    if q is None:
        if gas is None:
            raise ValueError("inviscid_flux needs either q or gas")
        q = conserved_from_primitive(w, gas, validate=False)
    un = w[1 + axis]
    f = np.empty_like(w) if out is None else out
    f[0] = q[1 + axis]
    np.multiply(q[1], un, out=f[1])
    np.multiply(q[2], un, out=f[2])
    np.multiply(q[3], un, out=f[3])
    f[1 + axis] += w[4]
    np.add(q[4], w[4], out=f[4])
    f[4] *= un
    return f


def viscous_flux(vel: np.ndarray, grad_vel: np.ndarray, grad_temp: np.ndarray,
                 gas: GasModel, axis: int) -> np.ndarray:
    """Viscous/heat flux along ``axis`` from pointwise gradients.

    ``vel`` has shape ``(3, ...)``; ``grad_vel[i, j] = d(vel_i)/d(x_j)``
    has shape ``(3, 3, ...)``; ``grad_temp`` has shape ``(3, ...)``.
    Stress is the Newtonian tensor with Stokes hypothesis:
    ``tau_ij = mu (du_i/dx_j + du_j/dx_i) - (2/3) mu div(u) delta_ij``.
    """
    mu = gas.viscosity
    k = gas.conductivity
    div = grad_vel[0, 0] + grad_vel[1, 1] + grad_vel[2, 2]
    f = np.zeros((NCOMP,) + np.shape(div), dtype=np.float64)
    for i in range(3):
        tau = mu * (grad_vel[i, axis] + grad_vel[axis, i])
        if i == axis:
            tau = tau - (2.0 / 3.0) * mu * div
        f[1 + i] = tau
        f[4] = f[4] + vel[i] * tau
    f[4] = f[4] + k * grad_temp[axis]
    return f
