"""Block residuals: splitting, wave-frame projection, directional sweeps."""

import hashlib
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcnsflow import residual
from wcnsflow.errors import InvalidStateError
from wcnsflow.residual import (
    EdgeFrame,
    GradientPack,
    _tile_words,
    block_residual,
    block_wavespeed_bound,
    characteristic_frame,
    convective_derivative,
    interior_split,
    velocity_temperature_gradients,
    viscous_derivative,
    working_set_tile,
)
from wcnsflow.state import (
    GasModel,
    conserved_from_primitive,
    inviscid_flux,
    primitive_from_conserved,
    spectral_radius,
)
from wcnsflow.timestepping import block_dt_bound
from wcnsflow.wcns import (Workspace, aligned_words, edge_to_node_derivative,
                           edge_value, window_edge_value)

GAS = GasModel()
H = 5
FRAME_FIELDS = ("un", "ut1", "ut2", "sound", "inv_sound", "enthalpy", "q2",
                "b1", "b2")

finite = {"allow_nan": False, "allow_infinity": False}


def extend_periodic(q_int: np.ndarray) -> np.ndarray:
    """Wrap a (5, nx, ny, nz) interior into its halo-extended array."""
    return np.pad(q_int, ((0, 0),) + ((H, H),) * 3, mode="wrap")


def wave_state(n: int, amplitude: float = 0.2) -> np.ndarray:
    """Advecting density wave: smooth, periodic, velocity (1, 1, 1)."""
    c = (np.arange(n) + 0.5) / n
    x, y, z = np.meshgrid(c, c, c, indexing="ij")
    w = np.empty((5, n, n, n))
    w[0] = 1.0 + amplitude * np.sin(2.0 * np.pi * (x + y + z))
    w[1:4] = 1.0
    w[4] = 1.0
    return conserved_from_primitive(w, GAS)


def zone_lams(w_int: np.ndarray) -> tuple[float, float, float]:
    return tuple(float(np.max(spectral_radius(w_int, a, GAS))) for a in range(3))


def constant_state(rho: float, u: float, v: float, w: float, p: float,
                   n: int = 6) -> np.ndarray:
    prim = np.empty((5, n + 2 * H, n + 2 * H, n + 2 * H))
    for i, val in enumerate((rho, u, v, w, p)):
        prim[i] = val
    return conserved_from_primitive(prim, GAS)


# ---------------------------------------------------------------------------
# Wave-frame projection against explicit eigenvector matrices

def eigen_matrices(wl: np.ndarray, wr: np.ndarray, axis: int, gamma: float):
    """Left/right eigenvector matrices of the directional flux Jacobian at
    the Roe mean of two primitive states, written out entry by entry."""
    t1, t2 = (axis + 1) % 3, (axis + 2) % 3
    sl, sr = np.sqrt(wl[0]), np.sqrt(wr[0])
    inv = 1.0 / (sl + sr)
    vel = [(sl * wl[1 + a] + sr * wr[1 + a]) * inv for a in range(3)]
    gg = gamma / (gamma - 1.0)
    hl = gg * wl[4] / wl[0] + 0.5 * (wl[1] ** 2 + wl[2] ** 2 + wl[3] ** 2)
    hr = gg * wr[4] / wr[0] + 0.5 * (wr[1] ** 2 + wr[2] ** 2 + wr[3] ** 2)
    hm = (sl * hl + sr * hr) * inv
    q2 = vel[0] ** 2 + vel[1] ** 2 + vel[2] ** 2
    a = np.sqrt((gamma - 1.0) * (hm - 0.5 * q2))
    un, ut1, ut2 = vel[axis], vel[t1], vel[t2]
    b1 = (gamma - 1.0) / (a * a)
    b2 = 0.5 * b1 * q2

    right = np.zeros((5, 5))
    right[0, 0] = 1.0
    right[1 + axis, 0] = un - a
    right[1 + t1, 0] = ut1
    right[1 + t2, 0] = ut2
    right[4, 0] = hm - un * a
    right[0, 1] = 1.0
    right[1 + axis, 1] = un
    right[1 + t1, 1] = ut1
    right[1 + t2, 1] = ut2
    right[4, 1] = 0.5 * q2
    right[1 + t1, 2] = 1.0
    right[4, 2] = ut1
    right[1 + t2, 3] = 1.0
    right[4, 3] = ut2
    right[0, 4] = 1.0
    right[1 + axis, 4] = un + a
    right[1 + t1, 4] = ut1
    right[1 + t2, 4] = ut2
    right[4, 4] = hm + un * a

    left = np.zeros((5, 5))
    left[0, 0] = 0.5 * (b2 + un / a)
    left[0, 1 + axis] = -0.5 * (b1 * un + 1.0 / a)
    left[0, 1 + t1] = -0.5 * b1 * ut1
    left[0, 1 + t2] = -0.5 * b1 * ut2
    left[0, 4] = 0.5 * b1
    left[1, 0] = 1.0 - b2
    left[1, 1 + axis] = b1 * un
    left[1, 1 + t1] = b1 * ut1
    left[1, 1 + t2] = b1 * ut2
    left[1, 4] = -b1
    left[2, 0] = -ut1
    left[2, 1 + t1] = 1.0
    left[3, 0] = -ut2
    left[3, 1 + t2] = 1.0
    left[4, 0] = 0.5 * (b2 - un / a)
    left[4, 1 + axis] = -0.5 * (b1 * un - 1.0 / a)
    left[4, 1 + t1] = -0.5 * b1 * ut1
    left[4, 1 + t2] = -0.5 * b1 * ut2
    left[4, 4] = 0.5 * b1
    speeds = np.array([un - a, un, un, un, un + a])
    return left, right, speeds


def random_primitive(rng) -> np.ndarray:
    return np.array([
        0.2 + 2.0 * rng.random(),
        *(rng.standard_normal(3) * 1.5),
        0.2 + 2.0 * rng.random(),
    ])


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_eigen_matrices_invert_each_other(axis):
    rng = np.random.default_rng(10 + axis)
    for _ in range(50):
        left, right, _ = eigen_matrices(random_primitive(rng),
                                        random_primitive(rng), axis, GAS.gamma)
        np.testing.assert_allclose(left @ right, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_right_eigenvectors_diagonalize_the_flux_jacobian(axis):
    """Columns of the recombination satisfy dF(q + t r)/dt = speed * r."""
    rng = np.random.default_rng(20 + axis)
    for _ in range(20):
        w = random_primitive(rng)
        _, right, speeds = eigen_matrices(w, w, axis, GAS.gamma)
        q = conserved_from_primitive(w[:, None, None, None], GAS)
        eps = 1e-6
        for k in range(5):
            r = right[:, k][:, None, None, None]
            qp, qm = q + eps * r, q - eps * r
            fp = inviscid_flux(primitive_from_conserved(qp, GAS), axis, q=qp)
            fm = inviscid_flux(primitive_from_conserved(qm, GAS), axis, q=qm)
            jac_action = ((fp - fm) / (2.0 * eps)).ravel()
            np.testing.assert_allclose(jac_action, speeds[k] * right[:, k],
                                       atol=2e-5)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_frame_transforms_match_matrix_products(axis):
    rng = np.random.default_rng(30 + axis)
    for _ in range(50):
        wl, wr = random_primitive(rng), random_primitive(rng)
        left, right, _ = eigen_matrices(wl, wr, axis, GAS.gamma)
        frame = characteristic_frame(np.stack([wl, wr], axis=-1), axis, GAS)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(frame.to_waves(x[:, None]).ravel(),
                                   left @ x, atol=1e-12)
        np.testing.assert_allclose(frame.to_state(x[:, None]).ravel(),
                                   right @ x, atol=1e-12)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_frame_of_a_node_array_is_the_two_state_roe_mean(axis):
    """Sharing each node's terms between its two edges keeps the bytes of
    the Roe mean formed edge by edge from the two flanking states."""
    rng = np.random.default_rng(40 + axis)
    w = np.empty((5, 3, 4, 9))
    w[0] = 0.2 + 2.0 * rng.random((3, 4, 9))
    w[1:4] = rng.standard_normal((3, 3, 4, 9)) * 1.5
    w[4] = 0.2 + 2.0 * rng.random((3, 4, 9))
    frame = characteristic_frame(w, axis, GAS)

    g = GAS.gamma
    wl, wr = w[..., :-1], w[..., 1:]
    sl, sr = np.sqrt(wl[0]), np.sqrt(wr[0])
    inv = 1.0 / (sl + sr)
    vel = [(sl * wl[1 + a] + sr * wr[1 + a]) * inv for a in range(3)]
    gg = g / (g - 1.0)
    hl = gg * wl[4] / wl[0] + 0.5 * (wl[1] ** 2 + wl[2] ** 2 + wl[3] ** 2)
    hr = gg * wr[4] / wr[0] + 0.5 * (wr[1] ** 2 + wr[2] ** 2 + wr[3] ** 2)
    hm = (sl * hl + sr * hr) * inv
    q2 = vel[0] ** 2 + vel[1] ** 2 + vel[2] ** 2
    a2 = (g - 1.0) * (hm - 0.5 * q2)
    a = np.sqrt(a2)
    b1 = (g - 1.0) / a2
    want = {"un": vel[axis], "ut1": vel[(axis + 1) % 3],
            "ut2": vel[(axis + 2) % 3], "sound": a, "inv_sound": 1.0 / a,
            "enthalpy": hm, "q2": q2, "b1": b1, "b2": 0.5 * b1 * q2}
    for name, value in want.items():
        got = getattr(frame, name)
        assert got.shape == (3, 4, 8), name
        assert got.tobytes() == value.tobytes(), name


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("node_axis", [1, -3])
def test_node_major_frame_is_the_last_axis_form(axis, node_axis):
    """A frame over node-major primitives, (component, node, lines...),
    holds the bytes of the frame over the same lines laid out nodes last."""
    rng = np.random.default_rng(50 + axis)
    w = np.empty((5, 3, 4, 9))
    w[0] = 0.2 + 2.0 * rng.random((3, 4, 9))
    w[1:4] = rng.standard_normal((3, 3, 4, 9)) * 1.5
    w[4] = 0.2 + 2.0 * rng.random((3, 4, 9))
    want = characteristic_frame(w, axis, GAS)
    major = np.ascontiguousarray(np.moveaxis(w, -1, 1))
    got = characteristic_frame(major, axis, GAS, node_axis=node_axis)
    for name in FRAME_FIELDS:
        back = np.moveaxis(getattr(got, name), 0, -1)
        assert back.tobytes() == getattr(want, name).tobytes(), name
    with pytest.raises(ValueError, match="component axis"):
        characteristic_frame(major, axis, GAS, node_axis=0)


def test_frame_rejects_a_non_positive_sound_speed():
    w = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                  [1.0, -1.0]])
    with pytest.raises(InvalidStateError, match="sound speed"):
        characteristic_frame(w, 0, GAS)


def test_frame_roundtrip_recovers_the_vector():
    rng = np.random.default_rng(3)
    for axis in range(3):
        wl, wr = random_primitive(rng), random_primitive(rng)
        frame = characteristic_frame(np.stack([wl, wr], axis=-1), axis, GAS)
        x = rng.standard_normal((5, 1))
        np.testing.assert_allclose(frame.to_state(frame.to_waves(x)), x,
                                   atol=1e-13)
        np.testing.assert_allclose(frame.to_waves(frame.to_state(x)), x,
                                   atol=1e-13)


# ---------------------------------------------------------------------------
# Flux splitting

def test_rest_state_split_fluxes_recompose_to_pressure_flux():
    q = constant_state(1.0, 0.0, 0.0, 0.0, 1.0)
    w = np.empty_like(q)
    w[0], w[1:4], w[4] = 1.0, 0.0, 1.0
    lam = float(np.max(spectral_radius(w, 0, GAS)))
    f = inviscid_flux(w, 0, q=q)
    fp = 0.5 * (f + lam * q)
    fm = 0.5 * (f - lam * q)
    total = fp + fm
    want = np.zeros_like(total)
    want[1] = 1.0
    assert np.array_equal(total, want)


@given(st.floats(min_value=0.2, max_value=5.0, **finite),
       st.floats(min_value=-3.0, max_value=3.0, **finite),
       st.floats(min_value=0.2, max_value=5.0, **finite))
def test_split_fluxes_recompose_to_the_flux(rho, u, p):
    q = constant_state(rho, u, 0.3 * u, -0.5 * u, p)
    w = np.empty_like(q)
    w[0], w[1], w[2], w[3], w[4] = rho, u, 0.3 * u, -0.5 * u, p
    for axis in range(3):
        lam = float(np.max(spectral_radius(w, axis, GAS)))
        f = inviscid_flux(w, axis, q=q)
        total = 0.5 * (f + lam * q) + 0.5 * (f - lam * q)
        np.testing.assert_allclose(total, f, rtol=1e-14, atol=1e-14)


def test_block_wavespeed_bound_matches_direct_maximum():
    rng = np.random.default_rng(5)
    w = np.empty((5, 4, 4, 4))
    w[0] = 0.5 + rng.random((4, 4, 4))
    w[1:4] = rng.standard_normal((3, 4, 4, 4))
    w[4] = 0.5 + rng.random((4, 4, 4))
    bounds, radii = block_wavespeed_bound(w, GAS)
    for axis in range(3):
        want = float(np.max(np.abs(w[1 + axis])
                            + np.sqrt(GAS.gamma * w[4] / w[0])))
        assert bounds[axis] == want
        assert radii[axis].tobytes() == \
            spectral_radius(w, axis, GAS).tobytes()


@pytest.mark.parametrize("gas", [GAS, GasModel(reynolds=100.0)])
def test_dt_bound_from_the_wavespeed_radii_keeps_its_bits(gas):
    """The stage start reuses the radii of the wavespeed bounds for the
    step bound; that gives the bits of the bound formed on its own."""
    rng = np.random.default_rng(6)
    w = np.empty((5, 4, 5, 6))
    w[0] = 0.5 + rng.random((4, 5, 6))
    w[1:4] = rng.standard_normal((3, 4, 5, 6))
    w[4] = 0.5 + rng.random((4, 5, 6))
    _, radii = block_wavespeed_bound(w, gas)
    spacing = (0.1, 0.05, 0.2)
    assert block_dt_bound(w, gas, spacing, radii) == \
        block_dt_bound(w, gas, spacing)


# ---------------------------------------------------------------------------
# Directional sweeps against a per-line oracle

def oracle_line_derivative(line_q: np.ndarray, line_w: np.ndarray, axis: int,
                           lam: float, h: float) -> np.ndarray:
    """One-dimensional sweep with explicit matrix projection per edge."""
    ne = line_q.shape[-1] - 5
    f = inviscid_flux(line_w, axis, q=line_q)
    fp = 0.5 * (f + lam * line_q)
    fm = 0.5 * (f - lam * line_q)
    edges = np.empty((5, ne))
    for j in range(ne):
        left, right, _ = eigen_matrices(line_w[:, j + 2], line_w[:, j + 3],
                                        axis, GAS.gamma)
        ctr_p = fp[:, j + 2]
        wp = [left @ (fp[:, j + k] - ctr_p) for k in range(5)]
        cp = edge_value(*wp)
        ctr_m = fm[:, j + 3]
        wm = [left @ (fm[:, j + 5 - k] - ctr_m) for k in range(5)]
        cm = edge_value(*wm)
        edges[:, j] = ctr_p + ctr_m + right @ (cp + cm)
    return edge_to_node_derivative(edges, h)


def test_density_wave_residual_matches_line_sweep_oracle():
    n = 12
    h = 1.0 / n
    q_int = wave_state(n)
    q_ext = extend_periodic(q_int)
    w_ext = primitive_from_conserved(q_ext, GAS)
    lams = zone_lams(w_ext[(slice(None),) + (slice(H, -H),) * 3])

    got = block_residual(q_ext, GAS, (h, h, h), lams)

    want = np.zeros_like(q_int)
    for axis in range(3):
        for b in range(n):
            for c in range(n):
                idx = [slice(None)] * 3
                idx[(axis + 1) % 3] = H + b
                idx[(axis + 2) % 3] = H + c
                line_sel = (slice(None),) + tuple(idx)
                d = oracle_line_derivative(q_ext[line_sel], w_ext[line_sel],
                                           axis, lams[axis], h)
                out_idx = [slice(None)] * 3
                out_idx[(axis + 1) % 3] = b
                out_idx[(axis + 2) % 3] = c
                want[(slice(None),) + tuple(out_idx)] -= d
    assert float(np.max(np.abs(got - want))) <= 1e-12


def test_uniform_flow_residual_is_bitwise_zero():
    q_ext = constant_state(1.2, 0.7, -0.4, 0.9, 2.0, n=8)
    r = block_residual(q_ext, GAS, (0.1, 0.1, 0.1), (2.0, 2.0, 2.0))
    assert np.all(r == 0.0)


@given(st.floats(min_value=0.1, max_value=10.0, **finite),
       st.floats(min_value=-5.0, max_value=5.0, **finite),
       st.floats(min_value=-5.0, max_value=5.0, **finite),
       st.floats(min_value=-5.0, max_value=5.0, **finite),
       st.floats(min_value=0.1, max_value=10.0, **finite))
def test_any_uniform_state_is_a_fixed_point(rho, u, v, w, p):
    q_ext = constant_state(rho, u, v, w, p)
    lam = abs(u) + abs(v) + abs(w) + float(np.sqrt(GAS.gamma * p / rho))
    r = block_residual(q_ext, GAS, (0.05, 0.08, 0.11), (lam, lam, lam))
    assert np.all(r == 0.0)


def test_viscous_uniform_state_is_a_fixed_point():
    gas = GasModel(reynolds=100.0)
    q_ext = constant_state(1.0, 0.3, 0.2, 0.1, 1.5, n=8)
    r = block_residual(q_ext, gas, (0.1, 0.1, 0.1), (2.0, 2.0, 2.0))
    assert np.all(r == 0.0)


# ---------------------------------------------------------------------------
# Sweep ranges, tiling, and argument validation

def test_interior_split_values():
    assert interior_split(16) == (5, 11)
    assert interior_split(32) == (5, 27)
    assert interior_split(8) == (5, 5)
    assert interior_split(4) == (4, 4)
    assert interior_split(10) == (5, 5)


def test_chunked_sweep_ranges_reproduce_the_full_sweep():
    n = 12
    h = 1.0 / n
    q_ext = extend_periodic(wave_state(n))
    w_ext = primitive_from_conserved(q_ext, GAS)
    lams = zone_lams(w_ext[(slice(None),) + (slice(H, -H),) * 3])
    for axis in range(3):
        full = convective_derivative(q_ext, w_ext, axis, lams[axis], h,
                                     gas=GAS)
        a, b = interior_split(n)
        chunked = np.empty_like(full)
        for lo, hi in ((a, b), (0, a), (b, n)):
            convective_derivative(q_ext, w_ext, axis, lams[axis], h, gas=GAS,
                                  lo=lo, hi=hi, out=chunked)
        np.testing.assert_array_equal(full, chunked)


def test_tile_sizes_do_not_change_the_residual():
    n = 10
    h = 1.0 / n
    q_ext = extend_periodic(wave_state(n))
    base = block_residual(q_ext, GAS, (h, h, h), (2.4, 2.4, 2.4))
    for tile in (1, 3, 7, 100):
        r = block_residual(q_ext, GAS, (h, h, h), (2.4, 2.4, 2.4), tile=tile)
        np.testing.assert_array_equal(base, r)


def test_empty_range_returns_untouched_buffer():
    """The interior range of a 6-node axis is empty."""
    q_ext = constant_state(1.0, 0.0, 0.0, 0.0, 1.0)
    w = np.ones_like(q_ext)
    w[1:4] = 0.0
    out = np.full((5, 6, 6, 6), 7.0)
    convective_derivative(q_ext, w, 0, 1.0, 0.1, gas=GAS, lo=5, hi=5, out=out)
    assert np.all(out == 7.0)


def test_convective_argument_validation():
    q_ext = constant_state(1.0, 0.0, 0.0, 0.0, 1.0)
    w = np.ones_like(q_ext)
    w[1:4] = 0.0
    with pytest.raises(TypeError, match="gas"):
        convective_derivative(q_ext, w, 0, 1.0, 0.1)
    with pytest.raises(ValueError, match="node range"):
        convective_derivative(q_ext, w, 0, 1.0, 0.1, gas=GAS, lo=2, hi=99)
    with pytest.raises(ValueError, match="row range"):
        convective_derivative(q_ext, w, 0, 1.0, 0.1, gas=GAS, row_lo=3,
                              row_hi=2)
    with pytest.raises(ValueError, match=r"is not one of \[\(0, 6\), "):
        convective_derivative(q_ext, w, 0, 1.0, 0.1, gas=GAS, lo=0, hi=4)


# ---------------------------------------------------------------------------
# Frozen bits and per-thread workspaces

def random_block(shape, seed: int):
    """Conserved and primitive halo-extended arrays of a random valid state
    (uniform draws only, which every NumPy release generates alike)."""
    rng = np.random.default_rng(seed)
    ext = tuple(n + 2 * H for n in shape)
    w = np.empty((5,) + ext)
    w[0] = 0.5 + rng.random(ext)
    w[1:4] = rng.random((3,) + ext) - 0.5
    w[4] = 0.5 + rng.random(ext)
    q_ext = conserved_from_primitive(w, GAS)
    return q_ext, primitive_from_conserved(q_ext, GAS)


def sweep_digest(q_ext, w_ext, axis: int, tile) -> str:
    """SHA-256 over the sweep of the whole axis and of each non-empty
    ``interior_split`` range, each range's nodes copied into a zeroed
    buffer.  The ranges are swept in turn into one buffer, the interior
    range first, since the boundary ranges read the edges it hands off."""
    n = q_ext.shape[1 + axis] - 2 * H
    lam = float(np.max(spectral_radius(w_ext, axis, GAS)))
    a, b = interior_split(n)
    nodes = (5,) + tuple(s - 2 * H for s in q_ext.shape[1:])
    full, cut = np.zeros(nodes), np.zeros(nodes)
    convective_derivative(q_ext, w_ext, axis, lam, 1.0 / n, gas=GAS,
                          tile=tile, out=full)
    for lo, hi in ((a, b), (0, a), (b, n)):
        convective_derivative(q_ext, w_ext, axis, lam, 1.0 / n, gas=GAS,
                              lo=lo, hi=hi, tile=tile, out=cut)
    digest = hashlib.sha256(full.tobytes())
    for lo, hi in ((0, a), (a, b), (b, n)):
        if hi > lo:
            out = np.zeros(nodes)
            sel = (slice(None),) * (1 + axis) + (slice(lo, hi),)
            out[sel] = cut[sel]
            digest.update(out.tobytes())
    return digest.hexdigest()


# (block shape, axis) -> digest; block i is random_block(shape, seed=i).
SWEEP_DIGESTS = {
    ((13, 7, 21), 0):
        "53fe9f0ee68b12475ce6dffbeb690010d2326aea17a4fe8bb220edaa4a8df931",
    ((13, 7, 21), 1):
        "7c80b320679211d0ae9dcd8021e0da562a6e6f8a233978ff232099028af2889b",
    ((13, 7, 21), 2):
        "093861552d575c949ee7d5cb894de57917be5faf05e48f5fb4b958bea09431b5",
    ((24, 24, 24), 0):
        "1c975baeff63431afa64d4078f1f82caf6b9f6a24a2d7f0c8f42925cc957b876",
    ((24, 24, 24), 1):
        "55911d7c59da5526e6bce5cf5e58ef6cf28a4dc7828138d9f943dcfd36f4676d",
    ((24, 24, 24), 2):
        "ad958556c0fe1ec8ac1ee389a6ca9d0b4acdba25157581506d9c26f39b073cde",
    ((200, 4, 4), 0):
        "29fdf2633207eee9d4a3767c8f869e8a4856f269b1412c744ee567e4638e6de0",
    ((200, 4, 4), 1):
        "a53ffa638fc7210bcfeeb781033c44fa0cbeeb2b74c9862d77a6b29b6d2981ce",
    ((200, 4, 4), 2):
        "b67157c5006a45f6a474a1d8a6b4241b819df07124fa730e5e1b1e3e35b0d8e1",
}
DIGEST_SHAPES = [(13, 7, 21), (24, 24, 24), (200, 4, 4)]


@pytest.mark.parametrize("shape", DIGEST_SHAPES)
def test_sweep_bits_are_frozen(shape):
    """The sweep's bytes, pinned.  The digests were computed at commit
    5ad4bc3, whose sweep projected each window separately and ran untiled
    by default; every tile (default, 1 row, 3 rows, 0 = untiled) must give
    the same bytes on all three axes and every node range."""
    q_ext, w_ext = random_block(shape, DIGEST_SHAPES.index(shape))
    for axis in range(3):
        for tile in (None, 1, 3, 0):
            assert sweep_digest(q_ext, w_ext, axis, tile) == \
                SWEEP_DIGESTS[(shape, axis)], (axis, tile)


def sod_step_block(shape, velocity):
    """Halo-extended arrays of Sod's left state (rho 1, p 1) below the
    plane i + j + k = const of the extended index and its right state
    (rho 0.125, p 0.1) above it, both moving at ``velocity``: flat regions
    on every sweep axis, whose window differences are exact zeros."""
    ext = tuple(n + 2 * H for n in shape)
    i, j, k = np.indices(ext)
    left = i + j + k < sum(ext) // 2
    w = np.empty((5,) + ext)
    w[0] = np.where(left, 1.0, 0.125)
    w[1:4] = np.reshape(velocity, (3, 1, 1, 1))
    w[4] = np.where(left, 1.0, 0.1)
    q_ext = conserved_from_primitive(w, GAS)
    return q_ext, primitive_from_conserved(q_ext, GAS)


# velocity -> digest over the three axes of sod_step_block((16, 12, 11), v).
SOD_STEP_DIGESTS = {
    (0.0, 0.0, 0.0):
        "06fd59522f8bc0553d7d20a7e1564a5c49751793252a5991548db0f5c2179af2",
    (0.6, 0.0, -0.3):
        "cbf65ddd95972bc0e211ff08be5c4abc70a973f174878efe0182c75b2d235684",
    (-0.9, 0.4, 0.0):
        "8ea1831bea83a832c15502db34df2562ccab107877c7c2a3a73c8f657f051645",
}


@pytest.mark.parametrize("velocity", list(SOD_STEP_DIGESTS))
def test_flat_region_bits_are_frozen(velocity):
    """The sweep's bytes on a Sod step, where most windows are flat, so
    that every signed zero it writes is pinned too.  The digests were
    computed at commit 176867c, whose sweep stacked all ten windows; every
    tile (default, 1 row, 0 = untiled) must give the same bytes on all
    three axes and every node range."""
    q_ext, w_ext = sod_step_block((16, 12, 11), velocity)
    for tile in (None, 1, 0):
        digest = hashlib.sha256()
        for axis in range(3):
            digest.update(sweep_digest(q_ext, w_ext, axis, tile).encode())
        assert digest.hexdigest() == SOD_STEP_DIGESTS[velocity], tile


@pytest.mark.parametrize("shape", DIGEST_SHAPES)
def test_row_ranges_reproduce_the_uncut_sweep(shape):
    """Sweeps cut into random row ranges, which start and end inside tiles,
    and into the ``interior_split`` node ranges write the bytes of the uncut
    sweep, at every tile size and on all three axes.  In each row range
    the interior range is swept first: the boundary ranges read the edges
    it hands off."""
    q_ext, w_ext = random_block(shape, DIGEST_SHAPES.index(shape))
    rng = np.random.default_rng(17)
    for axis in range(3):
        lam = float(np.max(spectral_radius(w_ext, axis, GAS)))
        n, nrows = shape[axis], shape[1 if axis == 0 else 0]
        a, b = interior_split(n)
        full = convective_derivative(q_ext, w_ext, axis, lam, 1.0 / n,
                                     gas=GAS)
        for tile in (None, 1, 3, 0):
            cuts = sorted({0, nrows, *rng.integers(1, nrows, size=3)})
            out = np.zeros_like(full)
            for r0, r1 in zip(cuts, cuts[1:]):
                for lo, hi in ((a, b), (0, a), (b, n)):
                    convective_derivative(q_ext, w_ext, axis, lam, 1.0 / n,
                                          gas=GAS, lo=lo, hi=hi, row_lo=r0,
                                          row_hi=r1, tile=tile, out=out)
            assert out.tobytes() == full.tobytes(), (axis, tile, cuts)


@pytest.mark.parametrize("shape", DIGEST_SHAPES + [(11, 12, 24)])
def test_handoff_sweeps_reproduce_the_uncut_sweep(shape):
    """The interior sweep, then the two boundary sweeps, which hand edges
    off, write the bytes of the uncut sweep, on all three axes, at
    every tile size and over random row ranges (the same for the interior
    and the boundary calls).  The boundary sweeps read the edges the
    interior sweep parks: run alone, they write other bytes wherever the
    interior is not empty."""
    q_ext, w_ext = random_block(shape, DIGEST_SHAPES.index(shape)
                                if shape in DIGEST_SHAPES else 5)
    rng = np.random.default_rng(23)
    for axis in range(3):
        lam = float(np.max(spectral_radius(w_ext, axis, GAS)))
        n, nrows = shape[axis], shape[1 if axis == 0 else 0]
        a, b = interior_split(n)
        full = convective_derivative(q_ext, w_ext, axis, lam, 1.0 / n,
                                     gas=GAS)

        def sweep(out, ranges, cuts, tile):
            for lo, hi in ranges:
                for r0, r1 in zip(cuts, cuts[1:]):
                    convective_derivative(q_ext, w_ext, axis, lam, 1.0 / n,
                                          gas=GAS, lo=lo, hi=hi, row_lo=r0,
                                          row_hi=r1, tile=tile, out=out)

        for tile in (None, 1, 0):
            cuts = sorted({0, nrows, *rng.integers(1, nrows, size=3)})
            out = np.zeros_like(full)
            sweep(out, [(a, b)], cuts, tile)
            sweep(out, [(0, a), (b, n)], cuts, tile)
            assert out.tobytes() == full.tobytes(), (axis, tile, cuts)
        alone = np.zeros_like(full)
        sweep(alone, [(0, a), (b, n)], [0, nrows], None)
        assert np.array_equal(alone, full) == (a == b), axis


def test_handoff_changes_nothing_on_a_thin_block():
    """With n <= 10 the interior range is empty and nothing is handed off:
    each range, swept alone into a zeroed buffer, writes the uncut sweep's
    bytes in its own nodes and nothing elsewhere."""
    shape = (10, 4, 7)
    q_ext, w_ext = random_block(shape, 9)
    for axis in range(3):
        n = shape[axis]
        a, b = interior_split(n)
        full = convective_derivative(q_ext, w_ext, axis, 3.0, 1.0 / n,
                                     gas=GAS)
        for lo, hi in ((0, a), (a, b), (b, n)):
            sel = (slice(None),) * (1 + axis) + (slice(lo, hi),)
            want = np.zeros_like(full)
            want[sel] = full[sel]
            out = np.zeros_like(full)
            convective_derivative(q_ext, w_ext, axis, 3.0, 1.0 / n, gas=GAS,
                                  lo=lo, hi=hi, out=out)
            assert out.tobytes() == want.tobytes(), (axis, lo, hi)


def wrapped_block(shape, seed: int):
    """Conserved and primitive halo-extended arrays of a random valid
    interior whose ghosts are its wrapped copies, as self-wrap leaves a
    block that spans a periodic zone whole."""
    rng = np.random.default_rng(seed)
    w = np.empty((5,) + shape)
    w[0] = 0.5 + rng.random(shape)
    w[1:4] = rng.random((3,) + shape) - 0.5
    w[4] = 0.5 + rng.random(shape)
    q_ext = extend_periodic(conserved_from_primitive(w, GAS))
    return q_ext, primitive_from_conserved(q_ext, GAS)


def periodic_layout(a: np.ndarray, periodic) -> np.ndarray:
    """The extended array ``a`` as a block whose lines along each
    ``periodic`` axis are periodic stores it: without its ghosts along
    those axes, contiguous."""
    return np.ascontiguousarray(a[(slice(None),) + tuple(
        slice(H, -H) if p else slice(None) for p in periodic)])


def nan_ghosts(a: np.ndarray, periodic) -> np.ndarray:
    """A copy of the block array ``a``, whose margins are the halo along
    the axes not ``periodic``, that holds NaN in every ghost cell."""
    out = np.full_like(a, np.nan)
    sel = (slice(None),) + tuple(slice(None) if p else slice(H, -H)
                                 for p in periodic)
    out[sel] = a[sel]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 12, 48])
def test_periodic_sweeps_reproduce_the_plain_sweep(n):
    """On lines whose ghosts wrap their interior, the periodic sweep, which
    computes n edge values per line and repeats them, writes the bytes of
    the plain sweep's n + 5, on all three axes, at every tile size and over
    random row ranges; lines shorter than the halo wrap more than once.
    The periodic sweep takes the block without ghosts along the sweep
    axis, or along all three axes, and reads no ghost of the cross axes:
    with every ghost NaN it writes the same bytes."""
    rng = np.random.default_rng(n)
    for axis in range(3):
        shape = [6, 5, 3]
        shape[axis] = n
        q_ext, w_ext = wrapped_block(tuple(shape), n + axis)
        lam = float(np.max(spectral_radius(w_ext, axis, GAS)))
        nrows = shape[1 if axis == 0 else 0]
        plain = convective_derivative(q_ext, w_ext, axis, lam, 1.0 / n,
                                      gas=GAS)
        for periodic in (tuple(a == axis for a in range(3)), (True,) * 3):
            q = periodic_layout(q_ext, periodic)
            w = periodic_layout(w_ext, periodic)
            for ghosts in ("wrapped", "nan"):
                if ghosts == "nan":
                    q, w = nan_ghosts(q, periodic), nan_ghosts(w, periodic)
                for tile in (None, 1, 3, 0):
                    cuts = sorted({0, nrows, *rng.integers(1, nrows, size=2)})
                    for rows in ([0, nrows], cuts):
                        out = np.zeros_like(plain)
                        for r0, r1 in zip(rows, rows[1:]):
                            convective_derivative(
                                q, w, axis, lam, 1.0 / n, gas=GAS,
                                row_lo=r0, row_hi=r1, tile=tile,
                                periodic=periodic, out=out)
                        assert out.tobytes() == plain.tobytes(), (
                            axis, periodic, ghosts, tile, rows)


def test_periodic_sweep_needs_the_whole_axis_without_a_handoff():
    """A periodic sweep of an ``interior_split`` range, which could hand
    edges off, is refused; on a line of n <= 5 nodes the first of those
    ranges is the whole axis, and a periodic sweep takes it."""
    q_ext, w_ext = wrapped_block((12, 4, 7), 3)
    periodic = (True,) * 3
    q, w = periodic_layout(q_ext, periodic), periodic_layout(w_ext, periodic)
    for axis, lo, hi in [(0, 0, 5), (0, 5, 7), (0, 7, 12), (2, 0, 5),
                         (2, 5, 7)]:
        with pytest.raises(ValueError, match="periodic node range"):
            convective_derivative(q, w, axis, 3.0, 0.1, gas=GAS, lo=lo,
                                  hi=hi, periodic=periodic)
    plain = convective_derivative(q_ext, w_ext, 1, 3.0, 0.1, gas=GAS)
    thin = convective_derivative(q, w, 1, 3.0, 0.1, gas=GAS, lo=0, hi=4,
                                 periodic=periodic)
    assert thin.tobytes() == plain.tobytes()


def test_kernels_refuse_arrays_that_contradict_periodic():
    """A block array's margins follow from its ``periodic`` triple, so a
    kernel refuses an array whose extent leaves no interior, an ``out`` of
    another interior shape, and primitives of another shape."""
    q_ext, w_ext = wrapped_block((12, 4, 7), 3)
    yz = (False, True, True)
    q, w = periodic_layout(q_ext, yz), periodic_layout(w_ext, yz)
    # The 4 x 7 periodic cross-section read with margins has no interior.
    for periodic in ((False,) * 3, (False, True, False)):
        with pytest.raises(ValueError, match="has no interior"):
            convective_derivative(q, w, 0, 3.0, 0.1, gas=GAS,
                                  periodic=periodic)
        with pytest.raises(ValueError, match="has no interior"):
            velocity_temperature_gradients(w, (0.1,) * 3, periodic)
    # The extended array read as periodic on z is 12 x 14 x 17 nodes.
    with pytest.raises(ValueError, match="out has shape"):
        convective_derivative(q_ext, w_ext, 0, 3.0, 0.1, gas=GAS,
                              periodic=(False, False, True),
                              out=np.empty((5, 12, 4, 7)))
    with pytest.raises(ValueError, match="w_ext has shape"):
        convective_derivative(q, w_ext, 0, 3.0, 0.1, gas=GAS, periodic=yz)
    out = np.empty((5, 12, 4, 7))
    assert convective_derivative(q, w, 0, 3.0, 0.1, gas=GAS, periodic=yz,
                                 out=out) is out


def test_periodic_sweep_weights_one_period_of_edges(monkeypatch):
    """A y sweep of a 200 x 4 x 4 block weights 4 edges per line when its
    lines are periodic, not the plain sweep's 4 + 5."""
    q_ext, w_ext = wrapped_block((200, 4, 4), 0)
    edges = []

    def spy(w0, *args, **kwargs):
        edges.append(w0.shape[2])       # component x side x edge x line
        return window_edge_value(w0, *args, **kwargs)

    monkeypatch.setattr(residual, "window_edge_value", spy)
    for periodic in ((False,) * 3, (False, True, True)):
        convective_derivative(periodic_layout(q_ext, periodic),
                              periodic_layout(w_ext, periodic), 1, 3.0, 0.25,
                              gas=GAS, tile=0, periodic=periodic)
    assert edges == [9, 4]


def test_default_tile_sweep_reserves_exactly_the_tile_words():
    """A default-tile sweep of a 24^3 block grows a fresh thread's
    workspace to the words of its largest tile and takes exactly the words
    of each tile, so the node-major layout adds no scratch."""
    shape = (24, 24, 24)
    q_ext, w_ext = random_block(shape, 1)
    n2, length = 24, 24 + 2 * H
    rows = working_set_tile(n2, length)
    assert 24 % rows                         # the last tile is shorter
    used = []

    def sweep(axis):
        convective_derivative(q_ext, w_ext, axis, 3.0, 1.0 / 24, gas=GAS)
        used.append((residual._workspace.ws.buf.size,
                     residual._workspace.ws.used))

    for axis in range(3):
        t = threading.Thread(target=sweep, args=(axis,))
        t.start()
        t.join()
    assert used == [(_tile_words(rows, n2, length),
                     _tile_words(24 % rows, n2, length))] * 3
    assert (rows, used[0]) == (10, (915_840, 366_336))


def at_offset(a: np.ndarray, words: int) -> np.ndarray:
    """A copy of ``a`` whose data starts ``words`` float64 past a 64-byte
    boundary."""
    raw = np.empty(a.size + 8 + words)
    skip = -raw.ctypes.data % 64 // 8 + words
    b = raw[skip:skip + a.size].reshape(a.shape)
    b[...] = a
    return b


def test_workspace_arrays_start_on_cache_lines(monkeypatch):
    """Every array either workspace hands a sweep, a viscous difference or
    a standalone kernel starts on a 64-byte boundary, also after the
    workspaces grow, and a use takes exactly its ``aligned_words``."""
    starts = {}
    take = Workspace.take

    def spy(ws, *shape):
        view = take(ws, *shape)
        starts.setdefault(id(ws), []).append(view.ctypes.data % 64)
        return view

    monkeypatch.setattr(Workspace, "take", spy)

    def run():
        for shape in ((3, 5, 7), (13, 7, 21)):
            q_ext, w_ext = random_block(shape, 2)
            for axis in range(3):
                for tile in (None, 0, 1):
                    convective_derivative(q_ext, w_ext, axis, 3.0, 0.1,
                                          gas=GAS, tile=tile)
            velocity_temperature_gradients(w_ext, (0.1, 0.2, 0.3))
        ws = Workspace()
        for size, shapes in ((10, [(3,), (1,)]), (40, [(5, 3), (7,), (2,)])):
            ws.reserve(size)
            for shape in shapes:
                ws.take(*shape)
            assert ws.used == sum(aligned_words(*s) for s in shapes)

    t = threading.Thread(target=run)      # fresh, empty workspaces
    t.start()
    t.join()
    assert len(starts) == 3               # sweep, kernel scratch, local
    assert all(set(offsets) == {0} for offsets in starts.values())


def test_sweep_frame_lies_in_the_tile_workspace(monkeypatch):
    """A sweep builds each tile's edge frame in its workspace: nine
    fields that overlap no other and start on cache lines."""
    frames = []

    def spy(*args, **kwargs):
        frame = characteristic_frame(*args, **kwargs)
        frames.append([getattr(frame, name) for name in FRAME_FIELDS])
        for f in frames[-1]:
            assert np.shares_memory(f, residual._workspace.ws.buf)
        return frame

    monkeypatch.setattr(residual, "characteristic_frame", spy)
    q_ext, w_ext = random_block((6, 5, 7), 3)
    convective_derivative(q_ext, w_ext, 0, 3.0, 0.1, gas=GAS, tile=2)
    assert len(frames) == 3
    for fields in frames:
        assert all(f.ctypes.data % 64 == 0 for f in fields)
        for f, g in itertools.combinations(fields, 2):
            assert not np.shares_memory(f, g)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_misaligned_arrays_give_the_bits_of_aligned_ones(axis):
    """Inputs and output shifted one float64 off a cache line give the
    bytes of aligned ones: alignment never changes a bit."""
    q_ext, w_ext = random_block((9, 6, 11), 4)
    got = []
    for words in (0, 1):
        out = at_offset(np.zeros((5, 9, 6, 11)), words)
        convective_derivative(at_offset(q_ext, words),
                              at_offset(w_ext, words), axis, 3.0, 0.1,
                              gas=GAS, out=out)
        got.append(out.tobytes())
    assert got[0] == got[1]


def test_standalone_frame_survives_later_frames_and_sweeps():
    """A frame built without a workspace owns its fields: no later frame
    or sweep overwrites them."""
    rng = np.random.default_rng(8)
    w = np.empty((5, 4, 9))
    w[0] = 0.2 + 2.0 * rng.random((4, 9))
    w[1:4] = rng.standard_normal((3, 4, 9))
    w[4] = 0.2 + 2.0 * rng.random((4, 9))
    frame = characteristic_frame(w, 0, GAS)
    before = [getattr(frame, name).tobytes() for name in FRAME_FIELDS]
    characteristic_frame(w[:, ::-1] * 1.5, 1, GAS)
    q_ext, w_ext = random_block((4, 4, 4), 5)
    convective_derivative(q_ext, w_ext, 2, 3.0, 0.1, gas=GAS)
    assert [getattr(frame, name).tobytes() for name in FRAME_FIELDS] == before


def test_concurrent_sweeps_match_serial_sweeps():
    """Threads sweeping different blocks with equal tile shapes at once,
    more threads than cores and a short switch interval, give the bytes of
    serial calls: each thread has its own workspace."""
    nthreads = 4
    blocks = [random_block((12, 12, 12), seed)
              for seed in range(7, 7 + nthreads)]
    lam = 3.0
    serial = [[convective_derivative(q, w, axis, lam, 0.1, gas=GAS, tile=1)
               for axis in range(3)] for q, w in blocks]
    results = [None] * nthreads
    errors = []
    start = threading.Barrier(nthreads, timeout=30)

    def sweep(i):
        q, w = blocks[i]
        start.wait()
        try:
            results[i] = [[convective_derivative(q, w, axis, lam, 0.1,
                                                 gas=GAS, tile=1)
                           for axis in range(3)] for _ in range(3)]
        except Exception as exc:      # a shared workspace can corrupt state
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,))
                   for i in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for i in range(nthreads):
        for rep in results[i]:
            for got, want in zip(rep, serial[i]):
                assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Viscous terms

def test_gradients_are_exact_for_linear_fields():
    n = 12
    h = 0.1
    c = [np.arange(n + 2 * H) * h for _ in range(3)]
    x, y, z = np.meshgrid(*c, indexing="ij")
    w_ext = np.empty((5, n + 2 * H, n + 2 * H, n + 2 * H))
    w_ext[0] = 1.0
    w_ext[1] = 1.0 + 2.0 * x + 3.0 * y + 4.0 * z
    w_ext[2] = -0.5 * x + 1.5 * z
    w_ext[3] = 0.25 * y
    w_ext[4] = 2.0 + 0.5 * x - 0.25 * y + 0.125 * z   # T = p since rho = 1
    pack = velocity_temperature_gradients(w_ext, (h, h, h))
    want = np.array([[2.0, 3.0, 4.0], [-0.5, 0.0, 1.5], [0.0, 0.25, 0.0]])
    for i in range(3):
        for j in range(3):
            np.testing.assert_allclose(pack.grad_vel[i, j], want[i, j],
                                       atol=1e-11)
    for j, g in enumerate((0.5, -0.25, 0.125)):
        np.testing.assert_allclose(pack.grad_temp[j], g, atol=1e-11)


def test_viscous_derivative_of_parabolic_shear():
    """u = y^2 gives d(tau_xy)/dy = 2 mu and an energy part 6 mu y^2."""
    gas = GasModel(reynolds=50.0)
    mu = gas.viscosity
    n = 12
    h = 0.1
    yc = (np.arange(n + 2 * H) - H + 0.5) * h
    w_ext = np.empty((5, n + 2 * H, n + 2 * H, n + 2 * H))
    w_ext[0] = 1.0
    w_ext[1] = (yc ** 2)[None, :, None]
    w_ext[2:4] = 0.0
    w_ext[4] = 1.0
    pack = velocity_temperature_gradients(w_ext, (h, h, h))
    d = viscous_derivative(pack, gas, 1, h)
    y_int = yc[H:-H]
    np.testing.assert_allclose(d[1], 2.0 * mu, rtol=1e-10)
    np.testing.assert_allclose(d[4], (6.0 * mu * y_int ** 2)[None, :, None]
                               * np.ones_like(d[4]), atol=1e-10)
    np.testing.assert_allclose(d[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(d[2], 0.0, atol=1e-12)
    np.testing.assert_allclose(d[3], 0.0, atol=1e-12)


def viscous_block(shape, seed: int, wrap: tuple[bool, bool, bool]):
    """Extended primitives of a random valid state (uniform draws only)
    whose ghosts along each ``wrap`` axis are wrapped copies of its
    interior, as self-wrap leaves a block that spans a periodic axis."""
    rng = np.random.default_rng(seed)
    box = tuple(n if on else n + 2 * H for n, on in zip(shape, wrap))
    w = np.empty((5,) + box)
    w[0] = 0.5 + rng.random(box)
    w[1:4] = rng.random((3,) + box) - 0.5
    w[4] = 0.5 + rng.random(box)
    pad = [(0, 0)] + [(H, H) if on else (0, 0) for on in wrap]
    return np.pad(w, pad, mode="wrap")


# (block shape, wrapped axes, seed) -> digest of the three viscous
# derivatives of viscous_block(shape, seed, wrap) under VISCOUS_GAS.
VISCOUS_GAS = GasModel(reynolds=50.0)
VISCOUS_DIGESTS = {
    ((13, 7, 9), (False, False, False), 21):
        "7a816fe34d6e4463e75f9a361883f4d3a221fc0d865b714a3b430f6d32659d9a",
    ((16, 4, 4), (False, True, True), 22):
        "3e617ba71e5f0178bcd69ac515193901896c98f99dbaf2306ad5953faed58589",
}


@pytest.mark.parametrize("key", list(VISCOUS_DIGESTS))
def test_viscous_bits_are_frozen(key):
    """The viscous derivatives' bytes, pinned before their periodic path
    and node-major differences existed: one block with random ghosts, and
    one whose ghosts wrap its interior on y and z, which the periodic path
    also gives from the block stored without those ghosts."""
    shape, wrap, seed = key
    w_ext = viscous_block(shape, seed, wrap)
    spacing = tuple(1.0 / n for n in shape)
    layouts = [(w_ext, (False,) * 3)]
    if any(wrap):
        layouts.append((periodic_layout(w_ext, wrap), wrap))
    for w, periodic in layouts:
        pack = velocity_temperature_gradients(w, spacing, periodic)
        digest = hashlib.sha256()
        for axis in range(3):
            d = viscous_derivative(pack, VISCOUS_GAS, axis, spacing[axis])
            digest.update(d.tobytes())
        assert digest.hexdigest() == VISCOUS_DIGESTS[key], periodic


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 12])
def test_periodic_viscous_terms_reproduce_the_plain_path(n):
    """On every subset of axes whose ghosts wrap the interior, with n nodes
    on those axes, the periodic pack of the block without those ghosts
    holds the plain pack's gradients on the interior of the wrapped axes,
    and the viscous derivatives, which repeat n fluxes per periodic line,
    write the plain path's bytes; lines shorter than four nodes wrap more
    than once."""
    for k, wrap in enumerate(itertools.product((False, True), repeat=3)):
        if not any(wrap) and n > 1:
            continue
        shape = tuple(n if on else m for on, m in zip(wrap, (6, 5, 3)))
        w_ext = viscous_block(shape, 100 * n + k, wrap)
        spacing = tuple(1.0 / m for m in shape)
        plain = velocity_temperature_gradients(w_ext, spacing)
        pack = velocity_temperature_gradients(periodic_layout(w_ext, wrap),
                                              spacing, wrap)
        assert pack.periodic == wrap
        crop = tuple(slice(2, -2) if on else slice(None) for on in wrap)
        for got, want in [(pack.vel, plain.vel[(slice(None),) + crop]),
                          (pack.grad_vel,
                           plain.grad_vel[(slice(None),) * 2 + crop]),
                          (pack.grad_temp,
                           plain.grad_temp[(slice(None),) + crop])]:
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        for axis in range(3):
            want = viscous_derivative(plain, VISCOUS_GAS, axis,
                                      spacing[axis])
            out = np.zeros_like(want)
            got = viscous_derivative(pack, VISCOUS_GAS, axis,
                                     spacing[axis], out=out)
            assert got is out
            assert got.tobytes() == want.tobytes(), (wrap, axis)
