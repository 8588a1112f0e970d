"""Weighted edge interpolation and the edge/node difference operators."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcnsflow.errors import StencilError
from wcnsflow.wcns import (EDGE_COEFFS, HALO_WIDTH, IDEAL_WEIGHTS, WEIGHT_EPS,
                           central4_derivative, edge_to_node_derivative,
                           edge_value, interpolate_edge,
                           interpolate_line_edges, nonlinear_weights,
                           smoothness_indicators, window_edge_value)

finite = {"allow_nan": False, "allow_infinity": False}


def reference_betas(w):
    """Smoothness indicators written out one substencil at a time."""
    w0, w1, w2, w3, w4 = (float(v) for v in w)
    b0 = (13.0 / 12.0) * (w0 - 2 * w1 + w2) ** 2 + 0.25 * (w0 - 4 * w1 + 3 * w2) ** 2
    b1 = (13.0 / 12.0) * (w1 - 2 * w2 + w3) ** 2 + 0.25 * (w1 - w3) ** 2
    b2 = (13.0 / 12.0) * (w2 - 2 * w3 + w4) ** 2 + 0.25 * (3 * w2 - 4 * w3 + w4) ** 2
    return b0, b1, b2


# ---------------------------------------------------------------------------
# Smoothness indicators

def test_constant_window_has_zero_indicators():
    assert smoothness_indicators(3.0, 3.0, 3.0, 3.0, 3.0) == (0.0, 0.0, 0.0)


def test_linear_window_indicators_equal():
    """(1, 1, 1) was frozen from the output of the root oracle script
    ``scratch_oracles.py`` (section 1), since deleted."""
    b = smoothness_indicators(0.0, 1.0, 2.0, 3.0, 4.0)
    assert b == (1.0, 1.0, 1.0)


def test_step_window_flags_the_jump():
    b0, b1, b2 = smoothness_indicators(0.0, 0.0, 0.0, 1.0, 1.0)
    # only the substencils containing the jump see variation
    assert b0 == 0.0
    assert b2 > b1 > b0


@given(st.tuples(*[st.floats(min_value=-10, max_value=10, **finite)] * 5))
def test_indicators_match_reference(window):
    got = smoothness_indicators(*window)
    want = reference_betas(window)
    for g, w in zip(got, want):
        assert float(g) == pytest.approx(w, rel=1e-13, abs=1e-13)
        assert float(g) >= 0.0


# ---------------------------------------------------------------------------
# Nonlinear weights

def test_equal_betas_recover_ideal_weights():
    w = nonlinear_weights(0.3, 0.3, 0.3)
    for got, want in zip(w, IDEAL_WEIGHTS):
        assert float(got) == pytest.approx(want, rel=1e-14)


def test_large_beta_suppresses_its_stencil():
    w0, w1, w2 = nonlinear_weights(0.0, 0.0, 1e6)
    assert float(w2) < 1e-12
    assert float(w0 + w1) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=1000)
@given(st.tuples(*[st.floats(min_value=0.0, max_value=1e12, **finite)] * 3))
def test_weights_sum_to_one_and_stay_in_range(betas):
    w = nonlinear_weights(*betas)
    total = float(sum(w))
    assert total == pytest.approx(1.0, abs=1e-14)
    for wk in w:
        assert 0.0 <= float(wk) <= 1.0


def test_weights_match_alpha_formula():
    betas = (0.1, 2.0, 0.5)
    alphas = [d / (WEIGHT_EPS + b) ** 2 for d, b in zip(IDEAL_WEIGHTS, betas)]
    want = [a / sum(alphas) for a in alphas]
    got = nonlinear_weights(*betas)
    for g, w in zip(got, want):
        assert float(g) == pytest.approx(w, rel=1e-14)


# ---------------------------------------------------------------------------
# Edge interpolation

# sha256 of test_reference_interpolation_bits_are_frozen's outputs.
REFERENCE_DIGEST = \
    "295b82637255d8d3488cbecbdcec1d1f165bb3cd080d2566847f887b405699fe"

def test_constant_line_interpolates_exactly():
    line = np.full(9, 4.25)
    for side in ("left", "right"):
        edges = interpolate_line_edges(line, side=side)
        np.testing.assert_array_equal(edges, np.full(4, 4.25))


def test_edge_count_and_alignment():
    # L nodes -> L - 5 edges; edge j sits between nodes j+2 and j+3
    line = np.arange(12.0)
    edges = interpolate_line_edges(line, side="left")
    assert edges.shape == (7,)
    np.testing.assert_allclose(edges, np.arange(7) + 2.5, rtol=1e-13)


@pytest.mark.parametrize("side", ["left", "right"])
def test_polynomial_reproduction_with_ideal_weights(side):
    # the weighted substencil interpolation with frozen ideal weights is the
    # unique degree-4 interpolant through the window
    rng = np.random.default_rng(7)
    for _ in range(25):
        coef = rng.normal(size=5)
        xs = np.arange(9.0)
        f = np.polyval(coef, xs)
        edges = interpolate_line_edges(f, side=side, weights="ideal")
        for j, e in enumerate(edges):
            want = np.polyval(coef, j + 2.5)
            assert float(e) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_single_edge_matches_line_interpolation():
    rng = np.random.default_rng(11)
    line = rng.normal(size=10)
    edges_l = interpolate_line_edges(line, side="left")
    edges_r = interpolate_line_edges(line, side="right")
    for j in range(edges_l.shape[0]):
        assert interpolate_edge(line, j + 2, side="left") == edges_l[j]
        assert interpolate_edge(line, j + 2, side="right") == edges_r[j]


def reference_lines() -> np.ndarray:
    """Seeded (3, 4, 17) lines at three scales (uniform draws only, which
    every NumPy release generates alike); the middle row of each scale is
    a two-valued step, so many windows are flat and their differences are
    exact zeros."""
    rng = np.random.default_rng(29)
    lines = rng.random((3, 4, 17)) - 0.5
    lines[:, 1] = np.where(rng.random((3, 17)) < 0.5, 1.0, -0.5)
    return lines * np.array([1e-3, 1.0, 1e3])[:, None, None]


def test_reference_interpolation_bits_are_frozen():
    """The bytes of ``interpolate_line_edges`` and ``interpolate_edge``,
    pinned on both sides and under both weight modes: on whole line stacks,
    and edge by edge on line stacks and on single lines."""
    lines = reference_lines()
    n = lines.shape[-1]
    digest = hashlib.sha256()
    for side in ("left", "right"):
        for weights in ("nonlinear", "ideal"):
            digest.update(interpolate_line_edges(lines, side=side,
                                                 weights=weights).tobytes())
            for edge in range(2, n - 3):
                for line in (lines, lines[1, 1], lines[2, 0]):
                    digest.update(np.asarray(interpolate_edge(
                        line, edge, side=side, weights=weights)).tobytes())
    assert digest.hexdigest() == REFERENCE_DIGEST


def random_windows(seed: int) -> np.ndarray:
    """Five (3, 7) window arrays at scales from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, size=(5, 1, 1))
    return rng.normal(size=(5, 3, 7)) * scale


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_window_edge_value_is_the_indicator_and_weight_formulas(seed):
    """The in-place kernel performs the operations of
    ``smoothness_indicators`` and ``nonlinear_weights`` and of the weighted
    substencil sum in their order, on a window whose centre is +0.0, so it
    matches their composition bit for bit."""
    w0, w1, _, w3, w4 = random_windows(seed)
    zero = np.zeros((3, 7))
    p0 = (3.0 * w0 - 10.0 * w1 + 15.0 * zero) * 0.125
    p1 = (-w1 + 6.0 * zero + 3.0 * w3) * 0.125
    p2 = (3.0 * zero + 6.0 * w3 - w4) * 0.125
    o0, o1, o2 = nonlinear_weights(*smoothness_indicators(w0, w1, zero,
                                                          w3, w4))
    want = o0 * p0 + o1 * p1 + o2 * p2
    out = np.full((3, 7), np.nan)
    assert window_edge_value(w0, w1, w3, w4, out=out) is out
    assert out.tobytes() == want.tobytes()


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_window_edge_value_without_centre_is_a_zero_centre(seed):
    """The kernel gives the bytes of the reference ``edge_value`` on an
    explicit +0.0 centre; the reference's ideal weights are the linear
    combination of the substencil values, on any centre."""
    w = random_windows(seed)
    w0, w1, w2, w3, w4 = w
    want = edge_value(w0, w1, np.zeros((3, 7)), w3, w4)
    got = window_edge_value(w0, w1, w3, w4, out=np.empty((3, 7)))
    assert got.tobytes() == want.tobytes()
    p0 = (3.0 * w0 - 10.0 * w1 + 15.0 * w2) * 0.125
    p1 = (-w1 + 6.0 * w2 + 3.0 * w3) * 0.125
    p2 = (3.0 * w2 + 6.0 * w3 - w4) * 0.125
    d0, d1, d2 = IDEAL_WEIGHTS
    assert edge_value(*w, "ideal").tobytes() == \
        (d0 * p0 + d1 * p1 + d2 * p2).tobytes()


def test_window_edge_value_without_centre_on_signed_zeros():
    """Windows full of +0 and -0 (flat regions, projected): dropping the
    centre changes at most the sign of a zero result."""
    rng = np.random.default_rng(23)
    shape = (4, 200)
    w = rng.normal(size=(5,) + shape)
    zeros = rng.random((5,) + shape) < 0.6
    w[zeros] = 0.0
    w[rng.random((5,) + shape) < 0.5] *= -1.0
    centre = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    w0, w1, _, w3, w4 = w
    assert np.signbit(w[zeros]).any() and (w[zeros] == 0.0).all()
    want = edge_value(w0, w1, centre, w3, w4)
    got = window_edge_value(w0, w1, w3, w4, out=np.empty(shape))
    assert np.array_equal(got, want)
    assert (got == 0.0).any()


def test_right_bias_is_mirror_of_left_bias():
    rng = np.random.default_rng(13)
    line = rng.normal(size=11)
    left = interpolate_line_edges(line, side="left")
    right_of_reversed = interpolate_line_edges(line[::-1], side="right")
    np.testing.assert_array_equal(left, right_of_reversed[::-1])


def test_smooth_refinement_gains_fifth_order():
    errs = []
    for n in (20, 40):
        h = 2.0 * math.pi / n
        x = np.arange(-3, n + 3) * h
        f = np.sin(x)
        edges = interpolate_line_edges(f, side="left")
        centers = 0.5 * (x[2:2 + edges.shape[0]] + x[3:3 + edges.shape[0]])
        errs.append(float(np.max(np.abs(edges - np.sin(centers)))))
    ratio = errs[0] / errs[1]
    assert 32.0 * 0.8 <= ratio <= 32.0 * 1.2


def test_short_line_raises():
    with pytest.raises(StencilError):
        interpolate_line_edges(np.zeros(5))
    with pytest.raises(StencilError):
        interpolate_edge(np.zeros(6), 0, side="left")


# ---------------------------------------------------------------------------
# Edge-to-node derivative

def test_edge_coefficients_frozen():
    assert EDGE_COEFFS == (75.0 / 64.0, 25.0 / 384.0, 3.0 / 640.0)
    assert HALO_WIDTH == 5


def test_constant_edges_have_zero_derivative():
    d = edge_to_node_derivative(np.full(8, 2.0), h=0.1)
    np.testing.assert_array_equal(d, np.zeros(3))


def test_linear_edges_give_unit_slope():
    # 75/64 - 75/384 + 15/640 = 1 exactly
    edges = np.arange(9.0)
    d = edge_to_node_derivative(edges, h=1.0)
    np.testing.assert_allclose(d, np.ones(4), rtol=1e-14)


def test_sixth_power_odd_symmetry():
    # edges at +-1/2, +-3/2, +-5/2 of f = x^6: differences cancel exactly
    edges = (np.arange(6) - 2.5) ** 6
    d = edge_to_node_derivative(edges, h=1.0)
    assert float(d[0]) == 0.0


def test_degree_six_reproduction_off_center():
    # the six-edge formula differentiates degree-6 polynomials exactly
    h = 0.1
    x0 = 0.73
    edges_x = x0 + (np.arange(6) - 2.5) * h
    d = edge_to_node_derivative(edges_x ** 6, h=h)
    assert float(d[0]) == pytest.approx(6.0 * x0 ** 5, rel=1e-12)


def test_edge_derivative_count():
    # m edges -> m - 5 node values
    d = edge_to_node_derivative(np.zeros(11), h=1.0)
    assert d.shape == (6,)
    with pytest.raises(StencilError):
        edge_to_node_derivative(np.zeros(5), h=1.0)
    with pytest.raises(StencilError, match="5 edges"):
        edge_to_node_derivative(np.zeros((3, 5, 11)), h=1.0, node_axis=1)


@pytest.mark.parametrize("node_axis", [1, -2])
def test_node_major_edge_derivative_is_the_last_axis_form(node_axis):
    """Edges laid out node-major, (component, edge, line), give the bytes
    of the same lines laid out edges last, into ``out`` or not."""
    rng = np.random.default_rng(11)
    edges = rng.standard_normal((5, 6, 4, 13))
    want = edge_to_node_derivative(edges, h=0.3)
    major = np.ascontiguousarray(np.moveaxis(edges, -1, 1)).reshape(5, 13, 24)
    got = edge_to_node_derivative(major, h=0.3, node_axis=node_axis)
    assert got.shape == (5, 8, 24)
    out = np.empty_like(got)
    assert edge_to_node_derivative(major, h=0.3, node_axis=node_axis,
                                   out=out) is out
    for d in (got, out):
        back = np.moveaxis(d.reshape(5, 8, 6, 4), 1, -1)
        assert back.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Fourth-order central difference

def test_central4_constant_is_zero():
    np.testing.assert_array_equal(central4_derivative(np.full(5, 3.0), 0.2),
                                  np.zeros(1))


def test_central4_linear_exact():
    d = central4_derivative(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), 1.0)
    assert float(d[0]) == 1.0


def test_central4_fourth_order_on_sine():
    errs = []
    for n in (20, 40):
        h = 2.0 * math.pi / n
        x = np.arange(-2, n + 2) * h
        d = central4_derivative(np.sin(x), h)
        centers = x[2:-2]
        errs.append(float(np.max(np.abs(d - np.cos(centers)))))
    ratio = errs[0] / errs[1]
    assert 16.0 * 0.85 <= ratio <= 16.0 * 1.15


@pytest.mark.parametrize("node_axis", [1, -2])
def test_node_major_central4_is_the_last_axis_form(node_axis):
    """Lines laid out node-major, (field, node, line), give the bytes of
    the same lines laid out nodes last, into ``out`` or not, and both are
    the bytes of ((f0 - f4) + 8 (f3 - f1)) / (12 h)."""
    rng = np.random.default_rng(12)
    f = rng.standard_normal((4, 6, 5, 11))
    h = 0.3
    want = central4_derivative(f, h)
    n = 7
    formula = ((f[..., 0:n] - f[..., 4:4 + n])
               + 8.0 * (f[..., 3:3 + n] - f[..., 1:1 + n])) / (12.0 * h)
    assert want.tobytes() == formula.tobytes()
    major = np.ascontiguousarray(np.moveaxis(f, -1, 1)).reshape(4, 11, 30)
    got = central4_derivative(major, h, node_axis=node_axis)
    assert got.shape == (4, n, 30)
    out = np.empty_like(got)
    assert central4_derivative(major, h, node_axis=node_axis,
                               out=out) is out
    for d in (got, out):
        back = np.moveaxis(d.reshape(4, n, 6, 5), 1, -1)
        assert back.tobytes() == want.tobytes()


def test_central4_short_line_raises():
    with pytest.raises(StencilError):
        central4_derivative(np.zeros(4), 1.0)
    with pytest.raises(StencilError, match="line of 4 nodes"):
        central4_derivative(np.zeros((3, 4, 9)), 1.0, node_axis=1)
