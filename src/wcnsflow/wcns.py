"""Fifth-order weighted compact nonlinear scheme, one-dimensional kernels.

The scheme works in two steps per grid line: nonlinearly weighted
interpolation of point values to cell edges (midpoints), then an explicit
edge-to-node difference that is exact for polynomials through degree six.

Conventions used throughout:

* A "line" runs along the last axis of an array by default; all kernels
  broadcast over the other axes, so ``(5, ny, nz, L)`` slabs go through
  unchanged.  ``edge_to_node_derivative`` also takes the node axis by
  keyword, as does ``central4_derivative``, so node-major tiles ``(5, L,
  lines)``, whose node slices are each one contiguous run of lines, go
  through without a transpose.
* For a line of ``L`` nodes the edge kernels produce ``L - 5`` edges where
  output edge ``j`` sits between input nodes ``j + 2`` and ``j + 3``.  The
  left-biased value at that edge uses nodes ``j .. j+4``, the right-biased
  value uses nodes ``j+1 .. j+5`` (the mirrored stencil).
* With the solver's halo width of 5, a line of ``n`` interior nodes arrives
  as ``L = n + 10`` values and yields the ``n + 5`` edges needed by the
  difference formula at every interior node.

There are two edge-value kernels, which share no code.
``window_edge_value`` is the one that runs: it takes windows relative to
their centre node under nonlinear weights, in place.  ``edge_value`` is the
plain reference composition of ``smoothness_indicators``,
``nonlinear_weights`` and the substencil values, under either weight mode;
``interpolate_edge``, ``interpolate_line_edges`` and the tests' oracles go
through it.  The tests check that the two agree bit for bit on a centre of
``+0.0``, up to the sign of an exact zero.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import StencilError

# Ideal (linear) interpolation weights of the three 3-point substencils for
# the left-biased edge value; the right-biased value mirrors them.
IDEAL_WEIGHTS = (1.0 / 16.0, 10.0 / 16.0, 5.0 / 16.0)

# Regularization in the nonlinear weight denominators.
WEIGHT_EPS = 1.0e-6

# Edge-to-node difference coefficients for the three midpoint shells
# (h/2, 3h/2, 5h/2).  75/64 - 75/384 + 15/640 = 1 keeps first-order
# consistency; the formula is exact through degree-six polynomials.
EDGE_COEFFS = (75.0 / 64.0, 25.0 / 384.0, 3.0 / 640.0)

HALO_WIDTH = 5


def smoothness_indicators(w0, w1, w2, w3, w4):
    """Jiang-Shu smoothness of the three substencils of a 5-node window.

    Arguments are the window values (arrays broadcast elementwise).  Returns
    ``(beta0, beta1, beta2)`` for the left/center/right substencils.
    """
    c = 13.0 / 12.0
    d0 = w0 - 2.0 * w1 + w2
    d1 = w1 - 2.0 * w2 + w3
    d2 = w2 - 2.0 * w3 + w4
    b0 = c * d0 * d0 + 0.25 * (w0 - 4.0 * w1 + 3.0 * w2) ** 2
    b1 = c * d1 * d1 + 0.25 * (w1 - w3) ** 2
    b2 = c * d2 * d2 + 0.25 * (3.0 * w2 - 4.0 * w3 + w4) ** 2
    return b0, b1, b2


def nonlinear_weights(b0, b1, b2):
    """Normalized nonlinear weights from smoothness indicators."""
    d0, d1, d2 = IDEAL_WEIGHTS
    a0 = d0 / ((WEIGHT_EPS + b0) * (WEIGHT_EPS + b0))
    a1 = d1 / ((WEIGHT_EPS + b1) * (WEIGHT_EPS + b1))
    a2 = d2 / ((WEIGHT_EPS + b2) * (WEIGHT_EPS + b2))
    inv = 1.0 / (a0 + a1 + a2)
    return a0 * inv, a1 * inv, a2 * inv


# Every array a ``Workspace`` hands out starts on a boundary of this many
# bytes: one cache line, and one AVX-512 or MIC vector of eight float64.
ALIGN_BYTES = 64
_LINE_WORDS = ALIGN_BYTES // 8


def aligned_words(*shape: int) -> int:
    """Float64 words that ``Workspace.take(*shape)`` uses up: the array
    rounded up to whole cache lines."""
    return -(-math.prod(shape) // _LINE_WORDS) * _LINE_WORDS


class Workspace:
    """Float64 scratch, reused from call to call.

    ``reserve`` readies the buffer for one use, growing it when it is too
    small, and ``take`` carves the next array from it.  Arrays taken stay
    valid until the next ``reserve``.  The buffer starts on an
    ``ALIGN_BYTES`` boundary and ``take`` rounds each array up to whole
    cache lines, so every array taken starts on one; a use needs the sum
    of ``aligned_words`` of its arrays.
    """

    def __init__(self):
        self.buf = np.empty(0)
        self.used = 0

    def reserve(self, size: int) -> None:
        if self.buf.size < size:
            raw = np.empty(size + _LINE_WORDS - 1)
            skip = -raw.ctypes.data % ALIGN_BYTES // 8
            self.buf = raw[skip:skip + size]
        self.used = 0

    def take(self, *shape: int) -> np.ndarray:
        n = math.prod(shape)
        start = self.used
        self.used = start + aligned_words(n)
        return self.buf[start:start + n].reshape(shape)


class ThreadWorkspace(threading.local):
    """One ``Workspace`` per thread, ``ws``, so pool workers sweeping at
    once never share scratch.  A kernel reads ``ws`` once per call: each
    attribute read of a thread-local costs about as much as a ``take``."""

    def __init__(self):
        self.ws = Workspace()


_scratch = ThreadWorkspace()


def edge_value(w0, w1, w2, w3, w4, weights: str = "nonlinear"):
    """Reference edge value of 5-node windows, as plain array formulas.

    The window is ordered upwind first: nodes left-to-right for a
    left-biased value and right-to-left for a right-biased one; the result
    sits between ``w2`` and ``w3``.  It composes ``smoothness_indicators``
    and ``nonlinear_weights`` (or ``IDEAL_WEIGHTS`` under
    ``weights="ideal"``, which freezes the linear weights, useful for order
    checks on smooth data) with the three quadratic substencil values
    (Jiang & Shu, JCP 126, 1996).
    """
    if weights == "nonlinear":
        o0, o1, o2 = nonlinear_weights(*smoothness_indicators(w0, w1, w2,
                                                              w3, w4))
    elif weights == "ideal":
        o0, o1, o2 = IDEAL_WEIGHTS
    else:
        raise ValueError(f"weights must be 'nonlinear' or 'ideal', "
                         f"got {weights!r}")
    # The substencil values at the edge, offset +1/2 from the window centre.
    p0 = (3.0 * w0 - 10.0 * w1 + 15.0 * w2) * 0.125
    p1 = (-w1 + 6.0 * w2 + 3.0 * w3) * 0.125
    p2 = (3.0 * w2 + 6.0 * w3 - w4) * 0.125
    return o0 * p0 + o1 * p1 + o2 * p2


def window_edge_value(w0, w1, w3, w4, *, out):
    """The sweep's edge kernel: ``edge_value`` of 5-node windows taken
    relative to their centre node, with nonlinear weights, computed into
    ``out``, which must not overlap the window.

    The centre is exactly zero, so it is not passed and its terms are
    dropped: each indicator term is squared, so the weights keep their
    bits, and a substencil value can differ from that of a ``+0.0`` centre
    only in the sign of an exact zero.  Otherwise the operations and their
    order are those of ``edge_value``, done in place so that the only
    arrays are ``out`` and four scratch arrays of its shape.
    """
    shape = out.shape
    ws = _scratch.ws
    ws.reserve(4 * aligned_words(*shape))
    b0, b1, b2, u = (ws.take(*shape) for _ in range(4))
    # Jiang-Shu indicators; ``out`` is scratch until the weighted sum.
    # Without the centre, beta2 is beta0 of the mirrored window (w4, w3).
    c = 13.0 / 12.0
    d = out
    for b, x, y in ((b0, w0, w1), (b2, w4, w3)):
        np.subtract(x, np.multiply(2.0, y, out=d), out=d)
        np.multiply(c, d, out=b)
        b *= d
        np.subtract(x, np.multiply(4.0, y, out=d), out=d)
        np.multiply(d, d, out=d)
        d *= 0.25
        b += d
    np.add(w1, w3, out=d)
    np.multiply(c, d, out=b1)
    b1 *= d
    np.subtract(w1, w3, out=d)
    np.multiply(d, d, out=d)
    d *= 0.25
    b1 += d
    # Normalized weights: alpha_k = d_k / (eps + beta_k)^2.
    for b, ideal in zip((b0, b1, b2), IDEAL_WEIGHTS):
        b += WEIGHT_EPS
        np.multiply(b, b, out=b)
        np.divide(ideal, b, out=b)
    inv = np.add(b0, b1, out=u)
    inv += b2
    np.divide(1.0, inv, out=inv)
    np.multiply(b0, inv, out=b0)
    np.multiply(b1, inv, out=b1)
    np.multiply(b2, inv, out=b2)
    # The weighted sum of the substencil values, each formed in ``u`` in
    # turn: p0 = (3 w0 - 10 w1) / 8, p1 = (3 w3 - w1) / 8 and
    # p2 = (6 w3 - w4) / 8, term by term.
    p = np.multiply(3.0, w0, out=u)
    p -= np.multiply(10.0, w1, out=out)
    p *= 0.125
    np.multiply(b0, p, out=out)
    np.multiply(3.0, w3, out=p)
    p -= w1
    p *= 0.125
    out += np.multiply(b1, p, out=p)
    np.multiply(6.0, w3, out=p)
    p -= w4
    p *= 0.125
    out += np.multiply(b2, p, out=p)
    return out


def interpolate_edge(line: np.ndarray, edge: int, side: str = "left",
                     weights: str = "nonlinear") -> float:
    """Reference single-edge interpolation (``edge_value``).

    ``edge`` selects the midpoint between nodes ``edge`` and ``edge + 1`` of
    ``line``.  ``side`` picks the upwind bias and ``weights`` the weights.
    """
    line = np.asarray(line)
    n = line.shape[-1]
    if side == "left":
        lo, hi = edge - 2, edge + 3
    elif side == "right":
        lo, hi = edge - 1, edge + 4
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if lo < 0 or hi > n:
        raise StencilError(f"{side}-biased edge {edge} needs nodes "
                           f"[{lo}, {hi}) of a {n}-node line")
    w = [line[..., k:k + 1] for k in range(lo, hi)]
    if side == "right":
        w.reverse()
    return edge_value(*w, weights)[..., 0]


def interpolate_line_edges(f: np.ndarray, side: str = "left",
                           weights: str = "nonlinear") -> np.ndarray:
    """Reference edge interpolation along the last axis (``edge_value``).

    For input length ``L`` returns ``L - 5`` edges; output edge ``j`` lies
    between nodes ``j + 2`` and ``j + 3``, so left- and right-biased outputs
    of the same input align edge for edge.
    """
    f = np.asarray(f)
    ne = f.shape[-1] - 5
    if ne < 1:
        raise StencilError(f"line of {f.shape[-1]} nodes is too short "
                           "for edge interpolation")
    if side == "left":
        w = [f[..., k:k + ne] for k in range(5)]
    elif side == "right":
        w = [f[..., 5 - k:5 - k + ne] for k in range(5)]
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return edge_value(*w, weights)


def edge_to_node_derivative(edges: np.ndarray, h: float, *,
                            node_axis: int = -1,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Node derivatives from midpoint values along ``node_axis`` (the last
    axis by default).

    For ``m`` input edges returns ``m - 5`` node values; output node ``i``
    sits between input edges ``i + 2`` and ``i + 3`` and the formula reaches
    the midpoints at ``i +- 1/2, 3/2, 5/2``.  ``out`` receives the result
    when given; it must not overlap ``edges``.
    """
    edges = np.asarray(edges)
    m = edges.shape[node_axis]
    n = m - 5
    if n < 1:
        raise StencilError(f"{m} edges are too few for the node derivative")
    c1, c2, c3 = EDGE_COEFFS
    lead = (slice(None),) * (node_axis % edges.ndim)

    def e(k):
        return edges[lead + (slice(k, k + n),)]

    d = np.subtract(e(3), e(2), out=out)
    d *= c1 / h
    ws = _scratch.ws
    ws.reserve(aligned_words(d.size))
    t = ws.take(*d.shape)
    np.subtract(e(4), e(1), out=t)
    t *= c2 / h
    d -= t
    np.subtract(e(5), e(0), out=t)
    t *= c3 / h
    d += t
    return d


def central4_derivative(f: np.ndarray, h: float, *, node_axis: int = -1,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Fourth-order central node derivative along ``node_axis`` (the last
    axis by default).

    For ``L`` input nodes returns ``L - 4`` values; output ``j`` is the
    derivative at input node ``j + 2``.  ``out`` receives the result when
    given; it must not overlap ``f``.
    """
    f = np.asarray(f)
    m = f.shape[node_axis]
    n = m - 4
    if n < 1:
        raise StencilError(f"line of {m} nodes is too short "
                           "for the central derivative")
    lead = (slice(None),) * (node_axis % f.ndim)

    def e(k):
        return f[lead + (slice(k, k + n),)]

    # ((f0 - f4) + 8 (f3 - f1)) / (12 h), in that order.  The paired
    # differences let identical neighbor values cancel exactly, so a
    # uniform field yields a bitwise-zero derivative.
    d = np.subtract(e(0), e(4), out=out)
    ws = _scratch.ws
    ws.reserve(aligned_words(d.size))
    t = ws.take(*d.shape)
    np.subtract(e(3), e(1), out=t)
    t *= 8.0
    d += t
    d /= 12.0 * h
    return d
