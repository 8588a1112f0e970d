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


def _edge_value(w0, w1, w2, w3, w4, nonlinear: bool, out=None):
    """Weighted edge value of 5-node windows, computed into ``out``.

    The operations and their order are those of ``smoothness_indicators``
    and ``nonlinear_weights`` and of the weighted sum of the substencil
    values, done in place so that the only arrays are ``out`` and four
    scratch arrays of its shape.  ``w2=None`` stands for an exactly zero
    centre and drops every ``w2`` term: each indicator term is squared, so
    the weights keep their bits, and a substencil value can differ only
    in the sign of an exact zero.
    """
    shape = np.broadcast_shapes(*map(np.shape, (w0, w1, w2, w3, w4)))
    if out is None:
        out = np.empty(shape)
    ws = _scratch.ws
    ws.reserve(4 * aligned_words(*shape))
    b0, b1, b2, u = (ws.take(*shape) for _ in range(4))
    if nonlinear:
        # Jiang-Shu indicators; ``out`` is scratch until the weighted sum.
        c = 13.0 / 12.0
        d = out
        np.subtract(w0, np.multiply(2.0, w1, out=d), out=d)
        if w2 is not None:
            d += w2
        np.multiply(c, d, out=b0)
        b0 *= d
        np.subtract(w0, np.multiply(4.0, w1, out=d), out=d)
        if w2 is not None:
            d += np.multiply(3.0, w2, out=u)
        np.multiply(d, d, out=d)
        d *= 0.25
        b0 += d
        if w2 is None:
            np.add(w1, w3, out=d)
        else:
            np.subtract(w1, np.multiply(2.0, w2, out=d), out=d)
            d += w3
        np.multiply(c, d, out=b1)
        b1 *= d
        np.subtract(w1, w3, out=d)
        np.multiply(d, d, out=d)
        d *= 0.25
        b1 += d
        if w2 is None:
            np.subtract(w4, np.multiply(2.0, w3, out=d), out=d)
        else:
            np.subtract(w2, np.multiply(2.0, w3, out=d), out=d)
            d += w4
        np.multiply(c, d, out=b2)
        b2 *= d
        if w2 is None:
            np.subtract(w4, np.multiply(4.0, w3, out=d), out=d)
        else:
            np.subtract(np.multiply(3.0, w2, out=d),
                        np.multiply(4.0, w3, out=u), out=d)
            d += w4
        np.multiply(d, d, out=d)
        d *= 0.25
        b2 += d
        # Normalized weights: alpha_k = d_k / (eps + beta_k)^2.
        for b, ideal in zip((b0, b1, b2), IDEAL_WEIGHTS):
            b += WEIGHT_EPS
            np.multiply(b, b, out=b)
            np.divide(ideal, b, out=b)
        inv = np.add(b0, b1, out=u)
        inv += b2
        np.divide(1.0, inv, out=inv)
        o0 = np.multiply(b0, inv, out=b0)
        o1 = np.multiply(b1, inv, out=b1)
        o2 = np.multiply(b2, inv, out=b2)
    else:
        o0, o1, o2 = IDEAL_WEIGHTS
    # o0 p0 + o1 p1 + o2 p2 with the quadratic substencil values at the
    # edge between the window's 3rd and 4th node (offset +1/2 from the
    # window center), each formed in ``u`` in turn:
    # p0 = (3 w0 - 10 w1 + 15 w2) / 8 and its mirrors, term by term.
    p = np.multiply(3.0, w0, out=u)
    p -= np.multiply(10.0, w1, out=out)
    if w2 is not None:
        p += np.multiply(15.0, w2, out=out)
    p *= 0.125
    np.multiply(o0, p, out=out)
    t = b0                       # o0 has been used
    if w2 is None:
        np.multiply(3.0, w3, out=p)
        p -= w1
    else:
        np.negative(w1, out=p)
        p += np.multiply(6.0, w2, out=t)
        p += np.multiply(3.0, w3, out=t)
    p *= 0.125
    out += np.multiply(o1, p, out=p)
    if w2 is None:
        np.multiply(6.0, w3, out=p)
    else:
        np.multiply(3.0, w2, out=p)
        p += np.multiply(6.0, w3, out=t)
    p -= w4
    p *= 0.125
    out += np.multiply(o2, p, out=p)
    return out


def interpolate_edge(line: np.ndarray, edge: int, side: str = "left",
                     weights: str = "nonlinear") -> float:
    """Reference single-edge interpolation.

    ``edge`` selects the midpoint between nodes ``edge`` and ``edge + 1`` of
    ``line``.  ``side`` picks the upwind bias; ``weights="ideal"`` freezes the
    linear weights (useful for order checks on smooth data).
    """
    line = np.asarray(line)
    n = line.shape[-1]
    nonlinear = _weights_mode(weights)
    if side == "left":
        lo, hi = edge - 2, edge + 3
        if lo < 0 or hi > n:
            raise StencilError(f"left-biased edge {edge} needs nodes "
                               f"[{lo}, {hi}) of a {n}-node line")
        w = line[..., lo:hi]
        return _edge_value(w[..., 0], w[..., 1], w[..., 2], w[..., 3], w[..., 4],
                           nonlinear)[()]
    if side == "right":
        lo, hi = edge - 1, edge + 4
        if lo < 0 or hi > n:
            raise StencilError(f"right-biased edge {edge} needs nodes "
                               f"[{lo}, {hi}) of a {n}-node line")
        w = line[..., lo:hi]
        return _edge_value(w[..., 4], w[..., 3], w[..., 2], w[..., 1], w[..., 0],
                           nonlinear)[()]
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _weights_mode(weights: str) -> bool:
    if weights == "nonlinear":
        return True
    if weights == "ideal":
        return False
    raise ValueError(f"weights must be 'nonlinear' or 'ideal', got {weights!r}")


def window_edge_value(w0, w1, w2, w3, w4, weights: str = "nonlinear", *,
                      out=None):
    """Edge value from an already-gathered 5-node window.

    The window must be ordered upwind first: pass nodes left-to-right for a
    left-biased value and right-to-left for a right-biased one.  The result
    sits between ``w2`` and ``w3``.  Used directly when windows are built in
    a transformed basis rather than sliced from a line.  ``w2=None`` means
    the window is taken relative to its centre node, so ``w2`` is exactly
    zero and its terms are skipped; the result equals that of a ``+0.0``
    centre, up to the sign of an exactly zero result.  ``out`` receives
    the result when given; it must not overlap the window.
    """
    return _edge_value(w0, w1, w2, w3, w4, _weights_mode(weights), out)


def interpolate_line_edges(f: np.ndarray, side: str = "left",
                           weights: str = "nonlinear") -> np.ndarray:
    """Vectorized edge interpolation along the last axis.

    For input length ``L`` returns ``L - 5`` edges; output edge ``j`` lies
    between nodes ``j + 2`` and ``j + 3``, so left- and right-biased outputs
    of the same input align edge for edge.
    """
    f = np.asarray(f)
    ne = f.shape[-1] - 5
    if ne < 1:
        raise StencilError(f"line of {f.shape[-1]} nodes is too short "
                           "for edge interpolation")
    nonlinear = _weights_mode(weights)
    if side == "left":
        w = [f[..., k:k + ne] for k in range(5)]
    elif side == "right":
        w = [f[..., 5 - k:5 - k + ne] for k in range(5)]
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _edge_value(w[0], w[1], w[2], w[3], w[4], nonlinear)


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
