"""Directional flux-difference residuals on block arrays, which hold each
block's grown box (the storage rule of ``partition``).

The residual of the semi-discrete system is

    dQ/dt = R(Q) = -(dF/dx + dG/dy + dH/dz) + (dFv/dx + dGv/dy + dHv/dz)

with the convective derivatives obtained from split-flux weighted edge
interpolation followed by the high-order edge-to-node difference, and the
viscous derivatives from fourth-order central differencing of node fluxes.
The split fluxes are projected onto the characteristic fields of a
Roe-averaged frame at each edge before weighting.

A convective sweep walks the slab in tiles of cross-axis rows, and lays
each tile out node-major: component x node x line, with the tile's rows x
n2 lines flattened into one contiguous last axis.  Every stencil slice
along the nodes (a window, the centre, the edge frame's neighbours, the
edge-to-node differences) is then one unit-stride run of rows x n2
values, not rows x n2 runs of a few nodes each.  The tile gathers ``w``
and ``q`` once each (``q`` waits in the plus flux's buffer until that flux
is formed) and scatters its derivatives into ``out`` in one copy.  Each
window is taken relative to its centre node, so the centre window is
exactly zero on both sides and is never formed: per tile the sweep stacks
the other eight windows (four nodes, plus and minus flux) into one array,
component x window x side x node x line, and makes one projection call
into the wave fields, one call of the centre-free edge kernel for both
sides and one call back to state space.  That kernel,
``wcns.window_edge_value``, is the one of ``wcns``'s two edge kernels that
runs; the other, the plain ``wcns.edge_value``, is the reference that the
tests' line oracle uses.  The edge frame's node terms are formed once per
node and shared by the two edges beside it.  Every array the tile writes,
the edge frame's fields included, lives in a per-thread workspace
(``wcns.ThreadWorkspace``) that is grown to the largest tile the thread
has swept and viewed afresh for each tile shape, so pool workers never
share one; the derivatives reuse the windows' region once the windows are
projected.  Each of those
arrays, and each scratch array of the edge-value and edge-to-node
kernels, starts on a 64-byte cache line (``wcns.ALIGN_BYTES``), where
wide vector units store fastest; alignment changes no operation.  The
default tile is the working-set tile: as many rows as fit
the (rows, n2, L) float64 slab in ``TILE_BYTES``, and never fewer than
``MIN_TILE_ROWS``; ``tile=0`` sweeps the slab untiled.  Tiling, stacking
and the layout change which arrays the operations touch, not the
operations an element sees or their order, so every tile size gives the
same bits.  Skipping the centre drops only terms that are exact zeros:
every smoothness term they touch is squared, so the weights keep their
bits, and a substencil value can change only in the sign of an exact zero.

Each direction is an independent task writing its own buffer; the per-block
combination happens in one fixed order so results never depend on how tasks
were scheduled.  A convective sweep can be cut two ways, and neither changes
a bit of what it writes: along the sweep axis into node ranges [lo, hi), and
across it into ranges of rows.  The node range [a, b) with a = min(5, n) and
b = max(a, n - 5) (``interior_split``) touches no halo cells, so it may run
while halo messages are still in flight; the other cut spreads one sweep
over the workers of a pool.  A node range other than [0, n) must be one
of the three ``interior_split`` ranges, and it hands off: the interior
sweep parks the five edges it shares with each boundary range in that
range's nodes of the output, outside its own range, and the boundary
sweeps, which must run after it, compute only their five halo-dependent
edges and read the parked ones back.  So a cut line computes each edge
value once, as the uncut sweep does.

A line is periodic when the block spans a periodic axis whole
(``partition.periodic_axes``).  The block's arrays then have no margin
along that axis: node j of the line, past either end, is interior node
j % n, and the kernels read it there.  Every kernel that reads a block
array takes the block's ``periodic`` triple, from which
``partition.axis_margins`` gives the array's margins.  A periodic sweep
(``periodic[axis]``) gathers each tile's n interior nodes and fills the
five nodes before them, which edges 0 .. n-1 also read, from those by
j % n, in a few contiguous copies inside the tile.  Edge j + n reads the
six nodes that edge j reads, so of a line's n + 5 edge values only n are
distinct: the sweep computes those n edges and fills the other five slots
by the rule edge[j] = edge[j % n], which also holds when n < 5 and the
halo wraps more than once.  Both fills, and the viscous ones below, are
``wrap_periodic``.  Each edge it computes sees the operations of the plain
sweep, over ghosts that wrap the interior, in their order, so the
derivatives keep those bits.

The viscous terms have periodic lines on the same axes.  Their gradient
pack covers the interior grown by two nodes along each axis, because the
central difference of the fluxes reads two nodes beyond each end of a
line.  Along a periodic axis, grown node j would read exactly what interior
node j % n reads, so it would get that node's gradients and flux, which
are formed node by node.  A periodic pack
(``velocity_temperature_gradients(..., periodic=...)``) therefore holds
only the interior along its periodic axes, gathers the two nodes beyond
each end of such a line from the interior by j % n, and
``viscous_derivative`` forms the flux at the n nodes of such a line and
repeats it by the rule flux[j] = flux[j % n] for the 2 + 2 nodes beyond
its ends, which also holds when n < 4 and the line wraps more than once.
Both central differences run node-major: each axis gathers u, v, w and T
(or the five flux components) as field x node x line, so every difference
slice is one unit-stride run, and differences all of them in one
``central4_derivative`` call, whose operations keep the order of the
plain formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError
from .partition import axis_margins
from .state import (
    GasModel,
    NCOMP,
    inviscid_flux,
    primitive_from_conserved,
    spectral_radii,
    viscous_flux,
)
from .wcns import (
    HALO_WIDTH,
    ThreadWorkspace,
    Workspace,
    aligned_words,
    central4_derivative,
    edge_to_node_derivative,
    window_edge_value,
)

H = HALO_WIDTH

# Working-set tile: rows of the (rows, n2, L) float64 slab per sweep
# step.  The floor keeps ufunc calls long enough that pool workers do not
# queue on the interpreter lock between them.
TILE_BYTES = 64 * 1024
MIN_TILE_ROWS = 2


def interior_split(n: int) -> tuple[int, int]:
    """Sweep-axis node range [a, b) whose stencils read no halo cells.

    The remaining ranges [0, a) and [b, n) depend on halo data.  For thin
    blocks (n < 2*HALO_WIDTH) the halo-free range is empty.
    """
    a = min(H, n)
    b = max(a, n - H)
    return a, b


def wrap_periodic(a: np.ndarray, lead: int, n: int) -> None:
    """Fill the slots of ``a`` along axis 1 before and after the ``n``
    nodes of a periodic line at ``lead:lead + n``: slot ``lead + j`` takes
    node ``j % n``, in contiguous copies, so a line shorter than the slots
    wraps more than once."""
    for end in range(lead, 0, -n):
        k = min(n, end)
        a[:, end - k:end] = a[:, lead + n - k:lead + n]
    for j in range(lead + n, a.shape[1], n):
        k = min(n, a.shape[1] - j)
        a[:, j:j + k] = a[:, lead:lead + k]


def block_wavespeed_bound(w_int: np.ndarray,
                          gas: GasModel) -> tuple[list[float], np.ndarray]:
    """Max |u_axis| + a over a block interior along each axis (this
    block's shares of the zone-wide splitting coefficients), and the
    (3, ...) spectral radii they are the maxima of, which
    ``block_dt_bound`` can reuse."""
    radii = spectral_radii(w_int, gas)
    return [float(np.max(r)) for r in radii], radii


@dataclass
class EdgeFrame:
    """Roe-averaged wave frame at the cell edges of one sweep axis.

    Holds the scalar fields needed to move state-space vectors into and out
    of the characteristic basis without materializing 5x5 matrices; both
    transforms are exact inverses of each other in exact arithmetic.
    """

    axis: int
    un: np.ndarray         # normal velocity
    ut1: np.ndarray        # tangential velocities, axes (axis+1)%3 ...
    ut2: np.ndarray        # ... and (axis+2)%3
    sound: np.ndarray
    inv_sound: np.ndarray
    enthalpy: np.ndarray   # total specific enthalpy
    q2: np.ndarray         # squared velocity magnitude
    b1: np.ndarray         # (gamma - 1) / a^2
    b2: np.ndarray         # b1 * q2 / 2

    def to_waves(self, x: np.ndarray, *,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Project ``(5, ...)`` state-space vectors onto the wave fields
        (ordering: un - a acoustic, entropy, two shears, un + a acoustic).

        The frame fields broadcast against ``x[i]``, so one call projects a
        whole stack of windows.  ``out`` receives the result when given; it
        must not overlap ``x``.
        """
        x0, x4 = x[0], x[4]
        xn = x[1 + self.axis]
        xt1 = x[1 + (self.axis + 1) % 3]
        xt2 = x[1 + (self.axis + 2) % 3]
        c = np.empty_like(x) if out is None else out
        # acc = b2 x0 - b1 (un xn + ut1 xt1 + ut2 xt2 - x4), built in c[1];
        # c[0] is scratch until the acoustic pair is formed.
        acc = np.multiply(self.un, xn, out=c[1])
        acc += np.multiply(self.ut1, xt1, out=c[0])
        acc += np.multiply(self.ut2, xt2, out=c[0])
        acc -= x4
        acc *= self.b1
        np.subtract(np.multiply(self.b2, x0, out=c[0]), acc, out=acc)
        swing = np.multiply(self.un, x0, out=c[4])
        np.subtract(xn, swing, out=swing)
        swing *= self.inv_sound
        np.subtract(xt1, np.multiply(self.ut1, x0, out=c[2]), out=c[2])
        np.subtract(xt2, np.multiply(self.ut2, x0, out=c[3]), out=c[3])
        np.subtract(acc, swing, out=c[0])
        c[0] *= 0.5
        np.add(acc, swing, out=c[4])
        c[4] *= 0.5
        np.subtract(x0, acc, out=c[1])
        return c

    def to_state(self, c: np.ndarray, *,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Recombine wave fields into state-space vectors.  ``out``
        receives the result when given; it must not overlap ``c``."""
        c0, c1, c2, c3, c4 = c
        x = np.empty_like(c) if out is None else out
        xn = x[1 + self.axis]
        xt1 = x[1 + (self.axis + 1) % 3]
        xt2 = x[1 + (self.axis + 2) % 3]
        s = np.add(c0, c1, out=x[0])
        s += c4
        swing = np.subtract(c4, c0, out=xn)
        swing *= self.sound
        # x4 = H (c0 + c4) + q2/2 c1 + ut1 c2 + ut2 c3 + un swing, with
        # x[t1] as scratch before it takes its own value.
        x4 = np.add(c0, c4, out=x[4])
        x4 *= self.enthalpy
        tmp = np.multiply(0.5, self.q2, out=xt1)
        tmp *= c1
        x4 += tmp
        x4 += np.multiply(self.ut1, c2, out=tmp)
        x4 += np.multiply(self.ut2, c3, out=tmp)
        x4 += np.multiply(self.un, swing, out=tmp)
        swing += np.multiply(self.un, s, out=tmp)
        np.multiply(self.ut1, s, out=xt1)
        xt1 += c2
        np.multiply(self.ut2, s, out=xt2)
        xt2 += c3
        return x


def characteristic_frame(w: np.ndarray, axis: int, gas: GasModel, *,
                         node_axis: int = -1,
                         ws: Workspace | None = None) -> EdgeFrame:
    """Edge frame (Roe mean) between neighbouring nodes of primitive
    states ``w``, whose axis ``node_axis`` (the last by default; never the
    component axis 0) holds the n + 1 nodes flanking n edges.

    sqrt(rho), the total enthalpy h, sqrt(rho) u and sqrt(rho) h are
    formed once per node and shared by the edges on either side; each
    edge's mean sees the operations of the two-state formula in its order.
    The frame's nine edge fields and four node-shaped scratch arrays are
    taken from ``ws`` when it is given, and stay valid until its next
    ``reserve``; otherwise they are fresh arrays.
    """
    ax = node_axis % w.ndim
    if ax == 0:
        raise ValueError("the node axis of w cannot be its component axis")
    lead = (slice(None),) * (ax - 1)
    left, right = lead + (slice(None, -1),), lead + (slice(1, None),)
    node = w.shape[1:]
    edge = node[:ax - 1] + (node[ax - 1] - 1,) + node[ax:]

    def new(shape: tuple[int, ...]) -> np.ndarray:
        return np.empty(shape) if ws is None else ws.take(*shape)

    g = gas.gamma
    gg = g / (g - 1.0)
    s = np.sqrt(w[0], out=new(node))
    # h = gg w4 / w0 + 0.5 (w1^2 + w2^2 + w3^2), in that order.
    h = np.multiply(gg, w[4], out=new(node))
    h /= w[0]
    t = np.square(w[1], out=new(node))
    u = np.square(w[2], out=new(node))
    t += u
    t += np.square(w[3], out=u)
    t *= 0.5
    h += t
    # 1 / (sqrt(rho_l) + sqrt(rho_r)) waits in b2's array, and the
    # squares of the mean velocities in inv_sound's.
    inv = np.add(s[left], s[right], out=new(edge))
    np.divide(1.0, inv, out=inv)
    vel = []
    for a in range(3):
        su = np.multiply(s, w[1 + a], out=t)
        v = np.add(su[left], su[right], out=new(edge))
        v *= inv
        vel.append(v)
    sh = np.multiply(s, h, out=h)
    hm = np.add(sh[left], sh[right], out=new(edge))
    hm *= inv
    tmp = new(edge)
    q2 = np.square(vel[0], out=new(edge))
    q2 += np.square(vel[1], out=tmp)
    q2 += np.square(vel[2], out=tmp)
    # a^2 = (g - 1) (hm - 0.5 q2), formed in the sound speed's array.
    a2 = np.multiply(0.5, q2, out=new(edge))
    np.subtract(hm, a2, out=a2)
    a2 *= g - 1.0
    if not np.all(a2 > 0.0):
        raise InvalidStateError("non-positive sound speed at an edge mean")
    b1 = np.divide(g - 1.0, a2, out=new(edge))
    a = np.sqrt(a2, out=a2)
    b2 = np.multiply(0.5, b1, out=inv)
    b2 *= q2
    return EdgeFrame(axis=axis, un=vel[axis], ut1=vel[(axis + 1) % 3],
                     ut2=vel[(axis + 2) % 3], sound=a,
                     inv_sound=np.divide(1.0, a, out=tmp), enthalpy=hm,
                     q2=q2, b1=b1, b2=b2)


_workspace = ThreadWorkspace()


def _tile_words(rows: int, n2: int, length: int, parked: int = 0) -> int:
    """Float64 words of the workspace for one tile of ``rows`` x ``n2``
    lines of ``length`` nodes: primitives, fluxes, split fluxes, the edge
    frame's four node-shaped scratch arrays and nine fields, the eight
    stacked and the eight projected windows (the centre
    window of each side is exactly zero and never stored), edge values and
    the recombined edges, which share their buffer with ``parked`` edges
    read back from the interior sweep; each array rounded up to whole cache
    lines.
    The gathered conserved states wait in the plus fluxes' words and the
    derivatives take the stacked windows' words, so neither adds any."""
    lines = rows * n2
    ne = length - 5
    return (4 * aligned_words(NCOMP, length, lines)
            + 4 * aligned_words(ne + 1, lines) + 9 * aligned_words(ne, lines)
            + 2 * aligned_words(NCOMP, 8, ne, lines)
            + aligned_words(NCOMP, 2, ne, lines)
            + aligned_words(NCOMP, ne + parked, lines))


def working_set_tile(n2: int, length: int) -> int:
    """Default tile: rows of ``(n2, length)`` lines whose float64 slab fits
    ``TILE_BYTES``, and never fewer than ``MIN_TILE_ROWS``."""
    return max(MIN_TILE_ROWS, TILE_BYTES // (8 * n2 * length))


def _layout(ext: np.ndarray, periodic) -> tuple[tuple[int, ...], list[int]]:
    """Margins and interior node counts of ``ext``, with ``periodic`` lines."""
    m = axis_margins(periodic)
    n = [s - 2 * g for s, g in zip(ext.shape[1:], m)]
    if min(n) < 1:
        raise ValueError(f"an array of extent {ext.shape[1:]} has no "
                         f"interior with periodic axes {tuple(periodic)}")
    return m, n


def convective_derivative(
    q_ext: np.ndarray,
    w_ext: np.ndarray,
    axis: int,
    lam: float,
    h: float,
    *,
    gas: GasModel,
    lo: int = 0,
    hi: int | None = None,
    row_lo: int = 0,
    row_hi: int | None = None,
    tile: int | None = None,
    periodic: tuple[bool, bool, bool] = (False, False, False),
    out: np.ndarray | None = None,
) -> np.ndarray:
    """d(F_axis)/d(x_axis) at interior nodes [lo, hi) along ``axis``.

    Uses the global splitting F = (F + lam*Q)/2 + (F - lam*Q)/2 with the
    upwind-biased edge interpolation applied to each part, left-biased for
    the plus flux and right-biased for the minus flux, in the characteristic
    fields of the edge frame.  ``q_ext`` and ``w_ext`` hold a block's
    grown box, with no margin along the ``periodic`` axes (the storage rule
    of ``partition``).  Rows are the lines of the first cross axis
    (axis 1 for a sweep along axis 0, else axis 0); only rows [row_lo,
    row_hi) are swept, all of them by default.  ``tile`` is the number of
    rows swept at once: ``None`` picks the working-set tile, ``0`` sweeps
    the whole row range in one piece.  ``out`` (shape (5, nx, ny, nz))
    receives the slab when given; nothing outside the two ranges is written,
    except by an interior sweep that hands off.

    [lo, hi) is the whole axis [0, n) or one of the ``interior_split``
    ranges [0, a), [a, b) and [b, n), which are the three sweeps of a cut
    line; together they compute each of its n + 5 edge values once.  The
    interior sweep parks the five edges it shares with each boundary range
    in that range's own nodes of ``out``, [0, a) and [b, n), which are
    outside [lo, hi).  A boundary sweep computes only its five
    halo-dependent edges and reads the five parked ones back before it
    writes its derivatives over them, so it must start only after the
    interior sweep of its rows has finished.  With an empty interior
    (n <= 10) nothing is handed off, and each range is swept on its own.

    ``periodic[axis]`` says that every line is periodic, as it is when
    the block spans a periodic axis whole: node j past either end is
    interior node j % n.  The sweep reads those nodes in the interior,
    computes n edge values, not n + 5, and repeats them
    (``edge[j] = edge[j % n]``).  It needs the whole axis, [lo, hi) =
    [0, n).
    """
    if w_ext.shape != q_ext.shape:
        raise ValueError(f"w_ext has shape {w_ext.shape}, not {q_ext.shape}")
    m, n = _layout(q_ext, periodic)
    if out is None:
        out = np.empty((NCOMP, *n))
    elif out.shape != (NCOMP, *n):
        raise ValueError(f"out has shape {out.shape}, not {(NCOMP, *n)}")
    na = n[axis]
    hi = na if hi is None else hi
    a, b = interior_split(na)
    wrap = periodic[axis]
    ranges = [(0, na)] if wrap else [(0, na), (0, a), (a, b), (b, na)]
    if (lo, hi) not in ranges:
        raise ValueError(f"{'periodic ' if wrap else ''}node range "
                         f"[{lo},{hi}) is not one of {ranges}")
    nrows = n[1] if axis == 0 else n[0]
    row_hi = nrows if row_hi is None else row_hi
    if not (0 <= row_lo <= row_hi <= nrows):
        raise ValueError(f"row range [{row_lo},{row_hi}) outside [0,{nrows})")
    if hi == lo or row_hi == row_lo:
        return out
    handoff = a < b and (lo, hi) != (0, na)

    def nodes(lo: int, hi: int) -> np.ndarray:
        """``out`` at nodes [lo, hi) of the sweep axis, moved last."""
        sel = [slice(None)] * 4
        sel[1 + axis] = slice(lo, hi)
        return np.moveaxis(out[tuple(sel)], 1 + axis, 3)

    dst = nodes(lo, hi)
    # The edge buffer holds the hi - lo + H edges the difference at [lo, hi)
    # reads.  A handoff boundary sweep computes the H edges in ``own`` from
    # the 2H nodes they need and reads the H in ``parked`` back
    # from ``dst``; the handoff interior sweep copies its end edges to
    # ``parks``.  A periodic sweep computes the first n edges from the
    # n + H nodes they need and repeats them in the last H slots.
    start, stop = lo, hi + 2 * H
    own = parked = None
    parks = []
    if wrap:
        stop, own = na + H, slice(0, na)
    elif handoff and lo == 0:
        stop, own, parked = 2 * H, slice(0, H), slice(H, 2 * H)
    elif handoff and hi == na:
        start, own, parked = lo + H, slice(H, 2 * H), slice(0, H)
    elif handoff:
        parks = [(slice(0, H), nodes(0, a)), (slice(-H, None), nodes(b, na))]

    # The needed array nodes [start, stop) along the sweep axis, interior
    # on the cross axes.  A periodic line gathers its n nodes after
    # ``body`` = H leading slots and fills those from them by j % n.
    length = stop - start
    sl = [slice(g, g + k) for g, k in zip(m, n)]
    body = H if wrap else 0
    if not wrap:
        sl[axis] = slice(start, stop)
    q = np.moveaxis(q_ext[(slice(None),) + tuple(sl)], 1 + axis, 3)
    w = np.moveaxis(w_ext[(slice(None),) + tuple(sl)], 1 + axis, 3)

    n2 = q.shape[2]
    ne = length - 5
    nedges = hi - lo + H
    if tile is None:
        step = working_set_tile(n2, length)
    else:
        step = row_hi - row_lo if tile <= 0 else tile
    ws = _workspace.ws
    for c0 in range(row_lo, row_hi, step):
        cs = slice(c0, min(c0 + step, row_hi))
        rows = cs.stop - cs.start
        lines = rows * n2
        ws.reserve(_tile_words(rows, n2, length, nedges - ne))

        def grid(a: np.ndarray) -> np.ndarray:
            """Node-major ``a`` viewed in the layout of ``q``, ``w`` and
            ``dst``: component x row x n2 x node."""
            split = a.reshape(a.shape[:2] + (rows, n2), copy=False)
            return split.transpose(0, 2, 3, 1)

        def gather(a: np.ndarray, src: np.ndarray) -> None:
            np.copyto(grid(a)[..., body:], src[:, cs])
            if wrap:
                wrap_periodic(a, H, na)

        # One gather each of the primitives and the conserved states; q
        # waits in fp's buffer until fp is formed.
        wc = ws.take(NCOMP, length, lines)
        gather(wc, w)
        f = ws.take(NCOMP, length, lines)
        fp = ws.take(NCOMP, length, lines)
        fm = ws.take(NCOMP, length, lines)
        qc = fp
        gather(qc, q)
        inviscid_flux(wc, axis, q=qc, out=f)
        lam_q = np.multiply(lam, qc, out=fm)
        np.add(f, lam_q, out=fp)
        fp *= 0.5
        np.subtract(f, lam_q, out=fm)
        fm *= 0.5
        frame = characteristic_frame(wc[:, 2:3 + ne], axis, gas, node_axis=1,
                                     ws=ws)
        # The windows, component x window x side (plus, minus), taken
        # relative to their central node so a constant field projects to
        # exactly zero and uniform flow stays a bitwise fixed point of the
        # derivative.  The centre window is then exactly zero on both
        # sides, so only the eight others are stacked, projected and
        # weighted.
        ctr_p = fp[:, 2:2 + ne]
        ctr_m = fm[:, 3:3 + ne]
        win = ws.take(NCOMP, 4, 2, ne, lines)
        for i, k in enumerate((0, 1, 3, 4)):
            np.subtract(fp[:, k:k + ne], ctr_p, out=win[:, i, 0])
            np.subtract(fm[:, 5 - k:5 - k + ne], ctr_m, out=win[:, i, 1])
        waves = frame.to_waves(win, out=ws.take(NCOMP, 4, 2, ne, lines))
        sides = window_edge_value(waves[:, 0], waves[:, 1], waves[:, 2],
                                  waves[:, 3],
                                  out=ws.take(NCOMP, 2, ne, lines))
        both = np.add(sides[:, 0], sides[:, 1], out=sides[:, 0])
        all_edges = ws.take(NCOMP, nedges, lines)
        edges = all_edges if own is None else all_edges[:, own]
        np.add(ctr_p, ctr_m, out=edges)
        edges += frame.to_state(both, out=sides[:, 1])
        if parked is not None:
            np.copyto(grid(all_edges[:, parked]), dst[:, cs])
        if wrap:
            wrap_periodic(all_edges, 0, na)       # edge[j] = edge[j % n]
        for ends, park in parks:
            np.copyto(park[:, cs], grid(edges[:, ends]))
        # The derivatives go into the windows' dead region, then to ``dst``
        # in one copy.
        d = win.reshape(-1)[:NCOMP * (hi - lo) * lines]
        d = edge_to_node_derivative(all_edges, h, node_axis=1,
                                    out=d.reshape(NCOMP, hi - lo, lines))
        np.copyto(dst[:, cs], grid(d))
    return out


@dataclass
class GradientPack:
    """Velocity/temperature gradients at the nodes the viscous central
    difference reads: the interior box grown by two nodes along each axis
    that is not ``periodic``, and exactly the interior along each that is.
    Below, X is nx + 4, or nx on a periodic x axis; Y and Z likewise."""

    vel: np.ndarray       # (3, X, Y, Z)
    grad_vel: np.ndarray  # (3, 3, X, Y, Z); [i, j] = d(u_i)/d(x_j)
    grad_temp: np.ndarray  # (3, X, Y, Z)
    periodic: tuple[bool, bool, bool] = (False, False, False)


def _node_major(a: np.ndarray, axis: int) -> np.ndarray:
    """``a`` (field x nx x ny x nz) with spatial ``axis`` moved first:
    field x node x the cross axes, in order."""
    return np.moveaxis(a, 1 + axis, 1)


def velocity_temperature_gradients(
    w_ext: np.ndarray,
    spacing: tuple[float, float, float],
    periodic: tuple[bool, bool, bool] = (False, False, False),
) -> GradientPack:
    """The gradient pack of a block's primitives ``w_ext``, which hold its
    grown box, with no margin along the ``periodic`` axes.

    ``periodic[a]`` says that the lines along axis ``a`` are periodic
    (``partition.periodic_axes``): the pack then holds only the interior
    along ``a``, and the two nodes beyond each end of a line are read at
    interior node j % n.  Each axis gathers u, v, w and T at the nodes its
    differences read, node-major (field x node x line), and differences
    all four in one call.
    """
    m, n = _layout(w_ext, periodic)
    grow = [0 if p else 2 for p in periodic]
    pack = tuple(slice(g - e, g + k + e) for g, k, e in zip(m, n, grow))
    vel = np.ascontiguousarray(w_ext[(slice(1, 4),) + pack])
    nshape = vel.shape[1:]
    # grad[i, j] = d(f_i)/d(x_j) for f = (u, v, w, T).
    grad = np.empty((4, 3) + nshape)
    for a in range(3):
        n = nshape[a]
        sl = list(pack)
        if not periodic[a]:
            sl[a] = slice(pack[a].start - 2, pack[a].stop + 2)
        seg = _node_major(w_ext[(slice(None),) + tuple(sl)], a)
        lines = seg.shape[2:]
        f = np.empty((4, n + 4) + lines)
        # A periodic line gathers its n interior nodes into f[:, 2:n + 2]
        # and fills the two beyond each end from them by j % n.
        body = f[:, 2:n + 2] if periodic[a] else f
        np.copyto(body[:3], seg[1:4])
        np.divide(seg[4], seg[0], out=body[3])     # T, as state.temperature
        if periodic[a]:
            wrap_periodic(f, 2, n)
        d = central4_derivative(f.reshape(4, n + 4, -1), spacing[a],
                                node_axis=1)
        grad[:, a] = np.moveaxis(d.reshape((4, n) + lines), 1, 1 + a)
    return GradientPack(vel=vel, grad_vel=grad[:3], grad_temp=grad[3],
                        periodic=tuple(periodic))


def viscous_derivative(
    grads: GradientPack,
    gas: GasModel,
    axis: int,
    h: float,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """d(Fv_axis)/d(x_axis) at interior nodes from node-valued viscous
    fluxes, differenced node-major along ``axis``.  On a periodic axis of
    n nodes the flux is formed at the n interior nodes, and node j of the
    difference, -2 <= j < n + 2, takes the flux of node j % n."""
    grow = [0 if p else 2 for p in grads.periodic]
    nshape = tuple(s - 2 * g for s, g in zip(grads.vel.shape[1:], grow))
    if out is None:
        out = np.empty((NCOMP,) + nshape)

    sl = [slice(g, s - g) for g, s in zip(grow, grads.vel.shape[1:])]
    sl[axis] = slice(None)
    sel = (slice(None),) + tuple(sl)
    flux = viscous_flux(
        grads.vel[sel],
        grads.grad_vel[(slice(None),) + sel],
        grads.grad_temp[sel],
        gas,
        axis,
    )
    # One gather puts the lines node-major (component x node x line); a
    # periodic line fills the two nodes beyond each end by j % n.
    n = nshape[axis]
    flux = _node_major(flux, axis)
    lead = 2 if grads.periodic[axis] else 0
    f = np.empty((NCOMP, n + 4) + flux.shape[2:])
    np.copyto(f[:, lead:n + 4 - lead], flux)
    if lead:
        wrap_periodic(f, lead, n)
    d = central4_derivative(f.reshape(NCOMP, n + 4, -1), h, node_axis=1)
    out[...] = np.moveaxis(d.reshape((NCOMP, n) + f.shape[2:]), 1, 1 + axis)
    return out


@dataclass
class ResidualParts:
    """Per-direction buffers combined in one fixed order."""

    convective: list[np.ndarray | None] = field(default_factory=lambda: [None, None, None])
    viscous: list[np.ndarray | None] = field(default_factory=lambda: [None, None, None])

    def combine(self) -> np.ndarray:
        r = np.negative(self.convective[0])
        r -= self.convective[1]
        r -= self.convective[2]
        for v in self.viscous:
            if v is not None:
                r += v
        return r


def block_residual(
    q_ext: np.ndarray,
    gas: GasModel,
    spacing: tuple[float, float, float],
    lams: tuple[float, float, float],
    *,
    tile: int | None = None,
) -> np.ndarray:
    """Whole-block residual in one call (the serial reference path).

    The distributed runner produces bitwise-identical results by computing the
    same per-direction buffers (possibly split across workers and node ranges)
    and combining them in the same order.
    """
    w_ext = primitive_from_conserved(q_ext, gas)
    parts = ResidualParts()
    for a in range(3):
        try:
            parts.convective[a] = convective_derivative(
                q_ext, w_ext, a, lams[a], spacing[a], gas=gas, tile=tile
            )
        except InvalidStateError as e:
            raise InvalidStateError(
                f"convective sweep axis {a}: {e}", index=e.index) from e
    if gas.viscous:
        grads = velocity_temperature_gradients(w_ext, spacing)
        for a in range(3):
            parts.viscous[a] = viscous_derivative(grads, gas, a, spacing[a])
    return parts.combine()
