"""Halo exchange: plan construction, packing, execution, boundary fill.

Every block stores its state on its grown box (the storage rule of
``partition``), so a ghost cell is any cell of a block's array outside its
interior.  One exchange epoch brings every ghost cell up to date in two
phases:

1. copies from block interiors.  ``partition.ghost_sources`` intersects
   each block's grown box with every block interior and their periodic
   images (the plan's ``ghosts``); each intersection is one region.  The
   plan groups regions into pairs, and each pair that crosses ranks costs
   one message: with coalescing, a pair holds every region of one block
   pair; without it, each remote region is a pair of its own.  A local
   pair is copied, not sent, so it always stays whole.  A block narrower
   than the halo along a periodic axis that it does not span feeds some of
   its own ghosts, in a local pair like any other.
2. physical boundary fill in fixed axis order x, y, z.  Each non-periodic
   face fills the part of its ghost band inside the block's array, across
   the whole array along the other axes.

Phase 1 gives every ghost cell inside the zone, or inside one of its
periodic images, its single source cell, and a later axis pass of phase 2
reads cells written by phase 1 or by an earlier pass.  That reproduces
exactly the values a single unsplit block would hold in those cells, which
makes the exchanged field independent of the partition, bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import sub
from typing import Callable

import numpy as np

from .errors import HaloPlanError
from .fields import FieldSet
from .partition import Block, PartitionPlan, ZoneSpec, margins
from .state import NCOMP
from .transport import Message
from .wcns import HALO_WIDTH

H = HALO_WIDTH

# Tag layout: high bits carry the epoch, low bits the message index within
# the epoch.  Indexes at RESERVED_INDEX and above belong to the runner's
# reduction traffic, so plans may not define that many messages.
EPOCH_BITS = 11
INDEX_BITS = 21
RESERVED_INDEX = (1 << INDEX_BITS) - 16


def message_tag(epoch: int, index: int) -> int:
    """Epochs wrap modulo 2**EPOCH_BITS; every epoch drains all its messages
    before the next epoch starts, so reused tags never collide in flight."""
    if index >= (1 << INDEX_BITS):
        raise HaloPlanError(f"message index {index} exceeds the tag space")
    return ((epoch & ((1 << EPOCH_BITS) - 1)) << INDEX_BITS) | index


@dataclass(frozen=True)
class Region:
    """One halo box: ghost cells of ``dst_block`` fed by ``src_block``."""

    dst_block: int
    src_block: int
    dst_start: tuple[int, int, int]   # array coords of dst
    src_start: tuple[int, int, int]   # array coords of src
    shape: tuple[int, int, int]

    @property
    def cells(self) -> int:
        return self.shape[0] * self.shape[1] * self.shape[2]

    @cached_property
    def dst_slices(self) -> tuple:
        return (slice(None),) + tuple(
            slice(s, s + n) for s, n in zip(self.dst_start, self.shape))

    @cached_property
    def src_slices(self) -> tuple:
        return (slice(None),) + tuple(
            slice(s, s + n) for s, n in zip(self.src_start, self.shape))


@dataclass(frozen=True)
class ExchangePair:
    """Regions from one block to another that travel as one message, or
    are copied together when both blocks are on one rank."""

    index: int
    src_block: int
    dst_block: int
    src_rank: int
    dst_rank: int
    regions: tuple[Region, ...]

    @property
    def cells(self) -> int:
        return sum(r.cells for r in self.regions)

    @property
    def nbytes(self) -> int:
        return self.cells * NCOMP * 8

    @property
    def local(self) -> bool:
        return self.src_rank == self.dst_rank


@dataclass(frozen=True)
class BoundaryFace:
    axis: int
    side: int         # 0 = low face, 1 = high face
    kind: str         # wall | inflow | outflow
    depth: int = H    # ghost planes of the face band in the block's array


@dataclass
class HaloPlan:
    """Pairs in index order, indexed by rank once at construction; the
    per-rank lists keep that order and are shared: do not modify them."""

    pairs: list[ExchangePair]
    bc_faces: dict[int, tuple[BoundaryFace, ...]]  # block -> physical faces

    def __post_init__(self):
        self._sends: dict[int, list[ExchangePair]] = {}
        self._recvs: dict[int, list[ExchangePair]] = {}
        self._local: dict[int, list[ExchangePair]] = {}
        for p in self.pairs:
            if p.local:
                self._local.setdefault(p.src_rank, []).append(p)
            else:
                self._sends.setdefault(p.src_rank, []).append(p)
                self._recvs.setdefault(p.dst_rank, []).append(p)

    def sends_of(self, rank: int) -> list[ExchangePair]:
        return self._sends.get(rank, [])

    def recvs_of(self, rank: int) -> list[ExchangePair]:
        return self._recvs.get(rank, [])

    def local_of(self, rank: int) -> list[ExchangePair]:
        return self._local.get(rank, [])


def _boundary_faces(block: Block, zone: ZoneSpec) -> tuple[BoundaryFace, ...]:
    """Non-periodic faces whose ghost band reaches into the block's array,
    in axis order.  Blocks touching the face see the whole band."""
    faces = []
    for a in range(3):
        for side in (0, 1):
            kind = zone.boundary[2 * a + side]
            depth = H - block.lo[a] if side == 0 else block.hi[a] + H - zone.shape[a]
            if kind != "periodic" and depth > 0:
                faces.append(BoundaryFace(axis=a, side=side, kind=kind,
                                          depth=depth))
    return tuple(faces)


def build_halo_plan(plan: PartitionPlan, coalesce: bool = True) -> HaloPlan:
    """Pairs of regions and physical faces per block for one partition
    plan.  A pair holds every region of its block pair, or, with
    ``coalesce=False`` and the blocks on different ranks, one region.
    Pairs are ordered by ``(src, dst)``, then by ``dst_start``."""
    zone = plan.zone
    for a in range(3):
        if "wall" in zone.boundary[2 * a:2 * a + 2] and zone.shape[a] < H:
            # The mirror of a ghost band reads H interior planes.
            raise HaloPlanError(
                f"the zone has a wall face on axis {a}, which is "
                f"{zone.shape[a]} cells wide; a wall needs at least {H}")

    # Zone coordinates of each block's array origin.
    origin = {b.id: tuple(map(sub, b.lo, margins(zone, b)))
              for b in plan.blocks}
    regions_by_pair: dict[tuple[int, int], list[Region]] = {}
    for g in plan.ghosts:
        regions_by_pair.setdefault((g.src, g.dst), []).append(Region(
            dst_block=g.dst,
            src_block=g.src,
            dst_start=tuple(map(sub, g.lo, origin[g.dst])),
            src_start=tuple(map(sub, map(sub, g.lo, g.shift), origin[g.src])),
            shape=tuple(map(sub, g.hi, g.lo)),
        ))

    pairs = []
    for (src, dst), regions in sorted(regions_by_pair.items()):
        regions = tuple(sorted(regions, key=lambda r: r.dst_start))
        src_rank, dst_rank = plan.rank_of_block[src], plan.rank_of_block[dst]
        if not coalesce and src_rank != dst_rank:
            groups = [(r,) for r in regions]
        else:
            groups = [regions]
        for group in groups:
            pairs.append(ExchangePair(
                index=len(pairs),
                src_block=src,
                dst_block=dst,
                src_rank=src_rank,
                dst_rank=dst_rank,
                regions=group,
            ))
    if sum(len(p.regions) for p in pairs) >= RESERVED_INDEX:
        raise HaloPlanError("plan defines too many regions for the tag space")

    bc_faces = {b.id: _boundary_faces(b, zone) for b in plan.blocks}
    return HaloPlan(pairs=pairs, bc_faces=bc_faces)


# ---------------------------------------------------------------------------
# Packing

def _check_payload(src: int, dst: int, payload: np.ndarray, cells: int) -> None:
    if payload.size != cells * NCOMP:
        raise HaloPlanError(
            f"payload for blocks {src}->{dst} has {payload.size} values, "
            f"its regions cover {cells * NCOMP}")


def pack_pair(pair: ExchangePair, fields: FieldSet) -> np.ndarray:
    src = fields[pair.src_block].data
    return np.concatenate([src[r.src_slices].ravel() for r in pair.regions])


def unpack_pair(pair: ExchangePair, fields: FieldSet, payload: np.ndarray) -> None:
    _check_payload(pair.src_block, pair.dst_block, payload, pair.cells)
    dst = fields[pair.dst_block].data
    offset = 0
    for r in pair.regions:
        n = r.cells * NCOMP
        dst[r.dst_slices] = payload[offset:offset + n].reshape((NCOMP,) + r.shape)
        offset += n


def pack_region(region: Region, fields: FieldSet) -> np.ndarray:
    return fields[region.src_block].data[region.src_slices].ravel()


def unpack_region(region: Region, fields: FieldSet, payload: np.ndarray) -> None:
    _check_payload(region.src_block, region.dst_block, payload, region.cells)
    fields[region.dst_block].data[region.dst_slices] = payload.reshape(
        (NCOMP,) + region.shape)


# ---------------------------------------------------------------------------
# Physical ghost fill

def boundary_fill(data: np.ndarray, face: BoundaryFace, freestream: np.ndarray) -> None:
    """Fill the outermost ``face.depth`` planes on one side of a block's
    array from the interior planes next to them."""
    axis, side, kind, depth = face.axis, face.side, face.kind, face.depth
    size = data.shape[1 + axis]

    def plane(pos: int) -> tuple:
        return (slice(None),) * (1 + axis) + (pos,)

    def band(i: int) -> tuple:
        # ghost plane i = 0..depth-1 counted outward from the face
        return plane(depth - 1 - i if side == 0 else size - depth + i)

    def inner(i: int) -> tuple:
        # interior plane i counted inward from the face
        return plane(depth + i if side == 0 else size - depth - 1 - i)

    if kind == "inflow":
        # band(i) drops the face axis, leaving (NCOMP, cross, cross).
        view = freestream.reshape(NCOMP, 1, 1)
        for i in range(depth):
            data[band(i)] = view
        return
    if kind == "outflow":
        src = inner(0)
        for i in range(depth):
            data[band(i)] = data[src]
        return
    if kind == "wall":
        # Slip wall: mirror each plane and flip the normal momentum.
        for i in range(depth):
            data[band(i)] = data[inner(i)]
            mom_sel = (1 + axis,) + band(i)[1:]
            data[mom_sel] = -data[mom_sel]
        return
    raise HaloPlanError(f"unknown boundary kind {kind!r}")


def fill_block_ghosts(data: np.ndarray, block_id: int, halo_plan: HaloPlan,
                      freestream: np.ndarray | None) -> None:
    """Boundary pass for one block, faces in fixed axis order x, y, z."""
    for face in halo_plan.bc_faces.get(block_id, ()):
        if face.kind == "inflow" and freestream is None:
            raise HaloPlanError(
                f"block {block_id} has an inflow face but no freestream "
                "state was provided")
        boundary_fill(data, face, freestream)


# ---------------------------------------------------------------------------
# Execution

@dataclass
class ExchangeTotals:
    """Traffic of one rank, summed over epochs: messages and bytes sent to
    other ranks, and regions copied between blocks of the rank."""

    messages: int = 0
    bytes: int = 0
    local_copies: int = 0

    def add(self, other: "ExchangeTotals") -> None:
        self.messages += other.messages
        self.bytes += other.bytes
        self.local_copies += other.local_copies


class HaloExchanger:
    """Runs exchange epochs for one rank against a transport.

    Each pair of the halo plan that crosses ranks is one message, so the
    plan decides whether regions travel coalesced per block pair or one
    per message (``build_halo_plan``'s ``coalesce``).  ``run`` calls
    ``overlap_hook`` between posting sends and draining receives so
    interior work can hide the traffic; the hook must not touch ghost
    cells, and then the fields come out bitwise identical with or without
    it.  Receives wait as long as the transport's own timeout allows.
    ``run`` returns the epoch's ``ExchangeTotals``; a rank's received
    traffic is its peers' sent traffic, so it is not counted twice.
    """

    def __init__(self, halo_plan: HaloPlan, plan: PartitionPlan,
                 transport=None, freestream: np.ndarray | None = None):
        self.halo_plan = halo_plan
        self.plan = plan
        self.transport = transport
        self.freestream = None if freestream is None else np.asarray(
            freestream, dtype=np.float64)

    def run(self, rank: int, fields: FieldSet, epoch: int, *,
            overlap_hook: Callable[[], None] | None = None) -> ExchangeTotals:
        hp = self.halo_plan
        sends = hp.sends_of(rank)
        recvs = hp.recvs_of(rank)
        local = hp.local_of(rank)
        if (sends or recvs) and self.transport is None:
            raise HaloPlanError("plan needs inter-rank messages but the "
                                "exchanger has no transport")

        totals = ExchangeTotals()
        for p in sends:
            if len(p.regions) == 1:
                payload = pack_region(p.regions[0], fields)
            else:
                payload = pack_pair(p, fields)
            self.transport.send(Message(tag=message_tag(epoch, p.index),
                                        source=rank, dest=p.dst_rank,
                                        payload=payload))
            totals.messages += 1
            totals.bytes += payload.nbytes

        for p in local:
            src = fields[p.src_block].data
            dst = fields[p.dst_block].data
            for r in p.regions:
                dst[r.dst_slices] = src[r.src_slices]
            totals.local_copies += len(p.regions)

        if overlap_hook is not None:
            overlap_hook()

        for p in recvs:
            payload = self.transport.recv(tag=message_tag(epoch, p.index),
                                          source=p.src_rank, dest=rank).payload
            if len(p.regions) == 1:
                unpack_region(p.regions[0], fields, payload)
            else:
                unpack_pair(p, fields, payload)

        for b in self.plan.blocks_of_rank(rank):
            fill_block_ghosts(fields[b.id].data, b.id, hp, self.freestream)
        return totals
