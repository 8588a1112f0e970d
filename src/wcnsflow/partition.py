"""Static decomposition: one zone into blocks, blocks into per-device groups.

The decomposition is a pre-processing step.  The zone is an axis-aligned
structured box of cells, cut into the grid of blocks that per-axis widths
span (``grid_blocks``); ``split_zone`` returns the widths of a regular grid
of blocks sized as evenly as possible.  ``make_plan`` regroups the blocks
it is given: ``regroup_blocks`` distributes them to ranks (contiguous
spatial chunks) and, within each rank, to one group per device, with the
coprocessor/CPU workload ratio as the single balance knob.  Every node
holds the same number of ranks, which share its devices evenly.  Plan
files may hold any tiling, not only a grid.

Blocks may be as narrow as one cell.  ``ghost_sources`` is the one place
that knows which block feeds which ghost cell: it intersects each block's
extended box with every block interior and their periodic images, after
checking that the blocks tile the zone exactly.  It runs once per plan:
``make_plan`` regroups with its result and keeps it as
``PartitionPlan.ghosts``, which the halo plan reads; a plan read from a
file derives it on first use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CaseFormatError, PartitionError
from .records import Record, floats, ints, optional, read_records
from .wcns import HALO_WIDTH

BOUNDARY_KINDS = ("periodic", "inflow", "outflow", "wall")


@dataclass(frozen=True)
class ZoneSpec:
    """A structured box of cells with per-face boundary tags.

    ``shape`` counts cells per axis; ``spacing`` is the uniform grid step.
    ``boundary`` lists six tags in face order x-lo, x-hi, y-lo, y-hi,
    z-lo, z-hi.  Periodic tags must pair up per axis.
    """

    shape: tuple[int, int, int]
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    boundary: tuple[str, str, str, str, str, str] = ("periodic",) * 6

    def __post_init__(self):
        if len(self.shape) != 3 or any(n < 1 for n in self.shape):
            raise PartitionError(f"bad zone shape {self.shape}")
        if len(self.boundary) != 6:
            raise PartitionError("zone needs six boundary tags")
        for tag in self.boundary:
            if tag not in BOUNDARY_KINDS:
                raise PartitionError(f"unknown boundary tag {tag!r}")
        for ax in range(3):
            lo, hi = self.boundary[2 * ax], self.boundary[2 * ax + 1]
            if ("periodic" in (lo, hi)) and lo != hi:
                raise PartitionError(f"axis {ax} mixes periodic with {lo!r}/{hi!r}")

    @property
    def cells(self) -> int:
        return int(np.prod(self.shape))

    def periodic(self, axis: int) -> bool:
        return self.boundary[2 * axis] == "periodic"


@dataclass(frozen=True)
class Block:
    """Half-open cell box ``[lo, hi)`` of the zone."""

    id: int
    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def cells(self) -> int:
        return int(np.prod(self.shape))


@dataclass(frozen=True)
class NodeTopology:
    """Machine shape: identical nodes, each with CPU and coprocessor devices."""

    nodes: int = 1
    cpu_per_node: int = 2
    coproc_per_node: int = 3

    def __post_init__(self):
        if self.nodes < 1 or self.cpu_per_node < 1 or self.coproc_per_node < 0:
            raise PartitionError(f"bad topology {self}")


@dataclass
class Group:
    """Blocks bound to one device of one rank."""

    id: int
    rank: int
    device_class: str            # "cpu" or "coprocessor"
    device_index: int            # within the rank
    block_ids: list[int] = field(default_factory=list)


@dataclass
class PartitionPlan:
    zone: ZoneSpec
    blocks: list[Block]
    ranks: int
    groups: list[Group]
    rank_of_block: list[int]

    def __post_init__(self):
        self._blocks_of_rank: dict[int, list[Block]] = {}
        for b in self.blocks:
            self._blocks_of_rank.setdefault(self.rank_of_block[b.id], []).append(b)
        self._groups_of_rank: dict[int, list[Group]] = {}
        for g in self.groups:
            self._groups_of_rank.setdefault(g.rank, []).append(g)

    def blocks_of_rank(self, rank: int) -> list[Block]:
        """The rank's blocks in plan order (a shared list: do not modify)."""
        return self._blocks_of_rank.get(rank, [])

    def groups_of_rank(self, rank: int) -> list[Group]:
        """The rank's groups in plan order (a shared list: do not modify)."""
        return self._groups_of_rank.get(rank, [])

    @cached_property
    def ghosts(self) -> list[GhostSource]:
        """``ghost_sources`` of the plan's blocks: the pass ``make_plan``
        regrouped with, else derived on first use."""
        return ghost_sources(self.blocks, self.zone)

    @property
    def total_cells(self) -> int:
        return sum(b.cells for b in self.blocks)


def _pattern_widths(total: int, weights: list[float]) -> list[int]:
    """Integer widths proportional to weights, summing exactly to total.

    Largest-remainder apportionment: every width is its quota rounded down,
    and the cells left over go to the largest fractional parts, lower index
    first on ties, so equal weights never differ by more than one cell and
    the first of them gets the extra one.
    """
    wsum = sum(weights)
    quotas = [total * w / wsum for w in weights]
    widths = [math.floor(q) for q in quotas]
    by_remainder = sorted(range(len(weights)), key=lambda i: widths[i] - quotas[i])
    for i in by_remainder[:total - sum(widths)]:
        widths[i] += 1
    return widths


def _factor_triples(count: int):
    for px in range(1, count + 1):
        if count % px:
            continue
        rest = count // px
        for py in range(1, rest + 1):
            if rest % py:
                continue
            yield px, py, rest // py


def _triple_valid(shape, triple) -> bool:
    return all(p <= n for n, p in zip(shape, triple))


def grid_blocks(widths) -> list[Block]:
    """The grid of blocks spanned by per-axis widths, numbered with z
    fastest and x slowest."""
    cuts = [list(itertools.accumulate(w, initial=0)) for w in widths]
    blocks = []
    for k in itertools.product(*(range(len(w)) for w in widths)):
        blocks.append(Block(id=len(blocks),
                            lo=tuple(c[i] for c, i in zip(cuts, k)),
                            hi=tuple(c[i + 1] for c, i in zip(cuts, k))))
    return blocks


def split_zone(zone: ZoneSpec, count: int) -> tuple[tuple[int, ...], ...]:
    """Per-axis widths of a regular grid of ``count`` near-equal blocks.
    The factorization minimizes the largest block first and internal face
    area (communication surface) second.
    """
    if not 1 <= count <= zone.cells:
        raise PartitionError(
            f"cannot cut {zone.cells} cells into {count} blocks")
    candidates = []
    for triple in _factor_triples(count):
        if not _triple_valid(zone.shape, triple):
            continue
        widths = tuple(tuple(_pattern_widths(n, [1.0] * p))
                       for n, p in zip(zone.shape, triple))
        biggest = int(np.prod([max(w) for w in widths]))
        area = sum((p - 1) * zone.cells // n
                   for n, p in zip(zone.shape, triple))
        candidates.append((biggest, area, triple, widths))
    if not candidates:
        raise PartitionError(
            f"no valid {count}-block tiling of shape {zone.shape}")
    return min(candidates)[3]


# ---------------------------------------------------------------------------
# Tiling and ghost sources

def check_tiling(blocks: list[Block], zone: ZoneSpec) -> None:
    """Raise ``PartitionError`` unless the blocks tile the zone exactly: no
    block empty or reaching past the zone, no two overlapping, no cell left
    over."""
    for b in blocks:
        if any(l < 0 or h > n or l >= h
               for l, h, n in zip(b.lo, b.hi, zone.shape)):
            raise PartitionError(
                f"block {b.id} [{b.lo}, {b.hi}) is empty or leaves the zone "
                f"of shape {zone.shape}")
    # Paint block ids on the grid spanned by the distinct cut planes.
    cuts = [sorted({0, n, *(b.lo[a] for b in blocks), *(b.hi[a] for b in blocks)})
            for a, n in enumerate(zone.shape)]
    index = [{c: i for i, c in enumerate(axis_cuts)} for axis_cuts in cuts]
    owner = np.full([len(c) - 1 for c in cuts], -1)
    for b in blocks:
        box = tuple(slice(ix[l], ix[h]) for ix, l, h in zip(index, b.lo, b.hi))
        taken = owner[box]
        if (taken >= 0).any():
            raise PartitionError(
                f"block {b.id} overlaps block {taken[taken >= 0][0]}")
        owner[box] = b.id
    if (owner < 0).any():
        # The first uncovered grid cell has covered cells just before it
        # along every axis where it does not start at the zone's origin.
        first = np.argwhere(owner < 0)[0]
        cell = tuple(int(c[i]) for c, i in zip(cuts, first))
        before = [int(owner[tuple(first - e)]) for e in np.eye(3, dtype=int)
                  if (first - e).min() >= 0]
        beside = f", next to block {before[0]}" if before else ""
        raise PartitionError(
            f"the zone has a gap: no block holds cell {cell}{beside}")


class GhostSource(NamedTuple):
    """Ghost cells ``[lo, hi)`` of block ``dst``, in zone coordinates that
    may lie past a periodic face, held by block ``src`` at
    ``[lo - shift, hi - shift)``."""

    dst: int
    src: int
    lo: tuple[int, int, int]
    hi: tuple[int, int, int]
    shift: tuple[int, int, int]


def ghost_sources(blocks: list[Block], zone: ZoneSpec) -> list[GhostSource]:
    """Every box where a block's extended box (interior grown by
    ``HALO_WIDTH`` on each side) meets a block interior.

    Along a periodic axis of ``n`` cells the interiors repeat at every
    multiple ``k*n`` with ``|k| <= ceil(HALO_WIDTH / n)``, so axes narrower
    than the halo wrap several times.  A block's own unshifted interior is
    left out.  Ghost cells outside every box lie past a non-periodic face.
    The blocks must tile the zone (``check_tiling``), which gives every
    other ghost cell exactly one source.
    """
    check_tiling(blocks, zone)
    H = HALO_WIDTH
    out = []
    images = []                          # per axis: shifts k*n in reach
    for a, n in enumerate(zone.shape):
        reach = -(-H // n) if zone.periodic(a) else 0
        images.append([k * n for k in range(-reach, reach + 1)])
    for b in blocks:
        for s in blocks:
            # Per axis, the shifted intervals of s meeting b's extended one.
            overlaps = []
            for a in range(3):
                lo, hi = b.lo[a] - H, b.hi[a] + H
                hits = [(k, max(s.lo[a] + k, lo), min(s.hi[a] + k, hi))
                        for k in images[a]]
                hits = [hit for hit in hits if hit[1] < hit[2]]
                if not hits:
                    break
                overlaps.append(hits)
            else:
                for x, y, z in itertools.product(*overlaps):
                    if s is b and x[0] == y[0] == z[0] == 0:
                        continue
                    out.append(GhostSource(b.id, s.id, (x[1], y[1], z[1]),
                                           (x[2], y[2], z[2]),
                                           (x[0], y[0], z[0])))
    return out


# ---------------------------------------------------------------------------
# Regrouping

def _devices_of_rank(ranks: int, topology: NodeTopology) -> tuple[int, int]:
    """CPU and coprocessor devices available to each rank."""
    if ranks < 1 or ranks % topology.nodes:
        raise PartitionError(
            f"{ranks} ranks do not divide over {topology.nodes} nodes")
    per_node = ranks // topology.nodes
    if topology.cpu_per_node % per_node or topology.coproc_per_node % per_node:
        raise PartitionError(
            f"{per_node} ranks per node cannot share "
            f"{topology.cpu_per_node} CPU + {topology.coproc_per_node} coprocessor "
            "devices evenly")
    return (topology.cpu_per_node // per_node,
            topology.coproc_per_node // per_node)


def regroup_blocks(blocks: list[Block], ghosts: list[GhostSource], ranks: int,
                   topology: NodeTopology, load_ratio: float
                   ) -> tuple[list[Group], list[int]]:
    """Assign blocks to ranks and to one group per device; ``ghosts`` are
    the blocks' ``ghost_sources``.

    Ranks receive contiguous spatial chunks (block id order follows the
    tiling).  Within a rank, groups are filled largest-block-first toward
    cell targets proportional to device weight (CPU 1, coprocessor
    ``load_ratio``); blocks that touch another rank go to CPU groups first
    so inter-rank traffic stays on the host side.
    """
    if load_ratio <= 0:
        raise PartitionError(f"load ratio must be positive, got {load_ratio}")
    n_cpu, n_cop = _devices_of_rank(ranks, topology)
    dev_per_rank = n_cpu + n_cop
    if dev_per_rank * ranks > len(blocks):
        raise PartitionError(
            f"{dev_per_rank * ranks} groups cannot be filled from "
            f"{len(blocks)} blocks")

    total = sum(b.cells for b in blocks)
    rank_of_block = [-1] * len(blocks)

    # Contiguous chunks in id (spatial) order; cumulative targets avoid
    # rounding drift across ranks.
    ordered = sorted(blocks, key=lambda b: b.id)
    taken = 0
    cum = 0
    for r in range(ranks):
        reserve = (ranks - 1 - r) * dev_per_rank
        target = total * (r + 1) / ranks
        count = 0
        while taken < len(ordered) - reserve:
            b = ordered[taken]
            if (r < ranks - 1 and count >= dev_per_rank
                    and cum + 0.5 * b.cells > target):
                break
            rank_of_block[b.id] = r
            cum += b.cells
            count += 1
            taken += 1
    for b in ordered[taken:]:
        rank_of_block[b.id] = ranks - 1

    nbrs_of: dict[int, set[int]] = {b.id: set() for b in blocks}
    for g in ghosts:
        nbrs_of[g.dst].add(g.src)
    block_by_id = {b.id: b for b in blocks}

    groups: list[Group] = []
    for r in range(ranks):
        for i in range(n_cpu):
            groups.append(Group(id=len(groups), rank=r,
                                device_class="cpu", device_index=i))
        for i in range(n_cop):
            groups.append(Group(id=len(groups), rank=r,
                                device_class="coprocessor", device_index=n_cpu + i))

    for r in range(ranks):
        mine = [b for b in blocks if rank_of_block[b.id] == r]
        rgroups = [g for g in groups if g.rank == r]
        weights = [1.0 if g.device_class == "cpu" else load_ratio for g in rgroups]
        scale = sum(b.cells for b in mine) / sum(weights)
        deficit = [w * scale for w in weights]
        placed: dict[int, int] = {}

        def neighbor_groups(b):
            return {placed[nb] for nb in nbrs_of[b.id] if nb in placed}

        def place(b, gi):
            rgroups[gi].block_ids.append(b.id)
            deficit[gi] -= b.cells
            placed[b.id] = gi

        boundary = [b for b in mine
                    if any(rank_of_block[nb] != r for nb in nbrs_of[b.id])]
        interior = [b for b in mine if b not in boundary]
        order = sorted(boundary, key=lambda b: (-b.cells, b.id)) + \
            sorted(interior, key=lambda b: (-b.cells, b.id))

        cpu_idx = [i for i, g in enumerate(rgroups) if g.device_class == "cpu"]
        for b in order:
            if b in boundary:
                open_cpu = [i for i in cpu_idx if deficit[i] > 0]
                if open_cpu:
                    best = max(open_cpu, key=lambda i: deficit[i])
                    place(b, best)
                    continue
            # Largest remaining deficit wins; near-ties prefer a group that
            # already holds a spatial neighbor, then the lower group index.
            top = max(deficit)
            tol = max(b.cells * 0.25, 1e-9 * max(abs(top), 1.0))
            tied = [i for i, d in enumerate(deficit) if top - d <= tol]
            adj = [i for i in tied if i in neighbor_groups(b)]
            place(b, min(adj) if adj else min(tied))

        for g in rgroups:
            g.block_ids.sort()
        empty = [g for g in rgroups if not g.block_ids]
        if empty:
            # Steal the smallest block of the fullest group for each empty one.
            for g in empty:
                donor = max(rgroups, key=lambda gg: len(gg.block_ids))
                if len(donor.block_ids) <= 1:
                    raise PartitionError(
                        f"rank {r}: cannot fill group {g.id} ({len(mine)} blocks "
                        f"for {len(rgroups)} groups)")
                moved = min(donor.block_ids, key=lambda bid: block_by_id[bid].cells)
                donor.block_ids.remove(moved)
                g.block_ids.append(moved)

    return groups, rank_of_block


def make_plan(zone: ZoneSpec, blocks: list[Block], ranks: int,
              topology: NodeTopology, load_ratio: float = 1.0
              ) -> PartitionPlan:
    """Regroup ``blocks``, which must tile ``zone``, onto ``ranks`` ranks
    and their devices."""
    ghosts = ghost_sources(blocks, zone)
    groups, rank_of_block = regroup_blocks(blocks, ghosts, ranks, topology,
                                           load_ratio)
    plan = PartitionPlan(zone=zone, blocks=blocks, ranks=ranks, groups=groups,
                         rank_of_block=rank_of_block)
    plan.ghosts = ghosts
    return plan


# ---------------------------------------------------------------------------
# Plan files: a line-oriented text format, one record per line.

PLAN_MAGIC = "wcnsflow-plan"
PLAN_VERSION = 2


# Descriptive boundary names accepted in zone records.
BOUNDARY_ALIASES = {
    "supersonic-inflow": "inflow",
    "extrapolation-outflow": "outflow",
    "slip-wall": "wall",
}


def _fmt_tuple(t) -> str:
    return ",".join(repr(x) if isinstance(x, float) else str(x) for x in t)


# The zone and topology records are shared with the case format.

def zone_record(z: ZoneSpec) -> str:
    return (f"zone shape={_fmt_tuple(z.shape)} "
            f"spacing={_fmt_tuple(z.spacing)} origin={_fmt_tuple(z.origin)} "
            f"boundary={','.join(z.boundary)}")


def zone_from_record(rec: Record) -> ZoneSpec:
    boundary = tuple(BOUNDARY_ALIASES.get(b, b)
                     for b in rec.get("boundary").split(","))
    return ZoneSpec(shape=rec.get("shape", ints),
                    spacing=rec.get("spacing", floats),
                    origin=rec.get("origin", floats), boundary=boundary)


def topology_record(t: NodeTopology) -> str:
    return (f"topology nodes={t.nodes} cpu={t.cpu_per_node} "
            f"coproc={t.coproc_per_node}")


def topology_from_record(rec: Record) -> NodeTopology:
    return NodeTopology(nodes=rec.get("nodes", int),
                        cpu_per_node=rec.get("cpu", int),
                        coproc_per_node=rec.get("coproc", int))


def plan_to_text(plan: PartitionPlan) -> str:
    lines = [f"{PLAN_MAGIC} {PLAN_VERSION}",
             f"ranks {plan.ranks}",
             zone_record(plan.zone)]
    for b in plan.blocks:
        lines.append(f"block {b.id} lo={_fmt_tuple(b.lo)} "
                     f"hi={_fmt_tuple(b.hi)} rank={plan.rank_of_block[b.id]}")
    for g in plan.groups:
        lines.append(f"group {g.id} rank={g.rank} class={g.device_class} "
                     f"device={g.device_index} "
                     f"blocks={_fmt_tuple(g.block_ids) if g.block_ids else '-'}")
    return "\n".join(lines) + "\n"


# Positional words per plan record kind.
PLAN_POSITIONAL = {"ranks": 1, "block": 1, "group": 1}


def plan_from_text(text: str) -> PartitionPlan:
    ranks = None
    zone = None
    blocks, groups = [], []
    rank_of_block: dict[int, int] = {}
    for rec in read_records(text, PLAN_MAGIC, PLAN_VERSION, "plan",
                            PLAN_POSITIONAL):
        if rec.kind == "ranks":
            ranks = rec.word(0, int)
        elif rec.kind == "zone":
            if zone is not None:
                raise CaseFormatError("zone record: a plan has one zone")
            zone = zone_from_record(rec)
        elif rec.kind == "block":
            bid = rec.word(0, int)
            blocks.append(Block(id=bid, lo=rec.get("lo", ints),
                                hi=rec.get("hi", ints)))
            rank_of_block[bid] = rec.get("rank", int)
        elif rec.kind == "group":
            ids = rec.get("blocks", optional(ints))
            groups.append(Group(id=rec.word(0, int), rank=rec.get("rank", int),
                                device_class=rec.get("class"),
                                device_index=rec.get("device", int),
                                block_ids=list(ids or ())))
        else:
            raise CaseFormatError(f"unknown plan record {rec.kind!r}")
        rec.done()
    if ranks is None or zone is None:
        raise CaseFormatError("plan file missing ranks/zone records")
    blocks.sort(key=lambda b: b.id)
    groups.sort(key=lambda g: g.id)
    n = len(blocks)
    for i, b in enumerate(blocks):
        if b.id != i:
            raise CaseFormatError(f"block record: block ids must be 0..{n - 1}"
                                  f" once each, got block {b.id}")
        if not 0 <= rank_of_block[b.id] < ranks:
            raise CaseFormatError(
                f"block record: block {b.id} has rank={rank_of_block[b.id]},"
                f" the plan has {ranks} ranks")
    for g in groups:
        if not 0 <= g.rank < ranks:
            raise CaseFormatError(
                f"group record: group {g.id} has rank={g.rank}, the plan has"
                f" {ranks} ranks")
        for bid in g.block_ids:
            if not 0 <= bid < n:
                raise CaseFormatError(
                    f"group record: group {g.id} lists block {bid}, the plan"
                    f" has blocks 0..{n - 1}")
    grouped = {(g.rank, bid) for g in groups for bid in g.block_ids}
    for b in blocks:
        if (rank_of_block[b.id], b.id) not in grouped:
            raise CaseFormatError(
                f"group record: no group of rank {rank_of_block[b.id]} lists"
                f" block {b.id}")
    return PartitionPlan(zone=zone, blocks=blocks, ranks=ranks, groups=groups,
                         rank_of_block=[rank_of_block[b.id] for b in blocks])
