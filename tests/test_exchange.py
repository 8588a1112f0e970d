"""Halo plans, packing, exchange epochs, ghost fills, and transports."""

import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcnsflow.cases import case_plan, corner_case, sod_case, wave_case, \
    with_ranks
from wcnsflow.errors import HaloPlanError, TransportError
from wcnsflow.fields import BlockField, allocate_fields, grown_shape
from wcnsflow.halo import (RESERVED_INDEX, BoundaryFace, ExchangeTotals,
                           HaloExchanger, boundary_fill,
                           build_halo_plan, fill_block_ghosts, message_tag,
                           pack_pair, pack_region, unpack_pair, unpack_region)
from wcnsflow.partition import (Block, Group, NodeTopology, PartitionPlan,
                                ZoneSpec, grid_blocks, make_plan, margins,
                                split_zone)
from wcnsflow.runner import BCAST_INDEX, REDUCE_INDEX
from wcnsflow.transport import (HEADER, MAGIC, InProcessTransport, Message,
                                SocketTransport, free_port)
from wcnsflow.wcns import HALO_WIDTH

H = HALO_WIDTH
PERIODIC = ("periodic",) * 6
OUTFLOW = ("outflow",) * 6


def zone(shape, boundary=OUTFLOW):
    return ZoneSpec(shape=shape,
                    spacing=tuple(1.0 / s for s in shape), boundary=boundary)


def plan_for(shape, blocks, ranks=1, boundary=OUTFLOW):
    z = zone(shape, boundary)
    return make_plan(z, grid_blocks(split_zone(z, blocks)), ranks,
                     NodeTopology(1, ranks, 0))


def global_state(shape, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(5, *shape))


def seed_fields(plan, g) -> dict:
    fields = allocate_fields(plan)
    for b in plan.blocks:
        sl = tuple(slice(l, h) for l, h in zip(b.lo, b.hi))
        fields[b.id].interior[...] = g[(slice(None),) + sl]
    return fields


def blocks_plan(z, blocks, rank_of_block=None) -> PartitionPlan:
    """A plan over explicit blocks and one CPU group per rank, bypassing
    regrouping (the exchange reads only the zone, blocks and ranks)."""
    ranks = rank_of_block or [0] * len(blocks)
    groups = [Group(id=r, rank=r, device_class="cpu", device_index=0,
                    block_ids=[b.id for b in blocks if ranks[b.id] == r])
              for r in range(max(ranks) + 1)]
    return PartitionPlan(zone=z, blocks=blocks, ranks=max(ranks) + 1,
                         groups=groups, rank_of_block=list(ranks))


FREESTREAM = np.array([1.0, 0.25, -0.5, 0.125, 2.5])


def exchange_all(plan, fields, coalesce=True) -> list:
    """One epoch on every rank of ``plan``, one thread per rank; the
    ``ExchangeTotals`` of each rank."""
    hp = build_halo_plan(plan, coalesce)
    ex = HaloExchanger(hp, plan, transport=InProcessTransport(plan.ranks),
                       freestream=FREESTREAM)
    per_rank = [{b.id: fields[b.id] for b in plan.blocks_of_rank(r)}
                for r in range(plan.ranks)]
    with ThreadPoolExecutor(plan.ranks) as pool:
        futs = [pool.submit(ex.run, r, per_rank[r], 0)
                for r in range(plan.ranks)]
        return [f.result(timeout=60) for f in futs]


def nan_fields(plan, g) -> dict:
    """Block fields holding ``g`` in their interiors and NaN ghosts, so a
    ghost cell no pass writes fails every comparison."""
    fields = allocate_fields(plan)
    for f in fields.values():
        f.data[...] = np.nan
    for b in plan.blocks:
        sl = tuple(slice(l, h) for l, h in zip(b.lo, b.hi))
        fields[b.id].interior[...] = g[(slice(None),) + sl]
    return fields


def reference_extended(z, g) -> np.ndarray:
    """The zone's state grown by H ghost cells per side, built axis by axis
    in x, y, z order as one unsplit block sees it: periodic axes wrap,
    outflow repeats the edge plane, a wall mirrors with the normal momentum
    negated, inflow holds the freestream."""
    out = g
    for a in range(3):
        n = g.shape[1 + a]
        idx = np.arange(-H, n + H)
        if z.periodic(a):
            out = np.take(out, idx % n, axis=1 + a)
            continue
        lo_kind, hi_kind = z.boundary[2 * a], z.boundary[2 * a + 1]
        low, high = idx < 0, idx >= n
        src = np.where(low, -1 - idx if lo_kind == "wall" else 0, idx)
        src = np.where(high, 2 * n - 1 - idx if hi_kind == "wall" else n - 1, src)
        out = np.take(out, src, axis=1 + a)
        for kind, band in ((lo_kind, low), (hi_kind, high)):
            sel = [slice(None)] * 3
            sel[a] = band
            if kind == "wall":
                out[(1 + a, *sel)] = -out[(1 + a, *sel)]
            elif kind == "inflow":
                out[(slice(None), *sel)] = FREESTREAM.reshape(5, 1, 1, 1)
    return out


def reference_windows(z, g, blocks) -> dict:
    """Extended arrays each block must hold after an exchange: windows of
    the single-block reference."""
    ref = reference_extended(z, g)
    return {b.id: ref[(slice(None),) + tuple(
        slice(l, h + 2 * H) for l, h in zip(b.lo, b.hi))] for b in blocks}


def assert_grown_windows(plan, fields, want) -> None:
    """Each block's array holds exactly its grown box, and that box holds
    its window of a single-block reference: ``want[block id]``, an
    extended window, without its ghosts along the periodic axes that the
    block spans whole."""
    for b in plan.blocks:
        data = fields[b.id].data
        grow = margins(plan.zone, b)
        assert data.shape == (5,) + tuple(
            n + 2 * m for n, m in zip(b.shape, grow)), b
        box = (slice(None),) + tuple(slice(H - m, H + n + m)
                                     for n, m in zip(b.shape, grow))
        assert np.array_equal(data, want[b.id][box]), b


def wrap_window(g, block) -> np.ndarray:
    """Extended array a block must hold after exchange on an all-periodic
    zone: the global state sampled with wraparound over the halo margin."""
    out = g
    for a in range(3):
        n = g.shape[1 + a]
        idx = (np.arange(block.lo[a] - H, block.hi[a] + H) % n)
        out = np.take(out, idx, axis=1 + a)
    return out


# ---------------------------------------------------------------------------
# Message tags

def test_tag_layout_frozen():
    assert message_tag(3, 5) == (3 << 21) | 5
    assert message_tag(2048, 9) == message_tag(0, 9)     # epoch wraps
    assert RESERVED_INDEX == (1 << 21) - 16
    assert REDUCE_INDEX == RESERVED_INDEX
    assert BCAST_INDEX == RESERVED_INDEX + 8


def test_tag_index_overflow_rejected():
    with pytest.raises(HaloPlanError):
        message_tag(0, 1 << 21)


# ---------------------------------------------------------------------------
# Plan construction

def test_abutting_blocks_swap_one_face_each_way():
    plan = plan_for((32, 16, 16), blocks=2)
    hp = build_halo_plan(plan)
    assert len(hp.pairs) == 2
    assert {(p.src_block, p.dst_block) for p in hp.pairs} == {(0, 1), (1, 0)}
    for p in hp.pairs:
        assert len(p.regions) == 1
        (r,) = p.regions
        assert r.shape == (5, 16, 16)
        assert r.cells == 5 * 16 * 16
        assert p.nbytes == r.cells * 5 * 8


def region_count(hp) -> int:
    return sum(len(p.regions) for p in hp.pairs)


def shell_cover(hp, zone, block):
    """How many regions write each cell of a block's array; every region
    lies inside it."""
    count = np.zeros(grown_shape(zone, block)[1:], dtype=int)
    for p in hp.pairs:
        for r in p.regions:
            if r.dst_block == block.id:
                assert all(0 <= s and s + n <= m for s, n, m in
                           zip(r.dst_start, r.shape, count.shape)), r
                count[r.dst_slices[1:]] += 1
    return count


def test_eight_block_traffic_frozen():
    # 48^3 cut into 2 x 2 x 2 blocks on two ranks: each block takes its
    # 34^3 - 24^3 ghost shell from the seven others in 26 boxes.
    case = replace(wave_case(48, blocks=8), ranks=2,
                   topology=NodeTopology(1, 2, 0))
    hp = build_halo_plan(case_plan(case))
    assert len(hp.pairs) == 56 and region_count(hp) == 208
    assert sum(p.nbytes for p in hp.pairs) == 8 * (34 ** 3 - 24 ** 3) * 5 * 8
    assert sum(p.nbytes for p in hp.pairs) == 8_153_600


@pytest.mark.parametrize("case", [sod_case(200, 4), wave_case(48)],
                         ids=["sod200", "wave48"])
def test_one_block_spanning_its_periodic_axes_has_no_traffic(case):
    # Sod's block spans periodic y and z whole, wave's all three axes: the
    # grown boxes leave no ghost to copy, and the plan no pair.
    plan = case_plan(case)
    hp = build_halo_plan(plan)
    assert len(plan.blocks) == 1 and hp.pairs == []
    fields = allocate_fields(plan)
    assert HaloExchanger(hp, plan, freestream=FREESTREAM).run(
        0, fields, epoch=0) == ExchangeTotals(0, 0, 0)


@pytest.mark.parametrize("case, pairs, regions, nbytes, remote", [
    # Two 8 x 8 x 4 blocks that span x and y whole: along z each feeds the
    # other four planes per side and, being narrower than the halo, itself
    # the fifth.
    (with_ranks(wave_case(8), 2), 4, 8, 51_200, 40_960),
    # One x slab per device, spanning y and periodic z whole: its x bands
    # stop at the z interior.
    (corner_case(2, columns=100, cross=20), 18, 18, 1_440_000, 160_000),
], ids=["wave8-2r", "corner2"])
def test_traffic_of_blocks_spanning_a_periodic_axis_frozen(
        case, pairs, regions, nbytes, remote):
    hp = build_halo_plan(case_plan(case))
    assert len(hp.pairs) == pairs and region_count(hp) == regions
    assert sum(p.nbytes for p in hp.pairs) == nbytes
    assert sum(p.nbytes for p in hp.pairs if not p.local) == remote


def test_naive_plan_gives_each_remote_region_a_pair():
    # The same layout without coalescing: local pairs are copies, not
    # messages, so they stay whole; every region that crosses ranks is a
    # pair of its own, in the coalesced plan's order.
    case = replace(wave_case(48, blocks=8), ranks=2,
                   topology=NodeTopology(1, 2, 0))
    plan = case_plan(case)
    tuned, naive = build_halo_plan(plan), build_halo_plan(plan, False)
    assert len(naive.pairs) == 168 and region_count(naive) == 208
    assert sum(p.nbytes for p in naive.pairs) == 8_153_600
    assert [p.index for p in naive.pairs] == list(range(168))
    keys = [(p.src_block, p.dst_block, p.regions[0].dst_start)
            for p in naive.pairs]
    assert keys == sorted(keys)

    def whole(p):
        return p.src_block, p.dst_block, p.src_rank, p.dst_rank, p.regions

    for r in range(2):
        assert len(naive.local_of(r)) == 12
        assert [whole(p) for p in naive.local_of(r)] == \
            [whole(p) for p in tuned.local_of(r)]
        assert len(naive.sends_of(r)) == len(naive.recvs_of(1 - r)) == 72
        assert [whole(p) for p in naive.sends_of(r)] == [
            (p.src_block, p.dst_block, p.src_rank, p.dst_rank, (reg,))
            for p in tuned.sends_of(r) for reg in p.regions]

    g = global_state((48, 48, 48), seed=5)
    runs = {}
    for coalesce in (True, False):
        fields = seed_fields(plan, g)
        runs[coalesce] = exchange_all(plan, fields, coalesce), fields
    (tuned_totals, tuned_fields), (naive_totals, naive_fields) = \
        runs[True], runs[False]
    assert tuned_totals == [ExchangeTotals(16, 1_849_600, 32)] * 2
    assert naive_totals == [ExchangeTotals(72, 1_849_600, 32)] * 2
    for bid in tuned_fields:
        assert np.array_equal(naive_fields[bid].data, tuned_fields[bid].data)


def test_single_periodic_block_keeps_no_ghosts():
    # The block spans every periodic axis whole, so its grown box is its
    # interior: no region, no face, and an epoch writes nothing.
    plan = plan_for((16, 16, 16), 1, boundary=PERIODIC)
    hp = build_halo_plan(plan)
    assert hp.pairs == [] and hp.bc_faces[0] == ()
    assert margins(plan.zone, plan.blocks[0]) == (0, 0, 0)
    g = global_state((16, 16, 16), seed=10)
    fields = nan_fields(plan, g)
    assert fields[0].data.shape == (5, 16, 16, 16)
    totals = HaloExchanger(hp, plan).run(0, fields, epoch=0)
    assert totals == ExchangeTotals(0, 0, 0)
    assert_grown_windows(plan, fields, {0: wrap_window(g, plan.blocks[0])})


def test_single_outflow_block_has_six_faces():
    hp = build_halo_plan(plan_for((16, 16, 16), 1))
    assert hp.pairs == []
    assert len(hp.bc_faces[0]) == 6
    assert [(f.axis, f.side) for f in hp.bc_faces[0]] == [
        (a, s) for a in range(3) for s in (0, 1)]
    assert all(f.depth == H for f in hp.bc_faces[0])


def test_narrow_neighbor_exchanges_exactly():
    # Blocks narrower than the halo, here 5, 4, 1, 6 cells wide along x,
    # read through their neighbors into the blocks beyond.
    z = zone((16, 16, 16))
    blocks = grid_blocks(([5, 4, 1, 6], [16], [16]))
    plan = make_plan(z, blocks, 1, NodeTopology(1, 4, 0))
    hp = build_halo_plan(plan)
    # The 1-wide block is fed by both neighbors on each side.
    assert sorted(p.src_block for p in hp.pairs if p.dst_block == 2) == [0, 1, 3]
    g = global_state((16, 16, 16), seed=11)
    fields = nan_fields(plan, g)
    exchange_all(plan, fields)
    want = reference_windows(z, g, plan.blocks)
    for b in plan.blocks:
        assert np.array_equal(fields[b.id].data, want[b.id])


def test_face_fill_reaches_blocks_that_miss_the_face():
    # A block at x in [2, 4) has ghost cells at x < 0 without touching the
    # x-lo face: the face band is clipped to its array.
    z = zone((6, 6, 6), boundary=("wall", "outflow", "periodic",
                                  "periodic", "outflow", "inflow"))
    plan = make_plan(z, grid_blocks(([2, 2, 1, 1], [6], [6])), 1,
                     NodeTopology(1, 4, 0))
    hp = build_halo_plan(plan)
    faces = {b: [(f.axis, f.side, f.depth) for f in hp.bc_faces[b] if f.axis == 0]
             for b in range(4)}
    assert faces == {0: [(0, 0, 5), (0, 1, 1)], 1: [(0, 0, 3), (0, 1, 3)],
                     2: [(0, 0, 1), (0, 1, 4)], 3: [(0, 1, 5)]}
    # Every block spans the periodic y axis whole: its arrays, and so its
    # bands, have no y ghosts.
    assert all(margins(z, b) == (H, 0, H) for b in plan.blocks)
    g = global_state((6, 6, 6), seed=12)
    fields = nan_fields(plan, g)
    exchange_all(plan, fields)
    assert_grown_windows(plan, fields, reference_windows(z, g, plan.blocks))


def test_wall_on_narrow_axis_rejected():
    boundary = ("outflow", "outflow", "wall", "wall", "periodic", "periodic")
    build_halo_plan(plan_for((8, H, 8), 1, boundary=boundary))
    with pytest.raises(HaloPlanError, match="zone has a wall face on axis 1"):
        build_halo_plan(plan_for((8, H - 1, 8), 1, boundary=boundary))
    # Outflow and inflow read only the first interior plane.
    build_halo_plan(plan_for((8, 1, 8), 1, boundary=(
        "outflow", "outflow", "inflow", "outflow", "periodic", "periodic")))


def direction(region, zone, block) -> tuple[int, int, int]:
    """Side of the block's interior where a region's ghost box lies, per
    axis: -1 below, 0 level with it, +1 above."""
    return tuple(-1 if s < m else (1 if s >= m + n else 0)
                 for s, m, n in zip(region.dst_start, margins(zone, block),
                                    block.shape))


def test_mirror_symmetry_on_random_plans():
    # With blocks at least H wide, what a feeds b in one direction b feeds a
    # in the opposite one, box for box.
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(200):
        shape = tuple(int(rng.integers(10, 25)) for _ in range(3))
        per_axis = [rng.random() < 0.5 for _ in range(3)]
        boundary = tuple(
            "periodic" if per_axis[a] else "outflow"
            for a in range(3) for _ in (0, 1))
        blocks = int(rng.choice([1, 2, 4, 8]))
        plan = plan_for(shape, blocks, boundary=boundary)
        if min(min(b.shape) for b in plan.blocks) < H:
            continue
        by_id = {b.id: b for b in plan.blocks}
        hp = build_halo_plan(plan)
        directed = {(p.src_block, p.dst_block): p for p in hp.pairs}
        for (s, d), p in directed.items():
            back = directed[(d, s)]
            fwd = sorted((direction(r, plan.zone, by_id[d]), r.shape)
                         for r in p.regions)
            rev = sorted((tuple(-o for o in direction(r, plan.zone,
                                                       by_id[s])), r.shape)
                         for r in back.regions)
            assert fwd == rev
        checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# Packing

def test_pack_unpack_region_round_trip():
    plan = plan_for((32, 16, 16), 2)
    hp = build_halo_plan(plan)
    rng = np.random.default_rng(1)
    fields = allocate_fields(plan)
    for f in fields.values():
        f.data[...] = rng.normal(size=f.data.shape)
    for p in hp.pairs:
        for r in p.regions:
            payload = pack_region(r, fields)
            assert payload.shape == (r.cells * 5,)
            blank = {i: BlockField.allocate(b.block, plan.zone)
                     for i, b in fields.items()}
            unpack_region(r, blank, payload.copy())
            got = blank[r.dst_block].data[r.dst_slices]
            want = fields[r.src_block].data[r.src_slices]
            assert np.array_equal(got, want)


def test_pack_pair_concatenates_regions():
    plan = plan_for((32, 16, 16), 2, boundary=PERIODIC)
    hp = build_halo_plan(plan)
    rng = np.random.default_rng(2)
    fields = allocate_fields(plan)
    for f in fields.values():
        f.data[...] = rng.normal(size=f.data.shape)
    for p in hp.pairs:
        payload = pack_pair(p, fields)
        assert payload.nbytes == p.nbytes == p.cells * 5 * 8
        blank = {i: BlockField.allocate(f.block, plan.zone)
                 for i, f in fields.items()}
        unpack_pair(p, blank, payload)
        for r in p.regions:
            assert np.array_equal(blank[r.dst_block].data[r.dst_slices],
                                  fields[r.src_block].data[r.src_slices])


def test_unpack_rejects_a_truncated_payload():
    # A one-region pair unpacks with ``unpack_region``, a pair of many
    # regions with ``unpack_pair``: both check the size before they write.
    for boundary, many in ((OUTFLOW, False), (PERIODIC, True)):
        plan = plan_for((32, 16, 16), 2, boundary=boundary)
        (pair,) = [p for p in build_halo_plan(plan).pairs
                   if (p.src_block, p.dst_block) == (0, 1)]
        assert (len(pair.regions) > 1) == many
        n = pair.cells * 5
        fields = allocate_fields(plan)
        with pytest.raises(HaloPlanError, match=rf"blocks 0->1 has {n - 1} "
                           rf"values, its regions cover {n}$"):
            if many:
                unpack_pair(pair, fields, np.ones(n - 1))
            else:
                unpack_region(pair.regions[0], fields, np.ones(n - 1))
        assert not fields[1].data.any()


# ---------------------------------------------------------------------------
# Ghost fills

def test_self_pair_copies_opposite_band():
    # A 6 x 1 x 1 periodic zone in two blocks of 3 x 1 x 1: along x the
    # halo reaches through the other block into the block itself; the
    # 1-cell axes, which each block spans whole, keep no ghosts.
    plan = plan_for((6, 1, 1), 2, boundary=PERIODIC)
    hp = build_halo_plan(plan)
    assert [(p.src_block, p.dst_block) for p in hp.local_of(0)] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    g = np.zeros((5, 6, 1, 1))
    g[:, :, 0, 0] = np.arange(1.0, 7.0)
    fields = nan_fields(plan, g)
    totals = HaloExchanger(hp, plan).run(0, fields, epoch=0)
    assert totals == ExchangeTotals(0, 0, 8)
    data = fields[0].data
    assert data.shape == (5, 3 + 2 * H, 1, 1)
    assert np.array_equal(data[0, :H, 0, 0], np.arange(2.0, 7.0))
    assert np.array_equal(data[0, H + 3:, 0, 0], np.arange(4.0, 7.0).tolist()
                          + [1.0, 2.0])
    assert_grown_windows(plan, fields,
                         {b.id: wrap_window(g, b) for b in plan.blocks})


def test_outflow_fill_copies_edge_plane():
    data = np.zeros((5, 6 + 2 * H, 3 + 2 * H, 3 + 2 * H))
    rng = np.random.default_rng(3)
    data[:, H:-H, H:-H, H:-H] = rng.normal(size=(5, 6, 3, 3))
    boundary_fill(data, BoundaryFace(axis=0, side=0, kind="outflow"), None)
    for i in range(H):
        assert np.array_equal(data[:, i], data[:, H])


def test_wall_fill_mirrors_and_flips_normal_momentum():
    data = np.zeros((5, 3 + 2 * H, 6 + 2 * H, 3 + 2 * H))
    rng = np.random.default_rng(4)
    data[:, H:-H, H:-H, H:-H] = rng.normal(size=(5, 3, 6, 3))
    before = data.copy()
    boundary_fill(data, BoundaryFace(axis=1, side=0, kind="wall"), None)
    for i in range(H):
        ghost = data[:, :, H - 1 - i]
        mirror = before[:, :, H + i]
        assert np.array_equal(ghost[0], mirror[0])          # density
        assert np.array_equal(ghost[2], -mirror[2])         # normal momentum
        assert np.array_equal(ghost[1], mirror[1])          # tangential
        assert np.array_equal(ghost[4], mirror[4])          # energy


def test_inflow_fill_uses_freestream():
    data = np.zeros((5, 3 + 2 * H, 3 + 2 * H, 3 + 2 * H))
    w = np.array([1.0, 2.0, 0.5, -0.5, 9.0])
    boundary_fill(data, BoundaryFace(axis=0, side=0, kind="inflow"), w)
    for i in range(H):
        assert np.array_equal(data[:, i], np.broadcast_to(
            w.reshape(5, 1, 1), data[:, i].shape))


def test_inflow_without_freestream_rejected():
    boundary = ("inflow", "outflow", "wall", "outflow", "periodic", "periodic")
    plan = plan_for((16, 16, 16), 1, boundary=boundary)
    hp = build_halo_plan(plan)
    fields = allocate_fields(plan)
    with pytest.raises(HaloPlanError):
        fill_block_ghosts(fields[0].data, 0, hp, None)


# ---------------------------------------------------------------------------
# Exchange epochs: local (one rank)

def test_uniform_exchange_leaves_no_seams():
    plan = plan_for((16, 16, 16), 8, boundary=PERIODIC)
    hp = build_halo_plan(plan)
    w = np.array([1.0, 0.3, -0.2, 0.1, 2.5]).reshape(5, 1, 1, 1)
    fields = allocate_fields(plan)
    for f in fields.values():
        f.interior[...] = w
    ex = HaloExchanger(hp, plan)
    totals = ex.run(0, fields, epoch=0)
    assert totals == ExchangeTotals(0, 0, region_count(hp))
    for f in fields.values():
        assert np.array_equal(f.data, np.broadcast_to(w, f.data.shape))


def test_eight_blocks_reproduce_single_block_windows():
    g = global_state((16, 16, 16), seed=5)
    plan8 = plan_for((16, 16, 16), 8, boundary=PERIODIC)
    hp8 = build_halo_plan(plan8)
    fields8 = seed_fields(plan8, g)
    HaloExchanger(hp8, plan8).run(0, fields8, epoch=0)
    for b in plan8.blocks:
        assert np.array_equal(fields8[b.id].data, wrap_window(g, b))


def test_hook_leaves_local_exchange_unchanged():
    g = global_state((16, 16, 16), seed=6)
    plan = plan_for((16, 16, 16), 8, boundary=PERIODIC)
    hp = build_halo_plan(plan)
    runs = []
    calls = []
    for hook in (None, lambda: calls.append(1)):
        fields = seed_fields(plan, g)
        HaloExchanger(hp, plan).run(0, fields, epoch=0, overlap_hook=hook)
        runs.append(fields)
    assert calls == [1]
    for bid in runs[0]:
        assert np.array_equal(runs[0][bid].data, runs[1][bid].data)


# ---------------------------------------------------------------------------
# Exchange epochs: two ranks over a transport

def run_two_ranks(coalesce, hook=None, seed=7):
    """Exchange on two ranks with NaN ghosts; ``hook(rank, fields)`` is each
    rank's overlap hook when given.  Four blocks of 16 x 16 x 8 span the
    periodic y axis whole; each rank holds two, which feed each other
    along z."""
    g = global_state((32, 16, 16), seed=seed)
    plan = plan_for((32, 16, 16), 4, ranks=2, boundary=PERIODIC)
    assert [b.shape for b in plan.blocks] == [(16, 16, 8)] * 4
    hp = build_halo_plan(plan, coalesce)
    transport = InProcessTransport(2)
    per_rank = {r: {} for r in range(2)}
    for b in plan.blocks:
        f = BlockField.allocate(b, plan.zone)
        f.data[...] = np.nan
        sl = tuple(slice(l, h) for l, h in zip(b.lo, b.hi))
        f.interior[...] = g[(slice(None),) + sl]
        per_rank[plan.rank_of_block[b.id]][b.id] = f
    ex = HaloExchanger(hp, plan, transport=transport)
    with ThreadPoolExecutor(2) as pool:
        futs = {r: pool.submit(ex.run, r, per_rank[r], 0, overlap_hook=(
                    None if hook is None
                    else lambda r=r: hook(r, per_rank[r])))
                for r in range(2)}
        stats = {r: futs[r].result(timeout=60) for r in range(2)}
    return g, plan, hp, per_rank, stats


def test_hook_runs_before_remote_ghosts_arrive():
    # The hook sees the interiors and the local copies in place, and the
    # ghost cells that messages fill still unwritten.
    seen = {}

    def hook(rank, fields):
        seen[rank] = {bid: f.data.copy() for bid, f in fields.items()}

    _, _, hp, per_rank, _ = run_two_ranks(True, hook)
    for r in range(2):
        assert hp.recvs_of(r) and hp.local_of(r)
        for bid, f in per_rank[r].items():
            assert np.array_equal(BlockField(f.block, seen[r][bid]).interior,
                                  f.interior)
        for p in hp.local_of(r):
            for reg in p.regions:
                assert np.array_equal(seen[r][p.dst_block][reg.dst_slices],
                                      per_rank[r][p.dst_block]
                                      .data[reg.dst_slices])
        for p in hp.recvs_of(r):
            for reg in p.regions:
                assert np.isnan(seen[r][p.dst_block][reg.dst_slices]).all()


def test_two_rank_exchange_fills_correct_ghosts():
    g, plan, hp, per_rank, stats = run_two_ranks(True)
    fields = {b.id: per_rank[plan.rank_of_block[b.id]][b.id]
              for b in plan.blocks}
    assert_grown_windows(plan, fields,
                         {b.id: wrap_window(g, b) for b in plan.blocks})


def test_coalesced_messages_one_per_pair():
    _, _, hp, _, stats = run_two_ranks(True)
    for r in range(2):
        sends = hp.sends_of(r)
        assert stats[r].messages == len(sends)
        assert stats[r].bytes == sum(p.nbytes for p in sends)
        # What a rank receives is what its one peer sent.
        recvs = hp.recvs_of(r)
        assert stats[1 - r].messages == len(recvs)
        assert stats[1 - r].bytes == sum(p.nbytes for p in recvs)


def test_naive_messages_one_per_region():
    _, _, hp, _, stats = run_two_ranks(False)
    for r in range(2):
        sends = hp.sends_of(r)
        assert stats[r].messages == sum(len(p.regions) for p in sends)
        assert stats[r].bytes == sum(p.nbytes for p in sends)


def test_hook_leaves_exchange_across_ranks_unchanged():
    base = None
    for hook in (None, lambda rank, fields: None):
        for coalesce in (True, False):
            _, plan, _, per_rank, _ = run_two_ranks(coalesce, hook)
            merged = {b.id: per_rank[plan.rank_of_block[b.id]][b.id].data
                      for b in plan.blocks}
            if base is None:
                base = merged
            else:
                for bid in base:
                    assert np.array_equal(base[bid], merged[bid])


def test_inter_rank_plan_requires_transport():
    plan = plan_for((32, 16, 16), 2, ranks=2, boundary=PERIODIC)
    hp = build_halo_plan(plan)
    fields = allocate_fields(plan)
    with pytest.raises(HaloPlanError):
        HaloExchanger(hp, plan).run(0, fields, epoch=0)


def test_single_cell_blocks_exchange_exactly():
    # 3^3 cut into 27 blocks of one cell: every ghost cell is its own
    # region, fed from a block up to five cells and two wraps away.
    plan = plan_for((3, 3, 3), 27, boundary=PERIODIC)
    assert all(b.shape == (1, 1, 1) for b in plan.blocks)
    hp = build_halo_plan(plan)
    assert region_count(hp) == 27 * (11 ** 3 - 1)
    g = global_state((3, 3, 3), seed=13)
    fields = nan_fields(plan, g)
    HaloExchanger(hp, plan).run(0, fields, epoch=0)
    for b in plan.blocks:
        assert np.array_equal(fields[b.id].data, wrap_window(g, b))


# ---------------------------------------------------------------------------
# Blocks meeting at edges and corners

def four_block_plan():
    return plan_for((16, 16, 8), 4)          # 2 x 2 x 1 tiling


def test_four_blocks_meeting_at_an_edge():
    plan = four_block_plan()
    hp = build_halo_plan(plan)
    assert len(hp.pairs) == 12              # every block feeds the other three
    for p in hp.pairs:
        (r,) = p.regions
        a, b = plan.blocks[p.src_block], plan.blocks[p.dst_block]
        diagonal = a.lo[0] != b.lo[0] and a.lo[1] != b.lo[1]
        assert r.shape == ((5, 5, 8) if diagonal
                           else (5, 8, 8) if a.lo[0] != b.lo[0] else (8, 5, 8))


def test_each_ghost_cell_has_one_source():
    # Random tilings with narrow blocks: regions never write a cell twice,
    # never write an interior cell or reach past the block's array, and
    # write every ghost cell inside the zone; the rest lie past a
    # non-periodic face, in that face's band.
    rng = np.random.default_rng(14)
    for _ in range(30):
        shape = tuple(int(rng.integers(1, 12)) for _ in range(3))
        boundary = tuple(t for a in range(3)
                         for t in [("periodic", "outflow")[rng.integers(2)]] * 2)
        z = zone(shape, boundary)
        target = int(np.prod([rng.integers(1, min(n, 3) + 1) for n in shape]))
        blocks = grid_blocks(split_zone(z, target))
        plan = blocks_plan(z, blocks)
        hp = build_halo_plan(plan)
        for b in blocks:
            grow = margins(z, b)
            count = shell_cover(hp, z, b)
            assert count[tuple(slice(m, m + n) for n, m in
                               zip(b.shape, grow))].max() == 0
            for cell in zip(*np.nonzero(count != 1)):
                c = [l - m + i for l, m, i in zip(b.lo, grow, cell)]
                inside = all(l <= x < h for l, x, h in zip(b.lo, c, b.hi))
                if inside:
                    continue
                assert count[cell] == 0
                past = [a for a in range(3)
                        if not z.periodic(a) and not 0 <= c[a] < shape[a]]
                assert past
                assert all(any(f.axis == a for f in hp.bc_faces[b.id])
                           for a in past)


def test_sharers_agree_after_exchange():
    # Cells several blocks read agree in every reader: each block holds the
    # window of the single-block field, corners included.
    plan = four_block_plan()
    z = plan.zone
    g = global_state((16, 16, 8), seed=8)
    fields = nan_fields(plan, g)
    exchange_all(plan, fields)
    assert_grown_windows(plan, fields, reference_windows(z, g, plan.blocks))


# ---------------------------------------------------------------------------
# Property: any tiling, any ranks, any faces

@st.composite
def random_plans(draw, extent=st.integers(1, 13), cuts=7):
    """A zone of ``extent`` cells per axis (1-13 by default) with mixed
    faces (walls only on axes at least H wide), a random guillotine tiling
    of up to ``cuts`` cuts into blocks of width >= 1, and a random
    block-to-rank map."""
    shape = tuple(draw(extent) for _ in range(3))
    boundary = []
    for n in shape:
        kinds = ["periodic", "outflow", "inflow"] + (["wall"] if n >= H else [])
        lo = draw(st.sampled_from(kinds))
        hi = "periodic" if lo == "periodic" else draw(
            st.sampled_from([k for k in kinds if k != "periodic"]))
        boundary += [lo, hi]
    z = zone(shape, tuple(boundary))
    boxes = [((0, 0, 0), shape)]
    for _ in range(draw(st.integers(0, cuts))):
        i = draw(st.integers(0, len(boxes) - 1))
        lo, hi = boxes[i]
        axes = [a for a in range(3) if hi[a] - lo[a] > 1]
        if not axes:
            continue
        a = draw(st.sampled_from(axes))
        cut = draw(st.integers(lo[a] + 1, hi[a] - 1))
        boxes[i:i + 1] = [(lo, hi[:a] + (cut,) + hi[a + 1:]),
                          (lo[:a] + (cut,) + lo[a + 1:], hi)]
    blocks = [Block(i, lo, hi) for i, (lo, hi) in enumerate(boxes)]
    ranks = draw(st.integers(1, 3))
    rank_of_block = [draw(st.integers(0, ranks - 1)) for _ in blocks]
    return z, blocks, rank_of_block, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(random_plans(), st.integers(0, 2 ** 32 - 1))
def test_exchange_matches_single_block_on_random_plans(drawn, seed):
    z, blocks, rank_of_block, coalesce = drawn
    plan = blocks_plan(z, blocks, rank_of_block)
    # The per-rank indexes equal plain filters, in plan order.
    hp = build_halo_plan(plan)
    for r in range(plan.ranks + 1):
        assert plan.blocks_of_rank(r) == [b for b in plan.blocks
                                          if plan.rank_of_block[b.id] == r]
        assert plan.groups_of_rank(r) == [g for g in plan.groups
                                          if g.rank == r]
        assert hp.sends_of(r) == [p for p in hp.pairs
                                  if p.src_rank == r and not p.local]
        assert hp.recvs_of(r) == [p for p in hp.pairs
                                  if p.dst_rank == r and not p.local]
        assert hp.local_of(r) == [p for p in hp.pairs
                                  if p.local and p.src_rank == r]
    g = global_state(z.shape, seed=seed)
    fields = nan_fields(plan, g)
    exchange_all(plan, fields, coalesce=coalesce)
    assert_grown_windows(plan, fields, reference_windows(z, g, blocks))


# ---------------------------------------------------------------------------
# Transports

def test_inproc_fifo_per_key():
    tr = InProcessTransport(2)
    for v in (1.0, 2.0):
        tr.send(Message(tag=9, source=0, dest=1, payload=np.array([v])))
    assert tr.recv(9, 0, 1, timeout=5).payload[0] == 1.0
    assert tr.recv(9, 0, 1, timeout=5).payload[0] == 2.0


def test_inproc_timeout_raises():
    tr = InProcessTransport(2)
    with pytest.raises(TransportError) as err:
        tr.recv(tag=3, source=1, dest=0, timeout=0.05)
    assert err.value.tag == 3


def test_inproc_lost_source_fails_receives_at_once():
    """Messages a lost rank filed are still delivered; a receive that finds
    none, already waiting or not, raises at once naming both ranks."""
    tr = InProcessTransport(2)
    tr.send(Message(tag=3, source=1, dest=0, payload=np.array([1.0])))
    waiting = []

    def wait_for_never_sent():
        try:
            tr.recv(tag=4, source=1, dest=0, timeout=30.0)
        except TransportError as exc:
            waiting.append(exc)

    waiter = threading.Thread(target=wait_for_never_sent)
    waiter.start()
    t_start = time.monotonic()
    tr.lose(1, "RuntimeError: boom")
    waiter.join(timeout=5.0)
    assert not waiter.is_alive() and len(waiting) == 1
    assert tr.recv(tag=3, source=1, dest=0).payload[0] == 1.0
    with pytest.raises(TransportError, match=r"rank 1 is lost \(RuntimeError: "
                       r"boom\); rank 0 was waiting") as err:
        tr.recv(tag=5, source=1, dest=0, timeout=30.0)
    assert err.value.tag == 5
    assert time.monotonic() - t_start < 5.0


def test_inproc_rejects_unknown_rank():
    tr = InProcessTransport(2)
    with pytest.raises(TransportError):
        tr.send(Message(tag=0, source=0, dest=5, payload=np.zeros(1)))


def test_wire_format_frozen():
    assert HEADER.format == "<IIIQ"
    assert HEADER.size == 20
    assert MAGIC == b"WCNSFL01"


def test_socket_dial_waits_for_a_late_listener():
    """Rank 1 is built and sends before rank 0 exists; the message arrives."""
    addrs = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
    t1 = SocketTransport(1, addrs, timeout=30.0)
    payload = np.arange(5.0)
    errors = []

    def send():
        try:
            t1.send(Message(tag=3, source=1, dest=0, payload=payload))
        except TransportError as exc:
            errors.append(exc)

    sender = threading.Thread(target=send)
    t0 = None
    try:
        sender.start()
        time.sleep(0.3)              # rank 1 dials while nothing listens
        t0 = SocketTransport(0, addrs, timeout=30.0)
        got = t0.recv(tag=3, source=1, dest=0, timeout=30.0)
        sender.join(timeout=30.0)
        assert not sender.is_alive() and errors == []
        assert np.array_equal(got.payload, payload)
    finally:
        t1.close()
        if t0 is not None:
            t0.close()


def test_a_stray_connection_takes_no_dialling_rank_place():
    """Connections to rank 0's port that close before their handshake,
    send a wrong magic or name a rank that does not dial rank 0 are
    dropped; rank 1 dials in after them, and its message arrives in well
    under the transport's 3 s timeout."""
    addrs = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
    t0 = SocketTransport(0, addrs, timeout=3.0)
    t1 = None
    try:
        socket.create_connection(addrs[0]).close()
        for head in (b"NOTMAGIC" + struct.pack("<I", 1),
                     MAGIC + struct.pack("<I", 5)):
            with socket.create_connection(addrs[0]) as stray:
                stray.sendall(head)
        t1 = SocketTransport(1, addrs, timeout=3.0)
        t_start = time.monotonic()
        t1.send(Message(tag=3, source=1, dest=0, payload=np.arange(2.0)))
        got = t0.recv(tag=3, source=1, dest=0)
        assert time.monotonic() - t_start < 1.0
        assert np.array_equal(got.payload, np.arange(2.0))
    finally:
        t0.close()
        if t1 is not None:
            t1.close()


def test_socket_dial_gives_up_naming_the_peer():
    addrs = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
    t1 = SocketTransport(1, addrs, timeout=0.3)
    try:
        t_start = time.monotonic()
        with pytest.raises(TransportError, match="connect to rank 0"):
            t1.send(Message(tag=3, source=1, dest=0, payload=np.zeros(1)))
        assert time.monotonic() - t_start < 5.0
    finally:
        t1.close()


def test_socket_round_trip():
    addrs = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
    t0 = SocketTransport(0, addrs, timeout=30.0)
    t1 = SocketTransport(1, addrs, timeout=30.0)
    try:
        payload = np.arange(4.0)
        t1.send(Message(tag=7, source=1, dest=0, payload=payload))
        got = t0.recv(tag=7, source=1, dest=0, timeout=30.0)
        assert np.array_equal(got.payload, payload)
        t0.send(Message(tag=8, source=0, dest=1, payload=payload * 2))
        back = t1.recv(tag=8, source=0, dest=1, timeout=30.0)
        assert np.array_equal(back.payload, payload * 2)
        t0.send(Message(tag=9, source=0, dest=0, payload=payload))
        assert np.array_equal(
            t0.recv(tag=9, source=0, dest=0, timeout=30.0).payload, payload)
    finally:
        t0.close()
        t1.close()


def test_socket_recv_from_a_closed_peer_names_it():
    """A peer that closes wakes a receiver already waiting on it and fails
    later receives within seconds, naming the rank; messages it sent before
    closing are still delivered."""
    addrs = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
    t0 = SocketTransport(0, addrs, timeout=30.0)
    t1 = SocketTransport(1, addrs, timeout=30.0)
    waiting = []

    def wait_for_never_sent():
        try:
            t0.recv(tag=99, source=1, dest=0)
        except TransportError as exc:
            waiting.append(exc)

    waiter = threading.Thread(target=wait_for_never_sent)
    try:
        payload = np.arange(3.0)
        t1.send(Message(tag=3, source=1, dest=0, payload=payload))
        t1.send(Message(tag=4, source=1, dest=0, payload=payload * 2))
        waiter.start()
        t_start = time.monotonic()
        t1.close()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert len(waiting) == 1 and "rank 1" in str(waiting[0])
        assert np.array_equal(t0.recv(tag=3, source=1, dest=0).payload,
                              payload)
        assert np.array_equal(t0.recv(tag=4, source=1, dest=0).payload,
                              payload * 2)
        with pytest.raises(TransportError, match="rank 1") as err:
            t0.recv(tag=5, source=1, dest=0)
        assert err.value.tag == 5
        assert time.monotonic() - t_start < 5.0
    finally:
        t1.close()
        t0.close()


def test_halo_receive_honours_the_transport_timeout():
    """Rank 1 connects but never sends ghosts: rank 0's exchange gives up
    after the transport's 1 s timeout, not a longer one of its own."""
    plan = plan_for((32, 16, 16), 2, ranks=2, boundary=PERIODIC)
    addrs = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
    t0 = SocketTransport(0, addrs, timeout=1.0)
    t1 = SocketTransport(1, addrs, timeout=1.0)
    exchanger = HaloExchanger(build_halo_plan(plan), plan, transport=t0)
    fields = {b.id: BlockField.allocate(b, plan.zone)
              for b in plan.blocks_of_rank(0)}
    errors = []

    def rank0():
        try:
            exchanger.run(0, fields, 0)
        except TransportError as exc:
            errors.append(exc)

    waiter = threading.Thread(target=rank0, daemon=True)
    try:
        t1.send(Message(tag=message_tag(1, 0), source=1, dest=0,
                        payload=np.zeros(1)))
        t_start = time.monotonic()
        waiter.start()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert time.monotonic() - t_start < 5.0
        assert len(errors) == 1 and "timed out after 1s" in str(errors[0])
    finally:
        t0.close()
        t1.close()
