"""Zone splitting, device regrouping, and plan files."""

import sys

import numpy as np
import pytest

from wcnsflow import partition
from wcnsflow.cases import corner_case
from wcnsflow.errors import CaseFormatError, PartitionError
from wcnsflow.halo import build_halo_plan
from wcnsflow.model import model_schedule
from wcnsflow.partition import (Block, NodeTopology, ZoneSpec, check_tiling,
                                ghost_slabs, ghost_sources, grid_blocks,
                                make_plan, margins, plan_from_text,
                                plan_to_text, split_zone)
from wcnsflow.runner import run_case
from wcnsflow.wcns import HALO_WIDTH

H = HALO_WIDTH

TOPO_1CPU = NodeTopology(nodes=1, cpu_per_node=1, coproc_per_node=0)
TOPO_DESK = NodeTopology(nodes=1, cpu_per_node=2, coproc_per_node=3)


def zone(shape, boundary=("outflow",) * 6):
    return ZoneSpec(shape=shape,
                    spacing=tuple(1.0 / s for s in shape), boundary=boundary)


def split(z, count):
    """The blocks of ``split_zone(z, count)``."""
    return grid_blocks(split_zone(z, count))


def x_slabs(z, widths):
    """Blocks of the given widths along x, each spanning y and z whole."""
    return grid_blocks((widths, [z.shape[1]], [z.shape[2]]))


# ---------------------------------------------------------------------------
# split_zone

def cover_counts(z, blocks):
    """Voxel cover count; an exact tiling is identically 1."""
    grid = np.zeros(z.shape, dtype=np.int16)
    for b in blocks:
        sl = tuple(slice(l, h) for l, h in zip(b.lo, b.hi))
        grid[sl] += 1
    return grid


def test_split_cube_into_octants():
    blocks = split(zone((64, 64, 64)), 8)
    assert len(blocks) == 8
    assert all(b.shape == (32, 32, 32) for b in blocks)
    assert sorted(b.id for b in blocks) == list(range(8))


def test_split_line_remainder_spreads():
    assert split_zone(zone((100, 1, 1)), 3) == ((34, 33, 33), (1,), (1,))
    blocks = split(zone((100, 1, 1)), 3)
    widths = sorted((b.shape[0] for b in blocks), reverse=True)
    assert widths == [34, 33, 33]
    assert all(b.shape[1:] == (1, 1) for b in blocks)


def test_split_single_block_is_whole_zone():
    z = zone((17, 9, 6))
    (b,) = split(z, 1)
    assert b.lo == (0, 0, 0) and b.hi == z.shape


def test_split_rejects_bad_argument_combos():
    z = zone((16, 16, 16))
    with pytest.raises(PartitionError):
        split_zone(z, 0)
    with pytest.raises(PartitionError):
        split_zone(z, z.cells + 1)


def test_split_allows_single_cell_blocks():
    z = zone((8, 8, 8))
    blocks = split(z, 512)
    assert len(blocks) == 512
    assert all(b.shape == (1, 1, 1) for b in blocks)
    assert cover_counts(z, blocks).min() == 1
    assert cover_counts(z, blocks).max() == 1
    check_tiling(blocks, z)


def test_split_tiles_exactly_500_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(500):
        shape = tuple(int(rng.integers(5, 41)) for _ in range(3))
        z = zone(shape)
        target = int(rng.integers(1, 13))
        try:
            blocks = split(z, target)
        except PartitionError:
            continue                     # no legal tiling for this pair
        grid = cover_counts(z, blocks)
        assert grid.min() == 1 and grid.max() == 1
        assert len({b.id for b in blocks}) == len(blocks)
        check_tiling(blocks, z)
        # Widths along each axis differ by at most one cell.
        for ax in range(3):
            widths = {b.shape[ax] for b in blocks}
            assert min(widths) >= 1 and max(widths) - min(widths) <= 1


def test_split_cuts_explicit_widths():
    z = zone((25, 10, 10))
    blocks = x_slabs(z, [5, 5, 5, 5, 5])
    assert [b.lo[0] for b in blocks] == [0, 5, 10, 15, 20]
    assert cover_counts(z, blocks).max() == 1
    with pytest.raises(PartitionError, match="gap"):
        check_tiling(x_slabs(z, [10, 10]), z)     # sum mismatch
    narrow = x_slabs(z, [21, 3, 1])           # any width >= 1 is legal
    assert [b.shape[0] for b in narrow] == [21, 3, 1]
    check_tiling(narrow, z)
    with pytest.raises(PartitionError, match="block 1"):
        check_tiling(x_slabs(z, [25, 0]), z)      # empty block


# ---------------------------------------------------------------------------
# Tiling checks

def test_tiling_rejects_overlapping_blocks():
    z = zone((20, 10, 10))
    blocks = [Block(0, (0, 0, 0), (12, 10, 10)),
              Block(1, (10, 0, 0), (20, 10, 10))]
    with pytest.raises(PartitionError, match="block 1 overlaps block 0"):
        make_plan(z, blocks, 1, NodeTopology(1, 2, 0))


def test_tiling_rejects_block_past_zone():
    z = zone((20, 10, 10))
    blocks = [Block(0, (0, 0, 0), (10, 10, 10)),
              Block(1, (10, 0, 0), (25, 10, 10))]
    with pytest.raises(PartitionError, match="block 1 .* leaves the zone"):
        make_plan(z, blocks, 1, NodeTopology(1, 2, 0))


def test_tiling_rejects_gaps():
    z = zone((20, 10, 10))
    blocks = [Block(0, (0, 0, 0), (10, 10, 10)),
              Block(1, (10, 0, 0), (20, 10, 6))]
    with pytest.raises(PartitionError,
                       match=r"no block holds cell \(10, 0, 6\), next to block 0"):
        make_plan(z, blocks, 1, NodeTopology(1, 2, 0))


def test_tiling_checked_on_plan_files():
    # Plan files are outside input: a hand-edited block list must not reach
    # the exchange.
    z = zone((20, 10, 10))
    plan = make_plan(z, split(z, 2), 1, NodeTopology(1, 2, 0))
    text = plan_to_text(plan)
    assert "hi=10,10,10" in text
    bad = plan_from_text(text.replace("hi=10,10,10", "hi=12,10,10"))
    with pytest.raises(PartitionError, match="overlaps"):
        build_halo_plan(bad)


# ---------------------------------------------------------------------------
# Ghost sources

def test_ghost_sources_name_the_owning_block():
    # Every ghost cell of a block's grown box inside the zone or a periodic
    # image of it has exactly one source, the block holding its wrapped
    # coordinate; cells past the non-periodic y faces have none, and no
    # source reaches past the grown box.  The slabs span the periodic z
    # axis whole, so they keep no ghosts along it.
    z = zone((12, 9, 3), boundary=("periodic", "periodic", "outflow",
                                   "outflow", "periodic", "periodic"))
    blocks = x_slabs(z, [5, 1, 4, 2])
    sources = ghost_sources(blocks, z)
    by_id = {b.id: b for b in blocks}
    for b in blocks:
        grow = margins(z, b)
        assert grow == (H, H, 0)
        count = {}
        for g in (g for g in sources if g.dst == b.id):
            src = by_id[g.src]
            for cell in np.ndindex(*(h - l for l, h in zip(g.lo, g.hi))):
                c = tuple(l + i for l, i in zip(g.lo, cell))
                home = tuple(ci - k for ci, k in zip(c, g.shift))
                assert all(l <= x < h for l, x, h in zip(src.lo, home, src.hi))
                assert home == (c[0] % 12, c[1], c[2] % 3)
                count[c] = count.get(c, 0) + 1
        grown = set()
        for cell in np.ndindex(*(n + 2 * m for n, m in zip(b.shape, grow))):
            c = tuple(l - m + i for l, m, i in zip(b.lo, grow, cell))
            grown.add(c)
            inside = all(l <= x < h for l, x, h in zip(b.lo, c, b.hi))
            want = 0 if inside or not 0 <= c[1] < 9 else 1
            assert count.get(c, 0) == want, (b.id, c)
        assert set(count) <= grown, b.id


def test_ghost_sources_symmetric():
    # Block a feeds block b through shift k exactly when b feeds a through
    # -k, for tilings with blocks of any width.
    rng = np.random.default_rng(9)
    for _ in range(40):
        shape = tuple(int(rng.integers(1, 14)) for _ in range(3))
        boundary = tuple(t for a in range(3)
                         for t in [("periodic", "outflow")[rng.integers(2)]] * 2)
        z = zone(shape, boundary=boundary)
        blocks = split(z, int(rng.integers(1, 9)))
        links = {(g.dst, g.src, g.shift) for g in ghost_sources(blocks, z)}
        assert links == {(s, d, tuple(-k for k in sh)) for d, s, sh in links}


def test_ghost_slabs_cover_the_grown_box_outside_the_interior_once():
    # A block's margins are 0 along the periodic axes it spans whole and
    # the halo along the others; its ghost slabs cover its grown box
    # outside the interior exactly once.
    rng = np.random.default_rng(10)
    for _ in range(40):
        shape = tuple(int(rng.integers(1, 14)) for _ in range(3))
        boundary = tuple(t for a in range(3)
                         for t in [("periodic", "outflow")[rng.integers(2)]] * 2)
        z = zone(shape, boundary=boundary)
        for b in split(z, int(rng.integers(1, 9))):
            grow = margins(z, b)
            assert grow == tuple(
                0 if z.periodic(a) and n == z.shape[a] else H
                for a, n in enumerate(b.shape))
            want = np.ones(tuple(n + 2 * m for n, m in zip(b.shape, grow)),
                           dtype=int)
            want[tuple(slice(m, m + n) for n, m in zip(b.shape, grow))] = 0
            count = np.zeros_like(want)
            for slab in ghost_slabs(z, b):
                count[slab] += 1
            assert np.array_equal(count, want)


def test_ghost_sources_run_once_per_plan(monkeypatch):
    # Regrouping, the halo plans of the run and of its model all read the
    # plan's one pass; a plan read from a file makes its own on first use.
    calls = []
    real = partition.ghost_sources

    def counting(blocks, zone):
        calls.append(len(blocks))
        return real(blocks, zone)

    # Wherever a module binds the name.
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("wcnsflow")
                and getattr(mod, "ghost_sources", None) is real):
            monkeypatch.setattr(mod, "ghost_sources", counting)
    case = corner_case(2, columns=40, cross=6, max_iters=1)
    outcome = run_case(case, max_workers=1)
    model_schedule(case, outcome.plan, steps=1)
    assert calls == [10]

    loaded = plan_from_text(plan_to_text(outcome.plan))
    assert calls == [10]
    model_schedule(case, loaded, steps=1)
    run_case(case, loaded, max_workers=1)
    assert calls == [10, 10]


# ---------------------------------------------------------------------------
# regroup_blocks via make_plan

def test_regroup_five_equal_blocks_one_each():
    z = zone((25, 10, 10))
    blocks = x_slabs(z, [5] * 5)
    plan = make_plan(z, blocks, 1, TOPO_DESK, load_ratio=1.0)
    assert len(plan.groups) == 5
    assert all(len(g.block_ids) == 1 for g in plan.groups)
    assert sorted(i for g in plan.groups for i in g.block_ids) == list(range(5))


def test_regroup_share_scales_with_load_ratio():
    # Widths proportional to device weights (1, .6, .6, .6, 1) over a
    # 100x100 cross-section: CPU groups land on 16M cells, coprocessor
    # groups on 9.6M.
    z = zone((6080, 100, 100))
    blocks = x_slabs(z, [1600, 960, 960, 960, 1600])
    plan = make_plan(z, blocks, 1, TOPO_DESK, load_ratio=0.6)
    cells = {g.device_class: set() for g in plan.groups}
    for g, n in zip(plan.groups, group_cells(plan)):
        cells[g.device_class].add(n)
    assert cells["cpu"] == {16_000_000}
    assert cells["coprocessor"] == {9_600_000}
    assert 9_600_000 / 16_000_000 == 0.6


def test_regroup_all_cpu_degenerates():
    topo = NodeTopology(nodes=1, cpu_per_node=2, coproc_per_node=0)
    z = zone((64, 64, 64))
    plan = make_plan(z, split(z, 8), 1, topo)
    assert {g.device_class for g in plan.groups} == {"cpu"}
    assert plan.total_cells == 64 ** 3
    assert sorted(i for g in plan.groups for i in g.block_ids) == list(range(8))


def test_regroup_ranks_get_contiguous_chunks():
    z = zone((80, 16, 16))
    plan = make_plan(z, split(z, 16), 4, NodeTopology(1, 4, 0))
    # Block ids follow the tiling; each rank owns one contiguous id run.
    for r in range(4):
        ids = sorted(b.id for b in plan.blocks_of_rank(r))
        assert ids == list(range(ids[0], ids[0] + len(ids)))
    assert sorted(plan.rank_of_block) == plan.rank_of_block


def test_regroup_needs_enough_blocks():
    with pytest.raises(PartitionError):
        z = zone((64, 64, 64))
        make_plan(z, split(z, 2), 1, TOPO_DESK)


def test_every_block_lands_in_exactly_one_group():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(20, 60))
        ranks = int(rng.choice([1, 2, 4]))
        blocks = int(rng.integers(ranks, 13)) * ranks
        try:
            z = zone((n, n, n))
            plan = make_plan(z, split(z, blocks), ranks, NodeTopology(1, 2, 1))
        except PartitionError:
            continue
        seen = sorted(i for g in plan.groups for i in g.block_ids)
        assert seen == [b.id for b in sorted(plan.blocks, key=lambda b: b.id)]
        for g in plan.groups:
            assert all(plan.rank_of_block[i] == g.rank for i in g.block_ids)


# ---------------------------------------------------------------------------
# Ranks over nodes

def test_ranks_must_divide_over_nodes():
    with pytest.raises(PartitionError, match="7 ranks do not divide over 3 nodes"):
        z = zone((70, 8, 8))
        make_plan(z, split(z, 7), 7, NodeTopology(3, 7, 0))


def test_rank_adjacency_from_plan():
    z = zone((80, 16, 16))
    plan = make_plan(z, split(z, 16), 4, NodeTopology(1, 4, 0))
    ranks = plan.rank_of_block
    adj = {(min(ranks[g.dst], ranks[g.src]), max(ranks[g.dst], ranks[g.src]))
           for g in ghost_sources(plan.blocks, z)
           if ranks[g.dst] != ranks[g.src]}
    # Contiguous slabs along x touch only their id neighbors.
    assert adj == {(0, 1), (1, 2), (2, 3)}


# ---------------------------------------------------------------------------
# Imbalance

def group_cells(plan) -> list[int]:
    by_id = {b.id: b for b in plan.blocks}
    return [sum(by_id[i].cells for i in g.block_ids) for g in plan.groups]


def imbalance(plan, throughput=None) -> float:
    """Largest group load over the mean load, a load being the group's
    cells over its device class's throughput (1 unless given)."""
    thr = {"cpu": 1.0, "coprocessor": 1.0, **(throughput or {})}
    load = [c / thr[g.device_class]
            for c, g in zip(group_cells(plan), plan.groups)]
    return max(load) / float(np.mean(load))


def test_imbalance_balanced_is_one():
    z = zone((40, 16, 16))
    plan = make_plan(z, split(z, 4), 1, NodeTopology(1, 4, 0))
    assert imbalance(plan) == 1.0


def test_imbalance_double_loaded_group():
    z = zone((25, 10, 10))
    blocks = x_slabs(z, [10, 5, 5, 5])
    plan = make_plan(z, blocks, 1, NodeTopology(1, 4, 0))
    assert sorted(group_cells(plan), reverse=True) == [1000, 500, 500, 500]
    assert imbalance(plan) == pytest.approx(1.6, rel=1e-15)


def test_imbalance_throughput_normalizes():
    z = zone((6080, 100, 100))
    blocks = x_slabs(z, [1600, 960, 960, 960, 1600])
    plan = make_plan(z, blocks, 1, TOPO_DESK, load_ratio=0.6)
    assert imbalance(plan, throughput={"cpu": 1.0, "coprocessor": 0.6}) \
        == pytest.approx(1.0, rel=1e-12)


def test_imbalance_never_below_one():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(20, 50))
        try:
            z = zone((n, 16, 16))
            plan = make_plan(z, split(z, int(rng.integers(4, 10))), 1,
                             NodeTopology(1, 2, 2),
                             load_ratio=float(rng.uniform(0.2, 1.5)))
        except PartitionError:
            continue
        assert imbalance(plan) >= 1.0


# ---------------------------------------------------------------------------
# Plan files

def test_plan_text_round_trip():
    z = zone((40, 20, 20), boundary=("inflow", "outflow", "wall", "outflow",
                                     "periodic", "periodic"))
    plan = make_plan(z, split(z, 6), 2, NodeTopology(2, 1, 2),
                     load_ratio=0.75)
    assert plan_from_text(plan_to_text(plan)) == plan


def test_plan_text_rejects_a_second_zone():
    z = zone((20, 10, 10))
    plan = make_plan(z, split(z, 2), 1, TOPO_1CPU)
    text = plan_to_text(plan)
    (record,) = [ln for ln in text.splitlines() if ln.startswith("zone ")]
    with pytest.raises(CaseFormatError, match="zone record: a plan has one zone"):
        plan_from_text(text + record + "\n")
