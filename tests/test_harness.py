"""Case files, state dumps, run metrics, and the command-line front end."""

import ast
import hashlib
import io
import struct
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wcnsflow import cli
from wcnsflow.cases import (Case, case_from_text, case_plan, case_to_text,
                            corner_case, cpu_only_variant, exact_density,
                            initial_fields, load_case, save_case, sod_case,
                            spread, uniform_case, wave_case, with_load_ratio,
                            with_nodes, with_ranks)
from wcnsflow.cli import main
from wcnsflow.devices import DEFAULT_CPU
from wcnsflow.dumps import read_dump, write_dump
from wcnsflow.errors import CaseFormatError, PartitionError
from wcnsflow.fields import BlockField
from wcnsflow.metrics import (RunMetrics, from_timeline, mcups,
                              metrics_from_csv, metrics_to_csv, render_report)
from wcnsflow.model import model_schedule
from wcnsflow.partition import (NodeTopology, plan_from_text, plan_to_text,
                                split_zone)
from wcnsflow.runner import run_case
from wcnsflow.schedule import Timeline
from wcnsflow.transport import free_port


def small_corner(**kw):
    """Corner case small enough that every block still fits the stencil."""
    kw.setdefault("nodes", 1)
    kw.setdefault("columns", 40)
    kw.setdefault("cross", 6)
    kw.setdefault("max_iters", 2)
    return corner_case(**kw)


# ---------------------------------------------------------------------------
# Case files

@pytest.mark.parametrize("case", [
    uniform_case((8, 12, 10), reynolds=150.0, blocks=4),
    wave_case(16, wavevector=(2, 1, 0), amplitude=0.15, t_end=0.01,
              fixed_dt=2.5e-4, blocks=2),
    sod_case(nx=32, cross=4, t_end=0.1),
    small_corner(load_ratio=0.6),
], ids=["uniform", "wave", "sod", "corner"])
def test_case_text_roundtrip(case):
    assert case_from_text(case_to_text(case)) == case


def test_case_text_header_and_comments():
    text = case_to_text(uniform_case())
    assert text.splitlines()[0] == "wcnsflow-case 3"
    noisy = "# a comment\n\n" + text + "\n# trailing\n"
    assert case_from_text(noisy) == uniform_case()
    # A key that no reader takes is refused, naming its record and key.
    for old, new, match in [
            ("load-ratio=1.0", "load-ratio=1.0 max-block-cells=-",
             "run record: unknown key max-block-cells="),
            ("device class=cpu", "device class=cpu workers=12",
             "device record: unknown key workers="),
            ("load-ratio=1.0", "load-ratio=1.0 target-blocks=4",
             "run record: unknown key target-blocks="),
            ("cfl=", "cfl=0.5 cfl2=", "time record: unknown key cfl2=")]:
        assert text.count(old) == 1
        with pytest.raises(CaseFormatError, match=match):
            case_from_text(text.replace(old, new))
    # The init record's keys depend on the case kind, so any key reads.
    wave = wave_case(8)
    loose = case_to_text(wave).replace("init ", "init note=x ")
    assert case_from_text(loose).init == {**wave.init, "note": "x"}


def test_case_file_roundtrip_on_disk(tmp_path):
    case = wave_case(8, t_end=0.002, fixed_dt=1e-3)
    path = tmp_path / "wave.case"
    save_case(case, path)
    assert load_case(path) == case


def test_case_text_rejects_bad_input():
    good = case_to_text(uniform_case())
    with pytest.raises(CaseFormatError, match="not a case file"):
        case_from_text(good.replace("wcnsflow-case", "other-format"))
    with pytest.raises(CaseFormatError, match="version"):
        case_from_text(good.replace("wcnsflow-case 3", "wcnsflow-case 9"))
    for old in (1, 2):
        with pytest.raises(CaseFormatError,
                           match=f"unsupported case version '{old}'"):
            case_from_text(good.replace("wcnsflow-case 3",
                                        f"wcnsflow-case {old}"))
    # The blocks record must cut the 16x16x16 zone on every axis.
    assert "\nblocks x=16 y=16 z=16\n" in good
    for bad, error in [
            ("blocks x=16 y=16", "blocks record: missing z="),
            ("blocks x=16 y=8,0,8 z=16", "blocks record: y width 0 is below 1"),
            ("blocks x=16 y=16 z=8,-1,9",
             "blocks record: z width -1 is below 1"),
            ("blocks x=8,7 y=16 z=16",
             "blocks record: x widths sum to 15, the zone has 16 cells "
             "along x"),
            ("blocks x=16 y=16 z=16,4",
             "blocks record: z widths sum to 20, the zone has 16 cells "
             "along z"),
            ("blocks x=16 y=1.5 z=16", "blocks record: cannot read y='1.5'"),
            ("", "case file missing records: \\['blocks'\\]")]:
        with pytest.raises(CaseFormatError, match=error):
            case_from_text(good.replace("blocks x=16 y=16 z=16", bad))
    with pytest.raises(CaseFormatError, match="empty"):
        case_from_text("# only comments\n")
    with pytest.raises(CaseFormatError,
                       match=r"missing records: \['kind', 'gas', 'zone', "
                             r"'blocks', 'time', 'freestream'\]"):
        case_from_text("wcnsflow-case 3\nname partial\n")
    (zone,) = [ln for ln in good.splitlines() if ln.startswith("zone ")]
    with pytest.raises(CaseFormatError,
                       match="zone record: a case has one zone"):
        case_from_text(good + zone + "\n")
    with pytest.raises(CaseFormatError, match="unknown case record"):
        case_from_text(good + "mystery a=1\n")
    for old, new, match in [
            ("shape=", "shap=", "zone record: missing shape="),
            ("cfl=0.5", "cfl=abc", "time record: cannot read cfl='abc'"),
            ("ranks=1", "ranks=1.5", "run record: cannot read ranks='1.5'"),
            ("freestream 1.0", "freestream x", "freestream record"),
            ("gamma=1.4", "gamma=0.5", "gas record: gamma must exceed 1"),
            ("prandtl=0.72", "prandtl=0.72 stray",
             "gas record: expected key=value, got 'stray'"),
            ("zone shape=", "zone 7 shape=",
             "zone record: expected key=value, got '7'"),
            ("kind uniform", "kind uniform wave",
             "kind record: expected key=value, got 'wave'"),
            ("wcnsflow-case 3", "wcnsflow-case", "version")]:
        assert old in good
        with pytest.raises(CaseFormatError, match=match):
            case_from_text(good.replace(old, new, 1))
    for kind, key, value, match in [
            (wave_case, "amplitude", "big", "cannot read amplitude='big'"),
            (wave_case, "velocity", "1,1", "velocity needs three numbers"),
            (sod_case, "left", "1,0", "left needs three numbers")]:
        broken = kind(8, t_end=0.002)
        broken.init[key] = value
        with pytest.raises(CaseFormatError, match=f"init record: {match}"):
            initial_fields(broken, case_plan(broken))


def test_plan_text_rejects_bad_input():
    good = plan_to_text(case_plan(uniform_case((8, 8, 8), blocks=2)))
    for old, new, match in [
            (" lo=", " low=", "block record: missing lo="),
            ("rank=0", "rank=first", "block record: cannot read rank='first'"),
            ("ranks 1", "ranks", "ranks record: missing value 1"),
            ("wcnsflow-plan 2", "wcnsflow-plan 1",
             "unsupported plan version '1'"),
            ("wcnsflow-plan", "wcnsflow-case", "not a plan file"),
            ("block 1 ", "block 3 ", "block record: block ids must be 0..1"),
            ("rank=0\n", "rank=5\n", "block record: block 0 has rank=5"),
            ("blocks=0,1", "blocks=0,7", "group record: group 0 lists block 7"),
            ("group 0 rank=0", "group 0 rank=3",
             "group record: group 0 has rank=3, the plan has 1 ranks"),
            ("blocks=0,1", "blocks=0",
             "group record: no group of rank 0 lists block 1")]:
        assert old in good
        with pytest.raises(CaseFormatError, match=match):
            plan_from_text(good.replace(old, new, 1))
    with pytest.raises(CaseFormatError, match="unknown plan record"):
        plan_from_text(good + "mystery a=1\n")
    for old, new, match in [
            (" lo=", " ghost=1 lo=", "block record: unknown key ghost="),
            ("class=cpu", "class=cpu workers=2",
             "group record: unknown key workers="),
            ("boundary=", "cuts=8 boundary=", "zone record: unknown key cuts=")]:
        assert old in good
        with pytest.raises(CaseFormatError, match=match):
            plan_from_text(good.replace(old, new, 1))
    with pytest.raises(CaseFormatError, match="empty"):
        plan_from_text("\n# nothing\n")


def test_case_validation():
    base = uniform_case()
    with pytest.raises(CaseFormatError, match="unknown case kind"):
        Case(name="x", kind="vortex", gas=base.gas, zone=base.zone,
             init={}, freestream=base.freestream, controls=base.controls,
             block_widths=base.block_widths)
    with pytest.raises(CaseFormatError, match="freestream"):
        Case(name="x", kind="uniform", gas=base.gas, zone=base.zone,
             init={}, freestream=(1.0, 0.0, 0.0), controls=base.controls,
             block_widths=base.block_widths)
    with pytest.raises(CaseFormatError,
                       match="blocks record: needs widths along x, y and z, "
                             "got 2 axes"):
        replace(base, block_widths=((16,), (16,)))
    with pytest.raises(CaseFormatError,
                       match="topology record has coproc=3 but no device "
                             "class=coprocessor record"):
        replace(small_corner(), coprocessor=None)


def test_corner_layout():
    case = small_corner(load_ratio=0.75)
    # one x-slab per node, one block per device: 2 cpu + 3 coproc
    widths, ys, zs = case.block_widths
    assert ys == zs == (6,)
    assert len(widths) == 5
    assert sum(widths) == 40
    # edge (cpu) blocks are wider than the ratio-0.75 middle blocks
    assert widths[0] > widths[2] and widths[-1] > widths[2]
    assert case.zone.cells == 40 * 6 * 6
    with pytest.raises(CaseFormatError, match="2 CPU sockets"):
        corner_case(nodes=1, topology=NodeTopology(1, 1, 3))


def test_with_load_ratio_recuts_corner():
    case = small_corner(load_ratio=0.75)
    heavier = with_load_ratio(case, 1.2)
    assert heavier.load_ratio == 1.2
    assert heavier.name.endswith("-r1.2")
    widths = heavier.block_widths[0]
    assert sum(widths) == 40
    assert widths != case.block_widths[0]
    # middle blocks gain cells when the coprocessor ratio rises
    assert widths[2] > case.block_widths[0][2]
    for n in (1, 3):
        for r in (0.5, 1.2):
            assert with_load_ratio(corner_case(n), r).block_widths == \
                corner_case(n, load_ratio=r).block_widths


def test_with_nodes_retiles_the_corner_case_per_node():
    slow = replace(small_corner(load_ratio=0.6),
                   cpu=replace(DEFAULT_CPU, relative_throughput=1e6))
    for n in (1, 2, 3):
        grown = with_nodes(slow, n)
        want = small_corner(nodes=n, load_ratio=0.6)
        assert grown == replace(want, name=slow.name, cpu=slow.cpu)
        assert with_nodes(grown, 1) == slow
    with pytest.raises(CaseFormatError, match="only a corner case"):
        with_nodes(uniform_case(), 2)
    two = small_corner(nodes=2)
    with pytest.raises(CaseFormatError,
                       match="81 columns do not divide over 2 nodes"):
        with_nodes(replace(two, zone=replace(two.zone, shape=(81, 6, 6)),
                           block_widths=((81,), (6,), (6,))), 4)
    with pytest.raises(PartitionError, match="3 ranks do not divide"):
        with_nodes(replace(two, ranks=3), 4)


def test_spread_lays_one_zone_over_more_nodes():
    one = small_corner(load_ratio=0.6)
    for n in (1, 2, 4):
        spread_n = spread(one, n)
        assert spread_n.zone == one.zone
        assert spread_n.ranks == n
        assert spread_n.topology == replace(one.topology, nodes=n)
        assert len(spread_n.block_widths[0]) == 5 * n
        assert spread(spread_n, 1) == one
    two = small_corner(nodes=2, load_ratio=0.6)
    assert spread(two, 2) == two
    wave = wave_case(16)
    assert spread(wave, 4) == with_ranks(wave, 4)


def test_with_ranks_keeps_a_coprocessor_machine():
    corner = small_corner(nodes=2, topology=NodeTopology(1, 2, 2))
    assert with_ranks(corner, 4) == replace(corner, ranks=4)
    with pytest.raises(PartitionError, match="3 ranks do not divide"):
        with_ranks(corner, 3)
    wave = wave_case(8, blocks=2)
    assert with_ranks(wave, 4) == replace(
        wave, ranks=4, topology=NodeTopology(1, 4, 0),
        block_widths=split_zone(wave.zone, 4))
    cpu_corner = cpu_only_variant(corner)
    for r in (1, 2):
        assert with_ranks(cpu_corner, r).block_widths == corner.block_widths


def test_with_ranks_keeps_blocks_that_are_enough_for_the_ranks():
    cpu_corner = cpu_only_variant(corner_case(1, columns=40, cross=6))
    for r in range(1, 6):
        variant = with_ranks(cpu_corner, r)
        assert variant.block_widths == ((10, 7, 7, 7, 9), (6,), (6,))
        assert variant.topology == NodeTopology(1, r, 0)
        assert len(case_plan(variant).blocks) == 5
    six = with_ranks(cpu_corner, 6)
    assert six.block_widths == split_zone(cpu_corner.zone, 6)
    assert len(case_plan(six).blocks) == 6


def test_with_load_ratio_plain_case():
    case = uniform_case()
    tuned = with_load_ratio(case, 0.5)
    assert tuned.load_ratio == 0.5
    assert tuned.block_widths == case.block_widths
    assert tuned.zone == case.zone
    # A corner case without coprocessors keeps its blocks too.
    cpu_corner = cpu_only_variant(corner_case(1, columns=40, cross=6))
    assert cpu_corner.block_widths == ((10, 7, 7, 7, 9), (6,), (6,))
    for ratio in (0.5, 1.2):
        tuned = with_load_ratio(cpu_corner, ratio)
        assert tuned.block_widths == cpu_corner.block_widths
        assert tuned.load_ratio == ratio


# sha256 of plan_to_text(case_plan(case)), computed at commit ca48da8, where
# a case still named its blocks by a target count or by cuts along one
# axis: the benchmark's three layouts, the corner layout, and one case from
# each variant rule.
FROZEN_PLANS = {
    "wave48-1b": (
        lambda: wave_case(48),
        "fc4b4bb5a19d8de8fe43e0c84e91b1b930f75b0450e58cf69618ef9fa9b064e3"),
    "wave48-8b2r": (
        lambda: with_ranks(wave_case(48, blocks=8), 2),
        "a221c801545e2ca18fa4be053c08b64711351c932e638df13ae9b06ae1fe47bd"),
    "sod200": (
        lambda: sod_case(200, 4),
        "d042c597dcc4ad94c9e4289b0916b80c36a8ad6db8b35bfd016987365e7f4914"),
    "corner1": (
        lambda: corner_case(1),
        "8e59be4d44b59a7ecc25769ac1eae9010d53f2eb104a2ff4b798342daf524fbe"),
    "corner2": (
        lambda: corner_case(2),
        "78599f660c517576991ce6dfc6aad797d4d6bcb71a1a645d42ac3f1ea306abfa"),
    "corner1-ratio0.5": (
        lambda: with_load_ratio(corner_case(1), 0.5),
        "c832f78eaa9680b45ad5e5c961685560a6812c7defc7990c0c9abc3879118dfe"),
    "corner1-nodes3": (
        lambda: with_nodes(small_corner(), 3),
        "5d7cd37b01398ed50f935f6c2a439385c944881cec14c97fbbf437f037ea2b05"),
    "corner1-spread2": (
        lambda: spread(corner_case(1), 2),
        "95bdc91bc96363cec828a6cc64707279278bc5731777b43c6475630ae3f6a423"),
    "wave16-b2-r4": (
        lambda: with_ranks(wave_case(16, blocks=2), 4),
        "2350258e617f9e6aad8a3782b08436dd5ef27b2b134f449a5b65f79697d7c1cc"),
    "sod48-b2-r3": (
        lambda: with_ranks(sod_case(48, 8, blocks=2), 3),
        "eca3ffe6b423e8613803921a1204d2327033c41e1882b8ddd610f44b0ebeac19"),
    "corner2-coproc-r4": (
        lambda: with_ranks(small_corner(nodes=2,
                                        topology=NodeTopology(1, 2, 2)), 4),
        "964fcfa519b29832c0e9c70b7b461b5a79d761d73635d914d8600f49a53dbb67"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_PLANS))
def test_case_plans_frozen(name):
    make, digest = FROZEN_PLANS[name]
    text = plan_to_text(case_plan(make()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Initial and exact states

def test_sod_initial_states():
    case = sod_case(nx=16, cross=4)
    fields = initial_fields(case, case_plan(case))
    (f,) = fields.values()
    q = f.interior
    # x < 0.5: rho=1, p=1 -> E=2.5; x > 0.5: rho=0.125, p=0.1 -> E=0.25
    left, right = q[:, :8], q[:, 8:]
    assert np.all(left[0] == 1.0) and np.all(right[0] == 0.125)
    assert np.all(q[1:4] == 0.0)
    np.testing.assert_allclose(left[4], 2.5, rtol=1e-15)
    np.testing.assert_allclose(right[4], 0.25, rtol=1e-15)


def test_wave_exact_density_translates():
    case = wave_case(8)
    plan = case_plan(case)
    d0 = exact_density(case, plan, 0.0)[0]
    assert d0.shape == (8, 8, 8)
    # wavevector (1,1,1) dot velocity (1,1,1) = 3, so period is 1/3
    d1 = exact_density(case, plan, 1.0 / 3.0)[0]
    np.testing.assert_allclose(d1, d0, rtol=0, atol=1e-12)
    x = (np.arange(8)[:, None, None] + 0.5) / 8.0
    y = np.swapaxes(x, 0, 1)
    z = np.swapaxes(x, 0, 2)
    expect = 1.0 + 0.2 * np.sin(2.0 * np.pi * (x + y + z))
    np.testing.assert_allclose(d0, expect, rtol=0, atol=1e-15)


def test_exact_density_only_for_closed_forms():
    case = sod_case(nx=16)
    with pytest.raises(CaseFormatError, match="no exact solution"):
        exact_density(case, case_plan(case), 0.1)


def test_uniform_freestream_conserved():
    case = uniform_case(velocity=(0.3, -0.2, 0.1))
    q = case.freestream_conserved()
    e = 1.0 / 0.4 + 0.5 * (0.3 ** 2 + 0.2 ** 2 + 0.1 ** 2)
    np.testing.assert_allclose(q, [1.0, 0.3, -0.2, 0.1, e], rtol=1e-15)


def test_initial_fields_respects_block_filter():
    case = wave_case(8, blocks=4)
    plan = case_plan(case)
    some = {b.id for b in plan.blocks[:2]}
    fields = initial_fields(case, plan, block_ids=some)
    assert set(fields) == some


def test_initial_fields_allocates_only_the_blocks_asked_for(monkeypatch):
    """One rank of wave 16^3 in 8 blocks on 2 ranks allocates its own 4
    blocks, not every block of the plan."""
    allocate = BlockField.allocate
    allocated = []

    def counting(cls, block, zone):
        allocated.append(block.id)
        return allocate(block, zone)

    monkeypatch.setattr(BlockField, "allocate", classmethod(counting))
    case = with_ranks(wave_case(16, blocks=8), 2)
    plan = case_plan(case)
    mine = {b.id for b in plan.blocks_of_rank(1)}
    fields = initial_fields(case, plan, block_ids=mine)
    assert len(plan.blocks) == 8 and len(mine) == 4
    assert sorted(allocated) == sorted(fields) == sorted(mine)


# ---------------------------------------------------------------------------
# Dumps

def test_dump_roundtrip_bitwise(tmp_path):
    case = wave_case(8, blocks=2)
    fields = initial_fields(case, case_plan(case))
    path = tmp_path / "state.bin"
    write_dump(path, fields)
    back = read_dump(path)
    assert sorted(back) == sorted(fields)
    for bid, f in fields.items():
        assert back[bid].dtype == np.float64
        assert np.array_equal(back[bid], f.interior)


def test_dump_rejects_foreign_and_truncated_files(tmp_path):
    bogus = tmp_path / "nope.bin"
    bogus.write_bytes(b"NOTADUMP" + b"\0" * 16)
    with pytest.raises(CaseFormatError, match="not a dump file"):
        read_dump(bogus)

    stale = tmp_path / "stale.bin"
    stale.write_bytes(b"WCNSDUMP" + struct.pack("<II", 9, 0))
    with pytest.raises(CaseFormatError, match="version"):
        read_dump(stale)

    short = tmp_path / "short.bin"
    short.write_bytes(b"WCNSDUMP" + struct.pack("<I", 1))
    with pytest.raises(CaseFormatError, match="short.bin: truncated header"):
        read_dump(short)
    short.write_bytes(b"WCNSDUMP" + struct.pack("<II", 1, 2) + b"\0" * 10)
    with pytest.raises(CaseFormatError,
                       match="short.bin: truncated header of block 0 of 2"):
        read_dump(short)

    case = wave_case(8)
    path = tmp_path / "cut.bin"
    write_dump(path, initial_fields(case, case_plan(case)))
    whole = path.read_bytes()
    path.write_bytes(whole[:len(whole) // 2])
    with pytest.raises(CaseFormatError, match="truncated block"):
        read_dump(path)


# ---------------------------------------------------------------------------
# Metrics

def test_mcups_definition():
    """5.0 was frozen from the root oracle script ``scratch_oracles.py``
    (section 5), since deleted."""
    assert mcups(1_000_000, 50, 10.0) == 5.0
    with pytest.raises(ValueError, match="duration"):
        mcups(100, 1, 0.0)


def test_run_metrics_timing_source():
    # The clock is worked out from the row: a modeled time makes it the
    # model's, and no constructor argument can say otherwise.
    m = RunMetrics(label="a", total_cells=1000, iterations=10,
                   wall_seconds=2.0)
    assert m.timing_source == "wall" and m.seconds == 2.0
    assert m.mcups == pytest.approx(0.005)
    modeled = RunMetrics(label="b", total_cells=1000, iterations=10,
                         wall_seconds=2.0, model_seconds=0.5)
    assert modeled.timing_source == "model" and modeled.seconds == 0.5
    with pytest.raises(TypeError, match="timing_source"):
        RunMetrics(label="c", total_cells=1, iterations=1, wall_seconds=1.0,
                   timing_source="model")


def test_comp_comm_ratio_edge_cases():
    m = RunMetrics(label="a", total_cells=1, iterations=1, wall_seconds=1.0,
                   comp_seconds=3.0, comm_seconds=1.5)
    assert m.comp_comm_ratio == 2.0
    assert RunMetrics(label="b", total_cells=1, iterations=1,
                      wall_seconds=1.0, comp_seconds=3.0).comp_comm_ratio is None
    assert RunMetrics(label="c", total_cells=1, iterations=1, wall_seconds=1.0,
                      comp_seconds=3.0, comm_seconds=0.0).comp_comm_ratio is None


def test_from_timeline_pulls_phase_totals():
    tl = Timeline()
    tl.add("cpu0", "compute", 0.0, 2.0)
    tl.add("cpu0", "update", 2.0, 2.5)
    tl.add("mic0", "transfer_in", 0.0, 1.0)
    m = from_timeline("run", tl, total_cells=100, iterations=4,
                      wall_seconds=9.0)
    assert m.timing_source == "model"
    assert m.model_seconds == tl.makespan == 2.5
    assert m.comp_seconds == 2.5
    assert m.comm_seconds == 1.0
    assert m.hidden_comm_fraction == tl.hidden_comm_fraction
    assert m.wall_seconds == 9.0 and m.messages is None


def test_metrics_csv_roundtrip(tmp_path):
    rows = [
        RunMetrics(label="full", total_cells=4096, iterations=7,
                   wall_seconds=0.25, model_seconds=0.125, comp_seconds=0.1, comm_seconds=0.05,
                   hidden_comm_fraction=0.75, messages=12,
                   message_bytes=10240, converged=True, extra="note=x"),
        RunMetrics(label="bare", total_cells=64, iterations=1,
                   wall_seconds=0.5),
    ]
    path = tmp_path / "m.csv"
    metrics_to_csv(rows, str(path))
    assert metrics_from_csv(str(path)) == rows

    buf = io.StringIO()
    metrics_to_csv(rows, buf)
    assert metrics_from_csv(io.StringIO(buf.getvalue())) == rows


# A metrics.csv as written when ``timing_source`` was a RunMetrics field: a
# ``run --model-only`` row of the small corner case and a wave run's row.
OLD_METRICS_CSV = (
    "label,total_cells,iterations,wall_seconds,timing_source,model_seconds,"
    "comp_seconds,comm_seconds,hidden_comm_fraction,messages,message_bytes,"
    "converged,extra,mcups,comp_comm_ratio\n"
    "corner-1n,1440,2,0.0,model,0.00029383999999999996,0.0005675999999999996,"
    "0.00041424,0.39976825028968727,,,,,9.801252382248846,1.3702201622247963\n"
    "wave-8,512,2,0.020174688994302414,wall,,,,,0,0,0,,0.050756668431874735,"
    "\n")


def test_metrics_csv_reads_and_writes_the_old_layout():
    rows = metrics_from_csv(io.StringIO(OLD_METRICS_CSV))
    assert rows == [
        RunMetrics(label="corner-1n", total_cells=1440, iterations=2,
                   wall_seconds=0.0, model_seconds=0.00029383999999999996,
                   comp_seconds=0.0005675999999999996,
                   comm_seconds=0.00041424,
                   hidden_comm_fraction=0.39976825028968727),
        RunMetrics(label="wave-8", total_cells=512, iterations=2,
                   wall_seconds=0.020174688994302414, messages=0,
                   message_bytes=0, converged=False)]
    assert [m.timing_source for m in rows] == ["model", "wall"]
    buf = io.StringIO()
    metrics_to_csv(rows, buf)
    assert buf.getvalue() == OLD_METRICS_CSV


def test_metrics_csv_degenerate_inputs(tmp_path):
    header_only = io.StringIO("label,total_cells,iterations,wall_seconds\n")
    assert metrics_from_csv(header_only) == []
    with pytest.raises(CaseFormatError, match="no header"):
        metrics_from_csv(io.StringIO("\n\n"))
    path = tmp_path / "m.csv"
    for text, match in [
            ("start,end,device,phase,note\n0.0,1.0,cpu,compute,\n",
             "m.csv: metrics header lacks the columns "
             "label,total_cells,iterations,wall_seconds"),
            ("label,total_cells,iterations,wall_seconds\nrun,64,abc,0.5\n",
             "m.csv: row 1 cannot read iterations='abc'"),
            ("label,total_cells,iterations,wall_seconds\nrun,64\n",
             "m.csv: row 1 has no iterations")]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CaseFormatError, match=match):
            metrics_from_csv(str(path))


def test_render_report_formats_rows():
    rows = [
        RunMetrics(label="het", total_cells=1_000_000, iterations=50,
                   wall_seconds=99.0, model_seconds=10.0, comp_seconds=8.0, comm_seconds=2.0,
                   hidden_comm_fraction=0.5),
        RunMetrics(label="solo", total_cells=1000, iterations=2,
                   wall_seconds=4.0),
    ]
    text = render_report(rows)
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["label", "cells"]
    assert "het" in lines[2] and "5.000" in lines[2]    # MCUPS at model time
    assert "50.0" in lines[2]                           # hidden percent
    assert "comp-only" in lines[3]


# ---------------------------------------------------------------------------
# Command line

def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_cli_gen_partition_run_report(tmp_path, capsys):
    case_path = tmp_path / "wave.case"
    plan_path = tmp_path / "wave.plan"
    out_dir = tmp_path / "out"

    assert run_cli("gen", "--kind", "wave", "--n", 8, "--t-end", 0.002,
                   "--fixed-dt", 1e-3, "--blocks", 2, "--out", case_path) == 0
    assert case_path.exists()
    assert load_case(case_path).kind == "wave"

    assert run_cli("partition", "--case", case_path, "--out", plan_path) == 0
    assert "blocks" in plan_path.read_text()

    assert run_cli("run", "--case", case_path, "--plan", plan_path,
                   "--out-dir", out_dir) == 0
    out = capsys.readouterr().out
    assert "2 iterations" in out and "MCUPS" in out
    dump = read_dump(out_dir / "fields.bin")
    assert len(dump) == 2
    (row,) = metrics_from_csv(str(out_dir / "metrics.csv"))
    assert row.iterations == 2 and row.converged is False

    assert run_cli("report", "--metrics", out_dir / "metrics.csv",
                   "--dump", out_dir / "fields.bin") == 0
    out = capsys.readouterr().out
    assert "MCUPS" in out and "block" in out


def test_cli_gen_kinds(tmp_path):
    for kind, extra in [("uniform", ["--n", "8", "--max-iters", "3"]),
                        ("sod", ["--n", "24"]),
                        ("corner", ["--nodes", "1", "--columns", "40",
                                    "--cross", "6"])]:
        path = tmp_path / f"{kind}.case"
        assert run_cli("gen", "--kind", kind, "--out", path, *extra) == 0
        assert load_case(path).kind == kind
    case = load_case(tmp_path / "sod.case")
    assert case.zone.shape == (24, 4, 4)


def test_cli_gen_passes_every_flag_the_kind_takes(tmp_path):
    path = tmp_path / "sod.case"
    assert run_cli("gen", "--kind", "sod", "--blocks", 4, "--cross", 8,
                   "--out", path) == 0
    case = load_case(path)
    assert case.zone.shape == (200, 8, 8)
    assert case.block_widths == ((50, 50, 50, 50), (8,), (8,))
    assert len(case_plan(case).blocks) == 4


def test_cli_gen_refuses_a_time_control_that_would_end_a_run(tmp_path,
                                                             capsys):
    path = tmp_path / "sod.case"
    assert run_cli("gen", "--kind", "sod", "--cfl", -0.5, "--out", path) == 2
    assert capsys.readouterr().err == \
        "error: cfl must be finite and positive, got -0.5\n"
    assert not path.exists()


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_run_reports_the_clock_it_measured(tmp_path, capsys):
    # A run of a coprocessor plan writes no modeled timeline.
    case_path = tmp_path / "corner.case"
    save_case(small_corner(), case_path)
    run_dir = tmp_path / "run"
    assert run_cli("run", "--case", case_path, "--out-dir", run_dir) == 0
    out = capsys.readouterr().out
    (row,) = metrics_from_csv(str(run_dir / "metrics.csv"))
    assert row.timing_source == "wall" and row.model_seconds is None
    assert row.mcups == row.total_cells * row.iterations \
        / row.wall_seconds / 1e6
    assert (row.total_cells, row.iterations) == (1440, 2)
    assert f"wall {row.wall_seconds:.4f} s, {row.mcups:.2f} MCUPS" in out
    assert "makespan" not in out
    assert not (run_dir / "timeline.csv").exists()


def test_cli_runs_a_corner_case_with_a_periodic_span_over_10_cells(
        tmp_path):
    # Every block is fed by another rank or node and spans the 12-cell
    # periodic z axis whole, which has a halo-free range but is never cut.
    case_path = tmp_path / "corner.case"
    assert run_cli("gen", "--kind", "corner", "--nodes", 2, "--columns", 40,
                   "--cross", 12, "--max-iters", 1, "--out", case_path) == 0
    assert run_cli("run", "--case", case_path,
                   "--out-dir", tmp_path / "run") == 0
    dump = read_dump(tmp_path / "run" / "fields.bin")
    out = run_case(load_case(case_path))
    assert out.iterations == 1 and sorted(dump) == sorted(out.fields)
    for bid, f in out.fields.items():
        assert np.array_equal(dump[bid], f.interior)


def test_cli_model_only_run(tmp_path, capsys):
    # The sha256 of the files it writes since blocks keep no ghosts along
    # the periodic axes they span whole, which dropped the local copies
    # that the model prices.
    case_path = tmp_path / "corner.case"
    save_case(small_corner(), case_path)
    out_dir = tmp_path / "model"
    assert run_cli("run", "--case", case_path, "--model-only",
                   "--out-dir", out_dir) == 0
    out = capsys.readouterr().out
    assert "makespan" in out
    (row,) = metrics_from_csv(str(out_dir / "metrics.csv"))
    assert row.timing_source == "model" and row.model_seconds > 0
    assert sha256_of(out_dir / "timeline.csv") == \
        "a92af44c301314205ecff78bf236e0fa5a23d2adf290dcffd74e42740eb04554"
    assert sha256_of(out_dir / "metrics.csv") == \
        "95cd5dc28412e1507e4302b96c707d60387f3c622dcc108bba21af15b0644fe0"


def test_cli_model_only_run_models_the_steps_a_run_takes(tmp_path, capsys):
    """A case that ends at t-end without a fixed dt has no step count to
    model: ``--model-only`` exits 2 at once, naming ``--max-iters``, and
    models that many steps when given it.  With a fixed dt it models the
    steps the run takes to reach t-end (a shortened last one included),
    not the case's max-iters."""
    adaptive = tmp_path / "adaptive.case"
    assert run_cli("gen", "--kind", "wave", "--n", 8, "--out", adaptive) == 0
    t_start = time.monotonic()
    assert run_cli("run", "--case", adaptive, "--model-only",
                   "--out-dir", tmp_path / "none") == 2
    assert time.monotonic() - t_start < 5.0
    assert "give --max-iters" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()
    assert run_cli("run", "--case", adaptive, "--model-only", "--max-iters",
                   3, "--out-dir", tmp_path / "three") == 0
    assert metrics_from_csv(str(tmp_path / "three" / "metrics.csv"))[0] \
        .iterations == 3
    fixed = tmp_path / "fixed.case"
    assert run_cli("gen", "--kind", "wave", "--n", 8, "--t-end", 0.0025,
                   "--fixed-dt", 1e-3, "--out", fixed) == 0
    rows = []
    for mode in ((), ("--model-only",)):
        out_dir = tmp_path / f"fixed{len(mode)}"
        assert run_cli("run", "--case", fixed, *mode,
                       "--out-dir", out_dir) == 0
        (row,) = metrics_from_csv(str(out_dir / "metrics.csv"))
        rows.append(row)
    assert [r.timing_source for r in rows] == ["wall", "model"]
    assert rows[0].iterations == rows[1].iterations == 3


def test_cli_sweep_ratio(tmp_path, capsys):
    case_path = tmp_path / "corner.case"
    save_case(small_corner(), case_path)
    out_csv = tmp_path / "sweep.csv"
    assert run_cli("sweep-ratio", "--case", case_path, "--ratios",
                   "1,0.75,0.5", "--steps", 1, "--out", out_csv) == 0
    out = capsys.readouterr().out
    rows = metrics_from_csv(str(out_csv))
    assert [r.label for r in rows] == ["corner-1n-r1", "corner-1n-r0.75",
                                       "corner-1n-r0.5"]
    assert all(r.comp_seconds is not None for r in rows)
    speedups = [float(r.extra.removeprefix("speedup=")) for r in rows]
    best = rows[speedups.index(max(speedups))].label.rsplit("-r", 1)[1]
    assert f"best ratio {best} (speedup {max(speedups):.3f})" in out


def test_cli_bench_comm(tmp_path, capsys):
    case_path = tmp_path / "corner.case"
    save_case(small_corner(), case_path)
    assert run_cli("bench", "--case", case_path, "--mode", "comm",
                   "--steps", 1) == 0
    out = capsys.readouterr().out
    assert "tuned" in out and "naive" in out


def test_cli_bench_weak_and_strong(tmp_path, capsys):
    # Modeled scaling of the small corner layout on one and two nodes: weak
    # keeps 40 columns per node, strong spreads one 2-node case.
    makespan = {n: model_schedule(small_corner(nodes=n), steps=1).makespan
                for n in (1, 2)}
    one, two = tmp_path / "one.case", tmp_path / "two.case"
    save_case(small_corner(), one)
    save_case(small_corner(nodes=2), two)

    weak_csv = tmp_path / "weak.csv"
    assert run_cli("bench", "--case", one, "--mode", "weak", "--ranks", "1,2",
                   "--steps", 1, "--out", weak_csv) == 0
    out = capsys.readouterr().out.splitlines()
    per = [makespan[1] * 1e3, makespan[2] * 1e3]
    assert out[0].startswith(f"nodes   1 ranks   1: {per[0]:9.3f} ms/step  "
                             "variation  0.00%")
    variation = abs(per[1] - per[0]) / per[0] * 100
    assert out[1].startswith(f"nodes   2 ranks   2: {per[1]:9.3f} ms/step  "
                             f"variation {variation:5.2f}%")
    rows = metrics_from_csv(str(weak_csv))
    assert [r.label for r in rows] == ["corner-1n-w1", "corner-1n-w2"]
    assert [r.total_cells for r in rows] == [1440, 2880]
    assert [r.model_seconds for r in rows] == [makespan[1], makespan[2]]
    assert all(r.timing_source == "model" and r.iterations == 1
               for r in rows)

    strong_csv = tmp_path / "strong.csv"
    assert run_cli("bench", "--case", two, "--mode", "strong", "--ranks",
                   "1,2", "--steps", 1, "--out", strong_csv) == 0
    out = capsys.readouterr().out.splitlines()
    rows = metrics_from_csv(str(strong_csv))
    assert [r.label for r in rows] == ["corner-2n-s1", "corner-2n-s2"]
    assert [r.total_cells for r in rows] == [2880, 2880]
    assert rows[1].model_seconds == makespan[2]
    speedup = rows[0].model_seconds / rows[1].model_seconds
    assert speedup > 1.0
    assert rows[0].extra == "speedup=1.000;efficiency=1.000"
    assert rows[1].extra == (f"speedup={speedup:.3f};"
                             f"efficiency={speedup / 2:.3f}")
    assert out[0].startswith("nodes   1 ranks   1: "
                             f"{rows[0].model_seconds * 1e3:9.3f}"
                             " ms  speedup  1.000  efficiency 1.000")
    assert out[1].startswith(f"nodes   2 ranks   2: {makespan[2] * 1e3:9.3f}"
                             f" ms  speedup {speedup:6.3f}  "
                             f"efficiency {speedup / 2:5.3f}")


def test_cli_bench_weak_and_strong_label_nodes_and_ranks(tmp_path, capsys):
    # Two ranks per node, each driving one CPU socket and one coprocessor:
    # every line names the variant's nodes and its ranks, which differ.
    case = with_ranks(small_corner(topology=NodeTopology(1, 2, 2)), 2)
    one, two = tmp_path / "one.case", tmp_path / "two.case"
    save_case(case, one)
    save_case(with_nodes(case, 2), two)
    for mode, path, variant in (("weak", one, with_nodes),
                                ("strong", two, spread)):
        csv = tmp_path / f"{mode}.csv"
        assert run_cli("bench", "--case", path, "--mode", mode, "--ranks",
                       "1,2", "--steps", 1, "--out", csv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("nodes   1 ranks   2: ")
        assert out[1].startswith("nodes   2 ranks   4: ")
        rows = metrics_from_csv(str(csv))
        for n, row in zip((1, 2), rows):
            want = variant(load_case(path), n)
            assert (want.topology.nodes, want.ranks) == (n, 2 * n)
            assert row.model_seconds == model_schedule(want,
                                                       steps=1).makespan


@pytest.mark.parametrize("case,cells", [(small_corner(), 1440),
                                        (wave_case(16), 4096)],
                         ids=["corner", "wave"])
def test_cli_bench_strong_spreads_the_zone(tmp_path, capsys, case, cells):
    """Strong scaling models one fixed zone on more nodes: a corner case
    lays its columns out over them, any other case runs on more ranks."""
    path, csv = tmp_path / "strong.case", tmp_path / "strong.csv"
    save_case(case, path)
    assert run_cli("bench", "--case", path, "--mode", "strong", "--ranks",
                   "1,2,4", "--steps", 1, "--out", csv) == 0
    rows = metrics_from_csv(str(csv))
    assert [r.label for r in rows] == [f"{case.name}-s{r}" for r in (1, 2, 4)]
    for r, row in zip((1, 2, 4), rows):
        assert row.total_cells == cells
        assert row.model_seconds == model_schedule(spread(case, r),
                                                   steps=1).makespan
    capsys.readouterr()
    if case.kind == "corner":
        assert run_cli("bench", "--case", path, "--mode", "strong",
                       "--ranks", "1,3", "--steps", 1) == 2
        assert "error: 40 columns do not divide over 3 nodes" in \
            capsys.readouterr().err


def test_cli_bench_weak_keeps_the_case_models(tmp_path, capsys):
    slow = replace(small_corner(), cpu=replace(DEFAULT_CPU,
                                               relative_throughput=1e6))
    rows = {}
    for name, case in (("default", small_corner()), ("slow", slow)):
        path, csv = tmp_path / f"{name}.case", tmp_path / f"{name}.csv"
        save_case(case, path)
        assert run_cli("bench", "--case", path, "--mode", "weak",
                       "--ranks", "1,2", "--steps", 1, "--out", csv) == 0
        rows[name] = metrics_from_csv(str(csv))
    capsys.readouterr()
    for r, row in zip((1, 2), rows["slow"]):
        variant = with_nodes(slow, r)
        assert row.model_seconds == model_schedule(variant, steps=1).makespan
        assert row.total_cells == variant.zone.cells
    assert all(s.model_seconds > d.model_seconds
               for s, d in zip(rows["slow"], rows["default"]))


def test_cli_bench_matrix_runs_cpu_only_variants(tmp_path, capsys,
                                                 monkeypatch):
    case = wave_case(8, t_end=0.002, fixed_dt=1e-3)
    path = tmp_path / "wave.case"
    save_case(case, path)
    ran = []
    run_case = cli.run_case

    def recording_run_case(variant, **kw):
        ran.append(variant)
        return run_case(variant, **kw)

    monkeypatch.setattr(cli, "run_case", recording_run_case)
    out_csv = tmp_path / "matrix.csv"
    assert run_cli("bench", "--case", path, "--mode", "matrix", "--ranks",
                   "1,2", "--workers-list", 1, "--out", out_csv) == 0
    out = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in out[:2]] == \
        ["ranks 1 x workers 1", "ranks 2 x workers 1"]
    rows = metrics_from_csv(str(out_csv))
    assert [row.label for row in rows] == ["wave-8-p1t1", "wave-8-p2t1"]
    for r, variant in zip((1, 2), ran):
        want = with_ranks(cpu_only_variant(case), r)
        assert variant == replace(want, name=variant.name)
        assert variant.topology == NodeTopology(1, r, 0)
        assert variant.coprocessor is None
        assert len(case_plan(variant).blocks) == r


def test_cli_partition_ranks_match_gen_ranks(tmp_path, capsys):
    one, two = tmp_path / "w16.case", tmp_path / "w16r2.case"
    assert run_cli("gen", "--kind", "wave", "--n", 16, "--out", one) == 0
    assert run_cli("gen", "--kind", "wave", "--n", 16, "--ranks", 2,
                   "--out", two) == 0
    capsys.readouterr()
    assert run_cli("partition", "--case", one, "--ranks", 2) == 0
    by_flag = capsys.readouterr().out
    assert run_cli("partition", "--case", two) == 0
    assert by_flag == capsys.readouterr().out
    assert by_flag.startswith("wcnsflow-plan 2\nranks 2\n")


def test_cli_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.case"
    bad.write_text("other-format 1\n", encoding="utf-8")
    assert run_cli("partition", "--case", bad) == 2
    assert "error:" in capsys.readouterr().err

    typo = tmp_path / "typo.case"
    typo.write_text(case_to_text(uniform_case()).replace("shape=", "shap="),
                    encoding="utf-8")
    assert run_cli("run", "--case", typo, "--out-dir", tmp_path) == 2
    assert "zone record: missing shape=" in capsys.readouterr().err
    # A misspelt key beside the right one, which used to be ignored.
    typo.write_text(case_to_text(uniform_case()).replace(
        "max-iters=", "max-iter=5 max-iters="), encoding="utf-8")
    assert run_cli("run", "--case", typo, "--out-dir", tmp_path / "typo") == 2
    assert "error: time record: unknown key max-iter=" in \
        capsys.readouterr().err
    assert not (tmp_path / "typo").exists()

    uni = tmp_path / "uni.case"
    save_case(uniform_case(max_iters=1), uni)
    plan = tmp_path / "uni.plan"
    plan.write_text(plan_to_text(case_plan(uniform_case())).replace(
        " lo=", " low="), encoding="utf-8")
    assert run_cli("run", "--case", uni, "--plan", plan,
                   "--out-dir", tmp_path) == 2
    assert "block record: missing lo=" in capsys.readouterr().err
    for old, new, record in [("block 0", "block 3", "block record"),
                             ("rank=0\n", "rank=5\n", "block record"),
                             ("blocks=0", "blocks=7", "group record"),
                             ("group 0 rank=0", "group 0 rank=3",
                              "group record"),
                             (" blocks=0\n", "\n", "group record")]:
        plan.write_text(plan_to_text(case_plan(uniform_case())).replace(
            old, new, 1), encoding="utf-8")
        assert run_cli("run", "--case", uni, "--plan", plan,
                       "--out-dir", tmp_path) == 2
        assert f"error: {record}: " in capsys.readouterr().err
    # A run that takes no step has no rate to report, and writes nothing.
    assert run_cli("run", "--case", uni, "--max-iters", 0,
                   "--out-dir", tmp_path / "no-step") == 2
    assert "error: uniform-16x16x16 took no step (max-iters 0)" in \
        capsys.readouterr().err
    assert not (tmp_path / "no-step").exists()
    assert run_cli("bench", "--case", uni, "--mode", "weak") == 2
    assert "error: a uniform case has no per-node layout" in \
        capsys.readouterr().err
    # A coprocessor topology without a coprocessor model is refused on
    # load, before any solve.
    no_model = tmp_path / "no-model.case"
    no_model.write_text("".join(
        ln for ln in case_to_text(small_corner()).splitlines(True)
        if not ln.startswith("device class=coprocessor")), encoding="utf-8")
    for model_only in ((), ("--model-only",)):
        assert run_cli("run", "--case", no_model, "--out-dir",
                       tmp_path / "no-model", *model_only) == 2
        assert "error: topology record has coproc=3 but no device " \
            "class=coprocessor record" in capsys.readouterr().err
    assert not (tmp_path / "no-model" / "fields.bin").exists()
    # So is a plan with coprocessor groups for a case without that model.
    corner_plan = tmp_path / "corner.plan"
    corner_plan.write_text(plan_to_text(case_plan(small_corner())),
                           encoding="utf-8")
    cpu_only = tmp_path / "cpu-only.case"
    save_case(cpu_only_variant(small_corner()), cpu_only)
    for model_only in ((), ("--model-only",)):
        assert run_cli("run", "--case", cpu_only, "--plan", corner_plan,
                       "--out-dir", tmp_path / "cpu-only", *model_only) == 2
        assert "error: plan group 2 (rank 0) runs on a coprocessor, but " \
            "the case has no coprocessor model" in capsys.readouterr().err
    assert not (tmp_path / "cpu-only" / "fields.bin").exists()
    assert run_cli("run", "--case", uni, "--transport", "socket",
                   "--out-dir", tmp_path) == 2
    # gen rejects a flag the kind's generator does not take, and ranks
    # that the topology cannot hold, writing nothing.
    for kind, flags, named in [
            ("corner", ("--n", 10), "gen --kind corner does not take --n"),
            ("wave", ("--max-iters", 5, "--cfl", 0.3),
             "gen --kind wave does not take --max-iters"),
            ("wave", ("--cfl", 0.3), "gen --kind wave does not take --cfl"),
            ("uniform", ("--t-end", 0.1),
             "gen --kind uniform does not take --t-end"),
            ("sod", ("--mach", 2.0), "gen --kind sod does not take --mach"),
            ("corner", ("--nodes", 2, "--columns", 40, "--cross", 6,
                        "--ranks", 3), "3 ranks do not divide over 2 nodes")]:
        assert run_cli("gen", "--kind", kind, *flags,
                       "--out", tmp_path / "no.case") == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "no.case").exists()
    assert run_cli("gen", "--kind", "wave", "--n", "8,8",
                   "--out", tmp_path / "no.case") == 2
    assert "error: gen --n takes one size" in capsys.readouterr().err
    two = tmp_path / "two.case"
    assert run_cli("gen", "--kind", "wave", "--n", 8, "--blocks", 2,
                   "--ranks", 2, "--out", two) == 0
    for rank, addresses, named in [
            (0, "127.0.0.1:abc,127.0.0.1:1", "address '127.0.0.1:abc'"),
            (3, "127.0.0.1:1,127.0.0.1:2", "rank 3 has no address"),
            (0, "127.0.0.1:1", "case wants 2 ranks, 1 addresses given")]:
        capsys.readouterr()
        assert run_cli("run", "--case", two, "--transport", "socket",
                       "--rank", rank, "--addresses", addresses,
                       "--out-dir", tmp_path) == 2
        assert f"error: {named}" in capsys.readouterr().err

    # One zone per case and plan, and only version-3 case files and
    # version-2 plan files.
    case_text = case_to_text(uniform_case(max_iters=1))
    plan_text = plan_to_text(case_plan(uniform_case()))
    (zone,) = [ln for ln in case_text.splitlines() if ln.startswith("zone ")]
    for case_file, plan_file, named in [
            (case_text + zone + "\n", plan_text,
             "zone record: a case has one zone"),
            (case_text, plan_text + zone + "\n",
             "zone record: a plan has one zone"),
            (case_text.replace("wcnsflow-case 3", "wcnsflow-case 2"),
             plan_text, "unsupported case version '2'"),
            (case_text, plan_text.replace("wcnsflow-plan 2",
                                          "wcnsflow-plan 1"),
             "unsupported plan version '1'")]:
        uni.write_text(case_file, encoding="utf-8")
        plan.write_text(plan_file, encoding="utf-8")
        assert run_cli("run", "--case", uni, "--plan", plan,
                       "--out-dir", tmp_path) == 2
        assert f"error: {named}" in capsys.readouterr().err

    # A blocks record that does not cut the zone, and a block count that
    # cannot: run and partition write nothing.
    for bad, named in [
            ("blocks x=16 y=16", "blocks record: missing z="),
            ("blocks x=16 y=0,16 z=16", "blocks record: y width 0 is below 1"),
            ("blocks x=8,4 y=16 z=16", "blocks record: x widths sum to 12, "
             "the zone has 16 cells along x")]:
        uni.write_text(case_text.replace("blocks x=16 y=16 z=16", bad),
                       encoding="utf-8")
        assert run_cli("run", "--case", uni,
                       "--out-dir", tmp_path / "bad-blocks") == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert run_cli("partition", "--case", uni,
                       "--out", tmp_path / "bad.plan") == 2
        assert f"error: {named}" in capsys.readouterr().err
    save_case(uniform_case(max_iters=1), uni)
    assert run_cli("partition", "--case", uni, "--blocks", 0,
                   "--out", tmp_path / "bad.plan") == 2
    assert "error: cannot cut 4096 cells into 0 blocks" in \
        capsys.readouterr().err
    assert not (tmp_path / "bad-blocks").exists()
    assert not (tmp_path / "bad.plan").exists()

    # A stray word before the fields, and a plan of another zone.
    uni.write_text(case_text.replace("zone shape=", "zone 7 shape="),
                   encoding="utf-8")
    assert run_cli("run", "--case", uni, "--out-dir", tmp_path) == 2
    assert ("error: zone record: expected key=value, got '7'"
            in capsys.readouterr().err)
    save_case(uniform_case(max_iters=1), uni)
    plan.write_text(plan_to_text(case_plan(uniform_case((12, 12, 12)))),
                    encoding="utf-8")
    for model_only in ((), ("--model-only",)):
        assert run_cli("run", "--case", uni, "--plan", plan,
                       "--out-dir", tmp_path, *model_only) == 2
        assert "error: the plan's zone" in capsys.readouterr().err

    # Missing files and directories name their path.
    nowhere = tmp_path / "nowhere"
    for argv in [("run", "--case", nowhere / "x.case", "--out-dir", tmp_path),
                 ("run", "--case", uni, "--plan", nowhere / "x.plan",
                  "--out-dir", tmp_path),
                 ("report", "--dump", nowhere / "x.bin"),
                 ("gen", "--kind", "wave", "--n", 8,
                  "--out", nowhere / "x.case")]:
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(nowhere) in err, argv
    assert run_cli("run", "--case", uni, "--best-of", 0,
                   "--out-dir", tmp_path) == 2
    assert "error: best_of must be at least 1, got 0" in \
        capsys.readouterr().err

    # Malformed result files name the file.
    metrics, timeline, dump = (tmp_path / n for n in ("m.csv", "t.csv",
                                                      "d.bin"))
    metrics.write_text("start,end,device,phase,note\n", encoding="utf-8")
    timeline.write_text("start,end,device,phase,note\n0.5,oops\n",
                        encoding="utf-8")
    dump.write_bytes(b"WCNSDUMP" + struct.pack("<II", 1, 1) + b"\0" * 8)
    for flag, path, named in [
            ("--metrics", metrics, "metrics header lacks the columns"),
            ("--timeline", timeline, "line 2: want start,end,device"),
            ("--dump", dump, "truncated header of block 0 of 1")]:
        assert run_cli("report", flag, path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and named in err, flag


@pytest.mark.parametrize("flags, named", [
    (("--model-only", "--transport", "socket"),
     "run --model-only does not take --transport socket"),
    (("--model-only", "--best-of", 2),
     "run --model-only does not take --best-of"),
    (("--transport", "socket", "--best-of", 2),
     "run --transport socket does not take --best-of"),
    (("--model-only", "--workers", 1),
     "run --model-only does not take --workers"),
    (("--rank", 0), "run --transport inproc does not take --rank"),
    (("--addresses", "127.0.0.1:1"),
     "run --transport inproc does not take --addresses"),
], ids=["model-only-socket", "best-of-model-only", "best-of-socket",
        "workers-model-only", "rank-inproc", "addresses-inproc"])
def test_cli_run_refuses_a_flag_its_mode_does_not_read(tmp_path, capsys,
                                                       flags, named):
    """A run would drop each of these flags without a word; it exits 2
    naming the flag and writes nothing.  A socket run gets the rank and
    address of a one-rank case, which it could run alone."""
    case_path = tmp_path / "uniform.case"
    save_case(uniform_case((8, 8, 8), max_iters=1), case_path)
    socket = ("--rank", 0, "--addresses", f"127.0.0.1:{free_port()}") \
        if "socket" in flags else ()
    assert run_cli("run", "--case", case_path, *flags, *socket,
                   "--out-dir", tmp_path / "out") == 2
    assert f"error: {named}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def run_cli_socket_ranks(tmp_path, *args):
    """``wcnsflow run ... --transport socket`` for ranks 1 and 0 in threads,
    rank r writing to ``tmp_path / f"r{r}"``; returns the exit codes."""
    addresses = ",".join(f"127.0.0.1:{free_port()}" for _ in range(2))
    codes = {}

    def rank_main(rank):
        codes[rank] = run_cli("run", *args, "--transport", "socket",
                              "--rank", rank, "--addresses", addresses,
                              "--out-dir", tmp_path / f"r{rank}")

    threads = [threading.Thread(target=rank_main, args=(r,)) for r in (1, 0)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    return codes


def test_cli_socket_ranks_write_the_in_process_results(tmp_path):
    case_path = tmp_path / "wave.case"
    assert run_cli("gen", "--kind", "wave", "--n", 8, "--t-end", 0.002,
                   "--fixed-dt", 1e-3, "--blocks", 2, "--ranks", 2,
                   "--out", case_path) == 0
    assert run_cli("run", "--case", case_path,
                   "--out-dir", tmp_path / "inproc") == 0
    assert run_cli_socket_ranks(tmp_path, "--case", case_path) == \
        {0: 0, 1: 0}
    assert (tmp_path / "r0" / "fields.bin").read_bytes() == \
        (tmp_path / "inproc" / "fields.bin").read_bytes()
    (inproc,) = metrics_from_csv(str(tmp_path / "inproc" / "metrics.csv"))
    (tcp,) = metrics_from_csv(str(tmp_path / "r0" / "metrics.csv"))
    assert tcp.messages == inproc.messages > 0
    assert tcp.message_bytes == inproc.message_bytes


def test_cli_naive_exchange_sends_more_messages_for_the_same_fields(tmp_path):
    case_path = tmp_path / "wave.case"
    assert run_cli("gen", "--kind", "wave", "--n", 8, "--t-end", 0.002,
                   "--fixed-dt", 1e-3, "--blocks", 2, "--ranks", 2,
                   "--out", case_path) == 0
    for name, flags in (("tuned", ()), ("naive", ("--naive-exchange",))):
        assert run_cli("run", "--case", case_path,
                       "--out-dir", tmp_path / name, *flags) == 0
    assert (tmp_path / "naive" / "fields.bin").read_bytes() == \
        (tmp_path / "tuned" / "fields.bin").read_bytes()
    (tuned,) = metrics_from_csv(str(tmp_path / "tuned" / "metrics.csv"))
    (naive,) = metrics_from_csv(str(tmp_path / "naive" / "metrics.csv"))
    assert naive.messages > tuned.messages > 0
    assert naive.message_bytes == tuned.message_bytes


def test_cli_socket_ranks_run_the_plan_file(tmp_path):
    case_path = tmp_path / "wave.case"
    plan_path = tmp_path / "wave.plan"
    assert run_cli("gen", "--kind", "wave", "--n", 8, "--t-end", 0.002,
                   "--fixed-dt", 1e-3, "--blocks", 2, "--ranks", 2,
                   "--out", case_path) == 0
    assert run_cli("partition", "--case", case_path, "--blocks", 4,
                   "--out", plan_path) == 0
    assert run_cli("run", "--case", case_path, "--plan", plan_path,
                   "--out-dir", tmp_path / "inproc") == 0
    assert run_cli_socket_ranks(tmp_path, "--case", case_path, "--plan",
                                plan_path) == {0: 0, 1: 0}
    dump = tmp_path / "r0" / "fields.bin"
    assert dump.read_bytes() == \
        (tmp_path / "inproc" / "fields.bin").read_bytes()
    assert sorted(read_dump(dump)) == [0, 1, 2, 3]


def test_cli_run_is_deterministic(tmp_path):
    case_path = tmp_path / "wave.case"
    assert run_cli("gen", "--kind", "wave", "--n", 8, "--t-end", 0.002,
                   "--fixed-dt", 1e-3, "--out", case_path) == 0
    for d in ("a", "b"):
        assert run_cli("run", "--case", case_path,
                       "--out-dir", tmp_path / d) == 0
    first = (tmp_path / "a" / "fields.bin").read_bytes()
    second = (tmp_path / "b" / "fields.bin").read_bytes()
    assert first == second


# ---------------------------------------------------------------------------
# Package exports

def test_package_exports_resolve_once():
    import wcnsflow
    names = wcnsflow.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    assert [n for n in names if not hasattr(wcnsflow, n)] == []
    namespace: dict = {}
    exec("from wcnsflow import *", namespace)
    assert set(names) <= set(namespace)


# ---------------------------------------------------------------------------
# Source guards

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wcnsflow"


def parsed(*dirs: Path) -> dict[Path, ast.Module]:
    """Every Python file under ``dirs``, parsed."""
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted(d.rglob("*.py"))}


def test_package_imports_only_the_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "wcnsflow"}
    foreign = []
    for path, tree in parsed(PACKAGE).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, node.lineno, name) for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []


def test_every_package_definition_is_named_outside_itself():
    """Every function, class and method that ``src/wcnsflow`` defines,
    dunders aside, is named (called, imported, patched or looked up by its
    name) somewhere in ``src``, ``tests`` or ``perfbench`` outside its own
    definition: no code that no path reaches."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    defs = []
    for path, tree in parsed(ROOT / "src", ROOT / "tests",
                             ROOT / "perfbench").items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and node.value.isidentifier():
                name = node.value
            else:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                        and PACKAGE in path.parents
                        and not node.name.startswith("__")):
                    defs.append((path, node))
                continue
            uses.setdefault(name, []).append((path, node.lineno))
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, node in defs
              if not any(p != path or not
                         node.lineno <= line <= node.end_lineno
                         for p, line in uses.get(node.name, ()))]
    assert len(defs) > 100 and unused == []
