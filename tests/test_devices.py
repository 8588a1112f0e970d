"""Device cost models, worker pools, and modeled timelines."""

import io
import mmap
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcnsflow.devices import (
    DEFAULT_COPROCESSOR,
    DEFAULT_CPU,
    DeviceModel,
    LinkModel,
    NetworkModel,
    OVERSUBSCRIPTION,
    device_label,
    rank_pool,
)
from wcnsflow.cases import case_plan, corner_case, sod_case, wave_case, \
    with_ranks
from wcnsflow.errors import CaseFormatError, InvalidStateError
from wcnsflow.halo import build_halo_plan
from wcnsflow.partition import Group, NodeTopology
from wcnsflow.model import model_schedule, sweep_list
from wcnsflow.schedule import Interval, ModelClock, Timeline, timeline_report
from wcnsflow.timestepping import STAGES

finite = {"allow_nan": False, "allow_infinity": False}


# ---------------------------------------------------------------------------
# Cost models

def test_link_transfer_cost_is_latency_plus_wire_time():
    """0.00101 s was frozen from the root oracle script
    ``scratch_oracles.py`` (section 4), since deleted."""
    link = LinkModel(bandwidth=8.0e9, latency=1.0e-5)
    assert link.transfer_seconds(8_000_000) == 0.00101
    assert link.transfer_seconds(0) == 1.0e-5


def test_link_model_validation():
    with pytest.raises(ValueError):
        LinkModel(bandwidth=0.0)
    with pytest.raises(ValueError):
        LinkModel(bandwidth=1e9, latency=-1.0)


def test_network_message_cost_adds_software_overhead():
    net = NetworkModel(bandwidth=1e10, latency=2e-6, per_message_overhead=1e-6)
    assert net.message_seconds(0) == pytest.approx(3e-6)
    assert net.message_seconds(10_000_000) == pytest.approx(3e-6 + 1e-3)


def test_device_compute_cost():
    dev = DeviceModel("cpu", relative_throughput=1e6, kernel_overhead=1e-5)
    seconds = dev.kernel_overhead + 50_000 / dev.relative_throughput
    assert seconds == pytest.approx(0.05001)


def test_device_class_link_pairing_is_enforced():
    link = LinkModel(bandwidth=1e9)
    with pytest.raises(ValueError, match="link"):
        DeviceModel("cpu", relative_throughput=1.0, link=link)
    with pytest.raises(ValueError, match="link"):
        DeviceModel("coprocessor", relative_throughput=1.0)
    with pytest.raises(ValueError):
        DeviceModel("gpu", relative_throughput=1.0)
    with pytest.raises(ValueError):
        DeviceModel("cpu", relative_throughput=0.0)


def test_default_devices_are_consistent():
    assert DEFAULT_CPU.device_class == "cpu" and DEFAULT_CPU.link is None
    assert DEFAULT_COPROCESSOR.device_class == "coprocessor"
    assert DEFAULT_COPROCESSOR.link is not None


# ---------------------------------------------------------------------------
# Pools

def test_rank_pool_is_named_for_its_rank_and_sized_for_the_host():
    host = os.cpu_count() or 1
    for max_workers, workers in [(None, min(host, 4)), (1, 1), (0, 1),
                                 (3, 3)]:
        pool = rank_pool(2, max_workers)
        assert (pool.name, pool.workers) == ("rank2", workers)
        assert pool.processes == []


def test_pools_execute_submitted_work():
    group = Group(id=0, rank=1, device_class="coprocessor", device_index=2,
                  block_ids=[0])
    assert device_label(1, group) == "rank1/mic2"
    many = OVERSUBSCRIPTION * (os.cpu_count() or 1) + 1
    with pytest.warns(RuntimeWarning, match=f"rank 1 wants {many} worker "
                      "processes"):
        assert rank_pool(1, many).processes == []      # never started
    pool = rank_pool(1, 2)
    assert pool.processes == []                # nothing starts by itself
    pids = np.ndarray(2, dtype=np.int64, buffer=mmap.mmap(-1, 16))

    def serve(task):
        k, fail = task
        if fail:
            raise InvalidStateError("refused", block_id=k)
        pids[k] = os.getpid()

    pool.start(serve)
    workers = [p.process for p in pool.processes]
    assert [w.name for w in workers] == ["rank1/0", "rank1/1"]
    try:
        # submit runs its task here; send hands a task to one worker.
        assert pool.submit(lambda x: x + 1, 41) == 42
        for pending in [pool.send(k, (k, False)) for k in range(2)]:
            pending.result()
        assert sorted(pids) == sorted(w.pid for w in workers)
        with pytest.raises(InvalidStateError, match="refused") as info:
            pool.send(1, (1, True)).result()
        assert info.value.block_id == 1
    finally:
        pool.shutdown()
    assert pool.processes == []
    assert not any(w.is_alive() for w in workers)


# ---------------------------------------------------------------------------
# Timelines

def test_interval_validation_and_duration():
    iv = Interval("rank0/cpu0", "compute", 1.0, 3.5)
    assert iv.duration == 2.5
    with pytest.raises(ValueError):
        Interval("d", "think", 0.0, 1.0)
    with pytest.raises(ValueError):
        Interval("d", "compute", 2.0, 1.0)


def serial_timeline() -> Timeline:
    tl = Timeline()
    tl.add("cpu", "compute", 0.0, 2.0)
    tl.add("link", "transfer_in", 2.0, 3.0)
    tl.add("cpu", "compute", 3.0, 4.0)
    return tl


def overlapped_timeline() -> Timeline:
    tl = Timeline()
    tl.add("cpu", "compute", 0.0, 2.0)
    tl.add("link", "transfer_in", 0.5, 1.5)
    return tl


def test_makespan_and_serialized_total():
    tl = serial_timeline()
    assert tl.makespan == 4.0
    assert tl.serialized_total == 4.0
    assert tl.covered()
    tl2 = overlapped_timeline()
    assert tl2.makespan == 2.0
    assert tl2.serialized_total == 3.0
    assert tl2.makespan <= tl2.serialized_total


def test_hidden_communication_accounting():
    assert serial_timeline().hidden_comm_fraction == 0.0
    assert overlapped_timeline().hidden_comm_fraction == 1.0
    tl = Timeline()
    tl.add("cpu", "compute", 0.0, 1.0)
    tl.add("link", "message", 0.5, 1.5)   # half under compute
    assert tl.hidden_comm_seconds == pytest.approx(0.5)
    assert tl.hidden_comm_fraction == pytest.approx(0.5)
    empty = Timeline()
    assert empty.hidden_comm_fraction == 0.0
    assert empty.makespan == 0.0


def test_ghost_stalls_and_comp_stall_ratio():
    tl = Timeline()
    tl.add("cpu", "compute", 0.0, 4.0)
    assert tl.comp_stall_ratio() == float("inf")
    tl.add("cpu", "wait", 4.0, 5.0, note="ghosts")
    tl.add("cpu", "wait", 5.0, 5.5, note="barrier")   # not a ghost stall
    assert tl.ghost_stall_seconds == 1.0
    assert tl.comp_stall_ratio() == 4.0


def test_device_breakdown():
    tl = serial_timeline()
    assert tl.devices() == ["cpu", "link"]
    assert tl.busy("cpu") == 3.0
    assert tl.busy("link") == 1.0
    assert tl.phase_total("compute") == 3.0
    assert len(tl.of_device("cpu")) == 2
    report = timeline_report(tl)
    assert "makespan" in report and "cpu" in report


def test_timeline_csv_roundtrip(tmp_path):
    tl = serial_timeline()
    tl.add("link", "wait", 3.0, 3.25, note="ghosts")
    path = tmp_path / "tl.csv"
    tl.to_csv(str(path))
    back = Timeline.from_csv(str(path))
    assert len(back.intervals) == len(tl.intervals)
    assert back.makespan == tl.makespan
    assert back.serialized_total == tl.serialized_total
    assert back.ghost_stall_seconds == tl.ghost_stall_seconds
    got = sorted((iv.device, iv.phase, iv.start, iv.end, iv.note)
                 for iv in back.intervals)
    want = sorted((iv.device, iv.phase, iv.start, iv.end, iv.note)
                  for iv in tl.intervals)
    assert got == want


def test_timeline_csv_via_stream():
    tl = overlapped_timeline()
    buf = io.StringIO()
    tl.to_csv(buf)
    back = Timeline.from_csv(io.StringIO(buf.getvalue()))
    assert back.makespan == tl.makespan


def test_timeline_csv_rejects_malformed_lines(tmp_path):
    path = tmp_path / "tl.csv"
    head = "start,end,device,phase,note\n"
    for text, match in [
            ("label,total_cells\n", "tl.csv: not a timeline file"),
            (head + "0.0,1.0,cpu\n", "tl.csv, line 2: want start,end"),
            (head + "0.0,1.0,cpu,compute,\nx,1.0,cpu,compute,\n",
             "tl.csv, line 3: .*could not convert"),
            (head + "0.0,1.0,cpu,nap,\n", "unknown phase 'nap'")]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CaseFormatError, match=match):
            Timeline.from_csv(str(path))


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=10.0, **finite),
                          st.floats(min_value=0.0, max_value=2.0, **finite)),
                min_size=1, max_size=12))
def test_makespan_never_exceeds_serialized_total(spans):
    """Sequential-per-device schedules keep the overlap invariant."""
    tl = Timeline()
    clock = ModelClock(tl)
    for i, (gap, dur) in enumerate(spans):
        label = f"dev{i % 3}"
        clock.wait_until(label, clock.now(label) + gap)
        clock.advance(label, dur, "compute")
    assert tl.makespan <= tl.serialized_total + tl.phase_total("wait") + 1e-12


def test_model_clock_cursors_and_barrier():
    clock = ModelClock()
    t1 = clock.advance("a", 2.0, "compute")
    assert t1 == 2.0
    assert clock.now("b") == 0.0
    clock.advance("b", 0.5, "pack")
    # A barrier: every label waits for the latest cursor.
    t = max(clock.now(label) for label in ("a", "b"))
    for label in ("a", "b"):
        clock.wait_until(label, t, "sync")
    assert t == 2.0
    assert clock.now("b") == 2.0
    waits = [iv for iv in clock.timeline.intervals if iv.phase == "wait"]
    assert len(waits) == 1 and waits[0].device == "b"
    assert max(clock.now(label) for label in ("a", "b")) == 2.0


def test_wait_until_never_moves_backwards():
    clock = ModelClock()
    clock.advance("a", 1.0, "compute")
    clock.wait_until("a", 0.5)
    assert clock.now("a") == 1.0
    assert all(iv.phase != "wait" for iv in clock.timeline.intervals)


def test_model_overlaps_interior_compute_only_on_cut_blocks():
    """``model_schedule`` books as interior compute the interior entries of
    the sweep list, which only blocks fed by another rank have, and only
    with overlap on; every other cell update is booked after the ghosts
    arrive."""
    def model(ranks, overlap=True):
        case = with_ranks(sod_case(48, 8, t_end=0.02, blocks=4), ranks)
        plan = case_plan(case)
        return (plan, build_halo_plan(plan),
                model_schedule(case, plan, steps=1, overlap=overlap))

    def compute(tl, note, rank):
        return sum(iv.duration for iv in tl.intervals
                   if iv.phase == "compute" and iv.note == note
                   and iv.device.startswith(f"rank{rank}/"))

    thr = DEFAULT_CPU.relative_throughput
    for ranks, overlap in [(1, True), (2, False)]:
        plan, halo_plan, tl = model(ranks, overlap)
        for r in range(ranks):
            cells = sum(b.cells for b in plan.blocks_of_rank(r))
            assert not sweep_list(plan, halo_plan, r, overlap)[0]
            assert compute(tl, "interior", r) == 0.0
            assert compute(tl, "boundary", r) == pytest.approx(
                STAGES * cells / thr, rel=1e-12)

    plan, halo_plan, tl = model(2)
    for r in range(2):
        interior = sweep_list(plan, halo_plan, r, True)[0]
        # Of each rank's two blocks only the one beside the other rank.
        cut = {e.block for e in interior}
        assert cut == {p.dst_block for p in halo_plan.recvs_of(r)}
        assert len(cut) == 1 and len(plan.blocks_of_rank(r)) == 2
        work = sum((e.hi - e.lo) * plan.blocks[e.block].cells
                   // plan.blocks[e.block].shape[e.axis]
                   for e in interior) / 3.0
        cells = sum(b.cells for b in plan.blocks_of_rank(r))
        assert work > 0.0
        assert compute(tl, "interior", r) == pytest.approx(
            STAGES * work / thr, rel=1e-12)
        assert compute(tl, "boundary", r) == pytest.approx(
            STAGES * (cells - work) / thr, rel=1e-12)


# The benchmark's three cases (perfbench/workloads.py; the model reads only
# the plan, so the seed's signs and the Reynolds number do not matter) and
# the 4-node corner case, one modeled step each: (overlap and coalescing
# on, both off) -> (makespan, hidden_comm_fraction), exact.
WAVE_DT = 2.0 ** -10
FROZEN_MODEL = {
    "wave48-1b": (
        wave_case(48, fixed_dt=WAVE_DT, t_end=2 * WAVE_DT, blocks=1),
        (0.0166008, 0.0), (0.0166008, 0.0)),
    "wave48-8b2r": (
        replace(wave_case(48, fixed_dt=WAVE_DT, t_end=2 * WAVE_DT, blocks=8),
                ranks=2, topology=NodeTopology(1, 2, 0)),
        (0.008336428800000002, 1.0), (0.009683659200000003, 0.0)),
    "sod200-re1e6": (
        sod_case(200, 4, t_end=0.05),
        (0.000492, 0.0), (0.000492, 0.0)),
    "corner4": (
        corner_case(4),
        (0.0017280000000000008, 0.7804955555555558),
        (0.0017280000000000008, 0.3708333333333335)),
}


@pytest.mark.parametrize("name", sorted(FROZEN_MODEL))
def test_model_makespans_frozen(name):
    case, tuned, naive = FROZEN_MODEL[name]
    for on, want in ((True, tuned), (False, naive)):
        tl = model_schedule(case, steps=1, overlap=on, coalesce=on)
        assert (tl.makespan, tl.hidden_comm_fraction) == want


# Wave 48^3 in 2 blocks of 48 x 48 x 24 on 2 ranks: fed by the other rank,
# each block is cut only along z, as its periodic x and y lines never are.
SWEEP_LAYOUTS = {name: case for name, (case, *_) in FROZEN_MODEL.items()}
SWEEP_LAYOUTS["wave48-2b2r"] = with_ranks(
    wave_case(48, fixed_dt=WAVE_DT, t_end=2 * WAVE_DT, blocks=2), 2)


@pytest.mark.parametrize("name, workers, calls", [
    ("wave48-1b", 2, 18), ("wave48-8b2r", 1, 216), ("sod200-re1e6", 1, 9),
    # Per rank and stage: the z interior, x and y whole, z's two ends.
    ("wave48-2b2r", 1, 30)])
def test_sweep_calls_per_step_follow_from_the_sweep_list(name, workers,
                                                         calls):
    """A step sends every entry of each rank's sweep list once per stage,
    cut into its row runs: on the benchmark's layouts, with their worker
    counts, the convective calls that a traced run counts."""
    plan = case_plan(SWEEP_LAYOUTS[name])
    halo_plan = build_halo_plan(plan)
    runs = sum(len(part) for r in range(plan.ranks)
               for part in sweep_list(plan, halo_plan, r, True, workers))
    assert STAGES * runs == calls
