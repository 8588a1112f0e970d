"""Device cost models, residency tracking, and modeled timelines."""

import io

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
    OffloadTask,
    ResidencyCache,
    configure_devices,
    device_label,
    shutdown_pools,
    should_recompute,
)
from wcnsflow.errors import DeviceBudgetError
from wcnsflow.partition import Group
from wcnsflow.schedule import Interval, ModelClock, Timeline, timeline_report

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
    dev = DeviceModel("cpu", worker_count=4, relative_throughput=1e6,
                      kernel_overhead=1e-5)
    assert dev.compute_seconds(50_000) == pytest.approx(0.05001)


def test_device_class_link_pairing_is_enforced():
    link = LinkModel(bandwidth=1e9)
    with pytest.raises(ValueError, match="link"):
        DeviceModel("cpu", worker_count=1, relative_throughput=1.0, link=link)
    with pytest.raises(ValueError, match="link"):
        DeviceModel("coprocessor", worker_count=1, relative_throughput=1.0)
    with pytest.raises(ValueError):
        DeviceModel("gpu", worker_count=1, relative_throughput=1.0)
    with pytest.raises(ValueError):
        DeviceModel("cpu", worker_count=0, relative_throughput=1.0)


def test_default_devices_are_consistent():
    assert DEFAULT_CPU.device_class == "cpu" and DEFAULT_CPU.link is None
    assert DEFAULT_COPROCESSOR.device_class == "coprocessor"
    assert DEFAULT_COPROCESSOR.link is not None


def test_offload_task_validation():
    t = OffloadTask(group_id=0, kind="inv_flux", cells=100)
    assert t.cells == 100
    with pytest.raises(ValueError):
        OffloadTask(group_id=0, kind="paint", cells=1)
    with pytest.raises(ValueError):
        OffloadTask(group_id=0, kind="update", cells=-1)


def test_should_recompute_prefers_cheap_kernels():
    copro = DeviceModel("coprocessor", worker_count=1,
                        relative_throughput=1e9, kernel_overhead=0.0,
                        link=LinkModel(bandwidth=1e6))
    # kernel: 1e-6 s; transfer of 1 MB: 1 s
    assert should_recompute(1000, copro, 1_000_000)
    # huge kernel vs tiny transfer
    assert not should_recompute(10 ** 12, copro, 8)
    # cpu devices address host memory directly: never recompute for transfer
    assert not should_recompute(1, DEFAULT_CPU, 10 ** 12)


# ---------------------------------------------------------------------------
# Residency cache

def test_residency_hits_and_misses():
    cache = ResidencyCache()
    assert cache.ensure(0, generation=1, nbytes=100) == 100   # cold miss
    assert cache.ensure(0, generation=1, nbytes=100) == 0     # hit
    assert cache.ensure(0, generation=2, nbytes=100) == 100   # stale miss
    assert (cache.hits, cache.misses) == (1, 2)
    assert cache.bytes_transferred == 200
    assert cache.bytes_saved == 100


def test_residency_generation_cannot_move_backwards():
    cache = ResidencyCache()
    cache.ensure(0, generation=5, nbytes=10)
    with pytest.raises(ValueError, match="backwards"):
        cache.ensure(0, generation=4, nbytes=10)
    with pytest.raises(ValueError, match="backwards"):
        cache.mark(0, generation=1)
    cache.mark(0, generation=6)
    assert cache.ensure(0, generation=6, nbytes=10) == 0


def test_residency_budget_overflow_reports_requirements():
    cache = ResidencyCache(budget_bytes=150, device="rank0/mic0")
    cache.ensure(0, generation=1, nbytes=100)
    with pytest.raises(DeviceBudgetError) as err:
        cache.ensure(1, generation=1, nbytes=100)
    assert err.value.required_bytes == 200
    assert err.value.available_bytes == 150
    # replacing a resident block within budget is fine
    assert cache.ensure(0, generation=2, nbytes=140) == 140
    assert cache.resident_bytes == 140


def test_residency_eviction_frees_budget():
    cache = ResidencyCache(budget_bytes=100)
    cache.ensure(0, generation=1, nbytes=80)
    cache.evict(0)
    assert cache.resident_bytes == 0
    assert cache.ensure(1, generation=1, nbytes=90) == 90
    cache.clear()
    assert cache.resident_bytes == 0
    with pytest.raises(KeyError):
        cache.mark(1, generation=2)


# ---------------------------------------------------------------------------
# Pools

def test_configure_devices_builds_one_pool_per_group():
    groups = [
        Group(id=0, rank=0, device_class="cpu", device_index=0, block_ids=[0]),
        Group(id=1, rank=0, device_class="cpu", device_index=1, block_ids=[1]),
        Group(id=2, rank=0, device_class="coprocessor", device_index=0,
              block_ids=[2]),
    ]
    pools = configure_devices(0, groups, executors=False)
    assert [p.name for p in pools] == ["rank0/cpu0", "rank0/cpu1",
                                       "rank0/mic0"]
    assert pools[0].model.device_class == "cpu"
    assert pools[2].model.device_class == "coprocessor"
    assert pools[2].link_name == "rank0/mic0.link"
    assert all(p.executor is None for p in pools)
    shutdown_pools(pools)


def test_pools_execute_submitted_work():
    groups = [Group(id=0, rank=1, device_class="coprocessor", device_index=2,
                    block_ids=[0])]
    assert device_label(1, groups[0]) == "rank1/mic2"
    with pytest.warns(RuntimeWarning):
        pools = configure_devices(1, groups, max_workers=8,
                                  oversubscription_limit=1.0)
    try:
        hits = []
        fut = pools[0].submit(hits.append, 42)
        fut.result()
        assert hits == [42]
    finally:
        shutdown_pools(pools)
    # after shutdown, submits run inline
    pools[0].submit(hits.append, 43)
    assert hits == [42, 43]


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
    t = clock.barrier(["a", "b"], note="sync")
    assert t == 2.0
    assert clock.now("b") == 2.0
    waits = [iv for iv in clock.timeline.intervals if iv.phase == "wait"]
    assert len(waits) == 1 and waits[0].device == "b"
    assert clock.horizon == 2.0


def test_wait_until_never_moves_backwards():
    clock = ModelClock()
    clock.advance("a", 1.0, "compute")
    clock.wait_until("a", 0.5)
    assert clock.now("a") == 1.0
    assert all(iv.phase != "wait" for iv in clock.timeline.intervals)
