"""Run-level partition invariance: whole runs through ``run_case`` leave the
zone bitwise equal to the single-block run, whatever the block count, rank
count, worker count, overlap or coalescing, and so do ranks
talking over TCP sockets through ``run_socket_rank``.  Also the stage
pipeline that gets them there: which sweep tasks it submits, and how a
failing task ends a run.
"""

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from wcnsflow import runner
from wcnsflow.cases import corner_case, sod_case, wave_case
from wcnsflow.devices import DevicePool
from wcnsflow.errors import DivergenceError, InvalidStateError, TransportError
from wcnsflow.fields import assemble_zone
from wcnsflow.halo import HaloExchanger
from wcnsflow.partition import NodeTopology
from wcnsflow.runner import ExchangeTotals, RankWorker, build_simulation, \
    run_case, run_socket_rank
from wcnsflow.transport import free_port
from wcnsflow.wcns import HALO_WIDTH

CASES = {
    "wave8": lambda: wave_case(8, t_end=0.004, fixed_dt=1e-3),
    "sod24": lambda: sod_case(24, 4, t_end=0.02),
}

# Regrouping needs at least one block per rank, so ranks never exceed blocks.
LAYOUTS = [(blocks, ranks) for blocks in (1, 2, 4, 8) for ranks in (1, 2, 4)
           if ranks <= blocks]


def on_ranks(case, blocks, ranks):
    return replace(case, target_blocks=blocks, ranks=ranks,
                   topology=NodeTopology(1, ranks, 0))


def run_zone(case, blocks, ranks, **options):
    """The zone after the run, and the plan it ran on."""
    out = run_case(on_ranks(case, blocks, ranks), warmup=False,
                   **options)
    assert out.iterations >= 4 and len(out.plan.blocks) == blocks
    return assemble_zone(out.fields, out.plan), out.plan


@pytest.fixture(scope="module", params=sorted(CASES))
def case_and_reference(request):
    case = CASES[request.param]()
    return case, run_zone(case, 1, 1)[0]


@pytest.mark.parametrize("blocks,ranks", LAYOUTS)
def test_zone_matches_single_block_run(case_and_reference, blocks, ranks):
    case, reference = case_and_reference
    got, _ = run_zone(case, blocks, ranks)
    assert np.array_equal(got, reference)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("blocks,ranks", [(1, 1), (8, 2)])
def test_worker_counts_match_single_block_run(case_and_reference, blocks,
                                              ranks, workers):
    # One worker runs every task inline; more split each sweep into one
    # range of cross rows per worker.
    case, reference = case_and_reference
    got, _ = run_zone(case, blocks, ranks, max_workers=workers)
    assert np.array_equal(got, reference)


def test_pooled_ranks_under_a_short_switch_interval():
    # 12^3 blocks, each fed by the other rank, so interior sweeps run on
    # four workers while ghosts arrive and the rank thread converts the
    # extended box; a 1 us switch interval interleaves them finely.
    case = wave_case(24, t_end=0.001, fixed_dt=1e-3)
    one = run_case(case, warmup=False, max_workers=1)
    reference = assemble_zone(one.fields, one.plan)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = run_case(on_ranks(case, 8, 2), warmup=False,
                       max_workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert out.iterations == 1
    assert all(b.shape == (12, 12, 12) for b in out.plan.blocks)
    assert np.array_equal(assemble_zone(out.fields, out.plan), reference)


def test_narrow_blocks_without_overlap_or_coalescing(case_and_reference):
    # Eight blocks of 4^3 (wave) or 3 x 4 x 4 (Sod): every block is
    # narrower than the halo, so ghosts come from blocks two cuts away.
    case, reference = case_and_reference
    got, plan = run_zone(case, 8, 2, overlap=False, coalesce=False)
    assert max(min(b.shape) for b in plan.blocks) < HALO_WIDTH
    assert np.array_equal(got, reference)


def run_socket_ranks(case):
    """Every rank of ``case`` as a thread of this process, each with its own
    socket transport; the last rank starts first, so its first dial may
    find no listener.  Returns the outcomes in rank order."""
    ranks = case.ranks
    addresses = {r: ("127.0.0.1", free_port()) for r in range(ranks)}
    outcomes = [None] * ranks
    errors = []

    def rank_main(rank):
        try:
            outcomes[rank] = run_socket_rank(case, rank, addresses,
                                             timeout=30.0)
        except Exception as exc:          # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=rank_main, args=(r,))
               for r in reversed(range(ranks))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    return outcomes


def test_socket_ranks_match_single_block_run(case_and_reference):
    case, reference = case_and_reference
    case = replace(case, target_blocks=2, ranks=2,
                   topology=NodeTopology(1, 2, 0))
    outcomes = run_socket_ranks(case)
    out = outcomes[0]
    assert out.iterations >= 4 and outcomes[1] is None
    assert np.array_equal(assemble_zone(out.fields, out.plan), reference)
    # Rank 0 reports every rank's traffic, as the in-process run does.
    assert out.totals == run_case(case, warmup=False).totals


def test_socket_ranks_report_the_in_process_outcome_of_a_coprocessor_case():
    case = corner_case(2, columns=40, cross=6, max_iters=2)
    one = run_case(case, warmup=False)
    out = run_socket_ranks(case)[0]
    assert np.array_equal(assemble_zone(out.fields, out.plan),
                          assemble_zone(one.fields, one.plan))
    assert out.totals == one.totals == ExchangeTotals(12, 230_400, 408)
    assert out.timeline.makespan == one.timeline.makespan
    assert out.timeline.makespan == pytest.approx(3.124576e-4, rel=1e-6)
    assert out.metrics.timing_source == one.metrics.timing_source == "model"
    assert out.metrics.model_seconds == one.metrics.model_seconds
    assert (out.metrics.messages, out.metrics.message_bytes) == (12, 230_400)


# ---------------------------------------------------------------------------
# The stage pipeline

def count_sweep_submissions(monkeypatch, hook_delay=0.0):
    """Record every convective sweep task submitted to a device pool as
    (rank thread, submitted from the exchange's overlap hook).  The first
    task of every hook call starts ``hook_delay`` seconds late."""
    seen = []
    state = threading.local()
    run, submit = HaloExchanger.run, DevicePool.submit

    def traced_run(self, *args, overlap_hook=None, **kwargs):
        def hook():
            state.in_hook = state.first = True
            try:
                overlap_hook()
            finally:
                state.in_hook = False
        return run(self, *args, overlap_hook=overlap_hook and hook, **kwargs)

    def traced_submit(self, fn, *args):
        in_hook = getattr(state, "in_hook", False)
        if getattr(fn, "__name__", "") == "_conv_chunk":
            seen.append((threading.current_thread().name, in_hook))
        if in_hook and state.first and hook_delay:
            state.first = False
            return submit(self, delayed, fn, *args)
        return submit(self, fn, *args)

    def delayed(fn, *args):
        time.sleep(hook_delay)
        return fn(*args)

    monkeypatch.setattr(HaloExchanger, "run", traced_run)
    monkeypatch.setattr(DevicePool, "submit", traced_submit)
    return seen


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_uncut_block_submits_one_whole_sweep_per_worker_and_axis(
        monkeypatch, workers):
    seen = count_sweep_submissions(monkeypatch)
    out = run_case(wave_case(8, t_end=0.002, fixed_dt=1e-3), warmup=False,
                   max_workers=workers)
    stages = 3 * out.iterations
    assert out.iterations == 2
    assert len(seen) == stages * 3 * workers
    assert not any(in_hook for _, in_hook in seen)


def test_block_fed_by_another_rank_sweeps_its_interior_from_the_hook(
        monkeypatch):
    case = sod_case(24, 4)
    case = replace(case, controls=replace(case.controls, max_iters=1))
    one = run_case(case, warmup=False, max_workers=1)
    # One late interior sweep per stage, while the other worker runs every
    # other task: the stage must still wait for it.
    seen = count_sweep_submissions(monkeypatch, hook_delay=0.1)
    out = run_case(on_ranks(case, 2, 2), warmup=False,
                   max_workers=2)
    assert np.array_equal(assemble_zone(out.fields, out.plan),
                          assemble_zone(one.fields, one.plan))
    assert [b.shape for b in out.plan.blocks] == [(12, 4, 4)] * 2
    # Per stage and block: axis 0 has the interior [5, 7) and the boundary
    # ranges [0, 5) and [7, 12); axes 1 and 2 (4 cells) are boundary only.
    # Every range is split into 2 row ranges, one per worker.
    for rank in ("rank0", "rank1"):
        mine = [in_hook for name, in_hook in seen if name == rank]
        assert sum(mine) == 3 * 2
        assert len(mine) - sum(mine) == 3 * (2 * 2 + 2 + 2)


def test_failing_pool_task_ends_the_run_with_its_cause(monkeypatch):
    injected = InvalidStateError("injected", block_id=0)
    sweep = runner.convective_derivative
    calls = []

    def failing(*args, **kwargs):
        if threading.current_thread().name.startswith("rank0/cpu0"):
            calls.append(1)
            if len(calls) == 3:
                raise injected
        return sweep(*args, **kwargs)

    monkeypatch.setattr(runner, "convective_derivative", failing)
    t0 = time.perf_counter()
    with pytest.raises(DivergenceError) as info:
        run_case(wave_case(8, t_end=0.004, fixed_dt=1e-3), warmup=False,
                 max_workers=2)
    assert time.perf_counter() - t0 < 5.0
    assert info.value.__cause__ is injected
    assert not [t for t in threading.enumerate()
                if t.name.startswith("rank0/cpu0")]


def test_failed_exchange_waits_for_interior_sweeps_in_flight(monkeypatch):
    # Rank 0 of a two-rank plan cuts both its blocks; the exchange fails
    # after the hook has submitted their interior sweeps.
    case = on_ranks(wave_case(24, t_end=0.001, fixed_dt=1e-3), 8, 2)
    worker = RankWorker(build_simulation(case), 0, max_workers=2)
    sweep = runner.convective_derivative
    running = []

    def slow(*args, **kwargs):
        running.append(1)
        time.sleep(0.01)
        try:
            return sweep(*args, **kwargs)
        finally:
            running.pop()

    def failing_run(rank, fields, epoch, *, overlap_hook=None, **kwargs):
        overlap_hook()
        raise TransportError("injected")

    monkeypatch.setattr(runner, "convective_derivative", slow)
    monkeypatch.setattr(worker.exchanger, "run", failing_run)
    try:
        worker.init_state()
        assert worker.cut == {b.id for b in worker.blocks}
        w_int = worker._interior_primitives()
        with pytest.raises(TransportError):
            worker._stage_residual(np.full(3, 3.0), w_int, 0)
        assert running == []
    finally:
        worker.close()


def test_run_tasks_raises_the_first_failure_in_submit_order():
    worker = RankWorker(build_simulation(wave_case(8)), 0, max_workers=2)
    pool = worker.pools[0]
    finished = []

    def task(name, delay, fail):
        time.sleep(delay)
        finished.append(name)
        if fail:
            raise InvalidStateError(name)

    try:
        # Two workers: "first" fails after "second", and "slow" is still
        # running when both have failed.
        in_flight = [pool.submit(task, "first", 0.1, True)]
        tasks = [(pool, task, ("second", 0.0, True)),
                 (pool, task, ("slow", 0.3, False))]
        with pytest.raises(InvalidStateError, match="first"):
            worker._run_tasks(tasks, in_flight)
        assert finished == ["second", "first", "slow"]
    finally:
        worker.close()
