"""Run-level partition invariance: whole runs through ``run_case`` leave the
zone bitwise equal to the single-block run, whatever the block count, rank
count, worker count, overlap or coalescing, and so do ranks
talking over TCP sockets through ``run_socket_rank``.  Also the stage
pipeline that gets them there: which sweep tasks it submits, how a failing
task ends a run, and the lifetime of the worker processes pooled sweeps run
in.
"""

import multiprocessing
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from wcnsflow import runner
from wcnsflow.cases import case_plan, corner_case, cpu_only_variant, \
    sod_case, wave_case, with_ranks
from wcnsflow.devices import DevicePool
from wcnsflow.errors import DivergenceError, InvalidStateError, \
    TransportError, WcnsflowError
from wcnsflow.fields import assemble_zone
from wcnsflow.halo import HaloExchanger
from wcnsflow.model import model_run
from wcnsflow.partition import plan_from_text, plan_to_text, split_zone
from wcnsflow.runner import ExchangeTotals, RankWorker, build_simulation, \
    run_case, run_socket_rank
from wcnsflow.state import GasModel
from wcnsflow.transport import free_port
from wcnsflow.wcns import HALO_WIDTH

CASES = {
    "wave8": lambda: wave_case(8, t_end=0.004, fixed_dt=1e-3),
    "sod24": lambda: sod_case(24, 4, t_end=0.02),
    # Viscous.  Sod's viscous dt bound takes 5 steps to t = 0.001 (90 to
    # the inviscid case's t = 0.02, which would add minutes to the suite).
    "wave8-re50": lambda: replace(wave_case(8, t_end=0.004, fixed_dt=1e-3),
                                  gas=GasModel(reynolds=50.0)),
    "sod24-re200": lambda: replace(sod_case(24, 4, t_end=0.001),
                                   gas=GasModel(reynolds=200.0)),
}

# Regrouping needs at least one block per rank, so ranks never exceed blocks.
LAYOUTS = [(blocks, ranks) for blocks in (1, 2, 4, 8) for ranks in (1, 2, 4)
           if ranks <= blocks]


def on_ranks(case, blocks, ranks):
    return with_ranks(replace(case, block_widths=split_zone(case.zone, blocks)),
                      ranks)


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


def count_forks(monkeypatch) -> list:
    """A list that grows by one entry per ``os.fork`` from now on."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def test_worker_counts_match_on_a_coprocessor_case(monkeypatch):
    # Each rank's blocks sit on five modeled devices (two CPU sockets and
    # three coprocessors) and one host pool sweeps them all.
    case = corner_case(2, columns=40, cross=6, max_iters=2)
    one = run_case(case, warmup=False, max_workers=1)
    forks = count_forks(monkeypatch)
    two = run_case(case, warmup=False, max_workers=2)
    assert len(two.plan.groups_of_rank(0)) == 5
    assert len(forks) == case.ranks * 2
    assert np.array_equal(assemble_zone(two.fields, two.plan),
                          assemble_zone(one.fields, one.plan))
    assert two.totals == one.totals == ExchangeTotals(12, 230_400, 408)


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
    case = on_ranks(case, 2, 2)
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
    assert (out.metrics.messages, out.metrics.message_bytes) == (12, 230_400)
    # Both report the wall time rank 0 measured, and only that: the rows
    # differ in nothing else.
    for m in (out.metrics, one.metrics):
        assert m.timing_source == "wall" and m.model_seconds is None
        assert m.mcups == m.total_cells * m.iterations / m.wall_seconds / 1e6
    assert replace(out.metrics, wall_seconds=one.wall_seconds) == one.metrics
    assert not hasattr(out, "timeline")
    # The modeled clock of the same two steps comes from the model alone.
    timeline, modeled = model_run(case, steps=2)
    assert modeled.model_seconds == timeline.makespan
    assert timeline.makespan == pytest.approx(3.124576e-4, rel=1e-6)


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


# ---------------------------------------------------------------------------
# Worker processes.  A pool of more than one worker sweeps in processes
# forked by run_case (RankWorker.start); a sweep patched before the fork
# runs in the workers, and what they report crosses a pipe.

FORK = multiprocessing.get_context("fork")


def test_failing_pool_task_ends_the_run_with_its_cause(monkeypatch):
    injected = InvalidStateError("injected", block_id=0)
    sweep = runner.convective_derivative
    calls = []          # each worker process counts its own calls

    def failing(*args, **kwargs):
        if multiprocessing.current_process().name.startswith("rank0/"):
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
    assert calls == []                  # no sweep ran in this process
    cause = info.value.__cause__        # a copy, pickled by the worker
    assert type(cause) is InvalidStateError
    assert str(cause) == str(injected) and cause.block_id == 0
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_ends_the_run_naming_it(monkeypatch):
    def dying(*args, **kwargs):
        os._exit(3)

    monkeypatch.setattr(runner, "convective_derivative", dying)
    t0 = time.perf_counter()
    with pytest.raises(WcnsflowError, match=r"pool worker rank0/0 is "
                       r"gone \(exit code 3\)"):
        run_case(wave_case(8, t_end=0.002, fixed_dt=1e-3), max_workers=2)
    assert time.perf_counter() - t0 < 5.0
    assert multiprocessing.active_children() == []


def test_a_rank_that_raises_ends_the_run_with_its_error(monkeypatch):
    # Rank 1 fails before it sends any ghosts; rank 0, waiting for them,
    # must not wait out the transport's timeout, and its own error must
    # not stand in for the cause.
    stage_residual = RankWorker._stage_residual

    def failing(self, *args):
        if self.rank == 1:
            raise RuntimeError("boom")
        return stage_residual(self, *args)

    monkeypatch.setattr(RankWorker, "_stage_residual", failing)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="^boom$"):
        run_case(on_ranks(wave_case(16), 8, 2), max_workers=1, warmup=False)
    assert time.perf_counter() - t0 < 5.0
    assert not [t for t in threading.enumerate()
                if t.name.startswith("rank")]


def test_failed_exchange_waits_for_interior_sweeps_in_flight(monkeypatch):
    # Rank 0 of a two-rank plan cuts all its blocks; the exchange fails
    # after the hook has sent their interior sweeps to the workers.
    case = on_ranks(wave_case(24, t_end=0.001, fixed_dt=1e-3), 8, 2)
    worker = RankWorker(build_simulation(case), 0, max_workers=2)
    sweep = runner.convective_derivative
    counts = FORK.Array("i", 2)      # running, finished; shared with workers

    def slow(*args, **kwargs):
        with counts.get_lock():
            counts[0] += 1
        time.sleep(0.01)
        try:
            return sweep(*args, **kwargs)
        finally:
            with counts.get_lock():
                counts[0] -= 1
                counts[1] += 1

    def failing_run(rank, fields, epoch, *, overlap_hook=None, **kwargs):
        overlap_hook()
        raise TransportError("injected")

    monkeypatch.setattr(runner, "convective_derivative", slow)
    monkeypatch.setattr(worker.exchanger, "run", failing_run)
    try:
        worker.start()
        worker.init_state()
        assert worker.cut == {b.id for b in worker.blocks}
        w_int = worker._interior_primitives()
        with pytest.raises(TransportError):
            worker._stage_residual(np.full(3, 3.0), w_int, 0)
        # Every interior sweep (per block, 3 axes x 2 row runs) has ended.
        assert counts[:] == [0, len(worker.blocks) * 3 * 2]
    finally:
        worker.close()
    assert multiprocessing.active_children() == []


def test_run_tasks_raises_the_first_failure_in_submit_order(monkeypatch):
    # Sweeps named by their node range start: (name, delay, fails).
    script = {0: ("first", 0.1, True), 1: ("second", 0.0, True),
              2: ("slow", 0.3, False)}
    finished = FORK.Array("i", 4)    # finish rank per sweep, then a counter

    def scripted(*args, lo, **kwargs):
        name, delay, fails = script[lo]
        time.sleep(delay)
        with finished.get_lock():
            finished[3] += 1
            finished[lo] = finished[3]
        if fails:
            raise InvalidStateError(name)

    monkeypatch.setattr(runner, "convective_derivative", scripted)
    worker = RankWorker(build_simulation(wave_case(8)), 0, max_workers=2)
    pool = worker.pool

    def task(lo, k):
        sweep = runner.Sweep(0, 0, 0, 1.0, lo, lo + 1, 0, 8, False)
        return worker._conv_chunk, (sweep, k)

    try:
        worker.start()
        # "first" runs on worker 0 and fails after "second" on worker 1;
        # "slow" follows "second" on worker 1 and is still running when
        # both have failed.
        fn, args = task(0, 0)
        in_flight = [pool.submit(fn, *args)]
        with pytest.raises(InvalidStateError, match="first"):
            worker._run_tasks([task(1, 1), task(2, 1)], in_flight)
        assert finished[:3] == [2, 1, 3]
    finally:
        worker.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fails", [False, True])
def test_no_worker_process_outlives_run_case(monkeypatch, fails):
    pids = FORK.Array("q", 4)        # every process that ran a sweep
    sweep = runner.convective_derivative

    def noting(*args, **kwargs):
        with pids.get_lock():
            if os.getpid() not in pids[:]:
                pids[pids[:].index(0)] = os.getpid()
        if fails:
            raise InvalidStateError("injected", block_id=0)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(runner, "convective_derivative", noting)
    case = wave_case(8, t_end=0.002, fixed_dt=1e-3)
    if fails:
        with pytest.raises(DivergenceError):
            run_case(case, max_workers=2)
    else:
        assert run_case(case, max_workers=2).iterations == 2
    ran = {pid for pid in pids[:] if pid}
    assert len(ran) == 2 and os.getpid() not in ran
    assert multiprocessing.active_children() == []
    for pid in ran:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_runs_without_steps_or_with_one_worker_start_no_process(
        monkeypatch):
    forks = count_forks(monkeypatch)
    case = wave_case(8, t_end=0.002, fixed_dt=1e-3)
    set_up = replace(case, controls=replace(case.controls, max_iters=0))
    assert run_case(set_up, max_workers=2).iterations == 0
    assert run_case(on_ranks(set_up, 8, 2), max_workers=4).iterations == 0
    assert run_case(case, max_workers=1).iterations == 2
    assert run_case(on_ranks(case, 8, 2), max_workers=1).iterations == 2
    assert forks == []
    run_case(on_ranks(case, 8, 2), max_workers=2)
    assert len(forks) == 2 * 2               # ranks x workers, once per call


def test_outcome_fields_outlive_the_workers(case_and_reference):
    case, reference = case_and_reference
    first = run_case(case, max_workers=2, best_of=2)
    second = run_case(case, max_workers=2)
    for out in (first, second):
        assert np.array_equal(assemble_zone(out.fields, out.plan), reference)
    assert not np.shares_memory(first.fields[0].data, second.fields[0].data)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_later_run_leaves_earlier_results_alone(workers):
    case = wave_case(8, t_end=0.002, fixed_dt=1e-3)
    worker = RankWorker(build_simulation(case), 0, max_workers=workers)
    try:
        worker.start()
        two_steps = worker.run(case.controls)
        kept = two_steps.fields[0].data.copy()
        worker.run(replace(case.controls, max_iters=1))
    finally:
        worker.close()
    assert two_steps.iterations == 2
    assert np.array_equal(two_steps.fields[0].data, kept)


def test_plan_of_another_zone_is_rejected():
    case = wave_case(8, t_end=0.002, fixed_dt=1e-3)
    other = plan_from_text(plan_to_text(case_plan(wave_case(12))))
    named = "plan's zone .* is not the case's"
    with pytest.raises(WcnsflowError, match=named):
        run_case(case, other)
    with pytest.raises(WcnsflowError, match=named):
        run_socket_rank(case, 0, {0: ("127.0.0.1", free_port())}, plan=other)
    same = plan_from_text(plan_to_text(case_plan(case)))
    assert run_case(case, same, max_workers=1).iterations == 2


def test_coprocessor_groups_need_a_coprocessor_model():
    """A plan that puts blocks on coprocessors is refused before any step
    when the case has no model to time them."""
    case = corner_case(1, columns=40, cross=6, max_iters=1)
    plan = plan_from_text(plan_to_text(case_plan(case)))
    named = (r"plan group 2 \(rank 0\) runs on a coprocessor, but the case "
             "has no coprocessor model")
    with pytest.raises(WcnsflowError, match=named):
        run_case(cpu_only_variant(case), plan)
    assert run_case(case, plan, max_workers=1).iterations == 1
