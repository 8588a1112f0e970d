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
from hypothesis import given, settings
from hypothesis import strategies as st
from test_exchange import blocks_plan, random_plans

from wcnsflow import halo, runner
from wcnsflow.cases import case_plan, corner_case, cpu_only_variant, \
    sod_case, wave_case, with_ranks
from wcnsflow.devices import DevicePool
from wcnsflow.errors import DivergenceError, HaloPlanError, \
    InvalidStateError, TransportError, WcnsflowError
from wcnsflow.fields import BlockField, assemble_zone
from wcnsflow.halo import HaloExchanger
from wcnsflow.model import model_run, model_schedule
from wcnsflow.partition import NodeTopology, margins, periodic_axes, \
    plan_from_text, plan_to_text, split_zone
from wcnsflow.runner import ExchangeTotals, RankWorker, build_simulation, \
    run_case, run_socket_rank
from wcnsflow.state import GasModel
from wcnsflow.timestepping import STAGES
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
    out = run_case(on_ranks(case, blocks, ranks), **options)
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
    one = run_case(case, max_workers=1)
    forks = count_forks(monkeypatch)
    two = run_case(case, max_workers=2)
    assert len(two.plan.groups_of_rank(0)) == 5
    assert len(forks) == case.ranks * 2
    assert np.array_equal(assemble_zone(two.fields, two.plan),
                          assemble_zone(one.fields, one.plan))
    assert two.totals == one.totals == ExchangeTotals(12, 86_400, 96)


def test_pooled_ranks_under_a_short_switch_interval():
    # 12^3 blocks, each fed by the other rank, so interior sweeps run on
    # four workers while ghosts arrive and the rank thread converts the
    # whole array; a 1 us switch interval interleaves them finely.
    case = wave_case(24, t_end=0.001, fixed_dt=1e-3)
    one = run_case(case, max_workers=1)
    reference = assemble_zone(one.fields, one.plan)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = run_case(on_ranks(case, 8, 2), max_workers=4)
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


@settings(max_examples=40, deadline=None)
@given(random_plans(st.one_of(st.integers(1, 2 * HALO_WIDTH),
                             st.integers(2 * HALO_WIDTH + 1, 14)), cuts=6),
       st.integers(1, 2), st.booleans(), st.sampled_from([None, 100.0]))
def test_runs_match_single_block_run_on_random_plans(drawn, workers, overlap,
                                                     reynolds):
    # Two fixed steps of the wave on any tiling of up to 7 blocks over up
    # to 3 ranks, with mixed faces, leave every interior bit of the 1-block
    # run.  Half the zone's axes are drawn wider than 2 H, so that lines
    # with a halo-free range, the ones a sweep may cut, are common.
    z, blocks, rank_of_block, coalesce = drawn
    wave = wave_case(8, t_end=None, fixed_dt=1e-3)
    case = replace(wave, zone=z, gas=GasModel(reynolds=reynolds),
                   block_widths=tuple((n,) for n in z.shape),
                   controls=replace(wave.controls, max_iters=2))
    one = run_case(case, max_workers=1)
    out = run_case(case, blocks_plan(z, blocks, rank_of_block),
                   overlap=overlap, coalesce=coalesce, max_workers=workers)
    assert out.iterations == one.iterations == 2
    assert np.array_equal(assemble_zone(out.fields, out.plan),
                          assemble_zone(one.fields, one.plan))


# Blocks fed by another rank that span a periodic axis of more than 10
# nodes whole, the one kind of axis with a halo-free range that is never
# cut: its lines have no ghosts to wait for or to read.
FED_PERIODIC = {
    # Two blocks of 24 x 24 x 12: x and y spanned whole.
    "wave24-2b2r": lambda: on_ranks(wave_case(24, t_end=0.002,
                                              fixed_dt=1e-3), 2, 2),
    # Two blocks of 50 x 12 x 12: y and z spanned whole.
    "sod100x12-2r": lambda: with_ranks(sod_case(100, 12, t_end=0.004), 2),
    # Ten blocks of up to 10 x 12 x 12 on 2 nodes: z spanned whole.
    "corner2-cross12": lambda: corner_case(2, columns=40, cross=12,
                                           max_iters=1),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(FED_PERIODIC))
def test_fed_blocks_spanning_a_periodic_axis_match_single_block_run(
        name, workers):
    case = FED_PERIODIC[name]()
    one = run_case(on_ranks(cpu_only_variant(case), 1, 1), max_workers=1)
    out = run_case(case, max_workers=workers)
    assert out.iterations == one.iterations >= 1
    assert out.plan.ranks == 2 and len(out.plan.blocks) > 1
    assert np.array_equal(assemble_zone(out.fields, out.plan),
                          assemble_zone(one.fields, one.plan))


@pytest.mark.parametrize("name", sorted(FED_PERIODIC))
def test_sweep_list_never_cuts_a_periodic_line(name):
    """Every sweep along an axis that ``periodic_axes`` marks covers the
    whole line ``[0, n)``, so it hands nothing off, though the block is
    fed by another rank and the axis has a halo-free range; the other axes
    of a fed block with such a range are still cut."""
    sim = build_simulation(FED_PERIODIC[name]())
    long_periodic = cut = 0
    for r in range(sim.plan.ranks):
        fed = {p.dst_block for p in sim.halo_plan.recvs_of(r)}
        interior, rest = runner.sweep_list(sim.plan, sim.halo_plan, r, True)
        assert fed and {s.block for s in interior} <= fed
        for s in interior + rest:
            b = sim.plan.blocks[s.block]
            n = b.shape[s.axis]
            if periodic_axes(sim.plan.zone, b)[s.axis]:
                assert (s.lo, s.hi) == (0, n), s
                long_periodic += s.block in fed and n > 10
            else:
                cut += (s.lo, s.hi) != (0, n)
    assert long_periodic > 0 and cut > 0


def nan_fields_from_the_start(monkeypatch) -> None:
    """Every block field is allocated NaN, so a cell that no exchange or
    boundary pass writes stays NaN, and a stencil that reads one carries
    it into the dump."""
    allocate = BlockField.allocate.__func__

    def allocating(cls, block, zone):
        f = allocate(cls, block, zone)
        f.data[...] = np.nan
        return f

    monkeypatch.setattr(BlockField, "allocate", classmethod(allocating))


@pytest.mark.parametrize("make, blocks, ranks, workers", [
    (lambda: CASES["wave8"](), 1, 1, 2),
    (lambda: CASES["sod24-re200"](), 1, 1, 1),
    (lambda: CASES["sod24-re200"](), 2, 2, 1),
    (lambda: corner_case(2, columns=40, cross=6), None, None, 1),
    (lambda: wave_case(24, fixed_dt=1e-3), 2, 2, 2),
], ids=["wave8-1b", "sod24-re200-1b", "sod24-re200-2r", "corner2",
        "wave24-2b2r"])
def test_cells_outside_the_grown_boxes_are_never_read_or_written(
        monkeypatch, make, blocks, ranks, workers):
    """Every cell of a run starts NaN but the interiors.  The dump is still
    bitwise the single-block run's, so no stencil reads a cell that no
    exchange or boundary pass wrote, and a block's arrays hold no cell
    outside its grown box (its interior along the periodic axes it spans
    whole)."""
    case = make()
    case = replace(case, controls=replace(case.controls, max_iters=3))
    single = on_ranks(cpu_only_variant(case), 1, 1)
    one = run_case(single, max_workers=1)
    if blocks is not None:
        case = on_ranks(case, blocks, ranks)
    nan_fields_from_the_start(monkeypatch)
    out = run_case(case, max_workers=workers)
    assert out.iterations == one.iterations == 3
    assert np.array_equal(assemble_zone(out.fields, out.plan),
                          assemble_zone(one.fields, one.plan))
    for b in out.plan.blocks:
        assert out.fields[b.id].data.shape == (5,) + tuple(
            n + 2 * m for n, m in zip(b.shape, margins(out.plan.zone, b))), b
    assert any(0 in margins(out.plan.zone, b) for b in out.plan.blocks)


@pytest.mark.parametrize("make, shapes", [
    (lambda: wave_case(48), {(5, 48, 48, 48)}),
    (lambda: replace(wave_case(48, blocks=8), ranks=2,
                     topology=NodeTopology(1, 2, 0)), {(5, 34, 34, 34)}),
    (lambda: sod_case(200, 4), {(5, 210, 4, 4)}),
    (lambda: corner_case(2, columns=100, cross=20),
     {(5, 28, 30, 20), (5, 33, 30, 20)}),
], ids=["wave48-1b", "wave48-8b2r", "sod200", "corner2"])
def test_every_block_array_holds_exactly_its_grown_box(make, shapes):
    """A block's state, primitives and shared-arena state are each one
    array of its grown box: the halo along every axis but the periodic
    axes it spans whole, where it has no ghost plane."""
    sim = build_simulation(make())
    seen = set()
    for r in range(sim.plan.ranks):
        worker = RankWorker(sim, r, max_workers=1)
        try:
            worker.init_state()
            shared = runner.Arena(sim.plan.zone, worker.blocks, sim.gas,
                                  shared=True)
            for b in worker.blocks:
                want = (5,) + tuple(n + 2 * m for n, m in
                                    zip(b.shape, margins(sim.plan.zone, b)))
                for a in (worker.fields[b.id].data, worker.arena.q[b.id],
                          worker.arena.w[b.id], shared.q[b.id],
                          shared.w[b.id]):
                    assert a.shape == want, b
                seen.add(want)
        finally:
            worker.close()
    assert seen == shapes


def socket_ranks(case, **options):
    """Every rank of ``case`` as a thread ``rank{r}`` of this process, each
    with its own socket transport; the last rank starts first, so its first
    dial may find no listener.  Returns the outcomes in rank order and the
    errors by rank."""
    ranks = case.ranks
    addresses = {r: ("127.0.0.1", free_port()) for r in range(ranks)}
    outcomes = [None] * ranks
    errors = {}

    def rank_main(rank):
        try:
            outcomes[rank] = run_socket_rank(case, rank, addresses,
                                             timeout=30.0, **options)
        except Exception as exc:
            errors[rank] = exc

    threads = [threading.Thread(target=rank_main, args=(r,), name=f"rank{r}")
               for r in reversed(range(ranks))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    return outcomes, errors


def run_socket_ranks(case):
    """The outcomes of ``socket_ranks``, none of which may fail."""
    outcomes, errors = socket_ranks(case)
    assert errors == {}
    return outcomes


def test_socket_ranks_match_single_block_run(case_and_reference):
    case, reference = case_and_reference
    case = on_ranks(case, 2, 2)
    outcomes = run_socket_ranks(case)
    out = outcomes[0]
    assert out.iterations >= 4 and outcomes[1] is None
    assert np.array_equal(assemble_zone(out.fields, out.plan), reference)
    # Rank 0 reports every rank's traffic, as the in-process run does.
    assert out.totals == run_case(case).totals


def test_socket_ranks_report_the_in_process_outcome_of_a_coprocessor_case():
    case = corner_case(2, columns=40, cross=6, max_iters=2)
    one = run_case(case)
    out = run_socket_ranks(case)[0]
    assert np.array_equal(assemble_zone(out.fields, out.plan),
                          assemble_zone(one.fields, one.plan))
    assert out.totals == one.totals == ExchangeTotals(12, 86_400, 96)
    assert (out.metrics.messages, out.metrics.message_bytes) == (12, 86_400)
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
    assert timeline.makespan == pytest.approx(2.347376e-4, rel=1e-6)


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
    out = run_case(wave_case(8, t_end=0.002, fixed_dt=1e-3),
                   max_workers=workers)
    stages = 3 * (out.iterations + 1)     # and the untimed step's
    assert out.iterations == 2
    assert len(seen) == stages * 3 * workers
    assert not any(in_hook for _, in_hook in seen)


def test_block_fed_by_another_rank_sweeps_its_interior_from_the_hook(
        monkeypatch):
    case = sod_case(24, 4)
    case = replace(case, controls=replace(case.controls, max_iters=1))
    one = run_case(case, max_workers=1)
    # One late interior sweep per stage, while the other worker runs every
    # other task: the stage must still wait for it.
    seen = count_sweep_submissions(monkeypatch, hook_delay=0.1)
    out = run_case(on_ranks(case, 2, 2), max_workers=2)
    assert np.array_equal(assemble_zone(out.fields, out.plan),
                          assemble_zone(one.fields, one.plan))
    assert [b.shape for b in out.plan.blocks] == [(12, 4, 4)] * 2
    # Per stage and block: axis 0 has the interior [5, 7) and the boundary
    # ranges [0, 5) and [7, 12); axes 1 and 2 (4 cells) are boundary only.
    # Every range is split into 2 row ranges, one per worker.  Both the
    # untimed step and the run's one step send them.
    for rank in ("rank0", "rank1"):
        mine = [in_hook for name, in_hook in seen if name == rank]
        assert sum(mine) == 2 * 3 * 2
        assert len(mine) - sum(mine) == 2 * 3 * (2 * 2 + 2 + 2)


@pytest.mark.parametrize("name, blocks, ranks, periodic_axes", [
    ("sod24", 1, 1, {1, 2}),
    ("wave8", 1, 1, {0, 1, 2}),
    ("wave8", 8, 2, set()),
    # Blocks of 12 x 4 x 4, cut: their 4-node axes are swept whole.
    ("sod24", 2, 2, {1, 2}),
])
def test_sweeps_are_periodic_where_the_block_spans_a_periodic_axis(
        monkeypatch, name, blocks, ranks, periodic_axes):
    """A sweep carries the periodic flag when the zone is periodic on its
    axis, the block spans that axis whole and the sweep covers it whole."""
    case = CASES[name]()
    case = replace(case, controls=replace(case.controls, max_iters=1))
    sent = []
    sweep = runner.Arena.sweep

    def spy(self, s, *args, **kwargs):
        sent.append((s, self.periodic[s.block][s.axis]))
        return sweep(self, s, *args, **kwargs)

    monkeypatch.setattr(runner.Arena, "sweep", spy)
    out = run_case(on_ranks(case, blocks, ranks), max_workers=1)
    shapes = {b.id: b.shape for b in out.plan.blocks}
    assert len(shapes) == blocks and sent
    assert {s.axis for s, periodic in sent if periodic} == periodic_axes
    for s, periodic in sent:
        whole = (s.lo, s.hi) == (0, shapes[s.block][s.axis])
        assert periodic == (s.axis in periodic_axes and whole), s


@pytest.mark.parametrize("name, blocks, ranks, periodic", [
    ("sod24-re200", 1, 1, (False, True, True)),
    ("wave8-re50", 1, 1, (True, True, True)),
    ("wave8-re50", 8, 2, (False, False, False)),
    ("sod24-re200", 2, 2, (False, True, True)),
])
def test_viscous_terms_are_periodic_where_the_block_spans_a_periodic_axis(
        monkeypatch, name, blocks, ranks, periodic):
    """The viscous gradients of a block are formed on one period of each
    axis where the sweeps are periodic: the zone is periodic on the axis
    and the block spans it whole."""
    case = CASES[name]()
    case = replace(case, controls=replace(case.controls, max_iters=1))
    packs = []
    gradients = runner.velocity_temperature_gradients

    def spy(*args, **kwargs):
        packs.append(gradients(*args, **kwargs))
        return packs[-1]

    monkeypatch.setattr(runner, "velocity_temperature_gradients", spy)
    out = run_case(on_ranks(case, blocks, ranks), max_workers=1)
    # The untimed step, then the run's one step.
    assert len(packs) == 2 * 3 * blocks
    shape = out.plan.blocks[0].shape
    for pack in packs:
        assert pack.periodic == periodic
        assert pack.vel.shape[1:] == tuple(
            n if p else n + 4 for n, p in zip(shape, periodic))


def test_cut_blocks_sweep_an_axis_without_an_interior_whole(monkeypatch):
    """A block fed by another rank sweeps an axis whose halo-free range is
    empty (6 to 10 nodes) as one range [0, n), not as [0, 5) and [5, n):
    wave 16^3 in 8 blocks of 8^3 on 2 ranks makes one call per block, axis
    and stage, not the 144 of two ranges, and its zone keeps the
    single-block bits."""
    case = wave_case(16, t_end=0.004, fixed_dt=1e-3)
    case = replace(case, controls=replace(case.controls, max_iters=1))
    one = run_case(case, max_workers=1)
    split = on_ranks(case, 8, 2)
    sim = build_simulation(split)
    for r in range(2):
        assert sim.halo_plan.recvs_of(r)
        assert not runner.sweep_list(sim.plan, sim.halo_plan, r, True)[0]
    sent = []
    sweep = runner.Arena.sweep

    def spy(self, s, *args, **kwargs):
        sent.append(s)
        return sweep(self, s, *args, **kwargs)

    monkeypatch.setattr(runner.Arena, "sweep", spy)
    out = run_case(split, max_workers=1)
    assert out.iterations == 1
    assert [b.shape for b in out.plan.blocks] == [(8, 8, 8)] * 8
    assert {(s.lo, s.hi) for s in sent} == {(0, 8)}
    # Per step: the untimed one and the run's.
    assert len(sent) == 2 * 3 * 8 * 3 < 2 * 144
    assert np.array_equal(assemble_zone(out.fields, out.plan),
                          assemble_zone(one.fields, one.plan))


def test_block_without_a_halo_free_range_is_not_cut(monkeypatch):
    """A block fed by another rank but with no halo-free range on any axis
    has no interior sweep in the sweep list, so it is not cut and the
    exchange gets no overlap hook."""
    case = wave_case(16, t_end=0.004, fixed_dt=1e-3)
    case = replace(case, controls=replace(case.controls, max_iters=1))
    one = run_case(case, max_workers=1)
    workers, hooks = [], []
    start, run = RankWorker.start, HaloExchanger.run

    def spy_start(self):
        start(self)
        workers.append(self)

    def spy_run(self, *args, overlap_hook=None, **kwargs):
        hooks.append(overlap_hook)
        return run(self, *args, overlap_hook=overlap_hook, **kwargs)

    monkeypatch.setattr(RankWorker, "start", spy_start)
    monkeypatch.setattr(HaloExchanger, "run", spy_run)
    out = run_case(on_ranks(case, 8, 2), max_workers=2)
    assert [b.shape for b in out.plan.blocks] == [(8, 8, 8)] * 8
    assert len(workers) == 2
    for worker in workers:
        assert worker.interior_sweeps == [] and worker.arena.shared
    assert hooks == [None] * (2 * 2 * 3)      # 2 ranks, 2 steps, 3 stages
    assert np.array_equal(assemble_zone(out.fields, out.plan),
                          assemble_zone(one.fields, one.plan))


@pytest.mark.parametrize("make", [
    lambda: with_ranks(sod_case(48, 8, blocks=4), 2),
    lambda: on_ranks(wave_case(24, t_end=0.004, fixed_dt=1e-3), 8, 2),
], ids=["sod48-4b2r", "wave24-8b2r"])
def test_runner_sends_the_sweep_list_that_the_model_prices(monkeypatch,
                                                           make):
    """Every stage, each rank sends exactly its sweep list's entries cut
    into row runs, the interior ones from the overlap hook; the model's
    interior compute is the work of the sweeps sent from the hook."""
    case = make()
    case = replace(case, controls=replace(case.controls, max_iters=1))
    sim = build_simulation(case)
    assert {g.device_class for g in sim.plan.groups} == {"cpu"}
    sent = []
    state = threading.local()
    sweep, run = runner.Arena.sweep, HaloExchanger.run

    def spy_sweep(self, s, *args, **kwargs):
        sent.append((threading.current_thread().name,
                     getattr(state, "in_hook", False), s))
        return sweep(self, s, *args, **kwargs)

    def spy_run(self, *args, overlap_hook=None, **kwargs):
        def hook():
            state.in_hook = True
            try:
                overlap_hook()
            finally:
                state.in_hook = False
        return run(self, *args, overlap_hook=overlap_hook and hook, **kwargs)

    monkeypatch.setattr(runner.Arena, "sweep", spy_sweep)
    monkeypatch.setattr(HaloExchanger, "run", spy_run)
    out = run_case(case, max_workers=1)
    assert out.iterations == 1
    tl = model_schedule(case, sim.plan, steps=1)
    thr = case.cpu.relative_throughput
    for r in range(2):
        interior, rest = runner.sweep_list(sim.plan, sim.halo_plan, r, True)
        want = [(s, True) for s in interior] + [(s, False) for s in rest]
        mine = [(s, in_hook) for name, in_hook, s in sent
                if name == f"rank{r}"]
        # The untimed step, then the run's one step.
        assert [(s._replace(lam=0.0), in_hook)
                for s, in_hook in mine] == want * STAGES * 2
        cells = 0
        for s, in_hook in mine[:len(want)]:
            if in_hook:
                shape = sim.plan.blocks[s.block].shape
                across = 3 - s.axis - (1 if s.axis == 0 else 0)
                cells += (s.hi - s.lo) * (s.r1 - s.r0) * shape[across]
        assert cells > 0
        modeled = sum(iv.duration for iv in tl.intervals
                      if iv.phase == "compute" and iv.note == "interior"
                      and iv.device.startswith(f"rank{r}/"))
        assert modeled == pytest.approx(STAGES * (cells / 3) / thr,
                                        rel=1e-12)


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
        run_case(wave_case(8, t_end=0.004, fixed_dt=1e-3),
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
    with pytest.raises(RuntimeError, match="^boom$") as err:
        run_case(on_ranks(wave_case(16), 8, 2), max_workers=1)
    assert err.value.rank == 1
    assert time.perf_counter() - t0 < 5.0
    assert not [t for t in threading.enumerate()
                if t.name.startswith("rank")]


def fail_on_rank(monkeypatch, rank, exc, epoch=4, piece="_stage_residual"):
    """Rank ``rank``'s stage piece ``piece`` raises ``exc`` at ``epoch``
    (stage 1 of the second step) after it has run, as a bad state found
    while converting would: ``_stage_residual`` after its exchange,
    ``_stage_start`` before the stage's reduction.  Every other stage runs
    as usual."""
    run_piece = getattr(RankWorker, piece)

    def failing(self, *args):
        out = run_piece(self, *args)
        if self.rank == rank and self.epoch == epoch:
            raise exc
        return out

    monkeypatch.setattr(RankWorker, piece, failing)


def test_a_one_rank_run_names_its_rank(monkeypatch):
    # A bad state diverges the run; any other error escapes as it is.
    bad = InvalidStateError("injected", block_id=0)
    fail_on_rank(monkeypatch, 0, bad)
    case = CASES["wave8"]()
    with pytest.raises(DivergenceError, match=r"injected block=0 rank=0 "
                       r"step=1$") as err:
        run_case(case, max_workers=1)
    assert err.value.rank == 0 and err.value.__cause__ is bad
    monkeypatch.undo()
    fail_on_rank(monkeypatch, 0, RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="^boom$") as err:
        run_case(case, max_workers=1)
    assert err.value.rank == 0


def test_a_run_where_only_rank_1_diverges_names_rank_1(monkeypatch):
    # A bad state found at the stage start or after the exchange.
    bad = InvalidStateError("injected", block_id=5)
    case = on_ranks(wave_case(16, t_end=0.004, fixed_dt=1e-3), 8, 2)
    for piece in ("_stage_start", "_stage_residual"):
        with monkeypatch.context() as patch:
            fail_on_rank(patch, 1, bad, piece=piece)
            with pytest.raises(DivergenceError, match=r"injected block=5 "
                               r"rank=1 step=1$") as err:
                run_case(case, max_workers=1)
            assert err.value.rank == 1 and err.value.__cause__ is bad
            # Over sockets each rank raises: rank 1 the error of the run in
            # process, rank 0 one that names rank 1, though the cause stays
            # in rank 1's process.
            _, errors = socket_ranks(case, max_workers=1)
        assert sorted(errors) == [0, 1]
        assert all(type(e) is DivergenceError for e in errors.values())
        assert [errors[r].rank for r in range(2)] == [1, 1]
        assert str(errors[1]) == str(err.value)
        assert str(errors[0]).endswith(
            "rank 1 failed; its own error names the cause rank=1 step=1")


def truncate_sends_of(monkeypatch, rank):
    """Every halo payload that the thread of rank ``rank`` packs loses its
    last value; the other ranks pack theirs whole."""
    for name in ("pack_pair", "pack_region"):
        def short(*args, _pack=getattr(halo, name)):
            payload = _pack(*args)
            if threading.current_thread().name == f"rank{rank}":
                return payload[:-1]
            return payload
        monkeypatch.setattr(halo, name, short)


# Wave 16^3 in 2 blocks of 16 x 16 x 8, one per rank: each block's ghosts
# come from the other rank's block as one message per stage.
TRUNCATED = on_ranks(wave_case(16, t_end=0.004, fixed_dt=1e-3), 2, 2)


def test_a_truncated_message_ends_the_run_naming_the_receiver(monkeypatch):
    # Rank 0's message to rank 1 is one value short: rank 1 raises at once,
    # and rank 0, waiting for rank 1's partials, does not wait out the
    # transport's timeout.
    truncate_sends_of(monkeypatch, 0)
    t0 = time.perf_counter()
    with pytest.raises(HaloPlanError, match="blocks 0->1 ") as err:
        run_case(TRUNCATED, max_workers=1)
    assert time.perf_counter() - t0 < 5.0
    assert err.value.rank == 1


def test_a_truncated_message_ends_every_socket_rank(monkeypatch):
    # Rank 1 raises the same error; rank 0 names the rank it lost.
    truncate_sends_of(monkeypatch, 0)
    t0 = time.perf_counter()
    _, errors = socket_ranks(TRUNCATED, max_workers=1)
    assert time.perf_counter() - t0 < 5.0
    assert sorted(errors) == [0, 1]
    assert type(errors[1]) is HaloPlanError and errors[1].rank == 1
    assert "blocks 0->1 " in str(errors[1])
    assert type(errors[0]) is TransportError and errors[0].rank == 0
    assert "rank 1 is lost" in str(errors[0])


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
        assert {s.block for s in worker.interior_sweeps} == \
            {b.id for b in worker.blocks}
        worker._stage_start(0)
        with pytest.raises(TransportError):
            worker._stage_residual(np.full(3, 3.0), 0)
        # Every interior sweep (per block, 3 axes x 2 row runs) has ended.
        assert counts[:] == [0, len(worker.blocks) * 3 * 2]
    finally:
        worker.close()
    assert multiprocessing.active_children() == []


def test_cut_blocks_convert_their_grown_box_after_their_interior_sweeps(
        monkeypatch):
    # Two workers per rank and slow interior sweeps: each stage, a rank
    # converts the whole array of each cut block that spans no periodic
    # axis, which rewrites the primitives that the interior sweeps read,
    # only once all of them have finished.
    case = wave_case(24, t_end=0.001, fixed_dt=1e-3)
    one = run_case(case, max_workers=1)
    split = on_ranks(case, 8, 2)
    sim = build_simulation(split)
    sent = [len(runner.sweep_list(sim.plan, sim.halo_plan, r, True, 2)[0])
            for r in range(2)]
    finished = FORK.Array("i", 2)    # interior sweeps finished, per rank
    seen = {0: [], 1: []}            # ... as each rank converts a box
    sweep, convert = runner.convective_derivative, \
        runner.primitive_from_conserved

    def slow(q, w, axis, *args, lo, hi, out, **kwargs):
        interior = 0 < lo and hi < out.shape[1 + axis]
        if interior:
            time.sleep(0.02)
        try:
            return sweep(q, w, axis, *args, lo=lo, hi=hi, out=out, **kwargs)
        finally:
            if interior:
                name = multiprocessing.current_process().name   # rank{r}/{k}
                rank = int(name.split("/")[0][len("rank"):])
                with finished.get_lock():
                    finished[rank] += 1

    def converting(q, *args, out=None, **kwargs):
        if q.shape[1:] == (22, 22, 22):    # the grown box of a 12^3 block
            rank = int(threading.current_thread().name[len("rank"):])
            seen[rank].append(finished[rank])
        return convert(q, *args, out=out, **kwargs)

    monkeypatch.setattr(runner, "convective_derivative", slow)
    monkeypatch.setattr(runner, "primitive_from_conserved", converting)
    out = run_case(split, max_workers=2)
    assert out.iterations == 1
    assert [b.shape for b in out.plan.blocks] == [(12, 12, 12)] * 8
    # Four cut blocks per rank; each axis's interior range in 2 row runs.
    assert sent == [4 * 3 * 2] * 2
    # The untimed step's stages, then the run's.
    for r in range(2):
        assert seen[r] == [sent[r] * (stage + 1)
                           for stage in range(2 * STAGES) for _ in range(4)]
    assert np.array_equal(assemble_zone(out.fields, out.plan),
                          assemble_zone(one.fields, one.plan))


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

    def send(lo, k):
        sweep = runner.Sweep(0, 0, lo, lo + 1, 0, 8, k, 1.0)
        return pool.submit(worker._conv_chunk, sweep)

    try:
        worker.start()
        # "first" runs on worker 0 and fails after "second" on worker 1;
        # "slow" follows "second" on worker 1 and is still running when
        # both have failed.
        in_flight = [send(0, 0), send(1, 1), send(2, 1)]
        with pytest.raises(InvalidStateError, match="first"):
            worker._run_tasks(in_flight)
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
