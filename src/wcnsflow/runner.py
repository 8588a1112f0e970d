"""Run orchestration: rank workers, stage reductions, in-process runs and
socket runs.

Every rank advances its blocks through the same stage pipeline (reduce
wavespeeds, exchange ghosts, sweep, update).  Its convective sweeps are its
sweep list (``model.sweep_list``), which the cost model prices: sweep
tasks already cut into one run of cross rows per pool worker, the interior
ones sent while messages are in flight, the rest after the exchange.  The
rank thread waits once per stage for all of them.

Every block array holds the block's grown box (the storage rule of
``partition``), and the kernels take the block's ``periodic_axes``, which
say the array's margins.  A sweep along a periodic axis computes one
period of edge values per line, and the viscous terms form gradients and
fluxes on one period along it.

Each rank has one host worker pool that sweeps all of its blocks; the
modeled CPU sockets and coprocessors that the plan groups blocks into exist
only in the cost model.  A pool of more than one worker sweeps in worker
processes, forked before any rank thread starts (``RankWorker.start``), and
the runs of one ``run_case`` share them.  They inherit the rank's
``Arena``, an anonymous shared mapping that holds every block's state,
primitives and convective outputs, so a sweep crosses their pipes
only as its ``model.Sweep`` record.  Worker ``k`` sweeps row run ``k`` of
every range in the order sent, so a boundary sweep always follows the
interior sweep whose edges it reads.  Viscous terms, conversions and
updates stay on the rank thread.  Each stage starts with one pass over the
blocks (``RankWorker._stage_start``): it converts a block's interior to
primitives in place in the arena, where the interior sweeps read them, and
bounds the wavespeeds and, at stage 0, the step from that view.  After the
exchange (``_stage_residual``, the one place that holds this rule) it
converts each block's ghost slabs (none when the block has no ghosts),
or the whole array of a block that spans no periodic axis, whose one
contiguous pass is faster than six slabs; it does so only once the
interior sweeps have finished reading the primitives that such a pass
rewrites.

Ranks coordinate only through transport messages, all received from one
kind of mailbox (``InProcessTransport``, which rank threads share and each
socket rank's transport holds), so one worker implementation runs
serially, under threads in one process, or across processes over sockets.
A rank thread that fails is marked lost in the mailbox, so its peers fail
at once.  Kernel windows never depend on the partition, which keeps state
bitwise identical across block counts, rank counts and worker counts.

Runs measure wall time, and report only what they measured.  Rank threads
(``run_case``) and socket ranks (``run_socket_rank``) hand their per-rank
results to one function, ``_outcome``, which raises any divergence (a
socket rank other than 0 raises its own there), merges every rank's fields
and ``ExchangeTotals`` (the one traffic record, which every exchange epoch
returns), and builds the metrics row of cells, steps, wall time, traffic
and convergence, so both paths report the same outcome.
Every error that a run raises carries the ``rank`` it comes from, and a
``DivergenceError`` names that rank in its text.  Modeled numbers come only
from ``model.model_run``.
"""

from __future__ import annotations

import math
import mmap
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cases import Case, case_plan, initial_fields
from .devices import rank_pool
from .errors import DivergenceError, InvalidStateError, WcnsflowError
from .fields import BlockField, FieldSet, grown_shape, interior
from .halo import (
    ExchangeTotals,
    HaloExchanger,
    RESERVED_INDEX,
    build_halo_plan,
    message_tag,
)
from .metrics import RunMetrics
# The benchmark imports ``model_schedule`` from here, beside ``run_case``.
from .model import Sweep, model_schedule, sweep_list  # noqa: F401
from .partition import (Block, PartitionPlan, ZoneSpec, ghost_slabs,
                        periodic_axes)
from .residual import (
    GradientPack,
    ResidualParts,
    block_wavespeed_bound,
    convective_derivative,
    velocity_temperature_gradients,
    viscous_derivative,
)
from .state import NCOMP, primitive_from_conserved, spectral_radius
from .timestepping import (
    STAGES,
    IterationControls,
    block_dt_bound,
    clip_dt,
    reached_t_end,
    stage_state,
)
from .transport import InProcessTransport, Message, SocketTransport

# Message indexes at and above RESERVED_INDEX, which no halo plan uses.
REDUCE_INDEX = RESERVED_INDEX        # rank -> rank 0 partial reductions
BCAST_INDEX = RESERVED_INDEX + 8     # rank 0 -> ranks broadcast
GATHER_INDEX = RESERVED_INDEX + 12   # post-run block gather to rank 0
GATHER_EPOCH = 0x7FF


@dataclass
class Simulation:
    """Everything a rank needs to run one case."""

    case: Case
    plan: PartitionPlan
    halo_plan: object
    freestream: np.ndarray          # conserved, shape (5,)
    inflow: bool                    # the zone has an inflow face

    @property
    def gas(self):
        return self.case.gas


def build_simulation(case: Case, plan: PartitionPlan | None = None, *,
                     coalesce: bool = True) -> Simulation:
    """The case on ``plan`` (else the case's own plan), with the halo plan
    that groups its regions into messages (``build_halo_plan``)."""
    if plan is None:
        plan = case_plan(case)
    elif plan.zone != case.zone:
        raise WcnsflowError(f"the plan's zone {plan.zone} is not the case's "
                            f"zone {case.zone}")
    offload = [g for g in plan.groups if g.device_class == "coprocessor"]
    if offload and case.coprocessor is None:
        raise WcnsflowError(f"plan group {offload[0].id} (rank "
                            f"{offload[0].rank}) runs on a coprocessor, but "
                            "the case has no coprocessor model (no device "
                            "class=coprocessor record)")
    halo_plan = build_halo_plan(plan, coalesce)
    return Simulation(case=case, plan=plan, halo_plan=halo_plan,
                      freestream=case.freestream_conserved(),
                      inflow="inflow" in plan.zone.boundary)


# ---------------------------------------------------------------------------
# Stage reductions
#
# One allreduce per stage carries everything the step needs: the time-step
# bound (stage 0), the stage-0 residual norm partial (carried at stage 1),
# a stop flag, and the three per-axis wavespeed partials.  Rank 0 combines
# partials in rank order and broadcasts one finished array, so every rank
# proceeds from bitwise-identical scalars and takes identical branches.

STOP_NONE, STOP_CONVERGED, STOP_DIVERGED = 0.0, 1.0, 2.0
# A residual norm past this many times the first (or a non-finite one)
# stops the run as diverged.
DIVERGENCE_FACTOR = 1.0e6


def allreduce(transport, rank: int, ranks: int, epoch: int,
              payload: np.ndarray, finalize) -> np.ndarray:
    """Reduce ``payload`` over ranks through rank 0 and broadcast
    ``finalize(stacked_partials)`` to everyone."""
    if ranks == 1:
        return finalize(payload[None, :])
    if rank != 0:
        transport.send(Message(tag=message_tag(epoch, REDUCE_INDEX),
                               source=rank, dest=0, payload=payload))
        msg = transport.recv(tag=message_tag(epoch, BCAST_INDEX),
                             source=0, dest=rank)
        return msg.payload
    parts = [payload]
    for r in range(1, ranks):
        msg = transport.recv(tag=message_tag(epoch, REDUCE_INDEX),
                             source=r, dest=0)
        parts.append(msg.payload)
    combined = finalize(np.stack(parts))
    for r in range(1, ranks):
        transport.send(Message(tag=message_tag(epoch, BCAST_INDEX),
                               source=0, dest=r, payload=combined))
    return combined


@dataclass
class RankResult:
    rank: int
    fields: FieldSet
    iterations: int
    sim_time: float
    stop: float
    totals: ExchangeTotals
    wall_seconds: float
    norm_history: list[float] = field(default_factory=list)  # rank 0 only
    error: Exception | None = None


class Arena:
    """The arrays a rank's sweeps read and write, per block: ``q`` (the
    conserved state, ``BlockField.data``), ``w`` (the primitives, on the
    same grown box) and the three ``conv`` outputs; and the gas, grid
    spacing and ``periodic_axes`` that a sweep needs besides its ``Sweep``
    record.

    A shared arena keeps its arrays in anonymous shared mappings, which
    worker processes forked after it was built sweep in.  A private arena
    is ordinary memory, its ``q`` entries are the fields' own arrays, and
    its sweeps run on the rank thread one after another."""

    def __init__(self, zone: ZoneSpec, blocks: list[Block], gas, *,
                 shared: bool):
        self.gas = gas
        self.spacing = zone.spacing
        self.periodic = {b.id: periodic_axes(zone, b) for b in blocks}
        self.shared = shared
        empty = _shared_empty if shared else np.empty
        grown = {b.id: grown_shape(zone, b) for b in blocks}
        self.q: dict[int, np.ndarray] = {
            b.id: empty(grown[b.id]) for b in blocks} if shared else {}
        self.w = {b.id: empty(grown[b.id]) for b in blocks}
        self.conv = {b.id: [empty((NCOMP,) + b.shape) for _ in range(3)]
                     for b in blocks}

    def hold(self, f: BlockField) -> BlockField:
        """The field with its data in the arena (a shared arena copies it)."""
        if not self.shared:
            self.q[f.block.id] = f.data
            return f
        q = self.q[f.block.id]
        q[...] = f.data
        return BlockField(f.block, q)

    def sweep(self, s: Sweep) -> None:
        convective_derivative(self.q[s.block], self.w[s.block], s.axis,
                              s.lam, self.spacing[s.axis], gas=self.gas,
                              lo=s.lo, hi=s.hi, row_lo=s.r0, row_hi=s.r1,
                              periodic=self.periodic[s.block],
                              out=self.conv[s.block][s.axis])


def _shared_empty(shape: tuple) -> np.ndarray:
    """A float64 array in its own anonymous shared mapping."""
    return np.ndarray(shape, buffer=mmap.mmap(-1, 8 * math.prod(shape)))


class RankWorker:
    """One rank's share of a run: blocks, buffers, stage pipeline, and the
    one host pool that sweeps every block of the rank, whatever modeled
    device the plan puts the block on.  Its pool and arena outlive a run, so
    every run of a ``run_case`` reuses them; ``close`` ends them."""

    def __init__(self, sim: Simulation, rank: int, transport=None, *,
                 overlap: bool = True, max_workers: int | None = None):
        self.sim = sim
        self.rank = rank
        self.transport = transport
        self.case = sim.case
        self.plan = sim.plan
        self.blocks: list[Block] = sim.plan.blocks_of_rank(rank)
        self.block_ids = [b.id for b in self.blocks]
        self.exchanger = HaloExchanger(sim.halo_plan, sim.plan, transport,
                                       freestream=sim.freestream)
        self.pool = rank_pool(rank, max_workers)
        self.spacing = sim.plan.zone.spacing
        # Interior sweeps are sent from the hook, the rest per block after it.
        self.interior_sweeps, rest = sweep_list(
            sim.plan, sim.halo_plan, rank, overlap, self.pool.workers)
        self.sweeps = {bid: [s for s in rest if s.block == bid]
                       for bid in self.block_ids}
        self.arena = Arena(sim.plan.zone, self.blocks, sim.gas, shared=False)
        # A zone with an inflow face bounds each axis's wavespeed below by
        # the freestream's.
        fs_w = np.asarray(self.case.freestream,
                          dtype=np.float64).reshape(5, 1, 1, 1)
        self.freestream_lams = [
            float(spectral_radius(fs_w, axis, sim.gas)[0, 0, 0])
            for axis in range(3)] if sim.inflow else []

        self.fields: FieldSet = {}
        self.q0: dict[int, np.ndarray] = {}
        self.vis: dict[int, list[np.ndarray | None]] = {}
        self.residual: dict[int, np.ndarray] = {}
        self.totals = ExchangeTotals()
        self.epoch = 0

    # -- setup -------------------------------------------------------------

    def start(self) -> None:
        """Fork the worker processes of a pool of more than one worker, over
        a shared arena that takes the private one's place.  Call it before
        the first run and before any thread of the run starts."""
        if self.pool.workers == 1:
            return
        self.arena = Arena(self.plan.zone, self.blocks, self.sim.gas,
                           shared=True)
        self.pool.start(self.arena.sweep)

    def init_state(self) -> None:
        # Let go of the last run's state first; its result keeps its fields.
        self.fields, self.q0, self.vis, self.residual = {}, {}, {}, {}
        if not self.arena.shared:
            self.arena.q.clear()
        fields = initial_fields(self.case, self.plan,
                                block_ids=set(self.block_ids))
        viscous = self.sim.gas.viscous
        for b in self.blocks:
            f = self.fields[b.id] = self.arena.hold(fields[b.id])
            self.q0[b.id] = f.interior.copy()
            self.vis[b.id] = [np.empty((NCOMP,) + b.shape) if viscous else None
                              for _ in range(3)]

    def close(self) -> None:
        self.pool.shutdown()

    # -- per-stage pieces ----------------------------------------------------

    def _stage_start(self, stage: int) -> tuple[np.ndarray, float]:
        """The rank's partials of the three wavespeeds and, at stage 0, of
        the step bound (else inf).  Per block, it converts the stage-start
        interior to primitives, in place in the arena's ``w``, and bounds
        both from the spectral radii of that view, formed once."""
        lams, dt_bound = np.zeros(3), np.inf
        for b in self.blocks:
            w_int = interior(self.arena.w[b.id], b)
            primitive_from_conserved(self.fields[b.id].interior, self.sim.gas,
                                     block_id=b.id, out=w_int)
            bounds, radii = block_wavespeed_bound(w_int, self.sim.gas)
            for axis, bound in enumerate(bounds):
                if bound > lams[axis]:
                    lams[axis] = bound
            if stage == 0:
                dt_bound = min(dt_bound, block_dt_bound(
                    w_int, self.sim.gas, self.spacing, radii))
        return lams, dt_bound

    def _make_finalize(self, controls: IterationControls, sim_time: float,
                       stage: int, initial_normsq: list):
        """Build the rank-0 combiner for one stage's reduction."""
        def finalize(parts: np.ndarray) -> np.ndarray:
            dt_bound = float(np.min(parts[:, 0]))
            normsq = float(np.sum(parts[:, 1]))
            stop = float(np.max(parts[:, 2]))
            lams = parts[:, 3:].max(axis=0)
            for axis, fs_lam in enumerate(self.freestream_lams):
                if fs_lam > lams[axis]:
                    lams[axis] = fs_lam
            dt = 0.0
            if stage == 0:
                dt = (controls.fixed_dt if controls.fixed_dt is not None
                      else controls.cfl * dt_bound)
                dt = clip_dt(dt, sim_time, controls.t_end)
                if not np.isfinite(dt) or dt <= 0.0:
                    stop = max(stop, STOP_DIVERGED)
            if stage == 1 and stop < STOP_DIVERGED:
                if not np.isfinite(normsq):
                    stop = max(stop, STOP_DIVERGED)
                else:
                    if initial_normsq[0] is None:
                        initial_normsq[0] = normsq
                    elif normsq > DIVERGENCE_FACTOR ** 2 * max(
                            initial_normsq[0], 1e-300):
                        stop = max(stop, STOP_DIVERGED)
                    if (controls.tolerance is not None
                            and initial_normsq[0] > 0.0
                            and normsq <= (controls.tolerance ** 2)
                            * initial_normsq[0]):
                        stop = max(stop, STOP_CONVERGED)
            return np.concatenate(([dt, stop, normsq], lams))

        return finalize

    def _submit(self, futures: list, fn, *args) -> None:
        """Submit ``fn(*args)`` to the pool, appending its ``Pending`` to
        ``futures`` when it went to a worker process."""
        fut = self.pool.submit(fn, *args)
        if fut is not None:
            futures.append(fut)

    def _run_tasks(self, futures: list) -> None:
        """Wait for every one of the ``futures`` in flight, then raise the
        first failure in submit order.  Disjoint output slabs make the
        result independent of worker count and completion order."""
        for fut in futures:
            fut.wait()
        for fut in futures:
            fut.result()

    def _send(self, sweeps: list[Sweep], lams: np.ndarray,
              futures: list) -> None:
        """Submit ``sweeps`` at the stage's wavespeeds ``lams``."""
        for s in sweeps:
            self._submit(futures, self._conv_chunk,
                         s._replace(lam=float(lams[s.axis])))

    def _conv_chunk(self, sweep: Sweep):
        """A sweep task: sent to its worker process of the pool, or run here
        when the pool has none."""
        if self.pool.processes:
            return self.pool.send(sweep.worker, sweep)
        self.arena.sweep(sweep)
        return None

    def _vis_chunk(self, b: Block, grads: GradientPack, axis: int) -> None:
        viscous_derivative(grads, self.sim.gas, axis,
                           self.spacing[axis], out=self.vis[b.id][axis])

    def _stage_residual(self, lams: np.ndarray, epoch: int) -> None:
        """Exchange ghosts and assemble residuals for every local block."""
        futures: list = []
        hook = None
        if self.interior_sweeps:
            # Interior windows read no ghost cells, so they run while
            # messages are in flight, on the stage-start primitives.
            def hook():
                self._send(self.interior_sweeps, lams, futures)

        try:
            self.totals.add(self.exchanger.run(self.rank, self.fields, epoch,
                                               overlap_hook=hook))
            # A whole-array conversion below rewrites the primitives that
            # interior sweeps still in flight read.
            for fut in futures:
                fut.wait()
            zone = self.plan.zone
            for b in self.blocks:
                # Ghosts are in place; primitives now cover the whole array.
                # An interior converted again recomputes to bitwise-identical
                # numbers.  Each block's sweeps leave as soon as it is ready.
                periodic = self.arena.periodic[b.id]
                w = self.arena.w[b.id]
                for box in (ghost_slabs(zone, b) if any(periodic)
                            else [(slice(None),) * 3]):
                    box = (slice(None),) + box
                    primitive_from_conserved(self.fields[b.id].data[box],
                                             self.sim.gas, block_id=b.id,
                                             out=w[box])
                self._send(self.sweeps[b.id], lams, futures)
                if self.sim.gas.viscous:
                    grads = velocity_temperature_gradients(w, self.spacing,
                                                           periodic)
                    for axis in range(3):
                        self._submit(futures, self._vis_chunk, b, grads, axis)
        except BaseException:
            # Sweeps may still be writing; let them finish first.
            self._run_tasks(futures)
            raise
        self._run_tasks(futures)

        for b in self.blocks:
            parts = ResidualParts(convective=tuple(self.arena.conv[b.id]),
                                  viscous=tuple(self.vis[b.id]))
            self.residual[b.id] = parts.combine()

    def _normsq_partial(self) -> float:
        total = 0.0
        for bid in sorted(self.residual):
            r = self.residual[bid]
            total += float(np.sum(r * r))
        return total

    # -- main loop ---------------------------------------------------------

    def run(self, controls: IterationControls) -> RankResult:
        """The time loop of every run path, serial runs included.

        Stops after ``max_iters`` steps, at ``t_end`` (relative tolerance
        1e-15), on convergence, or on a broadcast divergence flag."""
        norm_history: list[float] = []
        initial_normsq: list = [None]
        sim_time = 0.0
        iterations = 0
        stop = STOP_NONE
        poison = STOP_NONE           # local failure awaiting broadcast
        pending_normsq = 0.0
        error: Exception | None = None
        wall = 0.0

        self.totals = ExchangeTotals()
        self.epoch = 0
        self.init_state()
        if controls.max_iters > 0:
            t0 = time.perf_counter()
            while iterations < controls.max_iters and stop == STOP_NONE:
                if reached_t_end(sim_time, controls.t_end):
                    break
                dt = 0.0
                for stage in range(STAGES):
                    lams, dt_partial = np.zeros(3), np.inf
                    try:
                        lams, dt_partial = self._stage_start(stage)
                    except InvalidStateError as exc:
                        poison = STOP_DIVERGED
                        error = error or exc
                    carried = pending_normsq if stage == 1 else 0.0
                    up = np.concatenate((
                        [dt_partial, carried, max(stop, poison)],
                        lams))
                    down = allreduce(
                        self.transport, self.rank, self.plan.ranks,
                        self.epoch, up,
                        self._make_finalize(controls, sim_time, stage,
                                            initial_normsq))
                    if stage == 0:
                        dt = float(down[0])
                    stop = float(down[1])
                    lam_final = down[3:]
                    if self.rank == 0 and stage == 1:
                        norm_history.append(float(np.sqrt(down[2])))
                    if stop >= STOP_DIVERGED:
                        # Broadcast flag: every rank breaks here before
                        # this stage's exchange, so nobody deadlocks.
                        self.epoch += 1
                        break
                    try:
                        self._stage_residual(lam_final, self.epoch)
                        if stage == 0:
                            pending_normsq = self._normsq_partial()
                        for b in self.blocks:
                            f = self.fields[b.id]
                            f.interior[...] = stage_state(
                                stage, dt, self.q0[b.id], f.interior,
                                self.residual[b.id])
                    except InvalidStateError as exc:
                        poison = STOP_DIVERGED
                        error = error or exc
                    self.epoch += 1
                else:
                    iterations += 1
                    sim_time += dt
                    for b in self.blocks:
                        self.q0[b.id][...] = self.fields[b.id].interior
                    continue
                break        # left the stage loop on a divergence flag
            wall = time.perf_counter() - t0

        fields = self.fields
        if self.arena.shared:
            # The outcome outlives the arena and later runs rewrite it.
            fields = {bid: BlockField(f.block, f.data.copy())
                      for bid, f in fields.items()}
        return RankResult(rank=self.rank, fields=fields,
                          iterations=iterations, sim_time=sim_time,
                          stop=max(stop, poison), totals=self.totals,
                          wall_seconds=wall, norm_history=norm_history,
                          error=error)


# ---------------------------------------------------------------------------
# Outcomes

@dataclass
class RunOutcome:
    case: Case
    plan: PartitionPlan
    fields: FieldSet
    iterations: int
    sim_time: float
    converged: bool
    wall_seconds: float
    norm_history: list[float]
    totals: ExchangeTotals
    metrics: RunMetrics


def _outcome(sim: Simulation, results: list[RankResult]) -> RunOutcome:
    """The outcome of one run from the results of all its ranks, in rank
    order; its metrics hold rank 0's wall time.  Raises ``DivergenceError``
    if any rank diverged, naming the first rank that failed on its own, or
    rank 0 when its reduction found the residual norm blowing up."""
    worst = max(results, key=lambda r: r.stop)
    if worst.stop >= STOP_DIVERGED:
        culprit = next((r for r in results if r.error is not None),
                       results[0])
        err = culprit.error
        raise DivergenceError(
            f"run diverged after {worst.iterations} completed steps"
            + (f": {err}" if err else ""),
            step=worst.iterations, rank=culprit.rank) from err

    fields: FieldSet = {}
    totals = ExchangeTotals()
    for r in results:
        fields.update(r.fields)
        totals.add(r.totals)
    r0 = results[0]
    case, plan = sim.case, sim.plan
    converged = r0.stop == STOP_CONVERGED
    metrics = RunMetrics(label=case.name, total_cells=plan.total_cells,
                         iterations=r0.iterations,
                         wall_seconds=r0.wall_seconds,
                         messages=totals.messages, message_bytes=totals.bytes,
                         converged=converged)
    return RunOutcome(case=case, plan=plan, fields=fields,
                      iterations=r0.iterations, sim_time=r0.sim_time,
                      converged=converged, wall_seconds=r0.wall_seconds,
                      norm_history=r0.norm_history, totals=totals,
                      metrics=metrics)


# ---------------------------------------------------------------------------
# In-process runs

def _run_once(workers: list[RankWorker],
              controls: IterationControls) -> list[RankResult]:
    """One run of every rank, on one thread per rank when there are more.
    A rank that fails is marked lost in the shared mailbox, so the peers
    waiting on it fail at once, and the failure that came first is
    raised, its ``rank`` attribute set to the rank that raised it."""
    if len(workers) == 1:
        try:
            return [workers[0].run(controls)]
        except Exception as exc:
            exc.rank = 0
            raise
    results: list = [None] * len(workers)
    failures: list = []               # in the order they happened

    def target(rank: int) -> None:
        try:
            results[rank] = workers[rank].run(controls)
        except Exception as exc:          # surfaced after join
            exc.rank = rank
            failures.append(exc)
            workers[rank].transport.lose(rank, f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=target, args=(r,),
                                name=f"rank{r}") for r in range(len(workers))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    return results


def run_case(case: Case, plan: PartitionPlan | None = None, *,
             overlap: bool = True, coalesce: bool = True,
             max_workers: int | None = None,
             best_of: int = 1) -> RunOutcome:
    """Run a case to completion in this process (threads when ranks > 1).

    ``best_of`` repeats the full run and keeps the one with the fastest wall
    time (state is bitwise identical across repetitions).  A case with
    steps runs one untimed step first, which raises as a run does.  Every
    run shares the ranks' worker processes, which start before the first
    run when the case has steps and end before this returns.
    """
    if best_of < 1:
        raise WcnsflowError(f"best_of must be at least 1, got {best_of}")
    sim = build_simulation(case, plan, coalesce=coalesce)
    controls = case.controls
    ranks = sim.plan.ranks
    transport = InProcessTransport(ranks) if ranks > 1 else None
    workers = [RankWorker(sim, r, transport, overlap=overlap,
                          max_workers=max_workers)
               for r in range(ranks)]
    try:
        if controls.max_iters > 0:
            for worker in workers:
                worker.start()
            _outcome(sim, _run_once(workers, replace(controls, max_iters=1,
                                                     tolerance=None)))
        runs = (_run_once(workers, controls) for _ in range(best_of))
        fastest = min(runs, key=lambda results: results[0].wall_seconds)
    finally:
        for worker in workers:
            worker.close()
        if transport is not None:
            transport.close()
    return _outcome(sim, fastest)


# ---------------------------------------------------------------------------
# Socket-mode execution (one process per rank)

def run_socket_rank(case: Case, rank: int,
                    addresses: dict[int, tuple[str, int]],
                    plan: PartitionPlan | None = None, *,
                    overlap: bool = True, coalesce: bool = True,
                    max_workers: int | None = None,
                    timeout: float = 60.0) -> RunOutcome | None:
    """Run one rank over TCP; every transport wait gives up after
    ``timeout`` seconds.  Every process runs ``plan``, or builds the
    identical plan from the case when it is None.  Afterwards each other
    rank sends rank 0 one message with its stop flag, steps, times,
    exchange totals and whether it failed on its own, then its block
    interiors in plan order.  Rank 0 returns the outcome ``run_case``
    gives for the case; the other ranks return None.  An error carries the
    ``rank`` it comes from: this one, or for rank 0's ``DivergenceError``
    the rank that failed first."""
    sim = build_simulation(case, plan, coalesce=coalesce)
    plan = sim.plan
    if plan.ranks != len(addresses):
        raise WcnsflowError(f"case wants {plan.ranks} ranks, "
                            f"{len(addresses)} addresses given")
    if rank not in addresses:
        raise WcnsflowError(f"rank {rank} has no address: ranks are "
                            f"0..{len(addresses) - 1}")
    tag = message_tag(GATHER_EPOCH, GATHER_INDEX)
    worker = RankWorker(sim, rank, overlap=overlap, max_workers=max_workers)
    transport = None
    try:
        # Workers fork before the transport starts its threads.
        if case.controls.max_iters > 0:
            worker.start()
        transport = worker.transport = worker.exchanger.transport = \
            SocketTransport(rank, addresses, timeout=timeout)
        res = worker.run(case.controls)
        if rank != 0:
            t = res.totals
            summary = np.array([res.stop, res.iterations, res.sim_time,
                                res.wall_seconds, t.messages, t.bytes,
                                t.local_copies, res.error is not None],
                               dtype=np.float64)
            transport.send(Message(tag=tag, source=rank, dest=0,
                                   payload=summary))
            for bid in worker.block_ids:
                payload = res.fields[bid].interior.ravel()
                transport.send(Message(tag=tag, source=rank, dest=0,
                                       payload=payload))
            if res.stop >= STOP_DIVERGED:
                _outcome(sim, [res])            # raises, naming this rank
            return None

        results = [res]
        for r in range(1, plan.ranks):
            stop, steps, sim_time, wall, messages, nbytes, copies, failed = \
                transport.recv(tag=tag, source=r, dest=0).payload
            fields: FieldSet = {}
            for b in plan.blocks_of_rank(r):
                f = fields[b.id] = BlockField.allocate(b, plan.zone)
                f.interior[...] = transport.recv(
                    tag=tag, source=r, dest=0).payload.reshape(
                        (NCOMP,) + b.shape)
            results.append(RankResult(
                rank=r, fields=fields, iterations=int(steps),
                sim_time=sim_time, stop=stop,
                totals=ExchangeTotals(int(messages), int(nbytes), int(copies)),
                wall_seconds=wall,
                error=WcnsflowError(f"rank {r} failed; its own error names "
                                    "the cause") if failed else None))
        return _outcome(sim, results)
    except Exception as exc:
        if getattr(exc, "rank", None) is None:
            exc.rank = rank
        raise
    finally:
        worker.close()
        if transport is not None:
            transport.close()
