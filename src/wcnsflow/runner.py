"""Run orchestration: rank workers, stage reductions, in-process runs and
socket runs.

Every rank advances its blocks through the same stage pipeline (reduce
wavespeeds, exchange ghosts, sweep, update).  A block's sweeps are cut
along their axis into a halo-free interior range and two boundary ranges
only when overlap is on and another rank sends it ghosts (``cut_blocks``):
the interior sweeps are submitted while those messages are in flight, and
the boundary sweeps, which read the edge values the interior sweeps hand
them, follow them.  Every other block sweeps each axis whole after the
exchange.  Each sweep range is further cut into one run of cross rows per
pool worker, and the rank thread waits once per stage for all of them.

Each rank has one host worker pool that sweeps all of its blocks; the
modeled CPU sockets and coprocessors that the plan groups blocks into exist
only in the cost model.  A pool of more than one worker sweeps in worker
processes, forked before any rank thread starts (``RankWorker.start``), and
the runs of one ``run_case`` share them.  They inherit the rank's
``Arena``, an anonymous shared mapping that holds every block's extended
state, primitives and convective outputs, so a sweep crosses their pipes
only as a ``Sweep`` description.  Worker ``k`` sweeps row run ``k`` of
every range in the order sent, so a boundary sweep always follows the
interior sweep whose edges it reads.  Viscous terms, conversions and
updates stay on the rank thread.

Ranks coordinate only through transport messages, all received from one
kind of mailbox (``InProcessTransport``, which rank threads share and each
socket rank's transport holds), so one worker implementation runs
serially, under threads in one process, or across processes over sockets.
A rank thread that fails is marked lost in the mailbox, so its peers fail
at once.  Kernel windows never depend on the partition, which keeps state
bitwise identical across block counts, rank counts and worker counts.

Runs measure wall time, and report only what they measured.  Rank threads
(``run_case``) and socket ranks (``run_socket_rank``) hand their per-rank
results to one function, ``_outcome``, which checks for divergence, merges
every rank's fields and ``ExchangeTotals`` (the one traffic record, which
every exchange epoch returns), and builds the metrics row of cells, steps,
wall time, traffic and convergence, so both paths report the same outcome.
Modeled numbers come only from ``model.model_run``.
"""

from __future__ import annotations

import functools
import math
import mmap
import threading
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .cases import Case, case_plan, initial_fields
from .devices import rank_pool
from .errors import DivergenceError, InvalidStateError, WcnsflowError
from .fields import BlockField, FieldSet
from .halo import (
    BCAST_INDEX,
    H,
    ExchangeTotals,
    HaloExchanger,
    REDUCE_INDEX,
    RESERVED_INDEX,
    build_halo_plan,
    message_tag,
)
from .metrics import RunMetrics
# The benchmark imports ``model_schedule`` from here, beside ``run_case``.
from .model import cut_blocks, model_schedule  # noqa: F401
from .partition import Block, PartitionPlan
from .residual import (
    GradientPack,
    ResidualParts,
    block_wavespeed_bound,
    convective_derivative,
    interior_split,
    velocity_temperature_gradients,
    viscous_derivative,
)
from .state import NCOMP, primitive_from_conserved, spectral_radius
from .timestepping import (
    STAGES,
    IterationControls,
    block_dt_bound,
    clip_dt,
    stage_state,
)
from .transport import InProcessTransport, Message, SocketTransport

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


def build_simulation(case: Case, plan: PartitionPlan | None = None) -> Simulation:
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
    halo_plan = build_halo_plan(plan)
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


class Sweep(NamedTuple):
    """One convective sweep task, as it crosses the pipe to a worker
    process: block, ``w_ext`` slot, axis, wavespeed, node range ``lo:hi``
    and cross-row range ``r0:r1``."""

    block: int
    slot: int
    axis: int
    lam: float
    lo: int
    hi: int
    r0: int
    r1: int
    handoff: bool


class Arena:
    """The arrays a rank's sweeps read and write, per block: ``q`` (the
    extended conserved state, ``BlockField.data``), the ``w`` slots of
    extended primitives, and the three ``conv`` outputs.

    A shared arena keeps its arrays in anonymous shared mappings, which
    worker processes forked after it was built sweep in.  There a cut block
    has two ``w`` slots, so its interior sweeps read slot 0 while the rank
    converts the extended box into slot 1.  A private arena is ordinary
    memory, its ``q`` entries are the fields' own arrays, and its sweeps run
    on the rank thread one after another, so one slot serves."""

    def __init__(self, blocks: list[Block], cut: set[int], *, shared: bool):
        self.shared = shared
        empty = _shared_empty if shared else np.empty
        ext = {b.id: (NCOMP,) + tuple(n + 2 * H for n in b.shape)
               for b in blocks}
        self.q: dict[int, np.ndarray] = {
            b.id: empty(ext[b.id]) for b in blocks} if shared else {}
        self.w = {b.id: [empty(ext[b.id])
                         for _ in range(2 if shared and b.id in cut else 1)]
                  for b in blocks}
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

    def sweep(self, s: Sweep, gas, spacing) -> None:
        convective_derivative(self.q[s.block], self.w[s.block][s.slot],
                              s.axis, s.lam, spacing[s.axis], gas=gas,
                              lo=s.lo, hi=s.hi, row_lo=s.r0, row_hi=s.r1,
                              handoff=s.handoff,
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
                 overlap: bool = True, coalesce: bool = True,
                 max_workers: int | None = None):
        self.sim = sim
        self.rank = rank
        self.transport = transport
        self.case = sim.case
        self.plan = sim.plan
        self.blocks: list[Block] = sim.plan.blocks_of_rank(rank)
        self.block_ids = [b.id for b in self.blocks]
        self.exchanger = HaloExchanger(sim.halo_plan, sim.plan, transport,
                                       freestream=sim.freestream,
                                       coalesce=coalesce)
        self.pool = rank_pool(rank, max_workers)
        self.cut = cut_blocks(sim.halo_plan, rank, overlap)
        self.arena = Arena(self.blocks, self.cut, shared=False)

        self.fields: FieldSet = {}
        self.q0: dict[int, np.ndarray] = {}
        self.vis: dict[int, list[np.ndarray | None]] = {}
        self.residual: dict[int, np.ndarray] = {}
        self.totals = ExchangeTotals()
        self.epoch = 0
        self.spacing = sim.plan.zone.spacing

    # -- setup -------------------------------------------------------------

    def start(self) -> None:
        """Fork the worker processes of a pool of more than one worker, over
        a shared arena that takes the private one's place.  Call it before
        the first run and before any thread of the run starts."""
        if self.pool.workers == 1:
            return
        self.arena = Arena(self.blocks, self.cut, shared=True)
        self.pool.start(functools.partial(self.arena.sweep, gas=self.sim.gas,
                                          spacing=self.spacing))

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

    def _interior_primitives(self) -> dict[int, np.ndarray]:
        return {b.id: primitive_from_conserved(self.fields[b.id].interior,
                                               self.sim.gas, block_id=b.id)
                for b in self.blocks}

    def _lambda_partials(self, w_int: dict[int, np.ndarray]) -> np.ndarray:
        lams = np.zeros(3)
        for b in self.blocks:
            for axis in range(3):
                bound = block_wavespeed_bound(w_int[b.id], axis, self.sim.gas)
                if bound > lams[axis]:
                    lams[axis] = bound
        return lams

    def _dt_partial(self, w_int: dict[int, np.ndarray]) -> float:
        bound = np.inf
        for b in self.blocks:
            bound = min(bound, block_dt_bound(w_int[b.id], self.sim.gas,
                                              self.spacing))
        return bound

    def _make_finalize(self, controls: IterationControls, sim_time: float,
                       stage: int, initial_normsq: list):
        """Build the rank-0 combiner for one stage's reduction."""
        sim = self.sim
        fs_w = np.asarray(self.case.freestream,
                          dtype=np.float64).reshape(5, 1, 1, 1)

        def finalize(parts: np.ndarray) -> np.ndarray:
            dt_bound = float(np.min(parts[:, 0]))
            normsq = float(np.sum(parts[:, 1]))
            stop = float(np.max(parts[:, 2]))
            lams = parts[:, 3:].max(axis=0)
            if sim.inflow:
                for axis in range(3):
                    fs_lam = float(spectral_radius(fs_w, axis,
                                                   sim.gas)[0, 0, 0])
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

    def _submit(self, tasks, futures: list) -> None:
        """Submit (fn, args) pairs to the pool, appending to ``futures`` the
        ``Pending`` of each task that went to a worker process."""
        for fn, args in tasks:
            fut = self.pool.submit(fn, *args)
            if fut is not None:
                futures.append(fut)

    def _run_tasks(self, tasks, futures: list) -> None:
        """Submit ``tasks`` after the ``futures`` already in flight, wait for
        every one of them, then raise the first failure in submit order.
        Disjoint output slabs make the result independent of worker count
        and completion order."""
        try:
            self._submit(tasks, futures)
        finally:
            for fut in futures:
                fut.wait()
        for fut in futures:
            fut.result()

    def _sweep_tasks(self, b: Block, lams: np.ndarray, slot: int,
                     interior: bool) -> list:
        """Convective tasks of block ``b`` on ``w_ext`` slot ``slot``: per
        axis, the halo-free node range when ``interior``, else the rest,
        which is the whole axis for a block that is not cut.  Each range is
        split into one task per pool worker over equal runs of cross rows;
        task ``k`` goes to worker ``k``."""
        workers = self.pool.workers
        handoff = b.id in self.cut
        tasks = []
        for axis in range(3):
            n = b.shape[axis]
            a, c = interior_split(n) if handoff else (0, 0)
            nrows = b.shape[1 if axis == 0 else 0]
            for lo, hi in [(a, c)] if interior else [(0, a), (c, n)]:
                if hi <= lo:
                    continue
                for k in range(workers):
                    r0, r1 = nrows * k // workers, nrows * (k + 1) // workers
                    if r1 > r0:
                        sweep = Sweep(b.id, slot, axis, float(lams[axis]),
                                      lo, hi, r0, r1, handoff)
                        tasks.append((self._conv_chunk, (sweep, k)))
        return tasks

    def _conv_chunk(self, sweep: Sweep, k: int):
        """Sweep task ``k`` of its range: sent to worker process ``k`` of the
        pool, or run here when the pool has none."""
        if self.pool.processes:
            return self.pool.send(k, sweep)
        self.arena.sweep(sweep, self.sim.gas, self.spacing)
        return None

    def _vis_chunk(self, b: Block, grads: GradientPack, axis: int) -> None:
        viscous_derivative(grads, self.sim.gas, axis,
                           self.spacing[axis], out=self.vis[b.id][axis])

    def _stage_residual(self, lams: np.ndarray,
                        w_int: dict[int, np.ndarray], epoch: int) -> None:
        """Exchange ghosts and assemble residuals for every local block."""
        futures: list = []
        hook = None
        if self.cut:
            # Interior windows read no ghost cells, so they run while
            # messages are in flight; only the primitive interiors are
            # needed for that.
            cut = [b for b in self.blocks if b.id in self.cut]
            interior = (slice(None),) + (slice(H, -H),) * 3
            for b in cut:
                self.arena.w[b.id][0][interior] = w_int[b.id]

            def hook():
                for b in cut:
                    self._submit(self._sweep_tasks(b, lams, 0, True), futures)

        try:
            self.totals.add(self.exchanger.run(self.rank, self.fields, epoch,
                                               overlap_hook=hook))
            for b in self.blocks:
                # Ghosts are in place; primitives now cover the extended box,
                # in the last slot, which no running interior sweep reads.
                # Its interior recomputes to bitwise-identical numbers.  Each
                # block's sweeps leave as soon as it is ready.
                slot = len(self.arena.w[b.id]) - 1
                w_ext = primitive_from_conserved(
                    self.fields[b.id].data, self.sim.gas, block_id=b.id,
                    out=self.arena.w[b.id][slot])
                tasks = self._sweep_tasks(b, lams, slot, False)
                if self.sim.gas.viscous:
                    grads = velocity_temperature_gradients(w_ext,
                                                           self.spacing)
                    tasks += [(self._vis_chunk, (b, grads, axis))
                              for axis in range(3)]
                self._submit(tasks, futures)
        except BaseException:
            # Sweeps may still be writing; let them finish first.
            self._run_tasks([], futures)
            raise
        self._run_tasks([], futures)

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
                if controls.t_end is not None and sim_time >= \
                        controls.t_end * (1.0 - 1e-15):
                    break
                dt = 0.0
                for stage in range(STAGES):
                    w_int = None
                    lams = np.zeros(3)
                    dt_partial = np.inf
                    try:
                        w_int = self._interior_primitives()
                        lams = self._lambda_partials(w_int)
                        if stage == 0:
                            dt_partial = self._dt_partial(w_int)
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
                        self._stage_residual(lam_final, w_int, self.epoch)
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
    if any rank diverged."""
    worst = max(results, key=lambda r: r.stop)
    if worst.stop >= STOP_DIVERGED:
        err = next((r.error for r in results if r.error is not None), None)
        raise DivergenceError(
            f"run diverged after {worst.iterations} completed steps"
            + (f": {err}" if err else ""),
            step=worst.iterations) from err

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
    raised."""
    if len(workers) == 1:
        return [workers[0].run(controls)]
    results: list = [None] * len(workers)
    failures: list = []               # in the order they happened

    def target(rank: int) -> None:
        try:
            results[rank] = workers[rank].run(controls)
        except Exception as exc:          # surfaced after join
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
             best_of: int = 1, warmup: bool = True) -> RunOutcome:
    """Run a case to completion in this process (threads when ranks > 1).

    ``best_of`` repeats the full run and keeps the one with the fastest wall
    time (state is bitwise identical across repetitions).  ``warmup`` runs
    one untimed step first and discards it.  Every run shares the ranks'
    worker processes, which start before the first run when the case has
    steps and end before this returns.
    """
    if best_of < 1:
        raise WcnsflowError(f"best_of must be at least 1, got {best_of}")
    sim = build_simulation(case, plan)
    controls = case.controls
    ranks = sim.plan.ranks
    transport = InProcessTransport(ranks) if ranks > 1 else None
    workers = [RankWorker(sim, r, transport, overlap=overlap,
                          coalesce=coalesce, max_workers=max_workers)
               for r in range(ranks)]
    try:
        if controls.max_iters > 0:
            for worker in workers:
                worker.start()
            if warmup:
                _run_once(workers, replace(controls, max_iters=1,
                                           tolerance=None))
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
    rank sends rank 0 one message with its stop flag, steps, times and
    exchange totals, then its block interiors in plan order.  Rank 0
    returns the outcome ``run_case`` gives for the case; the other ranks
    return None."""
    sim = build_simulation(case, plan)
    plan = sim.plan
    if plan.ranks != len(addresses):
        raise WcnsflowError(f"case wants {plan.ranks} ranks, "
                            f"{len(addresses)} addresses given")
    if rank not in addresses:
        raise WcnsflowError(f"rank {rank} has no address: ranks are "
                            f"0..{len(addresses) - 1}")
    tag = message_tag(GATHER_EPOCH, GATHER_INDEX)
    worker = RankWorker(sim, rank, overlap=overlap, coalesce=coalesce,
                        max_workers=max_workers)
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
                                t.local_copies], dtype=np.float64)
            transport.send(Message(tag=tag, source=rank, dest=0,
                                   payload=summary))
            for bid in worker.block_ids:
                interior = res.fields[bid].interior
                transport.send(Message(tag=tag, source=rank, dest=0,
                                       payload=interior.ravel()))
            if res.stop >= STOP_DIVERGED:
                raise DivergenceError(
                    f"rank {rank} run diverged after {res.iterations} steps",
                    step=res.iterations) from res.error
            return None

        results = [res]
        for r in range(1, plan.ranks):
            stop, steps, sim_time, wall, messages, nbytes, copies = \
                transport.recv(tag=tag, source=r, dest=0).payload
            fields: FieldSet = {}
            for b in plan.blocks_of_rank(r):
                f = fields[b.id] = BlockField.allocate(b)
                f.interior[...] = transport.recv(
                    tag=tag, source=r, dest=0).payload.reshape(
                        (NCOMP,) + b.shape)
            results.append(RankResult(
                rank=r, fields=fields, iterations=int(steps),
                sim_time=sim_time, stop=stop,
                totals=ExchangeTotals(int(messages), int(nbytes), int(copies)),
                wall_seconds=wall))
        return _outcome(sim, results)
    finally:
        worker.close()
        if transport is not None:
            transport.close()
