"""Run orchestration: rank workers, stage reductions, in-process runs and
socket runs.

Every rank advances its blocks through the same stage pipeline (reduce
wavespeeds, exchange ghosts, sweep, update).  A block's sweeps are cut
along their axis into a halo-free interior range and two boundary ranges
only when overlap is on and another rank sends it ghosts (``cut_blocks``):
the interior sweeps are submitted while those messages are in flight, and
the boundary sweeps, which read the edge values the interior sweeps hand
them, are submitted once those have finished.  Every other block sweeps
each axis whole after the exchange.  Each sweep task is further cut into
one range of cross rows per pool worker, and the rank thread waits once per
stage for all of them.  Ranks coordinate only through transport messages,
so one worker implementation runs serially, under threads in one process,
or across processes over sockets.  Kernel windows never depend on the
partition, which keeps state bitwise identical across block counts, rank
counts and worker counts.

Runs measure wall time.  Rank threads (``run_case``) and socket ranks
(``run_socket_rank``) hand their per-rank results to one function,
``_outcome``, which checks for divergence, merges every rank's fields and
exchange totals, and builds the metrics, so both paths report the same
outcome.  When the plan has coprocessor groups it also attaches the modeled
schedule (``model.model_schedule``), and the metrics then take the modeled
clock as the timing authority.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait
from dataclasses import dataclass, field, replace

import numpy as np

from .cases import Case, case_plan, initial_fields
from .devices import DevicePool, configure_devices, shutdown_pools
from .errors import DivergenceError, InvalidStateError, WcnsflowError
from .fields import BlockField, FieldSet
from .halo import (
    BCAST_INDEX,
    H,
    HaloExchanger,
    REDUCE_INDEX,
    RESERVED_INDEX,
    build_halo_plan,
    message_tag,
)
from .metrics import RunMetrics, from_timeline
from .model import cut_blocks, model_schedule
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
from .schedule import Timeline
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
class ExchangeTotals:
    messages: int = 0
    bytes: int = 0
    local_copies: int = 0

    def add(self, stats) -> None:
        self.messages += stats.messages_sent
        self.bytes += stats.bytes_sent
        self.local_copies += stats.local_copies

    def merge(self, other: "ExchangeTotals") -> None:
        self.messages += other.messages
        self.bytes += other.bytes
        self.local_copies += other.local_copies


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


class RankWorker:
    """One rank's share of a run: blocks, buffers, pools, stage pipeline."""

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
        groups = sim.plan.groups_of_rank(rank)
        use_pools = max_workers is None or max_workers > 1
        self.pools = configure_devices(
            rank, groups, cpu=sim.case.cpu,
            coprocessor=sim.case.coprocessor or sim.case.cpu,
            executors=use_pools, max_workers=max_workers)
        self.pool_of_block: dict[int, DevicePool] = {}
        for g, pool in zip(groups, self.pools):
            for bid in g.block_ids:
                self.pool_of_block[bid] = pool
        self.cut = cut_blocks(sim.halo_plan, rank, overlap)

        self.fields: FieldSet = {}
        self.q0: dict[int, np.ndarray] = {}
        self.w_ext: dict[int, np.ndarray] = {}
        self.conv: dict[int, list[np.ndarray]] = {}
        self.vis: dict[int, list[np.ndarray | None]] = {}
        self.residual: dict[int, np.ndarray] = {}
        self.totals = ExchangeTotals()
        self.epoch = 0
        self.spacing = sim.plan.zone.spacing

    # -- setup -------------------------------------------------------------

    def init_state(self) -> None:
        self.fields = initial_fields(self.case, self.plan,
                                     block_ids=set(self.block_ids))
        viscous = self.sim.gas.viscous
        for b in self.blocks:
            f = self.fields[b.id]
            self.q0[b.id] = f.interior.copy()
            if b.id in self.cut:
                self.w_ext[b.id] = np.empty_like(f.data)
            self.conv[b.id] = [np.empty((NCOMP,) + b.shape) for _ in range(3)]
            self.vis[b.id] = [np.empty((NCOMP,) + b.shape) if viscous else None
                              for _ in range(3)]

    def close(self) -> None:
        shutdown_pools(self.pools)

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
                    elif normsq > (controls.divergence_factor ** 2) * max(
                            initial_normsq[0], 1e-300):
                        stop = max(stop, STOP_DIVERGED)
                    if (controls.tolerance is not None
                            and initial_normsq[0] > 0.0
                            and normsq <= (controls.tolerance ** 2)
                            * initial_normsq[0]):
                        stop = max(stop, STOP_CONVERGED)
            return np.concatenate(([dt, stop, normsq], lams))

        return finalize

    @staticmethod
    def _submit(tasks, futures: list) -> None:
        """Submit (pool, fn, args) triples, appending the futures of pooled
        tasks to ``futures``; an inline pool runs its task here."""
        for pool, fn, args in tasks:
            fut = pool.submit(fn, *args)
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
            wait(futures)
        for fut in futures:
            fut.result()

    def _sweep_tasks(self, b: Block, lams: np.ndarray, w_ext: np.ndarray,
                     interior: bool) -> list:
        """Convective tasks of block ``b``: per axis, the halo-free node
        range when ``interior``, else the rest, which is the whole axis for
        a block that is not cut.  Each range is split into one task per
        pool worker over equal runs of cross rows."""
        pool = self.pool_of_block[b.id]
        workers = pool.workers
        tasks = []
        for axis in range(3):
            n = b.shape[axis]
            a, c = interior_split(n) if b.id in self.cut else (0, 0)
            nrows = b.shape[1 if axis == 0 else 0]
            for lo, hi in [(a, c)] if interior else [(0, a), (c, n)]:
                if hi <= lo:
                    continue
                for k in range(workers):
                    r0, r1 = nrows * k // workers, nrows * (k + 1) // workers
                    if r1 > r0:
                        tasks.append((pool, self._conv_chunk,
                                      (b, w_ext, axis, lams[axis],
                                       lo, hi, r0, r1)))
        return tasks

    def _conv_chunk(self, b: Block, w_ext: np.ndarray, axis: int,
                    lam: float, lo: int, hi: int, r0: int, r1: int) -> None:
        convective_derivative(self.fields[b.id].data, w_ext, axis, lam,
                              self.spacing[axis], gas=self.sim.gas,
                              lo=lo, hi=hi, row_lo=r0, row_hi=r1,
                              handoff=b.id in self.cut,
                              out=self.conv[b.id][axis])

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
            for b in cut:
                self.w_ext[b.id][(slice(None),) + (slice(H, -H),) * 3] = \
                    w_int[b.id]

            def hook():
                for b in cut:
                    self._submit(self._sweep_tasks(b, lams, self.w_ext[b.id],
                                                   True), futures)

        tasks = []
        try:
            stats = self.exchanger.run(self.rank, self.fields, epoch,
                                       overlap_hook=hook)
            self.totals.add(stats)
            for b in self.blocks:
                # Ghosts are in place; primitives now cover the extended box.
                # A new array, since running interior sweeps read the old
                # one; its interior recomputes to bitwise-identical numbers.
                w_ext = self.w_ext[b.id] = primitive_from_conserved(
                    self.fields[b.id].data, self.sim.gas, block_id=b.id)
                tasks += self._sweep_tasks(b, lams, w_ext, False)
                if self.sim.gas.viscous:
                    grads = velocity_temperature_gradients(w_ext,
                                                           self.spacing)
                    pool = self.pool_of_block[b.id]
                    tasks += [(pool, self._vis_chunk, (b, grads, axis))
                              for axis in range(3)]
        except BaseException:
            # Interior sweeps may still be writing; let them finish first.
            self._run_tasks([], futures)
            raise
        # Boundary sweeps of cut blocks read the edges the interior sweeps
        # park in their nodes.
        wait(futures)
        self._run_tasks(tasks, futures)

        for b in self.blocks:
            parts = ResidualParts(convective=tuple(self.conv[b.id]),
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

        self.init_state()
        try:
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
        finally:
            self.close()

        return RankResult(rank=self.rank, fields=self.fields,
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
    timeline: Timeline | None = None


def _outcome(sim: Simulation, results: list[RankResult], *, overlap: bool,
             coalesce: bool) -> RunOutcome:
    """The outcome of one run from the results of all its ranks, in rank
    order.  Raises ``DivergenceError`` if any rank diverged.  The modeled
    schedule is attached when the plan has coprocessor groups, and the
    metrics then report the modeled clock."""
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
        totals.merge(r.totals)
    r0 = results[0]
    case, plan = sim.case, sim.plan
    converged = r0.stop == STOP_CONVERGED
    common = dict(total_cells=plan.total_cells, iterations=r0.iterations,
                  wall_seconds=r0.wall_seconds, messages=totals.messages,
                  message_bytes=totals.bytes, converged=converged)
    timeline = None
    if r0.iterations > 0 and any(g.device_class == "coprocessor"
                                 for g in plan.groups):
        timeline = model_schedule(case, plan, steps=r0.iterations,
                                  overlap=overlap, coalesce=coalesce)
        metrics = from_timeline(case.name, timeline, **common)
    else:
        metrics = RunMetrics(label=case.name, **common)
    return RunOutcome(case=case, plan=plan, fields=fields,
                      iterations=r0.iterations, sim_time=r0.sim_time,
                      converged=converged, wall_seconds=r0.wall_seconds,
                      norm_history=r0.norm_history, totals=totals,
                      metrics=metrics, timeline=timeline)


# ---------------------------------------------------------------------------
# In-process runs

def _run_once(sim: Simulation, controls: IterationControls, *,
              overlap: bool, coalesce: bool,
              max_workers: int | None) -> list[RankResult]:
    ranks = sim.plan.ranks
    if ranks == 1:
        worker = RankWorker(sim, 0, None, overlap=overlap, coalesce=coalesce,
                            max_workers=max_workers)
        return [worker.run(controls)]
    transport = InProcessTransport(ranks)
    results: list = [None] * ranks
    failures: list = [None] * ranks

    def target(rank: int) -> None:
        try:
            worker = RankWorker(sim, rank, transport, overlap=overlap,
                                coalesce=coalesce, max_workers=max_workers)
            results[rank] = worker.run(controls)
        except Exception as exc:          # surfaced after join
            failures[rank] = exc

    threads = [threading.Thread(target=target, args=(r,),
                                name=f"rank{r}") for r in range(ranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    transport.close()
    for exc in failures:
        if exc is not None:
            raise exc
    return results


def run_case(case: Case, plan: PartitionPlan | None = None, *,
             overlap: bool = True, coalesce: bool = True,
             max_workers: int | None = None,
             best_of: int = 1, warmup: bool = True) -> RunOutcome:
    """Run a case to completion in this process (threads when ranks > 1).

    ``best_of`` repeats the full run and keeps the one with the fastest wall
    time (state is bitwise identical across repetitions).  ``warmup`` runs
    one untimed step first and discards it.
    """
    if best_of < 1:
        raise WcnsflowError(f"best_of must be at least 1, got {best_of}")
    sim = build_simulation(case, plan)
    controls = case.controls

    if warmup and controls.max_iters > 0:
        _run_once(sim, replace(controls, max_iters=1, tolerance=None),
                  overlap=overlap, coalesce=coalesce, max_workers=max_workers)

    runs = (_run_once(sim, controls, overlap=overlap, coalesce=coalesce,
                      max_workers=max_workers)
            for _ in range(best_of))
    fastest = min(runs, key=lambda results: results[0].wall_seconds)
    return _outcome(sim, fastest, overlap=overlap, coalesce=coalesce)


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
    transport = SocketTransport(rank, addresses, timeout=timeout)
    tag = message_tag(GATHER_EPOCH, GATHER_INDEX)
    try:
        worker = RankWorker(sim, rank, transport, overlap=overlap,
                            coalesce=coalesce, max_workers=max_workers)
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
        return _outcome(sim, results, overlap=overlap, coalesce=coalesce)
    finally:
        transport.close()
