"""Run orchestration: rank workers, reductions, and the performance model.

Numerical execution and timing are deliberately separated.

Numerics: every rank advances its blocks through the same stage pipeline
(reduce wavespeeds, exchange ghosts, sweep, update).  A block's sweeps are
cut along their axis into a halo-free interior range and two boundary
ranges only when overlap is on and another rank sends it ghosts: the
interior sweeps are submitted while those messages are in flight.  Every
other block sweeps each axis whole after the exchange.  Each sweep task is
further cut into one range of cross rows per pool worker, and the rank
thread waits once per stage for all of them.  Ranks coordinate only through
transport messages, so one worker implementation runs serially, under
threads in one process, or across processes over sockets.  Kernel windows
never depend on the partition, which keeps state bitwise identical across
block counts, rank counts, worker counts, and tile sizes.

Timing: heterogeneous benchmark numbers come from a deterministic schedule
walked from the plan and the device cost models (``model_schedule``), never
from the host the suite happens to run on.  Real runs measure wall time
alongside and the metrics record which clock was the authority.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait
from dataclasses import dataclass, field, replace

import numpy as np

from .cases import Case, case_plan, initial_fields, with_load_ratio
from .devices import (
    MEMCPY_BANDWIDTH,
    DevicePool,
    configure_devices,
    device_label,
    shutdown_pools,
)
from .errors import DivergenceError, InvalidStateError
from .fields import FieldSet
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
from .schedule import ModelClock, Timeline
from .state import NCOMP, primitive_from_conserved, spectral_radius
from .timestepping import (
    STAGES,
    IterationControls,
    block_dt_bound,
    clip_dt,
    stage_state,
)
from .transport import InProcessTransport, Message

GATHER_INDEX = RESERVED_INDEX + 12   # post-run block gather to rank 0
GATHER_EPOCH = 0x7FF


@dataclass
class Simulation:
    """Everything a rank needs to run one case."""

    case: Case
    plan: PartitionPlan
    halo_plan: object
    freestream: np.ndarray          # conserved, shape (5,)
    inflow_zones: frozenset[int]

    @property
    def gas(self):
        return self.case.gas


def build_simulation(case: Case, plan: PartitionPlan | None = None) -> Simulation:
    if plan is None:
        plan = case_plan(case)
    halo_plan = build_halo_plan(plan)
    inflow = frozenset(z.id for z in plan.zones if "inflow" in z.boundary)
    return Simulation(case=case, plan=plan, halo_plan=halo_plan,
                      freestream=case.freestream_conserved(),
                      inflow_zones=inflow)


def cut_blocks(halo_plan, rank: int, overlap: bool) -> frozenset[int]:
    """Blocks of ``rank`` whose sweeps are cut into a halo-free interior
    range and two boundary ranges.  Cutting a sweep repeats edge values at
    the cut, so a block is cut only where its interior sweeps can hide
    another rank's message: overlap is on and another rank feeds it."""
    if not overlap:
        return frozenset()
    return frozenset(p.dst_block for p in halo_plan.recvs_of(rank))


# ---------------------------------------------------------------------------
# Stage reductions
#
# One allreduce per stage carries everything the step needs: the time-step
# bound (stage 0), the stage-0 residual norm partial (carried at stage 1),
# a stop flag, and per-zone per-axis wavespeed partials.  Rank 0 combines
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
                 tile: int | None = None, max_workers: int | None = None):
        self.sim = sim
        self.rank = rank
        self.transport = transport
        self.tile = tile
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
        self.nzones = len(sim.plan.zones)

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

    def _spacing(self, block: Block) -> tuple[float, float, float]:
        return self.plan.zone_of(block.zone).spacing

    def _interior_primitives(self) -> dict[int, np.ndarray]:
        return {b.id: primitive_from_conserved(self.fields[b.id].interior,
                                               self.sim.gas, block_id=b.id)
                for b in self.blocks}

    def _lambda_partials(self, w_int: dict[int, np.ndarray]) -> np.ndarray:
        lams = np.zeros((self.nzones, 3))
        for b in self.blocks:
            for axis in range(3):
                bound = block_wavespeed_bound(w_int[b.id], axis, self.sim.gas)
                if bound > lams[b.zone, axis]:
                    lams[b.zone, axis] = bound
        return lams

    def _dt_partial(self, w_int: dict[int, np.ndarray]) -> float:
        bound = np.inf
        for b in self.blocks:
            bound = min(bound, block_dt_bound(w_int[b.id], self.sim.gas,
                                              self._spacing(b)))
        return bound

    def _make_finalize(self, controls: IterationControls, sim_time: float,
                       stage: int, initial_normsq: list):
        """Build the rank-0 combiner for one stage's reduction."""
        sim = self.sim
        fs_w = np.asarray(self.case.freestream,
                          dtype=np.float64).reshape(5, 1, 1, 1)
        nzones = self.nzones

        def finalize(parts: np.ndarray) -> np.ndarray:
            dt_bound = float(np.min(parts[:, 0]))
            normsq = float(np.sum(parts[:, 1]))
            stop = float(np.max(parts[:, 2]))
            lams = parts[:, 3:].max(axis=0).reshape(nzones, 3)
            for z in sim.inflow_zones:
                for axis in range(3):
                    fs_lam = float(spectral_radius(fs_w, axis,
                                                   sim.gas)[0, 0, 0])
                    if fs_lam > lams[z, axis]:
                        lams[z, axis] = fs_lam
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
            return np.concatenate(([dt, stop, normsq], lams.ravel()))

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
                                      (b, w_ext, axis, lams[b.zone, axis],
                                       lo, hi, r0, r1)))
        return tasks

    def _conv_chunk(self, b: Block, w_ext: np.ndarray, axis: int,
                    lam: float, lo: int, hi: int, r0: int, r1: int) -> None:
        convective_derivative(self.fields[b.id].data, w_ext, axis, lam,
                              self._spacing(b)[axis], gas=self.sim.gas,
                              lo=lo, hi=hi, row_lo=r0, row_hi=r1,
                              tile=self.tile, out=self.conv[b.id][axis])

    def _vis_chunk(self, b: Block, grads: GradientPack, axis: int) -> None:
        viscous_derivative(grads, self.sim.gas, axis,
                           self._spacing(b)[axis], out=self.vis[b.id][axis])

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
                                                           self._spacing(b))
                    pool = self.pool_of_block[b.id]
                    tasks += [(pool, self._vis_chunk, (b, grads, axis))
                              for axis in range(3)]
        except BaseException:
            # Interior sweeps may still be writing; let them finish first.
            self._run_tasks([], futures)
            raise
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
                        lams = np.zeros((self.nzones, 3))
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
                            lams.ravel()))
                        down = allreduce(
                            self.transport, self.rank, self.plan.ranks,
                            self.epoch, up,
                            self._make_finalize(controls, sim_time, stage,
                                                initial_normsq))
                        if stage == 0:
                            dt = float(down[0])
                        stop = float(down[1])
                        lam_final = down[3:].reshape(self.nzones, 3)
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
# In-process runs

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


def _run_once(sim: Simulation, controls: IterationControls, *,
              overlap: bool, coalesce: bool, tile: int | None,
              max_workers: int | None) -> list[RankResult]:
    ranks = sim.plan.ranks
    if ranks == 1:
        worker = RankWorker(sim, 0, None, overlap=overlap, coalesce=coalesce,
                            tile=tile, max_workers=max_workers)
        return [worker.run(controls)]
    transport = InProcessTransport(ranks)
    results: list = [None] * ranks
    failures: list = [None] * ranks

    def target(rank: int) -> None:
        try:
            worker = RankWorker(sim, rank, transport, overlap=overlap,
                                coalesce=coalesce, tile=tile,
                                max_workers=max_workers)
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
             tile: int | None = None, max_workers: int | None = None,
             best_of: int = 1, warmup: bool = True,
             model: bool | None = None, label: str | None = None) -> RunOutcome:
    """Run a case to completion in this process (threads when ranks > 1).

    ``best_of`` repeats the full run and keeps the fastest wall time (state
    is bitwise identical across repetitions).  ``warmup`` runs one untimed
    step first and discards it.  ``model`` attaches the modeled schedule;
    by default it is built whenever the case models coprocessors, and the
    metrics then use the modeled clock as the timing authority.
    """
    sim = build_simulation(case, plan)
    controls = case.controls
    if best_of < 1:
        raise ValueError("best_of must be at least 1")

    if warmup and controls.max_iters > 0:
        _run_once(sim, replace(controls, max_iters=1, tolerance=None),
                  overlap=overlap, coalesce=coalesce, tile=tile,
                  max_workers=max_workers)

    wall = np.inf
    results: list[RankResult] = []
    for _ in range(best_of):
        results = _run_once(sim, controls, overlap=overlap,
                            coalesce=coalesce, tile=tile,
                            max_workers=max_workers)
        wall = min(wall, results[0].wall_seconds)
    if controls.max_iters == 0:
        wall = 0.0

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

    name = label or case.name
    hetero = any(g.device_class == "coprocessor" for g in sim.plan.groups)
    want_model = hetero if model is None else model
    timeline = None
    if want_model and r0.iterations > 0:
        timeline = model_schedule(case, sim.plan, steps=r0.iterations,
                                  overlap=overlap, coalesce=coalesce)
    if timeline is not None and hetero:
        metrics = from_timeline(
            name, timeline, total_cells=sim.plan.total_cells,
            iterations=r0.iterations, wall_seconds=wall,
            messages=totals.messages, message_bytes=totals.bytes,
            converged=r0.stop == STOP_CONVERGED)
    else:
        metrics = RunMetrics(
            label=name, total_cells=sim.plan.total_cells,
            iterations=r0.iterations, wall_seconds=wall,
            timing_source="wall",
            model_seconds=timeline.makespan if timeline else None,
            messages=totals.messages, message_bytes=totals.bytes,
            converged=r0.stop == STOP_CONVERGED)

    return RunOutcome(case=case, plan=sim.plan, fields=fields,
                      iterations=r0.iterations, sim_time=r0.sim_time,
                      converged=r0.stop == STOP_CONVERGED,
                      wall_seconds=wall, norm_history=r0.norm_history,
                      totals=totals, metrics=metrics, timeline=timeline)


# ---------------------------------------------------------------------------
# Modeled schedule
#
# A static walk over (plan, device models): per stage, ranks synchronize at
# the reduction, post pair messages, run interior kernels while traffic and
# coprocessor ghost uploads are in flight, then finish boundary work.
# Interior kernels cover only the blocks the runner cuts (``cut_blocks``);
# every other block books all its compute after its ghosts arrive.  The
# edge values a cut repeats are not costed.
# Each rank drives messaging from a dedicated host core ("rank{r}/host"),
# so packing and draining never serialize with its compute kernels.
# Coprocessor state stays resident across stages, so after the initial
# upload only halo-region bytes cross the links; result downloads overlap
# the next stage's interior compute.  Dependencies:
#   pack(pair)     needs: previous-stage download of the source group
#   drain(rank)    needs: arrival of every inbound message
#   upload(group)  needs: drain of its rank (ghosts assembled host-side)
#   boundary(g)    needs: interior(g) and upload(g) [coprocessor] or
#                         drain(rank) [cpu]
#   reduce(step+1) needs: every group's boundary kernel, NOT the downloads.

@dataclass
class _GroupModel:
    label: str
    link_label: str | None
    model: object
    cells: int
    interior_work: float
    inbound_bytes: int
    outbound_bytes: int
    download_done: float = 0.0


def _interior_work(block: Block) -> float:
    """Halo-independent work of a cut block in cell-update units.

    Each of the three flux sweeps runs on its sweep-axis interior range
    while ghosts are in flight, so the overlappable share is the average of
    the per-axis interior fractions, not the 3D core."""
    work = 0.0
    for axis in range(3):
        a, b = interior_split(block.shape[axis])
        cross = 1
        for other in range(3):
            if other != axis:
                cross *= block.shape[other]
        work += max(b - a, 0) * cross
    return work / 3.0


def model_schedule(case: Case, plan: PartitionPlan | None = None, *,
                   steps: int = 1, overlap: bool = True,
                   coalesce: bool = True) -> Timeline:
    """Deterministic modeled timeline for ``steps`` time steps."""
    if plan is None:
        plan = case_plan(case)
    halo_plan = build_halo_plan(plan)
    net = case.network
    ranks = plan.ranks
    clock = ModelClock()
    bytes_per_cell = NCOMP * 8

    groups: dict[int, list[_GroupModel]] = {}
    group_of_block: dict[int, _GroupModel] = {}
    hosts: list[str] = []
    for r in range(ranks):
        gl = []
        cut = cut_blocks(halo_plan, r, overlap)
        for g in plan.groups_of_rank(r):
            model = case.cpu if g.device_class == "cpu" \
                else (case.coprocessor or case.cpu)
            blocks = [plan.blocks[bid] for bid in g.block_ids]
            gm = _GroupModel(
                label=device_label(r, g),
                link_label=(device_label(r, g) + ".link"
                            if g.device_class == "coprocessor" else None),
                model=model,
                cells=sum(b.cells for b in blocks),
                interior_work=sum(_interior_work(b) for b in blocks
                                  if b.id in cut),
                inbound_bytes=0, outbound_bytes=0)
            gl.append(gm)
            for bid in g.block_ids:
                group_of_block[bid] = gm
        groups[r] = gl
        hosts.append(f"rank{r}/host")

    for pair in halo_plan.pairs:
        group_of_block[pair.dst_block].inbound_bytes += pair.nbytes
        group_of_block[pair.src_block].outbound_bytes += pair.nbytes

    sends = {r: halo_plan.sends_of(r) for r in range(ranks)}
    recvs = {r: halo_plan.recvs_of(r) for r in range(ranks)}
    local = {r: halo_plan.local_of(r) for r in range(ranks)}
    reduce_bytes = (3 + 3 * len(plan.zones)) * 8

    # Initial residency upload: full interior state per coprocessor group.
    for r in range(ranks):
        for gm in groups[r]:
            if gm.link_label is not None:
                clock.advance(gm.link_label,
                              gm.model.link.transfer_seconds(
                                  gm.cells * bytes_per_cell),
                              "transfer_in", "initial residency")
                gm.download_done = clock.now(gm.link_label)

    def messages_of(pair):
        if coalesce:
            return [pair.nbytes]
        return [reg.cells * bytes_per_cell for reg in pair.regions]

    for _step in range(steps):
        for _stage in range(STAGES):
            # Reduction: partials to rank 0, one combined broadcast back.
            up_wire = net.message_seconds(reduce_bytes)
            arrivals0 = []
            for r in range(1, ranks):
                t = clock.advance(hosts[r], net.per_message_overhead,
                                  "reduce", "partials up")
                arrivals0.append(t + up_wire)
            if ranks > 1:
                clock.wait_until(hosts[0], max(arrivals0), "gather partials")
                clock.advance(hosts[0], 2e-6, "reduce", "combine")
                t = clock.advance(hosts[0], net.per_message_overhead,
                                  "reduce", "broadcast")
                down = t + net.message_seconds(reduce_bytes)
                for r in range(1, ranks):
                    clock.wait_until(hosts[r], down, "broadcast")
            t_sync = {r: clock.now(hosts[r]) for r in range(ranks)}

            # Posting sends; wire time rides dedicated pair labels.
            arrival: dict[int, list[float]] = {r: [] for r in range(ranks)}
            for r in range(ranks):
                for pair in sends[r]:
                    src = group_of_block[pair.src_block]
                    clock.wait_until(hosts[r], src.download_done,
                                     "source download")
                    for nbytes in messages_of(pair):
                        clock.advance(hosts[r], nbytes / MEMCPY_BANDWIDTH,
                                      "pack")
                        t = clock.advance(hosts[r], net.per_message_overhead,
                                          "message", "post")
                        wire = f"net/r{r}-r{pair.dst_rank}"
                        clock.wait_until(wire, t)
                        arrival[pair.dst_rank].append(
                            clock.advance(wire, net.message_seconds(nbytes),
                                          "message",
                                          f"pair {pair.src_block}->"
                                          f"{pair.dst_block}"))
                for pair in local[r]:
                    src = group_of_block[pair.src_block]
                    clock.wait_until(hosts[r], src.download_done,
                                     "source download")
                    clock.advance(hosts[r], pair.nbytes / MEMCPY_BANDWIDTH,
                                  "pack", "local copy")

            # Interior kernels: no ghost reads, launch right after the sync.
            for r in range(ranks):
                for gm in groups[r]:
                    if not gm.interior_work:
                        continue
                    clock.wait_until(gm.label, t_sync[r], "sync")
                    clock.advance(gm.label, gm.model.kernel_overhead,
                                  "kernel_launch")
                    clock.advance(gm.label,
                                  gm.interior_work
                                  / gm.model.relative_throughput,
                                  "compute", "interior")

            # Drain inbound traffic, then unpack on the host.
            ghosts_ready = {}
            for r in range(ranks):
                if arrival[r]:
                    clock.wait_until(hosts[r], max(arrival[r]), "drain")
                inbound = sum(p.nbytes for p in recvs[r])
                if inbound:
                    clock.advance(hosts[r], inbound / MEMCPY_BANDWIDTH,
                                  "unpack")
                ghosts_ready[r] = clock.now(hosts[r])

            # Ghost uploads, boundary kernels, result downloads.
            for r in range(ranks):
                for gm in groups[r]:
                    start = max(clock.now(gm.label), ghosts_ready[r])
                    if gm.link_label is not None and gm.inbound_bytes:
                        clock.wait_until(gm.link_label, ghosts_ready[r])
                        t_in = clock.advance(
                            gm.link_label,
                            gm.model.link.transfer_seconds(gm.inbound_bytes),
                            "transfer_in", "ghost regions")
                        start = max(clock.now(gm.label), t_in)
                    clock.wait_until(gm.label, start, "ghosts")
                    if not gm.interior_work:
                        clock.advance(gm.label, gm.model.kernel_overhead,
                                      "kernel_launch")
                    work = gm.cells - gm.interior_work
                    clock.advance(gm.label,
                                  work / gm.model.relative_throughput,
                                  "compute", "boundary")
                    clock.advance(gm.label, gm.model.kernel_overhead,
                                  "update", "stage update")
                    if gm.link_label is not None and gm.outbound_bytes:
                        clock.wait_until(gm.link_label, clock.now(gm.label))
                        gm.download_done = clock.advance(
                            gm.link_label,
                            gm.model.link.transfer_seconds(gm.outbound_bytes),
                            "transfer_out", "ghost sources")

            # Next reduction needs every kernel done, not the downloads.
            for r in range(ranks):
                ready = max(clock.now(gm.label) for gm in groups[r])
                clock.wait_until(hosts[r], ready, "stage end")

    return clock.timeline


# ---------------------------------------------------------------------------
# Ratio sweeps and scaling benchmarks

@dataclass
class RatioPoint:
    ratio: float
    hetero_seconds: float
    cpu_only_seconds: float

    @property
    def speedup(self) -> float:
        return self.cpu_only_seconds / self.hetero_seconds


def cpu_only_variant(case: Case) -> Case:
    """Same blocks, coprocessors removed: every block lands on the CPU
    sockets, which is the honest baseline for offload speedups."""
    topo = replace(case.topology, coproc_per_node=0)
    return replace(case, topology=topo, coprocessor=None,
                   name=f"{case.name}-cpu-only")


def sweep_load_ratio(case: Case, ratios, *, steps: int = 2,
                     overlap: bool = True, coalesce: bool = True
                     ) -> list[RatioPoint]:
    """Model the case across coprocessor/CPU load ratios."""
    points = []
    for ratio in ratios:
        variant = with_load_ratio(case, float(ratio))
        het = model_schedule(variant, steps=steps, overlap=overlap,
                             coalesce=coalesce).makespan
        base = model_schedule(cpu_only_variant(variant), steps=steps,
                              overlap=overlap, coalesce=coalesce).makespan
        points.append(RatioPoint(ratio=float(ratio), hetero_seconds=het,
                                 cpu_only_seconds=base))
    return points


def best_ratio(points: list[RatioPoint]) -> RatioPoint:
    return max(points, key=lambda p: p.speedup)


def predict_balanced_ratio(case: Case, lo: float = 0.05, hi: float = 5.0,
                           tol: float = 1e-6) -> float:
    """Ratio at which one CPU block and one coprocessor block take equal
    modeled stage time, by bisection on the continuous block widths."""
    if case.coprocessor is None:
        raise ValueError("case has no coprocessor model")
    topo = case.topology
    columns = case.zone.shape[0] // topo.nodes
    cross = case.zone.shape[1] * case.zone.shape[2]
    n_c, n_m = topo.cpu_per_node, topo.coproc_per_node
    thr_c = case.cpu.relative_throughput
    thr_m = case.coprocessor.relative_throughput

    def gap(r: float) -> float:
        c = columns / (n_c + n_m * r)
        t_cpu = case.cpu.kernel_overhead + c * cross / thr_c
        t_mic = case.coprocessor.kernel_overhead + r * c * cross / thr_m
        return t_cpu - t_mic

    a, b = lo, hi
    ga, gb = gap(a), gap(b)
    if ga * gb > 0:
        return thr_m / thr_c
    while b - a > tol:
        mid = 0.5 * (a + b)
        if ga * gap(mid) <= 0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def weak_scaling(make_case, ranks_list, *, steps: int = 2,
                 overlap: bool = True, coalesce: bool = True
                 ) -> list[RunMetrics]:
    """Model per-step time as ranks grow with fixed work per rank.
    ``make_case(ranks)`` must return a case whose total work scales with
    the rank count."""
    rows = []
    for r in ranks_list:
        case = make_case(r)
        plan = case_plan(case)
        tl = model_schedule(case, plan, steps=steps, overlap=overlap,
                            coalesce=coalesce)
        rows.append(from_timeline(f"{case.name}-w{r}", tl,
                                  total_cells=plan.total_cells,
                                  iterations=steps, wall_seconds=0.0))
    return rows


def strong_scaling(case: Case, ranks_list, *, steps: int = 2,
                   overlap: bool = True, coalesce: bool = True
                   ) -> list[RunMetrics]:
    """Model a fixed problem spread over more ranks; the topology keeps one
    node per rank with the case's per-node device mix."""
    rows = []
    for r in ranks_list:
        topo = replace(case.topology, nodes=r)
        variant = replace(case, ranks=r, topology=topo,
                          name=f"{case.name}-s{r}")
        plan = case_plan(variant)
        tl = model_schedule(variant, plan, steps=steps, overlap=overlap,
                            coalesce=coalesce)
        rows.append(from_timeline(variant.name, tl,
                                  total_cells=plan.total_cells,
                                  iterations=steps, wall_seconds=0.0))
    return rows


# ---------------------------------------------------------------------------
# Socket-mode execution (one process per rank)

def run_socket_rank(case: Case, rank: int,
                    addresses: dict[int, tuple[str, int]], *,
                    overlap: bool = True, coalesce: bool = True,
                    tile: int | None = None,
                    max_workers: int | None = None,
                    timeout: float = 60.0) -> RunOutcome | None:
    """Run one rank over TCP.  Every process builds the identical plan from
    the case; block state is gathered to rank 0 afterwards, which returns
    the merged outcome (other ranks return None).  Timing is wall-clock
    only: modeled schedules are attached by the caller if wanted."""
    from .transport import SocketTransport

    sim = build_simulation(case)
    if sim.plan.ranks != len(addresses):
        raise ValueError(f"case wants {sim.plan.ranks} ranks, "
                         f"{len(addresses)} addresses given")
    transport = SocketTransport(rank, addresses, timeout=timeout)
    try:
        worker = RankWorker(sim, rank, transport, overlap=overlap,
                            coalesce=coalesce, tile=tile,
                            max_workers=max_workers)
        res = worker.run(case.controls)
        if res.stop >= STOP_DIVERGED:
            raise DivergenceError(
                f"rank {rank} run diverged after {res.iterations} steps",
                step=res.iterations) from res.error

        tag = message_tag(GATHER_EPOCH, GATHER_INDEX)
        if rank != 0:
            for bid in sorted(res.fields):
                interior = res.fields[bid].interior
                header = np.array([float(bid)]
                                  + [float(n) for n in interior.shape[1:]])
                transport.send(Message(tag=tag, source=rank, dest=0,
                                       payload=header))
                transport.send(Message(tag=tag, source=rank, dest=0,
                                       payload=np.ascontiguousarray(
                                           interior).ravel()))
            return None

        fields = dict(res.fields)
        for r in range(1, sim.plan.ranks):
            expect = [b.id for b in sim.plan.blocks_of_rank(r)]
            for _ in expect:
                head = transport.recv(tag=tag, source=r, dest=0,
                                      timeout=timeout).payload
                bid = int(head[0])
                shape = tuple(int(x) for x in head[1:4])
                data = transport.recv(tag=tag, source=r, dest=0,
                                      timeout=timeout).payload
                block = sim.plan.blocks[bid]
                full = initial_fields(case, sim.plan,
                                      block_ids={bid})[bid]
                full.interior[...] = data.reshape((NCOMP,) + shape)
                fields[bid] = full

        metrics = RunMetrics(label=case.name,
                             total_cells=sim.plan.total_cells,
                             iterations=res.iterations,
                             wall_seconds=res.wall_seconds,
                             timing_source="wall",
                             messages=res.totals.messages,
                             message_bytes=res.totals.bytes,
                             converged=res.stop == STOP_CONVERGED)
        return RunOutcome(case=case, plan=sim.plan, fields=fields,
                          iterations=res.iterations, sim_time=res.sim_time,
                          converged=res.stop == STOP_CONVERGED,
                          wall_seconds=res.wall_seconds,
                          norm_history=res.norm_history, totals=res.totals,
                          metrics=metrics)
    finally:
        transport.close()
