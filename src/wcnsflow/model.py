"""The sweep list that runs execute and the model prices, modeled
schedules, and modeled runs of whole cases.

The model predicts; it never stands in for a measurement.  ``model_run`` is
the one source of modeled numbers: ``wcnsflow run --model-only`` and every
modeled study (load ratio, weak and strong scaling, tuned against naive
exchange), each a list of case variants.  A run (``runner.run_case``)
reports only the wall time it measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .cases import Case, case_plan
from .devices import MEMCPY_BANDWIDTH, device_label
from .halo import build_halo_plan
from .metrics import RunMetrics, from_timeline
from .partition import Block, PartitionPlan, periodic_axes
from .residual import interior_split
from .schedule import ModelClock, Timeline
from .state import NCOMP
from .timestepping import STAGES


# ---------------------------------------------------------------------------
# Sweep list: the convective sweeps that a rank runs and the model prices

class Sweep(NamedTuple):
    """One convective sweep task: the node range ``lo:hi`` of block
    ``block``'s sweep along ``axis`` (the whole line, or a range of a cut
    one), over its cross rows ``r0:r1``, run by pool worker ``worker``;
    ``lam`` is the stage's wavespeed, set as the task is sent."""

    block: int
    axis: int
    lo: int
    hi: int
    r0: int
    r1: int
    worker: int
    lam: float = 0.0


def row_runs(b: Block, axis: int, workers: int) -> list[tuple[int, int, int]]:
    """The runs ``(k, r0, r1)`` of cross rows that a sweep of block ``b``
    along ``axis`` is cut into: equal runs ``r0:r1``, one for each pool
    worker ``k`` that gets a row."""
    nrows = b.shape[1 if axis == 0 else 0]
    cuts = [nrows * k // workers for k in range(workers + 1)]
    return [(k, r0, r1) for k, (r0, r1) in enumerate(zip(cuts, cuts[1:]))
            if r1 > r0]


def sweep_list(plan: PartitionPlan, halo_plan, rank: int, overlap: bool,
               workers: int = 1) -> tuple[list[Sweep], list[Sweep]]:
    """The sweeps of each stage on ``rank`` as ``(interior, rest)``, block
    by block, each node range cut into its row runs for a pool of
    ``workers``: the interior ranges are sent while messages are in flight,
    the rest after the exchange.  A cut line computes each edge value once
    but takes two more sweep calls, so a block is cut only where its
    interior sweeps can hide another rank's messages (overlap is on and
    another rank feeds it), along each axis with a halo-free range
    (``interior_split``).  A periodic line (``partition.periodic_axes``)
    has no ghosts to wait for and none for a boundary range to read, so it
    is never cut; it and every other uncut axis are swept whole after the
    exchange."""
    fed = {p.dst_block for p in halo_plan.recvs_of(rank)} if overlap else ()
    interior, rest = [], []
    for b in plan.blocks_of_rank(rank):
        periodic = periodic_axes(plan.zone, b)
        for axis, n in enumerate(b.shape):
            lo, hi = interior_split(n)
            cut = b.id in fed and lo < hi and not periodic[axis]
            runs = row_runs(b, axis, workers)
            if cut:
                interior += [Sweep(b.id, axis, lo, hi, r0, r1, k)
                             for k, r0, r1 in runs]
            rest += [Sweep(b.id, axis, s0, s1, r0, r1, k)
                     for s0, s1 in ([(0, lo), (hi, n)] if cut else [(0, n)])
                     for k, r0, r1 in runs]
    return interior, rest


# ---------------------------------------------------------------------------
# Modeled schedule
#
# A static walk over (plan, device models): per stage, ranks synchronize at
# the reduction, post one message per remote pair of the halo plan (which
# groups the regions: ``build_halo_plan``'s ``coalesce``), run interior
# kernels while traffic and coprocessor ghost uploads are in flight, then
# finish boundary work.
# Interior kernels cover the interior ranges of the sweep list; the rest of
# a group's compute is booked after its ghosts arrive.  A cut line computes
# each edge value once, so a cut adds only per-call overhead, which is not
# costed.
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


def model_schedule(case: Case, plan: PartitionPlan | None = None, *,
                   steps: int = 1, overlap: bool = True,
                   coalesce: bool = True) -> Timeline:
    """Deterministic modeled timeline for ``steps`` time steps."""
    if plan is None:
        plan = case_plan(case)
    halo_plan = build_halo_plan(plan, coalesce)
    net = case.network
    ranks = plan.ranks
    clock = ModelClock()
    bytes_per_cell = NCOMP * 8

    groups: dict[int, list[_GroupModel]] = {}
    group_of_block: dict[int, _GroupModel] = {}
    hosts: list[str] = []
    for r in range(ranks):
        gl = []
        # Cells per block that its interior ranges cover on the three axes;
        # one sweep is a third of a cell update.
        interior: dict[int, int] = {}
        for s in sweep_list(plan, halo_plan, r, overlap)[0]:
            b = plan.blocks[s.block]
            interior[s.block] = interior.get(s.block, 0) + (
                (s.hi - s.lo) * (b.cells // b.shape[s.axis]))
        for g in plan.groups_of_rank(r):
            model = case.cpu if g.device_class == "cpu" else case.coprocessor
            gm = _GroupModel(
                label=device_label(r, g),
                link_label=(device_label(r, g) + ".link"
                            if g.device_class == "coprocessor" else None),
                model=model,
                cells=sum(plan.blocks[bid].cells for bid in g.block_ids),
                interior_work=sum(interior[bid] / 3.0
                                  for bid in g.block_ids if bid in interior),
                inbound_bytes=0, outbound_bytes=0)
            gl.append(gm)
            for bid in g.block_ids:
                group_of_block[bid] = gm
        groups[r] = gl
        hosts.append(f"rank{r}/host")

    for pair in halo_plan.pairs:
        group_of_block[pair.dst_block].inbound_bytes += pair.nbytes
        group_of_block[pair.src_block].outbound_bytes += pair.nbytes

    reduce_bytes = 6 * 8        # dt bound, norm, stop flag, 3 wavespeeds

    # Initial residency upload: full interior state per coprocessor group.
    for r in range(ranks):
        for gm in groups[r]:
            if gm.link_label is not None:
                clock.advance(gm.link_label,
                              gm.model.link.transfer_seconds(
                                  gm.cells * bytes_per_cell),
                              "transfer_in", "initial residency")
                gm.download_done = clock.now(gm.link_label)

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
                for pair in halo_plan.sends_of(r):
                    src = group_of_block[pair.src_block]
                    clock.wait_until(hosts[r], src.download_done,
                                     "source download")
                    clock.advance(hosts[r], pair.nbytes / MEMCPY_BANDWIDTH,
                                  "pack")
                    t = clock.advance(hosts[r], net.per_message_overhead,
                                      "message", "post")
                    wire = f"net/r{r}-r{pair.dst_rank}"
                    clock.wait_until(wire, t)
                    arrival[pair.dst_rank].append(
                        clock.advance(wire, net.message_seconds(pair.nbytes),
                                      "message",
                                      f"pair {pair.src_block}->"
                                      f"{pair.dst_block}"))
                for pair in halo_plan.local_of(r):
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
                inbound = sum(p.nbytes for p in halo_plan.recvs_of(r))
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
# Modeled runs: every study is a list of case variants through ``model_run``

def model_run(case: Case, plan: PartitionPlan | None = None, *, steps: int,
              overlap: bool = True, coalesce: bool = True
              ) -> tuple[Timeline, RunMetrics]:
    """Model ``steps`` steps of ``case`` (on ``plan``, else the case's own
    plan): the timeline and its metrics row, labelled with the case's
    name."""
    if plan is None:
        plan = case_plan(case)
    tl = model_schedule(case, plan, steps=steps, overlap=overlap,
                        coalesce=coalesce)
    return tl, from_timeline(case.name, tl, total_cells=plan.total_cells,
                             iterations=steps, wall_seconds=0.0)

