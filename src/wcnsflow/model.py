"""Modeled schedules, and modeled runs of whole cases.

The model predicts; it never stands in for a measurement.  ``model_run`` is
the one source of modeled numbers: ``wcnsflow run --model-only`` and every
modeled study (load ratio, weak and strong scaling, tuned against naive
exchange), each a list of case variants.  A run (``runner.run_case``)
reports only the wall time it measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cases import Case, case_plan
from .devices import MEMCPY_BANDWIDTH, device_label
from .halo import build_halo_plan
from .metrics import RunMetrics, from_timeline
from .partition import Block, PartitionPlan
from .residual import interior_split
from .schedule import ModelClock, Timeline
from .state import NCOMP
from .timestepping import STAGES


# ---------------------------------------------------------------------------
# Modeled schedule
#
# A static walk over (plan, device models): per stage, ranks synchronize at
# the reduction, post pair messages, run interior kernels while traffic and
# coprocessor ghost uploads are in flight, then finish boundary work.
# Interior kernels cover only the blocks the runner cuts (``cut_blocks``);
# every other block books all its compute after its ghosts arrive.  A cut
# computes each edge value once (the interior sweep hands its end edges to
# the boundary sweeps), so it adds only per-call overhead, which is not
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

def cut_blocks(halo_plan, rank: int, overlap: bool) -> frozenset[int]:
    """Blocks of ``rank`` whose sweeps are cut into a halo-free interior
    range and two boundary ranges.  The three sweeps of a cut line still
    compute each edge value once, but a cut adds two sweep calls per axis,
    so a block is cut only where its interior sweeps can hide another
    rank's message: overlap is on and another rank feeds it."""
    if not overlap:
        return frozenset()
    return frozenset(p.dst_block for p in halo_plan.recvs_of(rank))


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
        work += max(b - a, 0) * (block.cells // block.shape[axis])
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
            model = case.cpu if g.device_class == "cpu" else case.coprocessor
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
                for pair in halo_plan.sends_of(r):
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

