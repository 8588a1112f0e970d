"""Benchmark case definitions: a small text format plus generators.

A case file pins down everything a run needs and nothing more: gas model,
the one zone's geometry and boundaries, how the zone is cut into blocks,
initial condition, freestream state, iteration controls, the machine
shape, and the device cost model.  The format is line-oriented key=value
records behind a ``wcnsflow-case 3`` header, matching the plan file style,
so cases diff cleanly and round-trip exactly (floats are written with
``repr``).  A second ``zone`` record is an error.  The required ``blocks``
record gives the block widths along each axis, as in
``blocks x=10,7,7,7,9 y=6 z=6``; the blocks are the grid those widths
span, and the widths on each axis must sum to the zone's extent there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CaseFormatError
from .devices import (
    DEFAULT_COPROCESSOR,
    DEFAULT_CPU,
    DEFAULT_NETWORK,
    DeviceModel,
    LinkModel,
    NetworkModel,
)
from .fields import FieldSet, allocate_fields, center_mesh
from .partition import (
    Block,
    NodeTopology,
    PartitionPlan,
    ZoneSpec,
    _devices_of_rank,
    _pattern_widths,
    grid_blocks,
    make_plan,
    split_zone,
    topology_from_record,
    topology_record,
    zone_from_record,
    zone_record,
)
from .records import Record, floats, ints, optional, parse, read_records
from .state import GasModel, conserved_from_primitive
from .timestepping import IterationControls

CASE_MAGIC = "wcnsflow-case"
CASE_VERSION = 3

CASE_KINDS = ("uniform", "wave", "sod", "corner")


@dataclass
class Case:
    name: str
    kind: str
    gas: GasModel
    zone: ZoneSpec
    init: dict[str, str]
    freestream: tuple[float, float, float, float, float]  # rho u v w p
    controls: IterationControls
    block_widths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    ranks: int = 1
    load_ratio: float = 1.0
    topology: NodeTopology = field(
        default_factory=lambda: NodeTopology(1, 1, 0))
    cpu: DeviceModel = DEFAULT_CPU
    coprocessor: DeviceModel | None = None
    network: NetworkModel = DEFAULT_NETWORK

    def __post_init__(self):
        if self.kind not in CASE_KINDS:
            raise CaseFormatError(f"unknown case kind {self.kind!r}")
        if len(self.freestream) != 5:
            raise CaseFormatError("freestream needs rho, u, v, w, p")
        if self.topology.coproc_per_node and self.coprocessor is None:
            raise CaseFormatError(
                f"topology record has coproc={self.topology.coproc_per_node}"
                " but no device class=coprocessor record models them")
        if len(self.block_widths) != 3:
            raise CaseFormatError("blocks record: needs widths along x, y "
                                  f"and z, got {len(self.block_widths)} axes")
        for axis, widths, n in zip("xyz", self.block_widths, self.zone.shape):
            if any(w < 1 for w in widths):
                raise CaseFormatError(f"blocks record: {axis} width "
                                      f"{min(widths)} is below 1")
            if sum(widths) != n:
                raise CaseFormatError(
                    f"blocks record: {axis} widths sum to {sum(widths)}, "
                    f"the zone has {n} cells along {axis}")

    def freestream_conserved(self) -> np.ndarray:
        w = np.asarray(self.freestream, dtype=np.float64).reshape(5, 1, 1, 1)
        return conserved_from_primitive(w, self.gas)[:, 0, 0, 0]


def case_plan(case: Case) -> PartitionPlan:
    return make_plan(case.zone, grid_blocks(case.block_widths), case.ranks,
                     case.topology, case.load_ratio)


# ---------------------------------------------------------------------------
# Initial and exact states

def _init_number(init: dict[str, str], key: str, default: str) -> float:
    return parse("init", key, init.get(key, default), float)


def _init_triple(init: dict[str, str], key: str,
                 default: str) -> tuple[float, ...]:
    raw = init.get(key, default)
    value = parse("init", key, raw, floats)
    if len(value) != 3:
        raise CaseFormatError(
            f"init record: {key} needs three numbers, got {raw!r}")
    return value


def _primitive_field(case: Case, block: Block, t: float) -> np.ndarray:
    zone = case.zone
    x, y, z = center_mesh(block, zone)
    shape = block.shape
    w = np.empty((5,) + shape)
    init = case.init
    if case.kind == "uniform":
        rho, u, v, uw, p = case.freestream
        w[0], w[1], w[2], w[3], w[4] = rho, u, v, uw, p
    elif case.kind == "wave":
        k = _init_triple(init, "wavevector", "1,1,1")
        amp = _init_number(init, "amplitude", "0.2")
        vel = _init_triple(init, "velocity", "1,1,1")
        p = _init_number(init, "pressure", "1.0")
        speed = sum(ki * vi for ki, vi in zip(k, vel))
        phase = 2.0 * math.pi * (k[0] * x + k[1] * y + k[2] * z - speed * t)
        w[0] = 1.0 + amp * np.sin(phase)
        w[1], w[2], w[3], w[4] = vel[0], vel[1], vel[2], p
    elif case.kind == "sod":
        x0 = _init_number(init, "x0", "0.5")
        rl, ul, pl = _init_triple(init, "left", "1,0,1")
        rr, ur, pr = _init_triple(init, "right", "0.125,0,0.1")
        left = x < x0
        w[0] = np.where(left, rl, rr)
        w[1] = np.where(left, ul, ur)
        w[2], w[3] = 0.0, 0.0
        w[4] = np.where(left, pl, pr)
    elif case.kind == "corner":
        rho, u, v, uw, p = case.freestream
        w[0], w[1], w[2], w[3], w[4] = rho, u, v, uw, p
    else:
        raise CaseFormatError(f"no initializer for kind {case.kind!r}")
    return w


def initial_fields(case: Case, plan: PartitionPlan,
                   block_ids: set[int] | None = None) -> FieldSet:
    """Conserved block fields at time 0."""
    fields = allocate_fields(plan)
    if block_ids is not None:
        fields = {bid: f for bid, f in fields.items() if bid in block_ids}
    for bid, f in fields.items():
        w = _primitive_field(case, f.block, 0.0)
        f.interior[...] = conserved_from_primitive(w, case.gas)
    return fields


def exact_density(case: Case, plan: PartitionPlan, t: float) -> dict[int, np.ndarray]:
    """Exact interior density per block, for kinds with a closed form."""
    if case.kind not in ("uniform", "wave"):
        raise CaseFormatError(f"no exact solution for kind {case.kind!r}")
    return {b.id: _primitive_field(case, b, t)[0] for b in plan.blocks}


# ---------------------------------------------------------------------------
# Generators

def uniform_case(n: tuple[int, int, int] = (16, 16, 16), *,
                 velocity=(0.3, -0.2, 0.1), reynolds: float | None = None,
                 blocks: int = 1, max_iters: int = 50, cfl: float = 0.5,
                 name: str | None = None) -> Case:
    zone = ZoneSpec(shape=tuple(n),
                    spacing=tuple(1.0 / max(n)
                                  for _ in range(3)))
    return Case(
        name=name or f"uniform-{n[0]}x{n[1]}x{n[2]}",
        kind="uniform",
        gas=GasModel(reynolds=reynolds),
        zone=zone,
        init={},
        freestream=(1.0, *velocity, 1.0),
        controls=IterationControls(max_iters=max_iters, cfl=cfl,
                                   tolerance=None),
        block_widths=split_zone(zone, blocks),
    )


def wave_case(n: int = 32, *, wavevector=(1, 1, 1), amplitude: float = 0.2,
              velocity=(1.0, 1.0, 1.0), t_end: float = 0.005,
              fixed_dt: float | None = None, blocks: int = 1,
              name: str | None = None) -> Case:
    """Advected density wave on the periodic unit cube; exact solution is
    the initial profile translated by ``velocity * t``."""
    zone = ZoneSpec(shape=(n, n, n), spacing=(1.0 / n,) * 3)
    return Case(
        name=name or f"wave-{n}",
        kind="wave",
        gas=GasModel(),
        zone=zone,
        init={
            "wavevector": ",".join(str(k) for k in wavevector),
            "amplitude": repr(amplitude),
            "velocity": ",".join(repr(float(v)) for v in velocity),
            "pressure": "1.0",
        },
        freestream=(1.0, *(float(v) for v in velocity), 1.0),
        controls=IterationControls(max_iters=10 ** 9, cfl=0.5,
                                   fixed_dt=fixed_dt, t_end=t_end,
                                   tolerance=None),
        block_widths=split_zone(zone, blocks),
    )


def sod_case(nx: int = 200, cross: int = 4, *, t_end: float = 0.2,
             cfl: float = 0.5, blocks: int = 1,
             name: str | None = None) -> Case:
    zone = ZoneSpec(shape=(nx, cross, cross), spacing=(1.0 / nx,) * 3,
                    boundary=("outflow", "outflow", "periodic", "periodic",
                              "periodic", "periodic"))
    return Case(
        name=name or f"sod-{nx}",
        kind="sod",
        gas=GasModel(),
        zone=zone,
        init={"x0": "0.5", "left": "1,0,1", "right": "0.125,0,0.1"},
        freestream=(1.0, 0.0, 0.0, 0.0, 1.0),
        controls=IterationControls(max_iters=10 ** 9, cfl=cfl, t_end=t_end,
                                   tolerance=None),
        block_widths=split_zone(zone, blocks),
    )


def corner_case(nodes: int = 16, *, columns: int = 100, cross: int = 20,
                load_ratio: float = 0.75, mach: float = 2.0,
                angle_deg: float = 10.0, max_iters: int = 20,
                topology: NodeTopology | None = None,
                name: str | None = None) -> Case:
    """Supersonic stream deflected into a slip wall: inflow on x-low, the
    wall on y-low, outflow on x-high/y-high, periodic span in z.

    Each node owns a contiguous x-slab cut into one block per device: the
    two slab-edge blocks (which carry the inter-node traffic) sized for the
    CPU sockets and the middle blocks sized for the coprocessors via
    ``load_ratio``.  ``topology`` gives the devices of one node.
    """
    topology = replace(topology or NodeTopology(), nodes=1)
    if topology.cpu_per_node != 2:
        raise CaseFormatError("corner layout expects 2 CPU sockets per node")
    gamma = 1.4
    a = math.sqrt(gamma)                       # sound speed at rho = p = 1
    theta = math.radians(angle_deg)
    u = mach * a * math.cos(theta)
    v = -mach * a * math.sin(theta)

    zone = ZoneSpec(shape=(columns, cross, cross),
                    spacing=(1.0 / cross,) * 3,
                    boundary=("inflow", "outflow", "wall", "outflow",
                              "periodic", "periodic"))
    one_node = Case(
        name=name or f"corner-{nodes}n",
        kind="corner",
        gas=GasModel(),
        zone=zone,
        init={"mach": repr(float(mach)), "angle": repr(float(angle_deg))},
        freestream=(1.0, u, v, 0.0, 1.0),
        controls=IterationControls(max_iters=max_iters, cfl=0.5,
                                   tolerance=None),
        block_widths=tuple((n,) for n in zone.shape),   # cut by with_nodes
        load_ratio=load_ratio,
        topology=topology,
        coprocessor=DEFAULT_COPROCESSOR,
    )
    return with_nodes(one_node, nodes)


GENERATORS = {"uniform": uniform_case, "wave": wave_case, "sod": sod_case,
              "corner": corner_case}


# ---------------------------------------------------------------------------
# Serialization

def _opt(v) -> str:
    return "-" if v is None else repr(v)


def case_to_text(case: Case) -> str:
    g = case.gas
    c = case.controls
    lines = [f"{CASE_MAGIC} {CASE_VERSION}",
             f"name {case.name}",
             f"kind {case.kind}",
             f"gas gamma={g.gamma!r} prandtl={g.prandtl!r} "
             f"reynolds={_opt(g.reynolds)}"]
    lines.append(zone_record(case.zone))
    if case.init:
        lines.append("init " + " ".join(f"{k}={v}"
                                        for k, v in sorted(case.init.items())))
    lines.append("freestream " + " ".join(repr(x) for x in case.freestream))
    lines.append(f"time cfl={c.cfl!r} dt={_opt(c.fixed_dt)} "
                 f"t-end={_opt(c.t_end)} max-iters={c.max_iters} "
                 f"tolerance={_opt(c.tolerance)}")
    lines.append("blocks " + " ".join(
        f"{axis}={','.join(map(str, widths))}"
        for axis, widths in zip("xyz", case.block_widths)))
    lines.append(f"run ranks={case.ranks} load-ratio={case.load_ratio!r}")
    lines.append(topology_record(case.topology))
    for dev in (case.cpu, case.coprocessor):
        if dev is None:
            continue
        rec = (f"device class={dev.device_class} "
               f"throughput={dev.relative_throughput!r} "
               f"overhead={dev.kernel_overhead!r}")
        if dev.link is not None:
            rec += (f" link-bandwidth={dev.link.bandwidth!r}"
                    f" link-latency={dev.link.latency!r}")
        lines.append(rec)
    n = case.network
    lines.append(f"network bandwidth={n.bandwidth!r} latency={n.latency!r} "
                 f"overhead={n.per_message_overhead!r}")
    return "\n".join(lines) + "\n"


# Positional words per case record kind; a name is every word of its line.
CASE_POSITIONAL = {"name": None, "kind": 1, "freestream": 5}


def _read_record(rec: Record, vals: dict) -> None:
    if rec.kind == "name":
        vals["name"] = " ".join(rec.words)
    elif rec.kind == "kind":
        vals["kind"] = rec.word(0)
    elif rec.kind == "gas":
        vals["gas"] = GasModel(gamma=rec.get("gamma", float),
                               prandtl=rec.get("prandtl", float),
                               reynolds=rec.get("reynolds", optional(float)))
    elif rec.kind == "zone":
        if "zone" in vals:
            raise CaseFormatError("zone record: a case has one zone")
        vals["zone"] = zone_from_record(rec)
    elif rec.kind == "init":
        vals["init"] = rec.fields
    elif rec.kind == "freestream":
        if len(rec.words) != 5:
            raise CaseFormatError("freestream needs five numbers")
        vals["freestream"] = tuple(rec.word(i, float) for i in range(5))
    elif rec.kind == "time":
        vals["controls"] = IterationControls(
            max_iters=rec.get("max-iters", int), cfl=rec.get("cfl", float),
            fixed_dt=rec.get("dt", optional(float)),
            t_end=rec.get("t-end", optional(float)),
            tolerance=rec.get("tolerance", optional(float)))
    elif rec.kind == "run":
        vals["ranks"] = rec.get("ranks", int)
        vals["load_ratio"] = rec.get("load-ratio", float)
    elif rec.kind == "blocks":
        vals["block_widths"] = tuple(rec.get(axis, ints) for axis in "xyz")
    elif rec.kind == "topology":
        vals["topology"] = topology_from_record(rec)
    elif rec.kind == "device":
        link = None
        if "link-bandwidth" in rec.fields:
            link = LinkModel(bandwidth=rec.get("link-bandwidth", float),
                             latency=rec.get("link-latency", float))
        vals["devices"].append(DeviceModel(
            device_class=rec.get("class"),
            relative_throughput=rec.get("throughput", float), link=link,
            kernel_overhead=rec.get("overhead", float)))
    elif rec.kind == "network":
        vals["network"] = NetworkModel(
            bandwidth=rec.get("bandwidth", float),
            latency=rec.get("latency", float),
            per_message_overhead=rec.get("overhead", float))
    else:
        raise CaseFormatError(f"unknown case record {rec.kind!r}")


def case_from_text(text: str) -> Case:
    vals: dict = {"init": {}, "devices": []}
    for rec in read_records(text, CASE_MAGIC, CASE_VERSION, "case",
                            CASE_POSITIONAL):
        try:
            _read_record(rec, vals)
        except ValueError as e:      # a model rejected the record's values
            raise CaseFormatError(f"{rec.kind} record: {e}") from None
        if rec.kind != "init":       # its keys depend on the case kind
            rec.done()

    # Required records, by the case field each one sets.
    required = {"name": "name", "kind": "kind", "gas": "gas", "zone": "zone",
                "blocks": "block_widths", "time": "controls",
                "freestream": "freestream"}
    missing = [rec for rec, key in required.items() if key not in vals]
    if missing:
        raise CaseFormatError(f"case file missing records: {missing}")

    devices = vals.pop("devices")
    cpu = next((d for d in devices if d.device_class == "cpu"), DEFAULT_CPU)
    cop = next((d for d in devices if d.device_class == "coprocessor"), None)
    return Case(cpu=cpu, coprocessor=cop, **vals)


def load_case(path) -> Case:
    with open(path, "r", encoding="utf-8") as f:
        return case_from_text(f.read())


def save_case(case: Case, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(case_to_text(case))


def with_load_ratio(case: Case, ratio: float) -> Case:
    """Same case re-cut for a different CPU/coprocessor balance; a case
    without coprocessors keeps its blocks."""
    variant = replace(case, load_ratio=ratio, name=f"{case.name}-r{ratio:g}")
    if case.kind == "corner" and case.topology.coproc_per_node:
        return with_nodes(variant, case.topology.nodes)
    return variant


def with_ranks(case: Case, ranks: int) -> Case:
    """Same case on ``ranks`` ranks.

    A machine with coprocessors stays as it is, and its nodes must share
    out their devices evenly among the ranks.  Any other case runs on one
    node with a CPU per rank.  It keeps its blocks when they are at least
    as many as the ranks; else the zone is split into ``ranks`` blocks.
    """
    if case.topology.coproc_per_node:
        _devices_of_rank(ranks, case.topology)      # as make_plan checks
        return replace(case, ranks=ranks)
    widths = case.block_widths
    if math.prod(len(w) for w in widths) < ranks:
        widths = split_zone(case.zone, ranks)
    return replace(case, ranks=ranks, topology=NodeTopology(1, ranks, 0),
                   block_widths=widths)


def with_nodes(case: Case, nodes: int) -> Case:
    """The corner case re-tiled to ``nodes`` nodes, each holding the
    columns, ranks and devices of one node of ``case``: the fixed work per
    node of weak scaling."""
    return _retile(case, nodes, case.topology.nodes)


def spread(case: Case, nodes: int) -> Case:
    """The same zone on ``nodes`` nodes, the fixed problem of strong
    scaling: a corner case lays its columns out evenly over the nodes, each
    node cut as in ``with_nodes``; any other case runs on ``nodes`` ranks
    (``with_ranks``)."""
    if case.kind != "corner":
        return with_ranks(case, nodes)
    return _retile(case, nodes, nodes)


def cpu_only_variant(case: Case) -> Case:
    """Same blocks, coprocessors removed: every block lands on the CPU
    sockets, which is the honest baseline for offload speedups."""
    topo = replace(case.topology, coproc_per_node=0)
    return replace(case, topology=topo, coprocessor=None,
                   name=f"{case.name}-cpu-only")


def _retile(case: Case, nodes: int, share: int) -> Case:
    """The corner case on ``nodes`` nodes, each holding 1/``share`` of the
    case's columns and the ranks and devices of one node of ``case``."""
    if case.kind != "corner":
        raise CaseFormatError(f"a {case.kind} case has no per-node layout; "
                              "only a corner case re-tiles per node")
    topo = case.topology
    _devices_of_rank(case.ranks, topo)
    columns, rest = divmod(case.zone.shape[0], share)
    if rest:
        raise CaseFormatError(f"{case.zone.shape[0]} columns do not divide "
                              f"over {share} nodes")
    # Per node: a CPU block at each slab edge, the coprocessors' blocks of
    # relative weight ``load_ratio`` between them.
    pattern = [1.0] + [case.load_ratio] * topo.coproc_per_node + [1.0]
    widths = tuple(_pattern_widths(columns, pattern)) * nodes
    _, ny, nz = case.zone.shape
    return replace(case, zone=replace(case.zone, shape=(nodes * columns,
                                                        ny, nz)),
                   block_widths=(widths, (ny,), (nz,)),
                   ranks=nodes * (case.ranks // topo.nodes),
                   topology=replace(topo, nodes=nodes))
