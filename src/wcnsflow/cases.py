"""Benchmark case definitions: a small text format plus generators.

A case file pins down everything a run needs: gas model, zone geometry and
boundaries, initial condition, freestream state, iteration controls, the
machine shape, and the device cost model.  The format is line-oriented
key=value records behind a ``wcnsflow-case 1`` header, matching the plan
file style, so cases diff cleanly and round-trip exactly (floats are written
with ``repr``).
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
    _floats,
    _ints,
    _kv,
    make_plan,
    split_zone_cuts,
)
from .state import GasModel, conserved_from_primitive
from .timestepping import IterationControls

CASE_MAGIC = "wcnsflow-case"
CASE_VERSION = 1

CASE_KINDS = ("uniform", "wave", "sod", "corner")

# Descriptive boundary names accepted in case files.
BOUNDARY_ALIASES = {
    "supersonic-inflow": "inflow",
    "extrapolation-outflow": "outflow",
    "slip-wall": "wall",
}


@dataclass
class Case:
    name: str
    kind: str
    gas: GasModel
    zones: list[ZoneSpec]
    init: dict[str, str]
    freestream: tuple[float, float, float, float, float]  # rho u v w p
    controls: IterationControls
    ranks: int = 1
    load_ratio: float = 1.0
    target_blocks: int | None = 1
    max_block_cells: int | None = None
    cuts: tuple[int, tuple[int, ...]] | None = None   # (axis, widths)
    seed: int = 0
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

    @property
    def zone(self) -> ZoneSpec:
        return self.zones[0]

    def freestream_conserved(self) -> np.ndarray:
        w = np.asarray(self.freestream, dtype=np.float64).reshape(5, 1, 1, 1)
        return conserved_from_primitive(w, self.gas)[:, 0, 0, 0]


def case_plan(case: Case) -> PartitionPlan:
    if case.cuts is not None:
        axis, widths = case.cuts
        blocks = split_zone_cuts(case.zone, axis, list(widths))
        return make_plan(case.zones, case.ranks, case.topology,
                         case.load_ratio, explicit_blocks=blocks)
    return make_plan(case.zones, case.ranks, case.topology, case.load_ratio,
                     target_blocks=case.target_blocks,
                     max_block_cells=case.max_block_cells)


# ---------------------------------------------------------------------------
# Initial and exact states

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
        k = _floats(init.get("wavevector", "1,1,1"))
        amp = float(init.get("amplitude", "0.2"))
        vel = _floats(init.get("velocity", "1,1,1"))
        p = float(init.get("pressure", "1.0"))
        speed = sum(ki * vi for ki, vi in zip(k, vel))
        phase = 2.0 * math.pi * (k[0] * x + k[1] * y + k[2] * z - speed * t)
        w[0] = 1.0 + amp * np.sin(phase)
        w[1], w[2], w[3], w[4] = vel[0], vel[1], vel[2], p
    elif case.kind == "sod":
        x0 = float(init.get("x0", "0.5"))
        rl, ul, pl = _floats(init.get("left", "1,0,1"))
        rr, ur, pr = _floats(init.get("right", "0.125,0,0.1"))
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


def initial_fields(case: Case, plan: PartitionPlan, t: float = 0.0,
                   block_ids: set[int] | None = None) -> FieldSet:
    """Conserved block fields at time ``t`` (exactly correct for uniform and
    wave kinds; initial data otherwise)."""
    fields = allocate_fields(plan)
    if block_ids is not None:
        fields = {bid: f for bid, f in fields.items() if bid in block_ids}
    for bid, f in fields.items():
        w = _primitive_field(case, f.block, t)
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
    zone = ZoneSpec(id=0, shape=tuple(n),
                    spacing=tuple(1.0 / max(n)
                                  for _ in range(3)))
    return Case(
        name=name or f"uniform-{n[0]}x{n[1]}x{n[2]}",
        kind="uniform",
        gas=GasModel(reynolds=reynolds),
        zones=[zone],
        init={},
        freestream=(1.0, *velocity, 1.0),
        controls=IterationControls(max_iters=max_iters, cfl=cfl,
                                   tolerance=None),
        target_blocks=blocks,
    )


def wave_case(n: int = 32, *, wavevector=(1, 1, 1), amplitude: float = 0.2,
              velocity=(1.0, 1.0, 1.0), t_end: float = 0.005,
              fixed_dt: float | None = None, blocks: int = 1,
              name: str | None = None) -> Case:
    """Advected density wave on the periodic unit cube; exact solution is
    the initial profile translated by ``velocity * t``."""
    zone = ZoneSpec(id=0, shape=(n, n, n), spacing=(1.0 / n,) * 3)
    return Case(
        name=name or f"wave-{n}",
        kind="wave",
        gas=GasModel(),
        zones=[zone],
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
        target_blocks=blocks,
    )


def sod_case(nx: int = 200, cross: int = 4, *, t_end: float = 0.2,
             cfl: float = 0.5, blocks: int = 1,
             name: str | None = None) -> Case:
    zone = ZoneSpec(id=0, shape=(nx, cross, cross), spacing=(1.0 / nx,) * 3,
                    boundary=("outflow", "outflow", "periodic", "periodic",
                              "periodic", "periodic"))
    return Case(
        name=name or f"sod-{nx}",
        kind="sod",
        gas=GasModel(),
        zones=[zone],
        init={"x0": "0.5", "left": "1,0,1", "right": "0.125,0,0.1"},
        freestream=(1.0, 0.0, 0.0, 0.0, 1.0),
        controls=IterationControls(max_iters=10 ** 9, cfl=cfl, t_end=t_end,
                                   tolerance=None),
        target_blocks=blocks,
    )


def _pattern_widths(total: int, weights: list[float]) -> list[int]:
    """Integer widths proportional to weights, summing exactly to total.

    Largest-remainder apportionment: every width is its quota rounded down,
    and the cells left over go to the largest fractional parts, lower index
    first on ties, so equal weights never differ by more than one cell and
    the first of them gets the extra one.
    """
    wsum = sum(weights)
    quotas = [total * w / wsum for w in weights]
    widths = [math.floor(q) for q in quotas]
    by_remainder = sorted(range(len(weights)), key=lambda i: widths[i] - quotas[i])
    for i in by_remainder[:total - sum(widths)]:
        widths[i] += 1
    return widths


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
    ``load_ratio``.
    """
    if topology is None:
        topology = NodeTopology(nodes=nodes, cpu_per_node=2, coproc_per_node=3)
    if topology.cpu_per_node != 2:
        raise CaseFormatError("corner layout expects 2 CPU sockets per node")
    gamma = 1.4
    a = math.sqrt(gamma)                       # sound speed at rho = p = 1
    theta = math.radians(angle_deg)
    u = mach * a * math.cos(theta)
    v = -mach * a * math.sin(theta)

    zone = ZoneSpec(id=0, shape=(nodes * columns, cross, cross),
                    spacing=(1.0 / cross,) * 3,
                    boundary=("inflow", "outflow", "wall", "outflow",
                              "periodic", "periodic"))
    pattern = [1.0] + [load_ratio] * topology.coproc_per_node + [1.0]
    widths: list[int] = []
    for _ in range(nodes):
        widths.extend(_pattern_widths(columns, pattern))
    return Case(
        name=name or f"corner-{nodes}n",
        kind="corner",
        gas=GasModel(),
        zones=[zone],
        init={"mach": repr(float(mach)), "angle": repr(float(angle_deg))},
        freestream=(1.0, u, v, 0.0, 1.0),
        controls=IterationControls(max_iters=max_iters, cfl=0.5,
                                   tolerance=None),
        ranks=nodes,
        load_ratio=load_ratio,
        target_blocks=None,
        cuts=(0, tuple(widths)),
        topology=topology,
        coprocessor=DEFAULT_COPROCESSOR,
    )


def generate_case(kind: str, **kwargs) -> Case:
    makers = {"uniform": uniform_case, "wave": wave_case, "sod": sod_case,
              "corner": corner_case}
    if kind not in makers:
        raise CaseFormatError(f"unknown case kind {kind!r}")
    return makers[kind](**kwargs)


# ---------------------------------------------------------------------------
# Serialization

def _opt(v) -> str:
    return "-" if v is None else repr(v)


def _opt_int(v) -> str:
    return "-" if v is None else str(v)


def _parse_opt(s: str) -> float | None:
    return None if s == "-" else float(s)


def _parse_opt_int(s: str) -> int | None:
    return None if s == "-" else int(s)


def case_to_text(case: Case) -> str:
    g = case.gas
    c = case.controls
    lines = [f"{CASE_MAGIC} {CASE_VERSION}",
             f"name {case.name}",
             f"kind {case.kind}",
             f"gas gamma={g.gamma!r} prandtl={g.prandtl!r} "
             f"reynolds={_opt(g.reynolds)}"]
    for z in case.zones:
        lines.append(f"zone {z.id} shape={','.join(map(str, z.shape))} "
                     f"spacing={','.join(map(repr, z.spacing))} "
                     f"origin={','.join(map(repr, z.origin))} "
                     f"boundary={','.join(z.boundary)}")
    if case.init:
        lines.append("init " + " ".join(f"{k}={v}"
                                        for k, v in sorted(case.init.items())))
    lines.append("freestream " + " ".join(repr(x) for x in case.freestream))
    lines.append(f"time cfl={c.cfl!r} dt={_opt(c.fixed_dt)} "
                 f"t-end={_opt(c.t_end)} max-iters={c.max_iters} "
                 f"tolerance={_opt(c.tolerance)}")
    lines.append(f"run ranks={case.ranks} load-ratio={case.load_ratio!r} "
                 f"target-blocks={_opt_int(case.target_blocks)} "
                 f"max-block-cells={_opt_int(case.max_block_cells)} "
                 f"seed={case.seed}")
    if case.cuts is not None:
        axis, widths = case.cuts
        lines.append(f"cuts axis={axis} widths={','.join(map(str, widths))}")
    t = case.topology
    lines.append(f"topology nodes={t.nodes} cpu={t.cpu_per_node} "
                 f"coproc={t.coproc_per_node} cpu-workers={t.cpu_workers} "
                 f"coproc-workers={t.coproc_workers}")
    for dev in (case.cpu, case.coprocessor):
        if dev is None:
            continue
        rec = (f"device class={dev.device_class} workers={dev.worker_count} "
               f"throughput={dev.relative_throughput!r} "
               f"overhead={dev.kernel_overhead!r}")
        if dev.link is not None:
            rec += (f" link-bandwidth={dev.link.bandwidth!r}"
                    f" link-latency={dev.link.latency!r}")
        if dev.buffer_budget_bytes is not None:
            rec += f" budget={dev.buffer_budget_bytes}"
        lines.append(rec)
    n = case.network
    lines.append(f"network bandwidth={n.bandwidth!r} latency={n.latency!r} "
                 f"overhead={n.per_message_overhead!r}")
    return "\n".join(lines) + "\n"


def case_from_text(text: str) -> Case:
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise CaseFormatError("empty case file")
    head = lines[0].split()
    if head[0] != CASE_MAGIC:
        raise CaseFormatError(f"not a case file (got {head[0]!r})")
    if int(head[1]) != CASE_VERSION:
        raise CaseFormatError(f"unsupported case version {head[1]}")

    vals: dict = {"zones": [], "init": {}, "devices": []}
    for ln in lines[1:]:
        parts = ln.split()
        kind, rest = parts[0], parts[1:]
        if kind == "name":
            vals["name"] = " ".join(rest)
        elif kind == "kind":
            vals["kind"] = rest[0]
        elif kind == "gas":
            kv = _kv(rest)
            vals["gas"] = GasModel(gamma=float(kv["gamma"]),
                                   prandtl=float(kv["prandtl"]),
                                   reynolds=_parse_opt(kv["reynolds"]))
        elif kind == "zone":
            kv = _kv(rest[1:])
            boundary = tuple(BOUNDARY_ALIASES.get(b, b)
                             for b in kv["boundary"].split(","))
            vals["zones"].append(ZoneSpec(
                id=int(rest[0]), shape=_ints(kv["shape"]),
                spacing=_floats(kv["spacing"]), origin=_floats(kv["origin"]),
                boundary=boundary))
        elif kind == "init":
            vals["init"] = _kv(rest)
        elif kind == "freestream":
            if len(rest) != 5:
                raise CaseFormatError("freestream needs five numbers")
            vals["freestream"] = tuple(float(x) for x in rest)
        elif kind == "time":
            kv = _kv(rest)
            vals["controls"] = IterationControls(
                max_iters=int(kv["max-iters"]), cfl=float(kv["cfl"]),
                fixed_dt=_parse_opt(kv["dt"]), t_end=_parse_opt(kv["t-end"]),
                tolerance=_parse_opt(kv["tolerance"]))
        elif kind == "run":
            kv = _kv(rest)
            vals["ranks"] = int(kv["ranks"])
            vals["load_ratio"] = float(kv["load-ratio"])
            vals["target_blocks"] = _parse_opt_int(kv["target-blocks"])
            vals["max_block_cells"] = _parse_opt_int(kv["max-block-cells"])
            vals["seed"] = int(kv["seed"])
        elif kind == "cuts":
            kv = _kv(rest)
            vals["cuts"] = (int(kv["axis"]), _ints(kv["widths"]))
        elif kind == "topology":
            kv = _kv(rest)
            vals["topology"] = NodeTopology(
                nodes=int(kv["nodes"]), cpu_per_node=int(kv["cpu"]),
                coproc_per_node=int(kv["coproc"]),
                cpu_workers=int(kv["cpu-workers"]),
                coproc_workers=int(kv["coproc-workers"]))
        elif kind == "device":
            kv = _kv(rest)
            link = None
            if "link-bandwidth" in kv:
                link = LinkModel(bandwidth=float(kv["link-bandwidth"]),
                                 latency=float(kv["link-latency"]))
            budget = int(kv["budget"]) if "budget" in kv else None
            vals["devices"].append(DeviceModel(
                device_class=kv["class"], worker_count=int(kv["workers"]),
                relative_throughput=float(kv["throughput"]), link=link,
                kernel_overhead=float(kv["overhead"]),
                buffer_budget_bytes=budget))
        elif kind == "network":
            kv = _kv(rest)
            vals["network"] = NetworkModel(
                bandwidth=float(kv["bandwidth"]), latency=float(kv["latency"]),
                per_message_overhead=float(kv["overhead"]))
        else:
            raise CaseFormatError(f"unknown case record {kind!r}")

    required = ("name", "kind", "gas", "controls", "freestream")
    missing = [k for k in required if k not in vals]
    if missing or not vals["zones"]:
        missing = missing + ([] if vals["zones"] else ["zone"])
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
    """Same case re-cut for a different CPU/coprocessor balance."""
    if case.kind == "corner" and case.cuts is not None:
        pattern = [1.0] + [ratio] * case.topology.coproc_per_node + [1.0]
        columns = case.zone.shape[0] // case.topology.nodes
        widths: list[int] = []
        for _ in range(case.topology.nodes):
            widths.extend(_pattern_widths(columns, pattern))
        return replace(case, load_ratio=ratio, cuts=(0, tuple(widths)),
                       name=f"{case.name}-r{ratio:g}")
    return replace(case, load_ratio=ratio, name=f"{case.name}-r{ratio:g}")
