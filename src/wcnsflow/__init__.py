"""Multi-block structured-grid compressible-flow mini-solver.

Fifth-order weighted compact nonlinear interpolation in space, three-stage
strong-stability-preserving Runge-Kutta in time, and the parallel machinery
around it: zone partitioning with device regrouping, width-5 halo exchange
with message coalescing and compute overlap, and a modeled heterogeneous
CPU+coprocessor runtime with a benchmark harness.
"""

from .cases import (Case, case_plan, corner_case, cpu_only_variant,
                    initial_fields, load_case, save_case, sod_case, spread,
                    uniform_case, wave_case, with_load_ratio, with_nodes,
                    with_ranks)
from .devices import (DEFAULT_COPROCESSOR, DEFAULT_CPU, DEFAULT_LINK,
                      DEFAULT_NETWORK, DeviceModel, LinkModel, NetworkModel)
from .dumps import read_dump, write_dump
from .errors import (CaseFormatError, DivergenceError, HaloPlanError,
                     InvalidStateError, PartitionError, StencilError,
                     TransportError, WcnsflowError)
from .fields import BlockField, FieldSet, allocate_fields, assemble_zone
from .halo import HaloExchanger, HaloPlan, build_halo_plan
from .metrics import RunMetrics, mcups, metrics_from_csv, metrics_to_csv
from .model import model_run, model_schedule
from .partition import (Block, NodeTopology, PartitionPlan, ZoneSpec,
                        make_plan, plan_from_text, plan_to_text)
from .riemann import solve_riemann
from .runner import RunOutcome, build_simulation, run_case, run_socket_rank
from .schedule import Timeline, timeline_report
from .state import GasModel, NCOMP
from .timestepping import IterationControls
from .transport import InProcessTransport, SocketTransport, free_port
from .wcns import HALO_WIDTH

__version__ = "0.1.0"

__all__ = [
    "BlockField", "Block", "Case", "CaseFormatError",
    "DEFAULT_COPROCESSOR", "DEFAULT_CPU", "DEFAULT_LINK",
    "DEFAULT_NETWORK", "DeviceModel", "DivergenceError", "FieldSet",
    "GasModel", "HALO_WIDTH", "HaloExchanger", "HaloPlan",
    "HaloPlanError", "InProcessTransport", "InvalidStateError",
    "IterationControls", "LinkModel", "NCOMP", "NetworkModel",
    "NodeTopology", "PartitionError", "PartitionPlan", "RunMetrics",
    "RunOutcome", "SocketTransport", "StencilError", "Timeline",
    "TransportError", "WcnsflowError", "ZoneSpec", "allocate_fields",
    "assemble_zone", "build_halo_plan",
    "build_simulation", "case_plan", "corner_case", "cpu_only_variant",
    "free_port", "initial_fields", "load_case",
    "make_plan", "mcups", "metrics_from_csv",
    "metrics_to_csv", "model_run", "model_schedule", "plan_from_text",
    "plan_to_text", "read_dump", "run_case",
    "run_socket_rank", "save_case", "sod_case", "solve_riemann",
    "spread", "timeline_report", "uniform_case", "wave_case",
    "with_load_ratio", "with_nodes", "with_ranks", "write_dump",
]
