"""Device cost models and worker pools.

Timing for heterogeneous runs comes from a calibrated model, not from the
host the benchmark happens to run on: a device advances a modeled clock by
``kernel_overhead + work / relative_throughput`` per kernel, and coprocessor
traffic pays ``latency + bytes / bandwidth`` on its link.  Throughputs are
expressed in cell-stage updates per second so block sizes translate directly
into modeled seconds.  The same classes drive real thread pools so numerical
results are produced by genuinely concurrent workers while the modeled clock
stays reproducible.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .partition import Group


@dataclass(frozen=True)
class LinkModel:
    """PCIe-style device link: fixed latency plus streaming bandwidth."""

    bandwidth: float            # bytes / second
    latency: float = 0.0        # seconds per transfer

    def __post_init__(self):
        if self.bandwidth <= 0 or self.latency < 0:
            raise ValueError(f"bad link model {self}")

    def transfer_seconds(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class NetworkModel:
    """Inter-node fabric: per-message software overhead plus wire cost."""

    bandwidth: float = 1.0e10
    latency: float = 2.0e-6
    per_message_overhead: float = 1.0e-6

    def message_seconds(self, nbytes: int) -> float:
        return self.latency + self.per_message_overhead + nbytes / self.bandwidth


@dataclass(frozen=True)
class DeviceModel:
    """One compute device: a CPU socket or an offload coprocessor.

    ``relative_throughput`` is cell-stage updates per second for the full
    solver kernel.  Coprocessors carry a ``link`` over which block state
    must travel; CPU sockets address host memory directly and must not.
    """

    device_class: str                       # "cpu" | "coprocessor"
    worker_count: int
    relative_throughput: float
    link: LinkModel | None = None
    kernel_overhead: float = 2.0e-6

    def __post_init__(self):
        if self.device_class not in ("cpu", "coprocessor"):
            raise ValueError(f"unknown device class {self.device_class!r}")
        if self.worker_count < 1:
            raise ValueError("device needs at least one worker")
        if self.relative_throughput <= 0:
            raise ValueError("throughput must be positive")
        if (self.link is None) == (self.device_class == "coprocessor"):
            raise ValueError("coprocessors need a link, CPU sockets must not have one")


DEFAULT_LINK = LinkModel(bandwidth=6.0e9, latency=2.0e-6)
DEFAULT_CPU = DeviceModel("cpu", worker_count=12, relative_throughput=2.0e7)
DEFAULT_COPROCESSOR = DeviceModel("coprocessor", worker_count=57,
                                  relative_throughput=1.5e7, link=DEFAULT_LINK)
DEFAULT_NETWORK = NetworkModel()

# Host-side memory streaming rate used to cost packing and unpacking.
MEMCPY_BANDWIDTH = 4.0e10


@dataclass
class DevicePool:
    """A device model bound to a worker pool."""

    name: str                   # e.g. "rank0/cpu0", "rank0/mic1"
    model: DeviceModel
    group: Group
    executor: ThreadPoolExecutor | None = None

    @property
    def workers(self) -> int:
        """Tasks the pool runs at once; an inline pool runs one."""
        return 1 if self.executor is None else self.executor._max_workers

    def submit(self, fn, *args):
        if self.executor is None:
            fn(*args)
            return None
        return self.executor.submit(fn, *args)

    def shutdown(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True)
            self.executor = None


def make_pool(rank: int, group: Group, model: DeviceModel, *,
              max_workers: int | None = None) -> DevicePool:
    """Worker pool for one group.  Pools stay small regardless of the
    modeled worker count: modeled time comes from the cost model, and the
    host only needs enough threads to overlap packing with compute."""
    name = device_label(rank, group)
    host = os.cpu_count() or 1
    if max_workers is None:
        max_workers = min(model.worker_count, host, 4)
    if max_workers < 1:
        max_workers = 1
    executor = ThreadPoolExecutor(max_workers=max_workers,
                                  thread_name_prefix=name)
    return DevicePool(name=name, model=model, group=group, executor=executor)


def device_label(rank: int, group: Group) -> str:
    kind = "cpu" if group.device_class == "cpu" else "mic"
    return f"rank{rank}/{kind}{group.device_index}"


def configure_devices(rank: int, groups: list[Group], *,
                      cpu: DeviceModel = DEFAULT_CPU,
                      coprocessor: DeviceModel = DEFAULT_COPROCESSOR,
                      executors: bool = True,
                      max_workers: int | None = None,
                      oversubscription_limit: float = 4.0) -> list[DevicePool]:
    """Build one pool per group on a rank, warning when the combined host
    thread demand oversubscribes the actual core count."""
    pools = []
    demand = 0
    host = os.cpu_count() or 1
    for g in groups:
        model = cpu if g.device_class == "cpu" else coprocessor
        if executors:
            pool = make_pool(rank, g, model, max_workers=max_workers)
            demand += pool.workers
        else:
            pool = DevicePool(name=device_label(rank, g), model=model,
                              group=g, executor=None)
        pools.append(pool)
    if executors and demand > oversubscription_limit * host:
        warnings.warn(
            f"rank {rank} wants {demand} worker threads on {host} host cores",
            RuntimeWarning, stacklevel=2)
    return pools


def shutdown_pools(pools: list[DevicePool]) -> None:
    for p in pools:
        p.shutdown()
