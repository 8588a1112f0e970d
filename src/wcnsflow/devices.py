"""Device cost models and the host's worker pools.

The CPU sockets and coprocessors of a heterogeneous node exist only in the
cost model: a device advances a modeled clock by
``kernel_overhead + work / relative_throughput`` per kernel, and coprocessor
traffic pays ``latency + bytes / bandwidth`` on its link.  Throughputs are
expressed in cell-stage updates per second so block sizes translate directly
into modeled seconds, whatever host the run happens to use.

On the host each rank has one worker pool (``rank_pool``) that sweeps every
block of the rank, whichever modeled device the block belongs to.  A pool of
more than one worker forks that many worker processes, which run the tasks
the rank sends them in memory they share with it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import warnings
from collections import deque
from dataclasses import dataclass, field

from .errors import WcnsflowError, portable
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
    relative_throughput: float
    link: LinkModel | None = None
    kernel_overhead: float = 2.0e-6

    def __post_init__(self):
        if self.device_class not in ("cpu", "coprocessor"):
            raise ValueError(f"unknown device class {self.device_class!r}")
        if self.relative_throughput <= 0:
            raise ValueError("throughput must be positive")
        if (self.link is None) == (self.device_class == "coprocessor"):
            raise ValueError("coprocessors need a link, CPU sockets must not have one")


DEFAULT_LINK = LinkModel(bandwidth=6.0e9, latency=2.0e-6)
DEFAULT_CPU = DeviceModel("cpu", relative_throughput=2.0e7)
DEFAULT_COPROCESSOR = DeviceModel("coprocessor", relative_throughput=1.5e7,
                                  link=DEFAULT_LINK)
DEFAULT_NETWORK = NetworkModel()

# Host-side memory streaming rate used to cost packing and unpacking.
MEMCPY_BANDWIDTH = 4.0e10


STOP_TIMEOUT = 5.0          # seconds a stopping worker gets to exit
OVERSUBSCRIPTION = 4        # worker processes per host core before a warning


class Pending:
    """A task sent to a worker process and not yet answered."""

    def __init__(self, worker: "WorkerProcess"):
        self.worker = worker
        self.done = False
        self.error: BaseException | None = None

    def wait(self) -> None:
        while not self.done:
            self.worker.receive()

    def result(self) -> None:
        """Wait for the reply; raise the exception the task ended with."""
        self.wait()
        if self.error is not None:
            raise self.error


def _serve(conn, serve, parent_end) -> None:
    """A worker process's loop: run ``serve(task)`` for each task received,
    in order, and reply None or the exception it raised.  Ends on the stop
    message (None) or when the pipe closes."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent handles it
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        try:
            serve(task)
            reply = None
        except Exception as exc:        # reported to the parent
            reply = portable(exc)
        try:
            conn.send(reply)
        except OSError:
            return


class WorkerProcess:
    """One worker forked from this process.  Tasks cross its pipe pickled;
    the arrays they work on must be memory the worker inherited at fork."""

    def __init__(self, name: str, serve):
        fork = multiprocessing.get_context("fork")
        self.name = name
        self.conn, child = fork.Pipe()
        self.process = fork.Process(target=_serve, name=name, daemon=True,
                                    args=(child, serve, self.conn))
        self.process.start()
        child.close()
        self.sent: deque[Pending] = deque()

    def send(self, task) -> Pending:
        try:
            self.conn.send(task)
        except OSError:
            raise self._lost() from None
        pending = Pending(self)
        self.sent.append(pending)
        return pending

    def receive(self) -> None:
        """File the reply to the oldest task in flight."""
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            reply = self._lost()
        pending = self.sent.popleft()
        pending.error = reply
        pending.done = True

    def _lost(self) -> WcnsflowError:
        self.process.join(STOP_TIMEOUT)
        return WcnsflowError(f"pool worker {self.name} is gone "
                             f"(exit code {self.process.exitcode})")

    def stop(self) -> None:
        """Ask the worker to exit, and kill it if it has not within
        ``STOP_TIMEOUT``.  Tasks still in flight are dropped."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.conn.close()
        self.process.join(STOP_TIMEOUT)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


@dataclass
class DevicePool:
    """A rank's workers.  A pool of one worker runs every task on the
    calling thread; a larger pool, once started, has one worker process per
    worker."""

    name: str                   # "rank{r}"; its processes are "rank{r}/{k}"
    workers: int = 1            # tasks the pool runs at once
    processes: list[WorkerProcess] = field(default_factory=list)

    def start(self, serve) -> None:
        """Fork the worker processes of a pool of more than one worker; each
        runs ``serve(task)`` for the tasks ``send`` gives it."""
        if self.workers > 1 and not self.processes:
            self.processes = [WorkerProcess(f"{self.name}/{k}", serve)
                              for k in range(self.workers)]

    def submit(self, fn, *args):
        """Run ``fn(*args)`` on the calling thread and return its result:
        the ``Pending`` of a task it sent, or None."""
        return fn(*args)

    def send(self, k: int, task) -> Pending:
        """Send ``task`` to worker process ``k``, which runs its tasks in the
        order sent."""
        return self.processes[k].send(task)

    def shutdown(self) -> None:
        for p in self.processes:
            p.stop()
        self.processes = []


def rank_pool(rank: int, max_workers: int | None = None) -> DevicePool:
    """The pool of rank ``rank``: ``max_workers`` workers, else one per host
    core up to four, and never fewer than one.  An explicit count beyond
    ``OVERSUBSCRIPTION`` workers per host core draws a warning.  No process
    starts here (``DevicePool.start``)."""
    host = os.cpu_count() or 1
    if max_workers is not None and max_workers > OVERSUBSCRIPTION * host:
        warnings.warn(f"rank {rank} wants {max_workers} worker processes on "
                      f"{host} host cores", RuntimeWarning, stacklevel=2)
    workers = min(host, 4) if max_workers is None else max_workers
    return DevicePool(name=f"rank{rank}", workers=max(workers, 1))


def device_label(rank: int, group: Group) -> str:
    kind = "cpu" if group.device_class == "cpu" else "mic"
    return f"rank{rank}/{kind}{group.device_index}"
