"""Outside-in tracing of a ``run_case`` call, and the per-layer metrics.

The solver is not instrumented.  ``Tracer.installed()`` replaces functions
where the solver looks them up (modules bind names with ``from ... import``,
so ``runner.convective_derivative`` is patched, not the defining module's
name) and class methods on their classes, records one span per call, and
puts every original back on exit.

A span is (id, name, start, end, parent, thread, meta).  The parent is the
innermost open span of the same thread, except for work submitted to a
device pool, whose parent is the submitting span on the rank thread.  Spans
live in memory until the caller turns them into metrics or a timeline.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from wcnsflow import devices, halo, residual, runner, transport
from wcnsflow.schedule import Timeline
from wcnsflow.wcns import HALO_WIDTH


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    meta: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _self_rank(worker, *args, **kwargs):
    return worker.rank


def _epoch(transport_, rank, ranks, epoch, *args, **kwargs):
    return epoch


def _stage(stage, *args, **kwargs):
    return stage


def _box(q, *args, **kwargs):
    return q.shape[1:]


# (owner, attribute, span name, meta function).  Owners are the modules that
# call the name, or the class that defines the method.
TARGETS = [
    (runner.RankWorker, "run", "runner.rank_run", _self_rank),
    (runner.RankWorker, "init_state", "runner.init_state", None),
    (runner.RankWorker, "close", "runner.close", None),
    (runner.RankWorker, "_run_tasks", "runner.run_tasks", None),
    (runner.RankWorker, "_normsq_partial", "runner.normsq", None),
    (runner, "allreduce", "runner.allreduce", _epoch),
    (runner, "primitive_from_conserved", "state.primitive", _box),
    (runner, "block_wavespeed_bound", "timestepping.dt_bound", None),
    (runner, "block_dt_bound", "timestepping.dt_bound", None),
    (runner, "stage_state", "timestepping.update", _stage),
    (runner, "convective_derivative", "residual.convective", None),
    (runner, "velocity_temperature_gradients", "residual.viscous", None),
    (runner, "viscous_derivative", "residual.viscous", None),
    (runner, "build_halo_plan", "halo.plan", None),
    (runner, "case_plan", "partition.plan", None),
    (runner, "initial_fields", "cases.initial_fields", None),
    (residual.ResidualParts, "combine", "residual.combine", None),
    (residual, "characteristic_frame", "residual.frame", None),
    (residual.EdgeFrame, "to_waves", "residual.project", None),
    (residual.EdgeFrame, "to_state", "residual.project", None),
    (residual, "window_edge_value", "wcns.edge_value", None),
    (residual, "edge_to_node_derivative", "wcns.edge_to_node", None),
    (residual, "inviscid_flux", "state.flux", None),
    (halo, "pack_pair", "halo.pack", None),
    (halo, "pack_region", "halo.pack", None),
    (halo, "unpack_pair", "halo.unpack", None),
    (halo, "unpack_region", "halo.unpack", None),
    (halo, "fill_block_ghosts", "halo.boundary", None),
    (transport.InProcessTransport, "send", "transport.send", None),
    (transport.InProcessTransport, "recv", "transport.recv", None),
]


class Tracer:
    """Records spans for calls into the solver while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, meta=None, parent=None):
        """Run ``fn(*args, **kwargs)`` inside a span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, t0, t1, parent,
                                   threading.get_ident(), meta))

    def wrap(self, name, fn, meta_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            meta = meta_of(*args, **kwargs) if meta_of is not None else None
            return self.call(name, fn, args, kwargs, meta)
        return traced

    def _wrap_exchange(self, fn):
        """HaloExchanger.run, with its overlap hook in a span of its own so
        interior compute is not charged to the exchange."""
        @functools.wraps(fn)
        def traced(exchanger, *args, **kwargs):
            hook = kwargs.get("overlap_hook")
            if hook is not None:
                kwargs["overlap_hook"] = self.wrap("halo.overlap_hook", hook)
            return self.call("halo.exchange", fn, (exchanger,) + args, kwargs)
        return traced

    def _wrap_submit(self, fn):
        """DevicePool.submit: the task runs in a ``devices.task`` span whose
        parent is the submitting span and whose meta is its queue wait."""
        @functools.wraps(fn)
        def submit(pool, task, *args):
            parent = self._stack()[-1]
            t_submit = time.perf_counter()

            def run(*a):
                wait = time.perf_counter() - t_submit
                return self.call("devices.task", task, a, {}, wait, parent)
            return fn(pool, run, *args)
        return self.wrap("devices.submit", submit)

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, meta_of in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, meta_of))
            for owner, attr, wrapper in (
                    (halo.HaloExchanger, "run", self._wrap_exchange),
                    (devices.DevicePool, "submit", self._wrap_submit)):
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def patched_attributes():
    """(owner, attribute) of everything ``Tracer.installed`` replaces."""
    return [(o, a) for o, a, _, _ in TARGETS] + [
        (halo.HaloExchanger, "run"), (devices.DevicePool, "submit")]


# ---------------------------------------------------------------------------
# From spans to layer numbers

# Spans on a rank that wait rather than work.
WAIT_SPANS = frozenset({"transport.recv", "runner.run_tasks",
                        "runner.rank_run"})
SETUP_SPANS = frozenset({"runner.init_state", "runner.close"})


class SpanIndex:
    """Parent links, same-thread child time and rank roots of one trace."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            p = self.by_id.get(s.parent)
            if p is not None and p.thread == s.thread:
                self.child_time[p.id] += s.duration
        self._root: dict[int, Span | None] = {}

    def self_time(self, s: Span) -> float:
        return s.duration - self.child_time[s.id]

    def root(self, s: Span) -> Span | None:
        """The ``runner.rank_run`` span a span descends from, if any."""
        chain = []
        cur = s
        while cur is not None and cur.id not in self._root:
            if cur.name == "runner.rank_run":
                self._root[cur.id] = cur
                break
            chain.append(cur.id)
            cur = self.by_id.get(cur.parent)
        found = self._root.get(cur.id) if cur is not None else None
        for sid in chain:
            self._root[sid] = found
        return found

    def ancestors(self, s: Span, same_thread: bool):
        cur = self.by_id.get(s.parent)
        while cur is not None and not (same_thread and cur.thread != s.thread):
            yield cur
            cur = self.by_id.get(cur.parent)

    def under(self, s: Span, names) -> bool:
        """True when a same-thread ancestor of ``s`` is named in ``names``."""
        return any(a.name in names for a in self.ancestors(s, True))

    def timed_runs(self, ranks: int) -> list[Span]:
        """The rank runs of the timed loop: ``run_case`` runs the warm-up
        step to completion first, so they are the last ``ranks`` to start."""
        runs = sorted((s for s in self.spans if s.name == "runner.rank_run"),
                      key=lambda s: s.start)
        return runs[-ranks:]

    def loop_spans(self, ranks: int) -> list[Span]:
        """Spans inside the timed rank runs, set-up and tear-down excluded."""
        timed = {s.id for s in self.timed_runs(ranks)}
        out = []
        for s in self.spans:
            r = self.root(s)
            if r is None or r.id not in timed or s.name in SETUP_SPANS:
                continue
            if not self.under(s, SETUP_SPANS):
                out.append(s)
        return out


def step_times(index: SpanIndex, ranks: int) -> list[float]:
    """Rank 0 step durations: a step starts at its stage-0 reduction and the
    last one ends with the last stage update."""
    run0 = next(s for s in index.timed_runs(ranks) if s.meta == 0)
    mine = [s for s in index.spans if s.thread == run0.thread
            and run0.start <= s.start and s.end <= run0.end]
    starts = sorted(s.start for s in mine
                    if s.name == "runner.allreduce" and s.meta % 3 == 0)
    ends = [s.end for s in mine if s.name == "timestepping.update"]
    if not starts or not ends:
        return []
    bounds = starts + [max(ends)]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def loop_layers(spans: list[Span], *, ranks: int, steps: int, cells: int,
                block_shapes) -> dict[str, float]:
    """Per-step layer numbers of one traced solve.  Times are summed over
    every thread of every rank."""
    index = SpanIndex(spans)
    loop = index.loop_spans(ranks)
    incl = defaultdict(float)
    own = defaultdict(float)
    count = defaultdict(int)
    busy = defaultdict(float)
    for s in loop:
        incl[s.name] += s.duration
        t = index.self_time(s)
        own[s.name] += t
        count[s.name] += 1
        if s.name not in WAIT_SPANS:
            busy[index.root(s).meta] += t

    ext = {tuple(n + 2 * HALO_WIDTH for n in shape) for shape in block_shapes}
    converted = useful = 0
    queue_wait = 0.0
    for s in loop:
        if s.name == "state.primitive":
            n = math.prod(s.meta)
            converted += n
            useful += n if tuple(s.meta) in ext else 0
        elif s.name == "devices.task":
            queue_wait += s.meta

    coverage = []
    for run in index.timed_runs(ranks):
        setup = sum(s.duration for s in spans if s.parent == run.id
                    and s.name in SETUP_SPANS)
        coverage.append(1.0 - index.self_time(run) / (run.duration - setup))

    per = 1.0 / steps
    busy_mean = sum(busy.values()) / ranks
    return {
        "wcns.edge_value_s": incl["wcns.edge_value"] * per,
        "wcns.edge_to_node_s": incl["wcns.edge_to_node"] * per,
        "residual.convective.self_s": own["residual.convective"] * per,
        "residual.frame_s": incl["residual.frame"] * per,
        "residual.project_s": incl["residual.project"] * per,
        "residual.convective.calls": count["residual.convective"] * per,
        "residual.ns_per_cell_axis": incl["residual.convective"] * 1e9
        / (steps * cells * 3 * 3),
        "residual.viscous_s": incl["residual.viscous"] * per,
        "residual.combine_s": incl["residual.combine"] * per,
        "state.primitive_s": incl["state.primitive"] * per,
        "state.primitive_cells": converted * per,
        "state.primitive_useful_frac": useful / converted,
        "state.flux_s": incl["state.flux"] * per,
        "halo.exchange.self_s": own["halo.exchange"] * per,
        "halo.pack_s": incl["halo.pack"] * per,
        "halo.unpack_s": incl["halo.unpack"] * per,
        "halo.boundary_s": incl["halo.boundary"] * per,
        "transport.recv_wait_s": incl["transport.recv"] * per,
        "transport.send_s": incl["transport.send"] * per,
        "runner.allreduce_s": incl["runner.allreduce"] * per,
        "runner.pool_wait_s": own["runner.run_tasks"] * per,
        "runner.rank_imbalance": max(busy.values()) / busy_mean,
        "runner.unattributed_s": own["runner.rank_run"] * per,
        "runner.coverage_min": min(coverage),
        "timestepping.update_s": incl["timestepping.update"] * per,
        "timestepping.dt_bound_s": incl["timestepping.dt_bound"] * per,
        "devices.queue_wait_s": queue_wait * per,
        "devices.tasks": count["devices.task"] * per,
    }


def setup_layers(spans: list[Span]) -> dict[str, float]:
    """Set-up numbers of one traced ``run_case`` with no steps."""
    total = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
    return {"partition.plan_s": total["partition.plan"],
            "halo.plan_s": total["halo.plan"],
            "cases.initial_fields_s": total["cases.initial_fields"]}


def tail_percentile(samples: list[float], beyond: int = 10,
                    cap: int = 90) -> tuple[float, int]:
    """The highest whole percentile, at most ``cap``, with at least
    ``beyond`` samples above it, and its value.  Too few samples for any
    percentile from 50 up gives the maximum, reported as percentile 100."""
    n = len(samples)
    q = min(cap, math.floor(100 * (1 - beyond / n))) if n else 0
    if q < 50:
        return max(samples), 100
    cut = statistics.quantiles(samples, n=100, method="inclusive")
    return cut[q - 1], q


# ---------------------------------------------------------------------------
# Timeline export, in the labels model_schedule uses

EXPORT = {
    "residual.convective": ("cpu0", "compute"),
    "residual.viscous": ("cpu0", "compute"),
    "state.primitive": ("cpu0", "compute"),
    "timestepping.dt_bound": ("cpu0", "compute"),
    "residual.combine": ("cpu0", "compute"),
    "halo.pack": ("host", "pack"),
    "transport.send": ("host", "message"),
    "transport.recv": ("host", "wait"),
    "halo.unpack": ("host", "unpack"),
    "halo.boundary": ("host", "unpack"),
    "runner.allreduce": ("host", "reduce"),
    "runner.normsq": ("host", "reduce"),
    "timestepping.update": ("host", "update"),
}


def to_timeline(spans: list[Span], ranks: int) -> Timeline:
    """The timed loop of one traced solve as a ``schedule.Timeline``.

    Compute goes on ``rank{r}/cpu0`` and messaging, reductions and the
    stage update on ``rank{r}/host``; times start at zero.  A span nested in
    an exported span of the same thread is left out.  Convective sweeps run
    from the exchange's overlap hook are noted ``interior``, the others
    ``boundary``.
    """
    index = SpanIndex(spans)
    loop = [s for s in index.loop_spans(ranks) if s.name in EXPORT
            and not index.under(s, EXPORT)]
    t0 = min(s.start for s in index.timed_runs(ranks))
    tl = Timeline()
    for s in sorted(loop, key=lambda s: s.start):
        device, phase = EXPORT[s.name]
        note = s.name
        if s.name == "residual.convective":
            hook = any(a.name == "halo.overlap_hook"
                       for a in index.ancestors(s, False))
            note = "interior" if hook else "boundary"
        tl.add(f"rank{index.root(s).meta}/{device}", phase,
               s.start - t0, s.end - t0, note)
    return tl

