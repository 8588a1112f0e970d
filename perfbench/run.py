#!/usr/bin/env python3
"""The wcnsflow benchmark.

    python3 perfbench/run.py --workload wave48-1b --seed 1 --seconds 40 --trace 0

Runs one workload (see ``workloads.py``) through ``run_case`` for about
``--seconds`` seconds in this process, checks every run against its exact
solution, prints each metric as ``name value unit`` and, as the last line
of standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced solves (``tracing.py``), reports the per-layer
metrics and writes the last traced loop as a Timeline CSV that
``wcnsflow report --timeline`` renders.  Results and timelines go to
``perfbench/out/``.

Exit status is 0 when a result was printed, 1 when none could be (no solver
sources beside this directory, or no run that passed its check).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "wcnsflow" / "__init__.py").is_file():
    sys.exit(f"perfbench: no solver sources at {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from wcnsflow.errors import WcnsflowError  # noqa: E402
from wcnsflow.runner import model_schedule, run_case  # noqa: E402

from tracing import SpanIndex, Tracer, loop_layers, setup_layers, \
    step_times, tail_percentile, to_timeline  # noqa: E402
from workloads import WORKLOADS, Workload, check_outcome, make_case, \
    setup_case  # noqa: E402

SETUP_BATCH = 4     # set-ups per batch in an end-to-end run
SETUP_REPS = 25     # traced set-ups in a per-layer run

END_TO_END = {
    "mcups": "MCUPS",
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rho_l1_err": "1",
}

PER_LAYER = {
    "wcns.edge_value_s": "s/step",
    "wcns.edge_to_node_s": "s/step",
    "residual.convective.self_s": "s/step",
    "residual.frame_s": "s/step",
    "residual.project_s": "s/step",
    "residual.convective.calls": "count/step",
    "residual.ns_per_cell_axis": "ns",
    "residual.viscous_s": "s/step",
    "residual.combine_s": "s/step",
    "state.primitive_s": "s/step",
    "state.primitive_cells": "count/step",
    "state.primitive_useful_frac": "1",
    "state.flux_s": "s/step",
    "halo.exchange.self_s": "s/step",
    "halo.pack_s": "s/step",
    "halo.unpack_s": "s/step",
    "halo.boundary_s": "s/step",
    "halo.messages": "count/step",
    "halo.bytes": "B/step",
    "halo.local_copies": "count/step",
    "halo.plan_s": "s",
    "transport.recv_wait_s": "s/step",
    "transport.send_s": "s/step",
    "runner.allreduce_s": "s/step",
    "runner.pool_wait_s": "s/step",
    "runner.rank_imbalance": "1",
    "runner.step_s.p50": "s",
    "runner.step_s.tail": "s",
    "runner.step_s.tail_pct": "%",
    "runner.step_s.samples": "count",
    "runner.unattributed_s": "s/step",
    "runner.coverage_min": "1",
    "timestepping.update_s": "s/step",
    "timestepping.dt_bound_s": "s/step",
    "devices.queue_wait_s": "s/step",
    "devices.tasks": "count/step",
    "partition.plan_s": "s",
    "cases.initial_fields_s": "s",
    "schedule.model_step_s": "s",
    "schedule.measured_over_model": "1",
    "trace.overhead_frac": "1",
}


class Runs:
    """Solves of one workload: their outcomes, failures and timings."""

    def __init__(self, w: Workload, case):
        self.w = w
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.mcups: list[float] = []
        self.solve_s: list[float] = []
        self.errors: list[float] = []

    def solve(self, tracer: Tracer | None = None):
        """One checked ``run_case``; returns the outcome, or None when it
        raised or failed its check (counted, never retried)."""
        self.attempted += 1
        traced = tracer.installed() if tracer else contextlib.nullcontext()
        try:
            with traced:
                outcome = run_case(self.case, max_workers=self.w.max_workers)
            err, problems = check_outcome(self.w, self.case, outcome)
        except WcnsflowError as exc:
            outcome, problems = None, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            print(f"run {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
            return None
        self.mcups.append(outcome.metrics.mcups)
        self.solve_s.append(outcome.wall_seconds)
        self.errors.append(err)
        print(f"run {self.attempted}: {outcome.metrics.mcups:.6g} MCUPS, "
              f"{outcome.wall_seconds:.6g} s, L1(rho) {err:.6e}"
              + (" (traced)" if tracer is not None else ""), file=sys.stderr)
        return outcome


def repeat_until(deadline: float, fn, min_calls: int = 1) -> None:
    """Call ``fn`` ``min_calls`` times, then again while one more call, as
    long as the last, still ends before ``deadline``."""
    for calls in itertools.count(1):
        t0 = time.perf_counter()
        fn()
        took = time.perf_counter() - t0
        if calls >= min_calls and time.perf_counter() + took > deadline:
            return


def time_setups(case, w: Workload, reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        run_case(setup_case(case), max_workers=w.max_workers)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(w: Workload, seed: int, seconds: float) -> tuple[Runs, dict]:
    deadline = time.perf_counter() + seconds
    case = make_case(w, seed)
    runs = Runs(w, case)
    # Set-ups come in batches before the first solve and after each one, so
    # their median samples the host over the whole run, as the solves do.
    setups = time_setups(case, w, SETUP_BATCH)

    def solve():
        runs.solve()
        setups.extend(time_setups(case, w, SETUP_BATCH))

    repeat_until(deadline, solve)
    if not runs.mcups:
        return runs, {}
    return runs, {
        "mcups": statistics.median(runs.mcups),
        "solve_s": statistics.median(runs.solve_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "rho_l1_err": statistics.median(runs.errors),
    }


def per_layer(w: Workload, seed: int, seconds: float, timeline_path: Path
              ) -> tuple[Runs, dict]:
    deadline = time.perf_counter() + seconds
    case = make_case(w, seed)
    setups = []
    for _ in range(SETUP_REPS):
        tracer = Tracer()
        with tracer.installed():
            run_case(setup_case(case), max_workers=w.max_workers)
        setups.append(setup_layers(tracer.spans))

    # Untraced and traced solves alternate, so both see the same host.
    runs = Runs(w, case)
    untraced, traced = [], []

    def solve():
        if len(untraced) > len(traced):
            tracer = Tracer()
            outcome = runs.solve(tracer)
            if outcome is not None:
                traced.append((tracer, outcome))
        else:
            outcome = runs.solve()
            if outcome is not None:
                untraced.append(outcome.metrics.mcups)

    repeat_until(deadline, solve, min_calls=2)
    if not untraced or not traced:
        return runs, {}

    layers, steps = [], []
    for tracer, outcome in traced:
        plan = outcome.plan
        layers.append(loop_layers(
            tracer.spans, ranks=plan.ranks, steps=outcome.iterations,
            cells=plan.total_cells, block_shapes=[b.shape for b in plan.blocks]))
        steps.extend(step_times(SpanIndex(tracer.spans), plan.ranks))
    tracer, outcome = traced[-1]
    timeline_path.parent.mkdir(parents=True, exist_ok=True)
    to_timeline(tracer.spans, outcome.plan.ranks).to_csv(str(timeline_path))

    totals = outcome.totals
    model_step = model_schedule(case, outcome.plan, steps=1).makespan
    step_p50 = statistics.median(steps)
    tail, tail_pct = tail_percentile(steps)
    metrics = {name: statistics.median(d[name] for d in layers)
               for name in layers[0]}
    metrics.update({name: statistics.median(d[name] for d in setups)
                    for name in setups[0]})
    metrics.update({
        "halo.messages": totals.messages / outcome.iterations,
        "halo.bytes": totals.bytes / outcome.iterations,
        "halo.local_copies": totals.local_copies / outcome.iterations,
        "runner.step_s.p50": step_p50,
        "runner.step_s.tail": tail,
        "runner.step_s.tail_pct": tail_pct,
        "runner.step_s.samples": len(steps),
        "schedule.model_step_s": model_step,
        "schedule.measured_over_model": step_p50 / model_step,
        "trace.overhead_frac": 1.0 - statistics.median(
            o.metrics.mcups for _, o in traced) / statistics.median(untraced),
    })
    return runs, metrics


def environment(w: Workload) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "workload_threads": w.threads,
        "ranks": w.ranks,
        "max_workers": w.max_workers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        runs, metrics = per_layer(w, args.seed, args.seconds,
                                  OUT / f"{stem}.timeline.csv")
        units = PER_LAYER
    else:
        runs, metrics = end_to_end(w, args.seed, args.seconds)
        units = END_TO_END
    if not metrics:
        print(f"perfbench: {w.name}: no run passed its check",
              file=sys.stderr)
        return 1

    result = {
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    env = environment(w)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(
        json.dumps({"env": env, **result}, indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
