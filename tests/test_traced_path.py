"""The benchmark's traced solve runs on the solver as it stands.

``perfbench/tracing.py`` patches solver names where the solver looks them
up (``vars(owner)[attr]``) and turns the spans into per-layer numbers, some
of them ratios over work that must run on the rank thread, such as the
cells ``runner.primitive_from_conserved`` converts.  A solver change that
moves or renames a traced name, or takes such work off the rank thread,
makes ``perfbench/run.py --trace 1`` exit 1.  These tests run small traced
solves of the benchmark's layouts through the benchmark's own modules,
which they only read.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from tracing import (  # noqa: E402
    SpanIndex, Tracer, loop_layers, setup_layers, step_times, to_timeline)
from wcnsflow.runner import run_case  # noqa: E402
from workloads import WORKLOADS, make_case, setup_case  # noqa: E402


# (workload, cells along its first axis): the pooled one-block wave layout
# (24^3, 2 workers) and Sod (40 x 4 x 4, Re 1e6, 1 worker).
SMALL = [("wave48-1b", 24), ("sod200-re1e6", 40)]


@pytest.mark.parametrize("name, n", SMALL)
def test_traced_solve_gives_finite_layer_numbers(name, n):
    w = replace(WORKLOADS[name], n=n)
    case = make_case(w, 1)
    tracer = Tracer()
    with tracer.installed():
        run_case(setup_case(case), max_workers=w.max_workers)
    setup = setup_layers(tracer.spans)
    assert setup and all(math.isfinite(v) for v in setup.values()), setup

    tracer = Tracer()
    with tracer.installed():
        out = run_case(case, max_workers=w.max_workers)
    plan = out.plan
    assert out.iterations >= 2
    layers = loop_layers(tracer.spans, ranks=plan.ranks,
                         steps=out.iterations, cells=plan.total_cells,
                         block_shapes=[b.shape for b in plan.blocks])
    bad = {k: v for k, v in layers.items() if not math.isfinite(v)}
    assert layers and not bad, bad
    assert layers["state.primitive_cells"] > 0
    steps = step_times(SpanIndex(tracer.spans), plan.ranks)
    assert len(steps) == out.iterations
    assert all(math.isfinite(t) and t > 0.0 for t in steps), steps
    timeline = to_timeline(tracer.spans, plan.ranks)
    assert timeline.intervals
    assert all(math.isfinite(iv.start) and math.isfinite(iv.end)
               for iv in timeline.intervals)
