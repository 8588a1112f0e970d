"""Tests of the benchmark itself: inputs, oracles, tracing and output.

    python -m pytest -q perfbench/tests
"""

import io
import json
from dataclasses import replace

import numpy as np
import pytest

import run
import tracing
from tracing import SpanIndex, Tracer, loop_layers, tail_percentile, to_timeline
from wcnsflow.fields import assemble_zone
from wcnsflow.runner import run_case
from wcnsflow.schedule import Timeline, timeline_report
from workloads import WORKLOADS, check_outcome, make_case, sod_x0

SMALL = 24      # 8 blocks of 12^3: wide enough for interior sweeps


def small(name, n=SMALL):
    return replace(WORKLOADS[name], n=n, l1_bound=1.0)


def solve(w, seed, tracer=None):
    case = make_case(w, seed)
    if tracer is None:
        return case, run_case(case, max_workers=w.max_workers)
    with tracer.installed():
        return case, run_case(case, max_workers=w.max_workers)


@pytest.mark.parametrize("seed", [0, 3])
def test_partition_invariance_bitwise(seed):
    one, eight = small("wave48-1b"), small("wave48-8b2r")
    case1, out1 = solve(one, seed)
    case8, out8 = solve(eight, seed)
    assert case1.init == case8.init
    assert len(out8.plan.blocks) == 8 and out8.plan.ranks == 2
    assert out1.iterations == out8.iterations == one.expected_iters
    np.testing.assert_array_equal(assemble_zone(out1.fields, out1.plan),
                                  assemble_zone(out8.fields, out8.plan))


def test_seeds_pick_inputs_deterministically():
    w = WORKLOADS["wave48-1b"]
    assert make_case(w, 7).init == make_case(w, 7).init
    patterns = {make_case(w, s).init["velocity"] for s in range(40)}
    assert len(patterns) == 8
    for s in range(40):
        init = make_case(w, s).init
        assert init["velocity"].replace(".0", "") == init["wavevector"]
        x0 = sod_x0(s, 200)
        assert abs(x0 - 0.5) <= 3 / 200 + 1e-15
        assert float(x0 * 200).is_integer()
    assert len({sod_x0(s, 200) for s in range(40)}) > 1


def test_oracle_flags_bad_state():
    w = small("wave48-1b", n=16)
    case, out = solve(w, 1)
    err, problems = check_outcome(w, case, out)
    assert problems == [] and 0.0 < err < 1e-3
    out.fields[0].interior[0, 0, 0, 0] = -1.0
    _, problems = check_outcome(w, case, out)
    assert any("density" in p for p in problems)
    _, problems = check_outcome(replace(w, l1_bound=err / 2), case, out)
    assert any("L1" in p for p in problems)


def test_traced_run_is_bitwise_equal_and_restores_everything():
    w = small("wave48-8b2r")
    originals = {(o, a): vars(o)[a] for o, a in tracing.patched_attributes()}
    _, plain = solve(w, 2)
    tracer = Tracer()
    _, traced = solve(w, 2, tracer)
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, (owner, attr)
    np.testing.assert_array_equal(assemble_zone(plain.fields, plain.plan),
                                  assemble_zone(traced.fields, traced.plan))

    names = {s.name for s in tracer.spans}
    assert {"halo.pack", "halo.unpack", "transport.recv", "devices.task",
            "halo.overlap_hook", "wcns.edge_value"} <= names
    layers = loop_layers(tracer.spans, ranks=2, steps=traced.iterations,
                         cells=traced.plan.total_cells,
                         block_shapes=[b.shape for b in traced.plan.blocks])
    assert layers["residual.convective.calls"] == 216
    assert layers["devices.tasks"] == 216
    assert 0.0 < layers["runner.coverage_min"] <= 1.0
    assert len(tracing.step_times(SpanIndex(tracer.spans), 2)) == 2


def test_tracer_restores_after_an_exception():
    originals = {(o, a): vars(o)[a] for o, a in tracing.patched_attributes()}
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original


def test_timeline_export_uses_model_labels():
    w = small("wave48-8b2r")
    tracer = Tracer()
    solve(w, 0, tracer)
    buf = io.StringIO()
    to_timeline(tracer.spans, 2).to_csv(buf)
    tl = Timeline.from_csv(io.StringIO(buf.getvalue()))
    assert set(tl.devices()) == {"rank0/cpu0", "rank0/host",
                                 "rank1/cpu0", "rank1/host"}
    phases = {iv.phase for iv in tl.intervals}
    assert {"compute", "pack", "message", "unpack", "reduce",
            "update"} <= phases
    notes = {iv.note for iv in tl.intervals if iv.phase == "compute"}
    assert {"interior", "boundary"} <= notes
    assert min(iv.start for iv in tl.intervals) >= 0.0
    assert "makespan" in timeline_report(tl)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1, 11))) == (10, 100)
    value, q = tail_percentile([float(i) for i in range(200)])
    assert q == 90 and 178.0 < value < 181.0
    value, q = tail_percentile([float(i) for i in range(40)])
    assert q == 75


def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w.threads <= 2 for w in WORKLOADS.values())


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace, monkeypatch, capsys,
                                              tmp_path):
    spec = _benchmark_json()
    key = "per_layer" if trace else "end_to_end"
    monkeypatch.setitem(run.WORKLOADS, "wave48-8b2r", small("wave48-8b2r", 16))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "SETUP_BATCH", 1)
    status = run.main(["--workload", "wave48-8b2r", "--seed", "5",
                       "--seconds", "0", "--trace", str(trace)])
    assert status == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[key]}
    if trace:
        assert list(tmp_path.glob("*.timeline.csv"))
