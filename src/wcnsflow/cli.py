"""Command-line front end.

Thin orchestration over the library: every subcommand parses arguments,
calls the corresponding functions, and writes text/CSV/binary artifacts.
All parallelism lives inside the runtime; benchmark points run one after
another so their timings never interfere.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import replace
from pathlib import Path

from .cases import (GENERATORS, Case, case_plan, cpu_only_variant, load_case,
                    save_case, spread, with_load_ratio, with_nodes, with_ranks)
from .dumps import read_dump, write_dump
from .errors import WcnsflowError
from .metrics import (RunMetrics, metrics_from_csv, metrics_to_csv,
                      render_report)
from .model import model_run
from .partition import plan_from_text, plan_to_text, split_zone
from .runner import build_simulation, run_case, run_socket_rank
from .schedule import Timeline, timeline_report


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _addresses(text: str) -> dict[int, tuple[str, int]]:
    out = {}
    for i, item in enumerate(v for v in text.split(",") if v):
        host, _, port = item.rpartition(":")
        if not port.isdecimal() or int(port) > 65535:
            raise WcnsflowError(f"address {item!r} of rank {i}: "
                                "port must be an integer in 0..65535")
        out[i] = (host or "127.0.0.1", int(port))
    return out


def _load(args) -> tuple:
    case = load_case(args.case)
    if getattr(args, "max_iters", None) is not None:
        case = replace(case, controls=replace(case.controls,
                                              max_iters=args.max_iters))
    if getattr(args, "load_ratio", None) is not None:
        case = with_load_ratio(case, args.load_ratio)
    plan = None
    if getattr(args, "plan", None):
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = plan_from_text(fh.read())
    return case, plan


# gen flags that go to the case generator under their own name (``--n`` is
# ``nx`` for Sod).
GEN_FLAGS = ("n", "blocks", "max_iters", "cfl", "t_end", "fixed_dt", "nodes",
             "columns", "cross", "load_ratio", "mach")


def _cmd_gen(args) -> int:
    maker = GENERATORS[args.kind]
    takes = inspect.signature(maker).parameters
    kwargs = {}
    for flag in GEN_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        param = "nx" if flag == "n" and "nx" in takes else flag
        if param not in takes:
            raise WcnsflowError(f"gen --kind {args.kind} does not take "
                                f"--{flag.replace('_', '-')}")
        if flag == "n":
            if len(value) == 3 and args.kind == "uniform":
                value = tuple(value)
            elif len(value) == 1:
                value = (value[0],) * 3 if args.kind == "uniform" else value[0]
            else:
                raise WcnsflowError("gen --n takes one size, or nx,ny,nz "
                                    "for --kind uniform")
        kwargs[param] = value
    case = maker(**kwargs)
    if args.ranks is not None:
        case = with_ranks(case, args.ranks)
    save_case(case, args.out)
    print(f"wrote {args.out} ({case.kind}, zone {case.zone.shape}, "
          f"{case.zone.cells} cells, {case.ranks} ranks)")
    return 0


def _cmd_partition(args) -> int:
    case, _ = _load(args)
    if args.blocks is not None:
        case = replace(case, block_widths=split_zone(case.zone, args.blocks))
    if args.ranks is not None:
        case = with_ranks(case, args.ranks)
    plan = case_plan(case)
    text = plan_to_text(plan)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    for rank in range(plan.ranks):
        blocks = plan.blocks_of_rank(rank)
        cells = sum(b.cells for b in blocks)
        by_group = {g.id: (g.device_class, len(g.block_ids))
                    for g in plan.groups_of_rank(rank)}
        print(f"# rank {rank}: {len(blocks)} blocks, {cells} cells, "
              f"groups {by_group}", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    case, plan = _load(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.transport == "socket":
        if args.rank is None or not args.addresses:
            raise WcnsflowError("socket mode needs --rank and --addresses")
        outcome = run_socket_rank(case, args.rank,
                                  _addresses(args.addresses), plan=plan,
                                  overlap=not args.no_overlap,
                                  coalesce=not args.naive_exchange,
                                  max_workers=args.workers)
        if outcome is None:
            print(f"rank {args.rank} done")
            return 0
    elif args.model_only:
        tl, metrics = model_run(case, build_simulation(case, plan).plan,
                                steps=max(case.controls.max_iters, 1),
                                overlap=not args.no_overlap,
                                coalesce=not args.naive_exchange)
        print(timeline_report(tl))
        print(render_report([metrics]))
        tl.to_csv(str(out_dir / "timeline.csv"))
        metrics_to_csv([metrics], str(out_dir / "metrics.csv"))
        return 0
    else:
        outcome = run_case(case, plan, overlap=not args.no_overlap,
                           coalesce=not args.naive_exchange,
                           max_workers=args.workers, best_of=args.best_of)

    print(f"{case.name}: {outcome.iterations} iterations, "
          f"t = {outcome.sim_time:.6g}, "
          f"{'converged' if outcome.converged else 'finished'}, "
          f"wall {outcome.wall_seconds:.4f} s, "
          f"{outcome.metrics.mcups:.2f} MCUPS")
    write_dump(str(out_dir / "fields.bin"), outcome.fields)
    metrics_to_csv([outcome.metrics], str(out_dir / "metrics.csv"))
    if outcome.norm_history:
        with open(out_dir / "residuals.csv", "w", encoding="utf-8") as fh:
            fh.write("iteration,residual_norm\n")
            for i, v in enumerate(outcome.norm_history):
                fh.write(f"{i},{v!r}\n")
    return 0


def _cmd_sweep_ratio(args) -> int:
    case, _ = _load(args)
    if case.coprocessor is None:
        print("single-device topology: ratio has no effect, flat curve")
    exchange = {"overlap": not args.no_overlap,
                "coalesce": not args.naive_exchange}
    rows = []
    for ratio in _floats(args.ratios):
        variant = with_load_ratio(case, ratio)
        _, m = model_run(variant, steps=args.steps, **exchange)
        _, base = model_run(cpu_only_variant(variant), steps=args.steps,
                            **exchange)
        speedup = base.model_seconds / m.model_seconds
        m.extra = f"speedup={speedup:.4f}"
        rows.append((ratio, speedup, m))
        print(f"ratio {ratio:5.2f}  model {m.model_seconds*1e3:8.3f} ms  "
              f"cpu-only {base.model_seconds*1e3:8.3f} ms  "
              f"speedup {speedup:.3f}  {m.mcups:9.2f} MCUPS")
    ratio, speedup, _ = max(rows, key=lambda row: row[1])
    print(f"best ratio {ratio:g} (speedup {speedup:.3f})")
    if args.out:
        metrics_to_csv([m for _, _, m in rows], args.out)
        print(f"wrote {args.out}")
    return 0


def _scale(case: Case) -> str:
    """The machine a scaling variant runs on, as a bench line's label."""
    return f"nodes {case.topology.nodes:3d} ranks {case.ranks:3d}"


def _cmd_bench(args) -> int:
    case, _ = _load(args)
    ranks = _ints(args.ranks) if args.ranks else [1, 2, 4, 8]
    rows: list[RunMetrics] = []
    if args.mode == "weak":
        variants = [replace(with_nodes(case, r), name=f"{case.name}-w{r}")
                    for r in ranks]
        rows = [model_run(v, steps=args.steps)[1] for v in variants]
        base_time = rows[0].model_seconds / rows[0].iterations
        for v, m in zip(variants, rows):
            per = m.model_seconds / m.iterations
            print(f"{_scale(v)}: {per*1e3:9.3f} ms/step  "
                  f"variation {abs(per-base_time)/base_time*100:5.2f}%  "
                  f"{m.mcups:9.2f} MCUPS")
    elif args.mode == "strong":
        variants = [replace(spread(case, r), name=f"{case.name}-s{r}")
                    for r in ranks]
        rows = [model_run(v, steps=args.steps)[1] for v in variants]
        t0 = rows[0].model_seconds
        for r, v, m in zip(ranks, variants, rows):
            speedup = t0 / m.model_seconds
            eff = speedup / (r / ranks[0])
            m.extra = f"speedup={speedup:.3f};efficiency={eff:.3f}"
            print(f"{_scale(v)}: {m.model_seconds*1e3:9.3f} ms  "
                  f"speedup {speedup:6.3f}  efficiency {eff:5.3f}")
    elif args.mode == "comm":
        plan = case_plan(case)
        for label, tuned in (("tuned", True), ("naive", False)):
            tl, m = model_run(replace(case, name=f"{case.name}-{label}"),
                              plan, steps=args.steps, overlap=tuned,
                              coalesce=tuned)
            m.extra = f"comp_stall_ratio={tl.comp_stall_ratio():.4g}"
            rows.append(m)
            print(f"{label}: makespan {tl.makespan*1e3:9.3f} ms  "
                  f"comp/comm {tl.comp_stall_ratio():.3g}  "
                  f"hidden {tl.hidden_comm_fraction*100:.1f}%")
    elif args.mode == "matrix":
        workers = _ints(args.workers_list) if args.workers_list else [1, 2, 4]
        for r in ranks:
            for w in workers:
                variant = replace(with_ranks(cpu_only_variant(case), r),
                                  name=f"{case.name}-p{r}t{w}")
                outcome = run_case(variant, best_of=args.best_of,
                                   max_workers=w)
                rows.append(outcome.metrics)
                print(f"ranks {r} x workers {w}: "
                      f"{outcome.wall_seconds:.4f} s  "
                      f"{outcome.metrics.mcups:9.2f} MCUPS")
    else:
        raise WcnsflowError(f"unknown bench mode {args.mode!r}")
    if args.out:
        metrics_to_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    rows: list[RunMetrics] = []
    for path in args.metrics or []:
        rows.extend(metrics_from_csv(path))
    if rows or args.metrics:
        print(render_report(rows))
    if args.timeline:
        print(timeline_report(Timeline.from_csv(args.timeline)))
    if args.dump:
        dump = read_dump(args.dump)
        print(f"{args.dump}: {len(dump)} blocks")
        for bid in sorted(dump):
            data = dump[bid]
            print(f"  block {bid}: interior {data.shape[1:]}, "
                  f"rho [{data[0].min():.6g}, {data[0].max():.6g}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wcnsflow",
        description="Multi-block compressible-flow mini-solver "
                    "and benchmark harness.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a case file")
    g.add_argument("--kind", required=True,
                   choices=("uniform", "wave", "sod", "corner"))
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=_ints,
                   help="grid size: one int, or nx,ny,nz for uniform")
    g.add_argument("--blocks", type=int)
    g.add_argument("--ranks", type=int)
    g.add_argument("--max-iters", dest="max_iters", type=int)
    g.add_argument("--cfl", type=float)
    g.add_argument("--t-end", dest="t_end", type=float)
    g.add_argument("--fixed-dt", dest="fixed_dt", type=float)
    g.add_argument("--nodes", type=int, help="corner: machine nodes")
    g.add_argument("--columns", type=int, help="corner: columns per node")
    g.add_argument("--cross", type=int, help="corner: cross-section width")
    g.add_argument("--load-ratio", dest="load_ratio", type=float)
    g.add_argument("--mach", type=float)
    g.set_defaults(func=_cmd_gen)

    q = sub.add_parser("partition", help="emit the partition plan for a case")
    q.add_argument("--case", required=True)
    q.add_argument("--ranks", type=int)
    q.add_argument("--blocks", type=int)
    q.add_argument("--load-ratio", dest="load_ratio", type=float)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_partition)

    r = sub.add_parser("run", help="run a case and write dumps + metrics")
    r.add_argument("--case", required=True)
    r.add_argument("--plan")
    r.add_argument("--out-dir", dest="out_dir", default=".")
    r.add_argument("--best-of", dest="best_of", type=int, default=1)
    r.add_argument("--max-iters", dest="max_iters", type=int)
    r.add_argument("--load-ratio", dest="load_ratio", type=float)
    r.add_argument("--workers", type=int)
    r.add_argument("--no-overlap", dest="no_overlap", action="store_true")
    r.add_argument("--naive-exchange", dest="naive_exchange",
                   action="store_true")
    r.add_argument("--model-only", dest="model_only", action="store_true")
    r.add_argument("--transport", choices=("inproc", "socket"),
                   default="inproc")
    r.add_argument("--rank", type=int)
    r.add_argument("--addresses", help="host:port,host:port,... by rank")
    r.set_defaults(func=_cmd_run)

    s = sub.add_parser("sweep-ratio",
                       help="model the case across load ratios")
    s.add_argument("--case", required=True)
    s.add_argument("--ratios", required=True, help="comma list, e.g. 0.5,0.75")
    s.add_argument("--steps", type=int, default=2)
    s.add_argument("--no-overlap", dest="no_overlap", action="store_true")
    s.add_argument("--naive-exchange", dest="naive_exchange",
                   action="store_true")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_sweep_ratio)

    b = sub.add_parser("bench", help="scaling and exchange benchmarks")
    b.add_argument("--case", required=True)
    b.add_argument("--mode", required=True,
                   choices=("weak", "strong", "comm", "matrix"))
    b.add_argument("--ranks", help="comma list of rank counts; node counts "
                   "in weak and strong modes")
    b.add_argument("--steps", type=int, default=2)
    b.add_argument("--max-iters", dest="max_iters", type=int)
    b.add_argument("--best-of", dest="best_of", type=int, default=1)
    b.add_argument("--workers-list", dest="workers_list",
                   help="matrix mode: comma list of worker counts")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_bench)

    t = sub.add_parser("report", help="render metrics/timeline/dump files")
    t.add_argument("--metrics", nargs="*")
    t.add_argument("--timeline")
    t.add_argument("--dump")
    t.set_defaults(func=_cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WcnsflowError, OSError) as exc:
        # An OSError names the path it could not open.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
