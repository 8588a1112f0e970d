"""Benchmark workloads: seeded case construction and exact-solution checks.

Each workload is a generated wave or Sod case plus the run options the
benchmark passes to ``run_case``.  The seed picks the inputs; the solver
never sees it (``Case.seed`` is not read by any run path).

* Wave workloads: the seed picks a sign pattern ``s`` in {-1, +1}^3 that is
  applied to both the wavevector and the advection velocity.  Every pattern
  is a mirror image of ``s = (1, 1, 1)`` on the periodic cube, so the work
  and the error are the same for every seed up to rounding, while the
  upwind direction of each sweep changes with the seed.
* Sod workload: the seed moves the diaphragm to a cell face within three
  cells of x = 0.5.  The waves stay far from the outflow faces, so the
  solution is a translate of the x0 = 0.5 run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

from wcnsflow.cases import Case, exact_density, sod_case, wave_case
from wcnsflow.fields import cell_centers
from wcnsflow.partition import NodeTopology
from wcnsflow.riemann import RiemannState, solve_riemann
from wcnsflow.runner import RunOutcome
from wcnsflow.state import GasModel, primitive_from_conserved

WAVE_DT = 2.0 ** -10          # a power of two, so n * dt is exact
SOD_T_END = 0.05
SOD_REYNOLDS = 1e6
SOD_LEFT = (1.0, 0.0, 1.0)    # rho, u, p
SOD_RIGHT = (0.125, 0.0, 0.1)
SOD_SHIFT = 3                 # diaphragm moves by at most this many cells


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "wave" or "sod"
    n: int                    # wave: cells per axis; sod: cells along x
    blocks: int
    ranks: int
    max_workers: int
    expected_iters: int
    l1_bound: float           # frozen from the commit that added the benchmark
    steps: int = 0            # wave only: fixed step count at WAVE_DT
    cross: int = 4            # sod only: cells along y and z

    @property
    def threads(self) -> int:
        """Threads that compute at once: ranks times workers per rank."""
        return self.ranks * self.max_workers


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# L1(rho) at the commit that added the benchmark: 4.2528e-8 for the waves,
# 3.0146e-3 for Sod; the bounds sit about 5% above.
WORKLOADS = {
    w.name: w for w in (
        Workload("wave48-1b", "wave", n=48, blocks=1, ranks=1, max_workers=2,
                 steps=2, expected_iters=2, l1_bound=4.5e-8),
        Workload("wave48-8b2r", "wave", n=48, blocks=8, ranks=2,
                 max_workers=1, steps=2, expected_iters=2, l1_bound=4.5e-8),
        Workload("sod200-re1e6", "sod", n=200, blocks=1, ranks=1,
                 max_workers=1, expected_iters=103, l1_bound=3.2e-3),
    )
}


def wave_signs(seed: int) -> tuple[int, int, int]:
    rng = random.Random(seed)
    return tuple(rng.choice((-1, 1)) for _ in range(3))


def sod_x0(seed: int, n: int) -> float:
    rng = random.Random(seed)
    return (n // 2 + rng.randint(-SOD_SHIFT, SOD_SHIFT)) / n


def make_case(w: Workload, seed: int) -> Case:
    """The workload's case for ``seed``; equal seeds give equal cases."""
    if w.kind == "wave":
        s = wave_signs(seed)
        case = wave_case(w.n, wavevector=s, velocity=tuple(float(v) for v in s),
                         fixed_dt=WAVE_DT, t_end=w.steps * WAVE_DT,
                         blocks=w.blocks, name=w.name)
    elif w.kind == "sod":
        case = sod_case(w.n, w.cross, t_end=SOD_T_END, blocks=w.blocks,
                        name=w.name)
        init = dict(case.init, x0=repr(sod_x0(seed, w.n)),
                    left=",".join(map(repr, SOD_LEFT)),
                    right=",".join(map(repr, SOD_RIGHT)))
        case = replace(case, gas=GasModel(reynolds=SOD_REYNOLDS), init=init)
    else:
        raise ValueError(f"unknown workload kind {w.kind!r}")
    if w.ranks > 1:
        case = replace(case, ranks=w.ranks,
                       topology=NodeTopology(1, w.ranks, 0))
    return case


def setup_case(case: Case) -> Case:
    """The same case with no time steps: ``run_case`` then only sets up."""
    return replace(case, controls=replace(case.controls, max_iters=0))


def exact_block_density(case: Case, outcome: RunOutcome) -> dict[int, np.ndarray]:
    """Exact interior density per block at the outcome's ``sim_time``."""
    t = outcome.sim_time
    if case.kind == "wave":
        return exact_density(case, outcome.plan, t)
    x0 = float(case.init["x0"])
    sol = solve_riemann(RiemannState(*SOD_LEFT), RiemannState(*SOD_RIGHT),
                        gamma=case.gas.gamma)
    zone = case.zone
    out = {}
    for b in outcome.plan.blocks:
        x, _, _ = cell_centers(b, zone)
        rho, _, _ = sol.sample((x - x0) / t)
        out[b.id] = np.broadcast_to(rho[:, None, None], b.shape)
    return out


def rho_l1_error(case: Case, outcome: RunOutcome) -> float:
    """Mean |rho - rho_exact| over every cell of the zone."""
    exact = exact_block_density(case, outcome)
    total = 0.0
    for bid in sorted(exact):
        total += float(np.sum(np.abs(outcome.fields[bid].interior[0]
                                     - exact[bid])))
    return total / outcome.plan.total_cells


def check_outcome(w: Workload, case: Case, outcome: RunOutcome
                  ) -> tuple[float, list[str]]:
    """Oracle check of one run: returns L1(rho) and the problems found."""
    problems = []
    if outcome.iterations != w.expected_iters:
        problems.append(f"{outcome.iterations} iterations, expected "
                        f"{w.expected_iters}")
    for bid in sorted(outcome.fields):
        prim = primitive_from_conserved(outcome.fields[bid].interior,
                                        case.gas, validate=False)
        for comp, label in ((0, "density"), (4, "pressure")):
            v = prim[comp]
            if not (np.all(np.isfinite(v)) and np.all(v > 0.0)):
                problems.append(f"block {bid}: non-finite or non-positive "
                                f"{label}")
    err = rho_l1_error(case, outcome)
    if not err < w.l1_bound:
        problems.append(f"L1(rho) {err:.6e} not under {w.l1_bound:.3e}")
    return err, problems
