"""Run-level partition invariance: whole runs through ``run_case`` leave the
zone bitwise equal to the single-block run, whatever the block count, rank
count, overlap, coalescing or tile size, and so do ranks talking over TCP
sockets through ``run_socket_rank``.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest

from wcnsflow.cases import sod_case, wave_case
from wcnsflow.fields import assemble_zone
from wcnsflow.partition import NodeTopology
from wcnsflow.runner import run_case, run_socket_rank
from wcnsflow.transport import free_port
from wcnsflow.wcns import HALO_WIDTH

CASES = {
    "wave8": lambda: wave_case(8, t_end=0.004, fixed_dt=1e-3),
    "sod24": lambda: sod_case(24, 4, t_end=0.02),
}

# Regrouping needs at least one block per rank, so ranks never exceed blocks.
LAYOUTS = [(blocks, ranks) for blocks in (1, 2, 4, 8) for ranks in (1, 2, 4)
           if ranks <= blocks]


def run_zone(case, blocks, ranks, **options):
    """The zone after the run, and the plan it ran on."""
    case = replace(case, target_blocks=blocks, ranks=ranks,
                   topology=NodeTopology(1, ranks, 0))
    out = run_case(case, warmup=False, model=False, **options)
    assert out.iterations >= 4 and len(out.plan.blocks) == blocks
    return assemble_zone(out.fields, out.plan), out.plan


@pytest.fixture(scope="module", params=sorted(CASES))
def case_and_reference(request):
    case = CASES[request.param]()
    return case, run_zone(case, 1, 1)[0]


@pytest.mark.parametrize("blocks,ranks", LAYOUTS)
def test_zone_matches_single_block_run(case_and_reference, blocks, ranks):
    case, reference = case_and_reference
    got, _ = run_zone(case, blocks, ranks)
    assert np.array_equal(got, reference)


def test_narrow_blocks_without_overlap_or_coalescing(case_and_reference):
    # Eight blocks of 4^3 (wave) or 3 x 4 x 4 (Sod): every block is
    # narrower than the halo, so ghosts come from blocks two cuts away.
    case, reference = case_and_reference
    got, plan = run_zone(case, 8, 2, overlap=False, coalesce=False, tile=3)
    assert max(min(b.shape) for b in plan.blocks) < HALO_WIDTH
    assert np.array_equal(got, reference)


def test_socket_ranks_match_single_block_run(case_and_reference):
    # Two ranks as threads of this process, each with its own socket
    # transport; rank 1 starts first, so its first dial may find no listener.
    case, reference = case_and_reference
    case = replace(case, target_blocks=2, ranks=2,
                   topology=NodeTopology(1, 2, 0))
    addresses = {r: ("127.0.0.1", free_port()) for r in range(2)}
    outcomes = [None, None]
    errors = []

    def rank_main(rank):
        try:
            outcomes[rank] = run_socket_rank(case, rank, addresses,
                                             timeout=30.0)
        except Exception as exc:          # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=rank_main, args=(r,))
               for r in (1, 0)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    out = outcomes[0]
    assert out.iterations >= 4 and outcomes[1] is None
    assert np.array_equal(assemble_zone(out.fields, out.plan), reference)
