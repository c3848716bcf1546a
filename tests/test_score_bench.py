"""Micro-benchmarks of one growth iteration's candidate scoring.

``test_growth_iteration_speed`` times the brute-force loop against the
bound-pruned ranking: a method-1 growth iteration on the 8-qubit TFIM with
the 96-operator model pool, on an N-parameter ansatz that cycles through the
pool at random angles.

``test_border_speed`` times ``augment_block`` and ``score_bounds`` on a
growth step's first iteration, whose frame is freshly assembled, and on its
repeat, the frame that ``extend_frame`` gives after the first iteration's
pick, at the sizes of two benchmark workloads (``BORDER_CASES``).

``pytest tests/test_score_bench.py --benchmark-enable`` prints the timings;
every case first checks that the pruned scorer makes the selection of brute
force, over the reference border in the border cases.
"""

import numpy as np
import pytest

from avqds.ansatz import Ansatz
from avqds.engine import GrowthConfig, score_bounds, score_candidates, select_additions
from avqds.mclachlan import assemble_frame, augment_block, extend_frame, mclachlan_distance
from avqds.models import ModelSpec, build_model, hamiltonian_term_pool, model_pool
from avqds.solvers import SolverConfig, solve
from conftest import brute_force_scores, full_ranking, reference_border

pytestmark = pytest.mark.slow

SOLVER = SolverConfig("truncation", epsilon=1e-6)
GROWTH = GrowthConfig(l2_cut=1e-3, method=1)

# name -> (qubits, pool, N, growth): wide_pool_m1's border (the 96-operator
# model pool, unsplit) and a hybrid_tfim10-like one (the 20-term Hamiltonian
# pool, split inside the circuit)
BORDER_CASES = {
    "wide": (8, model_pool, 96, GROWTH),
    "hybrid": (10, hamiltonian_term_pool, 160, GrowthConfig(l2_cut=1e-3, method=3)),
}


def _cycling_ansatz(n_qubits, make_pool, n_params):
    """The TFIM, a pool, and an ansatz of ``n_params`` generators that cycles
    through the pool at random angles."""
    spec = ModelSpec("tfim", n_qubits, j=1.0, h_x=-2.0)
    _, h, psi0 = build_model(spec)
    pool = make_pool(spec)
    angles = np.random.default_rng(n_params).normal(scale=0.2, size=n_params)
    generators = tuple(pool.operators[k % len(pool)] for k in range(n_params))
    return Ansatz(psi0, generators, angles), h, pool


def _solved(frame):
    """The frame and its L2 at the solution, which also decomposes M."""
    return frame, mclachlan_distance(frame.system, solve(frame.system, SOLVER))


def _growth_iteration(n_params):
    a, h, pool = _cycling_ansatz(8, model_pool, n_params)
    frame, l2 = _solved(assemble_frame(a, h))
    return frame, pool, l2


def _brute_force(frame, pool, l2, growth=GROWTH, border=None):
    scores = brute_force_scores(frame, pool, SOLVER, l2, border)
    return select_additions(growth.method, full_ranking(scores), pool, frame.ansatz, growth.score_cut, growth.max_depth)


def _pruned(frame, pool, l2, growth=GROWTH):
    return score_candidates(frame, pool, growth, SOLVER, l2)


@pytest.mark.parametrize("scorer", [_brute_force, _pruned], ids=["brute_force", "pruned"])
@pytest.mark.parametrize("n_params", [32, 64, 96])
def test_growth_iteration_speed(benchmark, n_params, scorer):
    """Each round scores a frame assembled afresh, so no round reads a border
    that an earlier one memoised."""
    frame, pool, l2 = _growth_iteration(n_params)
    assert _pruned(frame, pool, l2) == _brute_force(frame, pool, l2)
    benchmark.pedantic(scorer, setup=lambda: (_growth_iteration(n_params), {}), rounds=5, iterations=1)


def _border_and_bounds(frame, pool, l2):
    return score_bounds(frame, pool, augment_block(frame, pool.operators), l2)


@pytest.mark.parametrize("iteration", ["first", "repeat"])
@pytest.mark.parametrize("case", list(BORDER_CASES))
def test_border_speed(benchmark, case, iteration):
    n_qubits, make_pool, n_params, growth = BORDER_CASES[case]
    a, h, pool = _cycling_ansatz(n_qubits, make_pool, n_params)

    def step_frame():
        frame, l2 = _solved(assemble_frame(a, h, len(pool)))
        if iteration == "repeat":
            chosen, _ = _pruned(frame, pool, l2, growth)
            assert chosen
            frame, l2 = _solved(extend_frame(frame, a.extended(pool.operators[i] for i in chosen)))
        return (frame, pool, l2), {}

    (frame, _, l2), _ = step_frame()
    split = frame.inverse_suffix.n_params
    assert split > 0 if case == "hybrid" else split == 0
    want = _brute_force(frame, pool, l2, growth, reference_border(frame, pool.operators))
    assert _pruned(frame, pool, l2, growth) == want
    benchmark.pedantic(_border_and_bounds, setup=step_frame, rounds=20, iterations=1)
