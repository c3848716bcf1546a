"""Micro-benchmark of one growth iteration's candidate scoring: the
brute-force loop against the bound-pruned ranking.

Each case is a method-1 growth iteration on the 8-qubit TFIM with the
96-operator model pool, on an N-parameter ansatz that cycles through the
pool at random angles. ``pytest tests/test_score_bench.py`` prints the
timings; every case first checks that both scorers make the same selection.
"""

import numpy as np
import pytest

from avqds.ansatz import Ansatz
from avqds.engine import GrowthConfig, score_candidates, select_additions
from avqds.mclachlan import assemble_frame, mclachlan_distance
from avqds.models import ModelSpec, build_model, model_pool
from avqds.solvers import SolverConfig, solve
from conftest import brute_force_scores, full_ranking

pytest.importorskip("pytest_benchmark")
pytestmark = pytest.mark.slow

SOLVER = SolverConfig("truncation", epsilon=1e-6)
GROWTH = GrowthConfig(l2_cut=1e-3, method=1)


def _growth_iteration(n_params):
    spec = ModelSpec("tfim", 8, j=1.0, h_x=-2.0)
    _, h, psi0 = build_model(spec)
    pool = model_pool(spec)
    angles = np.random.default_rng(n_params).normal(scale=0.2, size=n_params)
    generators = tuple(pool.operators[k % len(pool)] for k in range(n_params))
    frame = assemble_frame(Ansatz(psi0, generators, angles), h)
    td = solve(frame.system, SOLVER)
    return frame, pool, mclachlan_distance(frame.system, td)


def _brute_force(frame, pool, l2):
    scores = brute_force_scores(frame, pool, SOLVER, l2)
    return select_additions(GROWTH.method, full_ranking(scores), pool, frame.ansatz, GROWTH.score_cut, GROWTH.max_depth)


def _pruned(frame, pool, l2):
    return score_candidates(frame, pool, GROWTH, SOLVER, l2)


@pytest.mark.parametrize("scorer", [_brute_force, _pruned], ids=["brute_force", "pruned"])
@pytest.mark.parametrize("n_params", [32, 64, 96])
def test_growth_iteration_speed(benchmark, n_params, scorer):
    frame, pool, l2 = _growth_iteration(n_params)
    assert _pruned(frame, pool, l2) == _brute_force(frame, pool, l2)
    benchmark.pedantic(scorer, args=(frame, pool, l2), rounds=5, iterations=1)
