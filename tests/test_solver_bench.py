"""Micro-benchmark of one step solve: each of the four solvers on an
N-parameter McLachlan system, noiseless and with shot noise on every metric
element.

Each case is a 6-qubit TFIM Hamiltonian-variational ansatz cut to N
generators at random angles, assembled once; the noisy system replaces each
element of M by a draw of 10^4 shots (``d_c = 0``), as the
``noisy_hva_batch`` benchmark does. Every round solves a fresh
``McLachlanSystem``, so that truncation's cached eigendecomposition is
timed too; the other three solvers decompose nothing and leave the
diagnostics unread, as a run does.
``pytest tests/test_solver_bench.py --benchmark-enable`` prints the timings;
every case first checks that the solution is finite and, on the noiseless
system, that it does not raise the McLachlan distance above its value at
zero.
"""

import numpy as np
import pytest

from avqds.ansatz import Ansatz, ansatz_layout
from avqds.baselines import build_hva
from avqds.mclachlan import McLachlanSystem, assemble_frame, mclachlan_distance
from avqds.models import build_model, default_model, model_sublayers
from avqds.noise import NoiseConfig, noisy_system
from avqds.solvers import METHODS, SolverConfig, solve

pytestmark = pytest.mark.slow

EPSILON = {"lsq_unbounded": 1e-6, "lsq_bounded": 1e-6, "tikhonov": 1e-2, "truncation": 1e-3}
# the iterative solvers take up to about a second at N = 256
ROUNDS = {"lsq_unbounded": 2, "lsq_bounded": 2, "tikhonov": 5, "truncation": 5}


def _system(n_params, noisy):
    spec = default_model("tfim", 6)
    _, h, psi0 = build_model(spec)
    layers = -(-n_params // 12)
    gens = build_hva(h, psi0, layers, model_sublayers(spec)).generators[:n_params]
    a = Ansatz(psi0, gens, np.random.default_rng(n_params).uniform(-1.5, 1.5, size=n_params))
    system = assemble_frame(a, h).system
    if noisy:
        system = noisy_system(system, ansatz_layout(a), NoiseConfig(n_shots=1e4, d_c=0), np.random.default_rng(1))
    return system


def _fresh_solve(system, cfg):
    return solve(McLachlanSystem(system.m, system.v, system.var_h), cfg)


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "shot_noise"])
@pytest.mark.parametrize("n_params", [32, 128, 256])
@pytest.mark.parametrize("method", METHODS)
def test_solver_speed(benchmark, method, n_params, noisy):
    system = _system(n_params, noisy)
    cfg = SolverConfig(method, epsilon=EPSILON[method])
    theta_dot = _fresh_solve(system, cfg)
    assert np.all(np.isfinite(theta_dot))
    if not noisy:
        assert mclachlan_distance(system, theta_dot) <= 2.0 * system.var_h * (1 + 1e-9)
    benchmark.pedantic(_fresh_solve, args=(system, cfg), rounds=ROUNDS[method], iterations=1)
