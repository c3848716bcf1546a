import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from avqds.ansatz import Ansatz, ansatz_layout
from avqds.baselines import build_hva
from avqds.mclachlan import McLachlanSystem, assemble_frame
from avqds.models import build_model, default_model, model_sublayers
from avqds.noise import NoiseConfig, noisy_system
from avqds.solvers import (
    METHODS,
    NonFiniteSystemError,
    SolverConfig,
    diagnose,
    solve,
)
from test_mclachlan import make_ansatz
from conftest import random_hamiltonian, reference_diagnostics, reference_tikhonov


def system(m, v, var_h=1.0):
    return McLachlanSystem(m=np.asarray(m, float), v=np.asarray(v, float), var_h=var_h)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_singular_psd(rng, n, rank):
    u = random_orthogonal(rng, n)
    w = np.zeros(n)
    w[n - rank :] = rng.uniform(0.5, 3.0, size=rank)
    return u @ np.diag(w) @ u.T, u, np.sort(w)


# --- solve ----------------------------------------------------------------


def test_tikhonov_identity_metric():
    eps = 1e-2
    v = np.array([1.0, -2.0, 0.5])
    td = solve(system(np.eye(3), v), SolverConfig("tikhonov", epsilon=eps))
    np.testing.assert_allclose(td, v / (1 + eps), atol=1e-14)
    assert diagnose(system(np.eye(3), v), td, eps).n_null == 0


def test_singular_rank_one_all_methods():
    m = np.diag([1.0, 0.0])
    v = np.array([1.0, 0.0])
    td = solve(system(m, v), SolverConfig("truncation", epsilon=1e-6))
    np.testing.assert_allclose(td, [1.0, 0.0], atol=1e-12)
    assert diagnose(system(m, v), td, 1e-6).n_null == 1

    td = solve(system(m, v), SolverConfig("lsq_unbounded"))
    assert td[0] == pytest.approx(1.0, abs=1e-9)

    td = solve(system(m, v), SolverConfig("lsq_bounded", bound=5.0))
    assert td[0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.abs(td) <= 5.0)


def test_truncation_equals_pseudoinverse(rng):
    for _ in range(25):
        n = int(rng.integers(2, 12))
        rank = int(rng.integers(1, n))
        m, _, _ = random_singular_psd(rng, n, rank)
        v = m @ rng.normal(size=n)
        td = solve(system(m, v), SolverConfig("truncation", epsilon=1e-6))
        np.testing.assert_allclose(td, np.linalg.pinv(m) @ v, atol=1e-8)


def test_truncation_output_orthogonal_to_null(rng):
    m, u, w = random_singular_psd(rng, 8, 5)
    v = m @ rng.normal(size=8)
    cfg = SolverConfig("truncation", epsilon=1e-6)
    td = solve(system(m, v), cfg)
    w, u = np.linalg.eigh(m)
    null = u[:, w <= cfg.epsilon]
    assert np.linalg.norm(null.T @ td) <= 1e-10


def test_truncation_ties_count_as_truncated():
    eps = 0.5
    m = np.diag([0.5, 2.0])
    v = np.array([1.0, 1.0])
    td = solve(system(m, v), SolverConfig("truncation", epsilon=eps))
    np.testing.assert_allclose(td, [0.0, 0.5])
    assert diagnose(system(m, v), td, eps).n_null == 1


def test_tikhonov_null_suppression_noiseless(rng):
    for eps in (1e-8, 1e-6, 1e-4):
        m, _, _ = random_singular_psd(rng, 6, 3)
        v = m @ rng.normal(size=6)
        td = solve(system(m, v), SolverConfig("tikhonov", epsilon=eps))
        w, u = np.linalg.eigh(m)
        null = u[:, w <= 1e-10]
        assert np.linalg.norm(null.T @ td) <= 1e-6


def test_all_methods_agree_when_well_conditioned(rng):
    # Tikhonov carries an intrinsic bias of eps/lambda_min, so eigenvalues
    # are kept >= 2 to make 1e-6 agreement mathematically reachable.
    eps = 1e-6
    for _ in range(10):
        n = int(rng.integers(2, 10))
        u = random_orthogonal(rng, n)
        w = rng.uniform(2.0, 5.0, size=n)
        m = u @ np.diag(w) @ u.T
        v = m @ rng.uniform(-1.0, 1.0, size=n)
        sols = [
            solve(system(m, v), SolverConfig(meth, epsilon=eps, bound=5.0))
            for meth in ("lsq_unbounded", "lsq_bounded", "tikhonov", "truncation")
        ]
        scale = max(np.linalg.norm(s) for s in sols)
        for a in sols[1:]:
            assert np.linalg.norm(a - sols[0]) <= 1e-6 * max(1.0, scale)


def test_bounded_solution_stays_in_box(rng):
    m = np.diag([1e-8, 1.0])
    v = np.array([1.0, 0.3])  # huge unconstrained first component
    b = 2.0
    td = solve(system(m, v), SolverConfig("lsq_bounded", bound=b))
    assert np.all(np.abs(td) <= b)
    assert abs(td[0]) == pytest.approx(b)


def test_empty_system():
    s = system(np.zeros((0, 0)), np.zeros(0))
    td = solve(s, SolverConfig())
    assert td.shape == (0,)
    assert diagnose(s, td, SolverConfig().epsilon).residual == 0.0


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        solve(system([[np.nan]], [1.0]), SolverConfig())


def test_singular_ridge_system_raises():
    """An eigenvalue of M at exactly -epsilon leaves M + epsilon·I singular;
    the eigen route gave theta_dot = [inf, nan] here."""
    with pytest.raises(NonFiniteSystemError) as info:
        solve(system(np.diag([-0.01, 1.0]), [1.0, 1.0]), SolverConfig("tikhonov", epsilon=0.01))
    assert info.value.n_params == 2
    assert "no finite solution" in str(info.value)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig("cholesky")
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(bound=-1.0)


def test_residual_reported(rng):
    m = np.diag([1.0, 0.0])
    v = np.array([1.0, 0.5])  # inconsistent: v not in range(m)
    td = solve(system(m, v), SolverConfig("truncation", epsilon=1e-6))
    assert diagnose(system(m, v), td, 1e-6).residual == pytest.approx(0.5)


# --- null-space diagnostics ------------------------------------------------


def test_null_diagnostics_rank_one():
    s = system(np.diag([1.0, 0.0]), [1.0, 0.0])
    diag = diagnose(s, solve(s, SolverConfig(epsilon=1e-6)), 1e-6)
    assert diag.n_null == 1
    assert diag.null_defect == pytest.approx(0.0, abs=1e-15)


def test_null_diagnostics_identity():
    s = system(np.eye(3), [1.0, 2.0, 3.0])
    diag = diagnose(s, solve(s, SolverConfig(epsilon=1e-6)), 1e-6)
    assert diag.n_null == 0
    assert diag.null_defect == 0.0


def test_null_diagnostics_on_assembled_systems(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a = make_ansatz(rng, n, int(rng.integers(2, 9)))
        h = random_hamiltonian(rng, n)
        s = assemble_frame(a, h).system
        defect = diagnose(s, solve(s, SolverConfig(epsilon=1e-10)), 1e-10).null_defect
        assert defect <= 1e-8


# --- Tikhonov by LU against the eigen route -------------------------------


def shot_noise_system(n_params):
    """The 6-qubit TFIM HVA cut to ``n_params`` generators at random angles,
    every element of its M a draw of 10^4 shots, which leaves M indefinite."""
    spec = default_model("tfim", 6)
    _, h, psi0 = build_model(spec)
    gens = build_hva(h, psi0, -(-n_params // 12), model_sublayers(spec)).generators[:n_params]
    a = Ansatz(psi0, gens, np.random.default_rng(n_params).uniform(-1.5, 1.5, size=n_params))
    s = assemble_frame(a, h).system
    return noisy_system(s, ansatz_layout(a), NoiseConfig(n_shots=1e4, d_c=0), np.random.default_rng(1))


def random_psd_system(rng, n, rank):
    m, _, _ = random_singular_psd(rng, n, rank)
    return system(m, rng.normal(size=n))


SYSTEMS = {
    "psd": lambda rng, n: random_psd_system(rng, n, n),
    "rank_deficient": lambda rng, n: random_psd_system(rng, n, n // 2),
    "shot_noise": lambda rng, n: shot_noise_system(n),
}


@pytest.mark.parametrize("kind", SYSTEMS)
@pytest.mark.parametrize("n", [8, 32, 96])
def test_tikhonov_matches_eigen_route(rng, kind, n):
    s = SYSTEMS[kind](rng, n)
    if kind == "shot_noise":
        assert s.eig[0][0] < 0
    epsilon = 1e-2
    td = solve(s, SolverConfig("tikhonov", epsilon=epsilon))
    reference = reference_tikhonov(s, epsilon)
    assert np.max(np.abs(td - reference)) <= 1e-10 * np.max(np.abs(reference))


@pytest.mark.parametrize("method", METHODS)
def test_diagnostics_on_demand_match_eager_formulas(rng, method):
    for s in (random_psd_system(rng, 12, 7), shot_noise_system(32), system(np.zeros((0, 0)), np.zeros(0))):
        cfg = SolverConfig(method, epsilon=1e-2)
        td = solve(s, cfg)
        assert dataclasses.asdict(diagnose(s, td, cfg.epsilon)) == reference_diagnostics(s, td, cfg.epsilon)


def counting_eigh(monkeypatch):
    """``np.linalg.eigh`` patched to list the matrices it decomposes."""
    calls, eigh = [], np.linalg.eigh

    def counted(m):
        calls.append(m)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("method", METHODS)
def test_unread_diagnostics_leave_metric_undecomposed(rng, monkeypatch, method):
    """A solve decomposes M only under truncation; ``diagnose`` reads the
    system's cached ``eig``, so it adds one decomposition after any other
    solve, none after truncation's, and a second ``diagnose`` none."""
    s = random_psd_system(rng, 10, 6)
    calls = counting_eigh(monkeypatch)
    td = solve(s, SolverConfig(method))
    assert len(calls) == (method == "truncation")
    assert diagnose(s, td, 1e-6).n_null == 4
    assert len(calls) == 1 and calls[0] is s.m
    assert diagnose(s, td, 1e-6).n_null == 4  # a second diagnose
    assert len(calls) == 1


def test_two_threads_decompose_two_systems_at_once(rng, monkeypatch):
    """``eig`` holds no lock while it computes: each thread's ``eigh`` waits
    until the other thread's has started. Under a lock shared by every
    system, as ``functools.cached_property`` takes on Python 3.11, the
    barrier would break."""
    systems = [random_psd_system(rng, 8, 8) for _ in range(2)]
    barrier, eigh = threading.Barrier(2, timeout=10), np.linalg.eigh

    def met(m):
        barrier.wait()
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", met)
    with ThreadPoolExecutor(2) as pool:
        got = [f.result() for f in [pool.submit(lambda s: s.eig, s) for s in systems]]
    for s, (w, u) in zip(systems, got):
        assert s.eig[0] is w and np.allclose(u * w @ u.T, s.m)
