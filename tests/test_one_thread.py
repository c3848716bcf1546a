"""No run starts a thread. Every tile flush, exact-oracle call and candidate
score runs on the calling thread, also where a second core is free and BLAS
runs on one thread, which is where a helper thread would have work to take.

The cases are a noisy method-3 adaptive TFIM run at 10 qubits, whose oracle
is the Taylor stepper, whose growth scores candidates and whose sweeps fill
32-row tiles, and one step of a 12-qubit TFIM HVA, whose sweeps fill 8-row
tiles.
"""

import threading

import pytest

import avqds.experiment
from avqds.ansatz import _TILE_BYTES, Ansatz
from avqds.baselines import build_hva
from avqds.config import parse_config
from avqds.engine import AvqdsRun
from avqds.models import build_model, hamiltonian_term_pool, model_sublayers
from avqds.statevector import _DENSE_MAX_QUBITS

# a short noisy adaptive run whose oracle is the Taylor stepper; it ends at
# 40 generators, split at 33
ADAPTIVE10 = """
model.kind = tfim
model.n_qubits = 10
run.algorithm = avqds
pool.kind = hamiltonian
growth.method = 3
solver.method = truncation
solver.epsilon = 1e-3
noise.enabled = true
noise.n_shots = 1e4
noise.d_c = 4
step.t_final = 0.08
"""

# one step of a 2-layer HVA, 48 generators at 12 qubits
HVA12 = """
model.kind = tfim
model.n_qubits = 12
run.algorithm = hva
hva.layers = 2
step.dt_fixed = 0.005
step.t_final = 0.005
"""


def configured_run(text):
    """The ``AvqdsRun`` of a config with its exact oracle: adaptive from the
    empty ansatz, or the fixed HVA."""
    cfg = parse_config(text)
    _, h, psi0 = build_model(cfg.model)
    noise = cfg.noise if cfg.noise_enabled else None
    if cfg.algorithm == "avqds":
        return AvqdsRun(h, Ansatz(psi0), cfg.step, cfg.solver, hamiltonian_term_pool(cfg.model), cfg.growth,
                        noise, seed=cfg.seed)
    hva = build_hva(h, psi0, cfg.hva_layers, model_sublayers(cfg.model))
    return AvqdsRun(h, hva, cfg.step, cfg.solver, noise_cfg=noise, seed=cfg.seed)


@pytest.fixture
def two_cores_blas_pinned(monkeypatch):
    """Two usable cores as the process sees them, and BLAS on one thread."""
    monkeypatch.setattr(avqds.experiment.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for name in avqds.experiment._BLAS_THREAD_VARS:
        monkeypatch.setenv(name, "1")


@pytest.mark.parametrize("text", [ADAPTIVE10, HVA12], ids=["adaptive10", "hva12"])
def test_no_run_starts_a_thread(two_cores_blas_pinned, text):
    before = threading.enumerate()
    run = configured_run(text)
    records = run.run()
    assert threading.enumerate() == before
    n, tile = run.ansatz.n_params, _TILE_BYTES // (16 << run.ansatz.n_qubits)
    assert run.ansatz.n_qubits > _DENSE_MAX_QUBITS  # the Taylor stepper, called every step
    assert any(max(m, n - m + 1) >= tile for m in run.ansatz.circuit.workspaces)  # a sweep fills a tile
    assert records and all(r.infidelity == r.infidelity for r in records)
