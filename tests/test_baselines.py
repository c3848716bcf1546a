import numpy as np
import pytest

from avqds.ansatz import ansatz_layout, prepare_state
from avqds.baselines import build_hva, trotter_run
from avqds.engine import StepConfig, run_fixed_ansatz
from avqds.models import ModelSpec, greedy_sublayers, model_sublayers
from avqds.pauli import PauliString, WeightedPauliSum
from avqds.solvers import SolverConfig
from avqds.statevector import StateVector, exact_evolve, fidelity


def tfim(n, j=1.0, hx=-2.0):
    terms = [(-j, PauliString.two_site(n, (i, (i + 1) % n), "ZZ")) for i in range(n)]
    terms += [(hx, PauliString.single(n, i, "X")) for i in range(n)]
    return WeightedPauliSum(n, terms)


SOLVER = SolverConfig("truncation", epsilon=1e-6)


# --- sublayer grouping ------------------------------------------------------


def test_tfim_brick_wall_grouping():
    h = tfim(4)
    groups = greedy_sublayers(h)
    labels = [[h.terms[i][1].label() for i in g] for g in groups]
    assert labels == [["ZZII", "IIZZ"], ["IZZI", "ZIIZ"], ["XIII", "IXII", "IIXI", "IIIX"]]


def test_mfim_and_hm_sublayer_counts():
    assert len(model_sublayers(ModelSpec("mfim", 6, h_x=-2.0, h_z=0.5))) == 4
    assert len(model_sublayers(ModelSpec("hm", 6))) == 6
    assert len(model_sublayers(ModelSpec("tfim", 6, h_x=-2.0))) == 3


def test_odd_chain_rejected_for_brick_wall():
    with pytest.raises(ValueError):
        model_sublayers(ModelSpec("tfim", 5, h_x=-2.0))


# --- HVA construction -------------------------------------------------------


def test_hva_counts_tfim_one_layer():
    h = tfim(4)
    a = build_hva(h, StateVector.basis_state(4), 1)
    assert a.n_params == 8
    lo = ansatz_layout(a)
    assert lo.depth == 3
    assert lo.cnot_count == 8


def test_hva_depth_scales_with_layers():
    h = tfim(10)
    a = build_hva(h, StateVector.basis_state(10), 10)
    assert a.n_params == 10 * 20
    assert ansatz_layout(a).depth == 30


def test_hva_zero_layers_is_empty():
    h = tfim(4)
    a = build_hva(h, StateVector.basis_state(4), 0)
    assert a.n_params == 0


def test_hva_zero_angles_prepare_reference():
    h = tfim(4)
    ref = StateVector.basis_state(4, 5)
    out = prepare_state(build_hva(h, ref, 3))
    np.testing.assert_array_equal(out.amplitudes, ref.amplitudes)


def test_build_hva_rejects_bad_sublayers():
    h = tfim(4)
    # overlapping supports inside a declared sub-layer are rejected
    with pytest.raises(ValueError):
        build_hva(h, StateVector.basis_state(4), 1, ((0, 1), (2, 3), (4, 5, 6, 7)))
    # missing terms are rejected
    with pytest.raises(ValueError):
        build_hva(h, StateVector.basis_state(4), 1, ((0, 2), (1, 3)))


# --- Trotter ---------------------------------------------------------------


def test_single_term_trotter_is_exact():
    h = WeightedPauliSum(2, [(0.8, PauliString.from_label("XI"))])
    psi0 = StateVector.basis_state(2)
    result = trotter_run(h, psi0, dt=0.1, t_final=1.0)
    exact = exact_evolve(h, 1.0, psi0)
    assert 1 - fidelity(result.states[-1], exact) < 1e-12


def test_commuting_hamiltonian_trotter_is_exact():
    n = 4
    terms = [(-1.0, PauliString.two_site(n, (i, (i + 1) % n), "ZZ")) for i in range(n)]
    h = WeightedPauliSum(n, terms)
    plus = StateVector(n, np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=complex))
    result = trotter_run(h, plus, dt=0.5, t_final=2.0)
    exact = exact_evolve(h, 2.0, plus)
    assert 1 - fidelity(result.states[-1], exact) < 1e-10


def test_trotter_unitarity_and_accounting():
    h = tfim(4)
    psi0 = StateVector.basis_state(4)
    result = trotter_run(h, psi0, dt=0.05, t_final=0.5)
    assert len(result.states) == 11
    for state in result.states:
        assert abs(state.norm() - 1.0) < 1e-12
    np.testing.assert_array_equal(result.depths, 3 * np.arange(11))
    np.testing.assert_array_equal(result.cnot_counts, 8 * np.arange(11))
    np.testing.assert_allclose(result.times, 0.05 * np.arange(11))


def test_trotter_convergence_under_step_halving():
    # coherent product-formula error: state error O(dt), so the overlap
    # infidelity contracts by ~4x when the step is halved
    h = tfim(4)
    psi0 = StateVector.basis_state(4)
    exact = exact_evolve(h, 1.0, psi0)
    infid = {}
    for dt in (0.04, 0.02):
        result = trotter_run(h, psi0, dt=dt, t_final=1.0)
        infid[dt] = 1 - fidelity(result.states[-1], exact)
    assert infid[0.02] < infid[0.04] < 1e-2
    ratio = infid[0.04] / infid[0.02]
    assert 3.0 <= ratio <= 5.0


def test_trotter_rejects_bad_step():
    h = tfim(4)
    with pytest.raises(ValueError):
        trotter_run(h, StateVector.basis_state(4), dt=0.0, t_final=1.0)


# --- fixed-ansatz dynamics --------------------------------------------------


def test_hva_dynamics_tracks_short_quench():
    n = 4
    h = tfim(n)
    psi0 = StateVector.basis_state(n)
    hva = build_hva(h, psi0, 4)
    records = run_fixed_ansatz(
        hva, h, StepConfig(dtheta_max=0.005, t_final=1.0), SOLVER
    )
    assert records[0].infidelity == pytest.approx(0.0, abs=1e-12)
    assert max(r.infidelity for r in records) < 1e-2
    assert all(r.n_params == hva.n_params for r in records)
