import numpy as np
import pytest

from avqds.ansatz import Ansatz, prepare_state, tangent_states
from avqds.mclachlan import (
    assemble_frame,
    augment_block,
    extend_system,
    mclachlan_distance,
)
from avqds.pauli import PauliString, WeightedPauliSum
from avqds.statevector import StateVector, variance
from conftest import dense_sum, random_hamiltonian, random_pauli, random_state


def make_ansatz(rng, n_qubits, n_params):
    gens = tuple(random_pauli(rng, n_qubits) for _ in range(n_params))
    angles = rng.uniform(-1.5, 1.5, size=n_params)
    return Ansatz(StateVector(n_qubits, random_state(rng, n_qubits)), gens, angles)


def x_ansatz(theta):
    return Ansatz(StateVector.basis_state(1), (PauliString.from_label("X"),), [theta])


X1 = WeightedPauliSum(1, [(1.0, PauliString.from_label("X"))])
Z1 = WeightedPauliSum(1, [(1.0, PauliString.from_label("Z"))])


# --- assembly -------------------------------------------------------------


def test_empty_ansatz_system():
    ref = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    s = assemble_frame(Ansatz(ref), Z1).system
    assert s.m.shape == (0, 0)
    assert s.v.shape == (0,)
    assert s.var_h == pytest.approx(variance(Z1, ref))


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.2, -2.0])
def test_single_x_with_x_field(theta):
    s = assemble_frame(x_ansatz(theta), X1).system
    np.testing.assert_allclose(s.m, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(s.v, [1.0], atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.2, -2.0])
def test_single_x_with_z_field(theta):
    s = assemble_frame(x_ansatz(theta), Z1).system
    np.testing.assert_allclose(s.m, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(s.v, [0.0], atol=1e-12)


def fd_reference_system(a, h, step=1e-6):
    """M and V evaluated from finite-difference derivative states only."""
    psi = prepare_state(a).amplitudes
    hd = dense_sum(h)
    n = a.n_params
    xi = np.empty((n, psi.shape[0]), dtype=complex)
    for k in range(n):
        up = np.array(a.angles)
        dn = np.array(a.angles)
        up[k] += step
        dn[k] -= step
        xi[k] = (
            prepare_state(a.with_angles(up)).amplitudes
            - prepare_state(a.with_angles(dn)).amplitudes
        ) / (2 * step)
    proj = np.eye(psi.shape[0]) - np.outer(psi, psi.conj())
    m = np.real(xi.conj() @ proj @ xi.T)
    v = np.imag(xi.conj() @ proj @ hd @ psi)
    return m, v


def test_assembly_matches_finite_difference_definition(rng):
    for _ in range(6):
        n = int(rng.integers(2, 5))
        a = make_ansatz(rng, n, int(rng.integers(1, 6)))
        h = random_hamiltonian(rng, n)
        s = assemble_frame(a, h).system
        m_ref, v_ref = fd_reference_system(a, h)
        np.testing.assert_allclose(s.m, m_ref, atol=5e-9)
        np.testing.assert_allclose(s.v, v_ref, atol=5e-9)


def test_metric_psd_and_null_orthogonal_to_force(rng):
    for _ in range(40):
        n = int(rng.integers(2, 5))
        a = make_ansatz(rng, n, int(rng.integers(1, 8)))
        h = random_hamiltonian(rng, n)
        s = assemble_frame(a, h).system
        np.testing.assert_allclose(s.m, s.m.T, atol=1e-12)
        w, u = np.linalg.eigh(s.m)
        assert w.min(initial=np.inf) >= -1e-10
        for k in range(len(w)):
            if w[k] <= 1e-10:
                assert abs(u[:, k] @ s.v) <= 1e-8


# --- distance -------------------------------------------------------------


def test_distance_at_zero_velocity(rng):
    a = make_ansatz(rng, 3, 4)
    h = random_hamiltonian(rng, 3)
    s = assemble_frame(a, h).system
    assert mclachlan_distance(s, np.zeros(4)) == pytest.approx(2 * s.var_h)


def test_distance_exactly_representable_case():
    s = assemble_frame(x_ansatz(0.7), X1).system
    assert mclachlan_distance(s, np.array([1.0])) == pytest.approx(0.0, abs=1e-12)


def dense_defect_norm(a, h, theta_dot):
    """Frobenius norm^2 of the density-matrix derivative defect."""
    psi = prepare_state(a).amplitudes
    xi = tangent_states(a)
    hd = dense_sum(h)
    rho = np.outer(psi, psi.conj())
    d_rho = sum(
        td * (np.outer(x, psi.conj()) + np.outer(psi, x.conj()))
        for td, x in zip(theta_dot, xi)
    )
    defect = d_rho + 1j * (hd @ rho - rho @ hd)
    return float(np.linalg.norm(defect, "fro") ** 2)


def test_distance_matches_dense_defect(rng):
    for _ in range(8):
        n = int(rng.integers(2, 4))
        a = make_ansatz(rng, n, int(rng.integers(1, 6)))
        h = random_hamiltonian(rng, n)
        s = assemble_frame(a, h).system
        theta_dot = rng.normal(size=a.n_params)
        assert mclachlan_distance(s, theta_dot) == pytest.approx(
            dense_defect_norm(a, h, theta_dot), abs=1e-9, rel=1e-9
        )


def test_distance_dimension_check():
    s = assemble_frame(x_ansatz(0.1), X1).system
    with pytest.raises(ValueError):
        mclachlan_distance(s, np.zeros(3))


# --- augmentation ---------------------------------------------------------


def test_augment_matches_full_assembly(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = make_ansatz(rng, n, int(rng.integers(1, 6)))
        h = random_hamiltonian(rng, n)
        frame = assemble_frame(a, h)
        cand = random_pauli(rng, n)
        cols, diags, v_new = augment_block(frame, [cand])
        full = assemble_frame(a.extended([cand]), h).system
        np.testing.assert_allclose(cols[0], full.m[:-1, -1], atol=1e-12)
        assert diags[0] == pytest.approx(full.m[-1, -1], abs=1e-12)
        assert v_new[0] == pytest.approx(full.v[-1], abs=1e-12)
        ext = extend_system(frame.system, cols[0], diags[0], v_new[0])
        np.testing.assert_allclose(ext.m, full.m, atol=1e-12)
        np.testing.assert_allclose(ext.v, full.v, atol=1e-12)


def test_augment_with_repeat_of_last_generator(rng):
    # inserting the last generator again at angle 0 reproduces its diagonal
    a = make_ansatz(rng, 3, 4)
    h = random_hamiltonian(rng, 3)
    frame = assemble_frame(a, h)
    _, diags, _ = augment_block(frame, [a.generators[-1]])
    assert diags[0] == pytest.approx(frame.system.m[-1, -1], abs=1e-12)


def test_augment_empty_ansatz_y_candidate():
    ref = StateVector.basis_state(1)
    frame = assemble_frame(Ansatz(ref), Z1)
    cols, diags, v_new = augment_block(frame, [PauliString.from_label("Y")])
    # tangent -iY|0> = -i(i|1>) = |1>, orthogonal to |0>; force element vanishes
    assert cols.shape == (1, 0)
    assert diags[0] == pytest.approx(1.0)
    assert v_new[0] == pytest.approx(0.0, abs=1e-14)
