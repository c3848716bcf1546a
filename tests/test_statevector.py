import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from avqds.pauli import PauliString, WeightedPauliSum
from avqds.statevector import (
    ExactPropagator,
    StateVector,
    apply_hamiltonian,
    apply_pauli,
    _rotate_rows,
    apply_rotation,
    dense_hamiltonian,
    exact_evolve,
    expectation,
    fidelity,
    inner,
    variance,
)
from conftest import (
    _rotation_rows,
    dense_pauli,
    dense_sum,
    random_hamiltonian,
    random_pauli,
    random_state,
)


def tfim_chain(n, j=1.0, hx=-2.0):
    terms = [(-j, PauliString.two_site(n, (i, (i + 1) % n), "ZZ")) for i in range(n)]
    terms += [(hx, PauliString.single(n, i, "X")) for i in range(n)]
    return WeightedPauliSum(n, terms)


# --- apply_pauli ---------------------------------------------------------


def test_x_flips_zero():
    out = apply_pauli(PauliString.from_label("X"), StateVector.basis_state(1, 0))
    np.testing.assert_allclose(out.amplitudes, [0, 1])


def test_y_on_zero_gives_i_one():
    out = apply_pauli(PauliString.from_label("Y"), StateVector.basis_state(1, 0))
    np.testing.assert_allclose(out.amplitudes, [0, 1j])


def test_zz_sign_on_single_excitation():
    # |01>: qubit 0 down-index... qubit 1 excited => basis index 2
    psi = StateVector.basis_state(2, 2)
    out = apply_pauli(PauliString.from_label("ZZ"), psi)
    np.testing.assert_allclose(out.amplitudes, -psi.amplitudes)


def test_apply_pauli_matches_dense(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        p = random_pauli(rng, n)
        amps = random_state(rng, n)
        out = apply_pauli(p, StateVector(n, amps))
        np.testing.assert_allclose(out.amplitudes, dense_pauli(p) @ amps, atol=1e-12)


def test_qubit_count_mismatch():
    with pytest.raises(ValueError):
        apply_pauli(PauliString.from_label("XX"), StateVector.basis_state(1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_involution_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    p = random_pauli(rng, n)
    psi = StateVector(n, random_state(rng, n))
    twice = apply_pauli(p, apply_pauli(p, psi))
    np.testing.assert_allclose(twice.amplitudes, psi.amplitudes, atol=1e-12)


# --- apply_rotation ------------------------------------------------------


def test_rotation_zero_angle_is_identity(rng):
    n = 3
    psi = StateVector(n, random_state(rng, n))
    out = apply_rotation(random_pauli(rng, n), 0.0, psi)
    np.testing.assert_allclose(out.amplitudes, psi.amplitudes)


def test_rotation_half_pi(rng):
    n = 3
    p = random_pauli(rng, n)
    psi = StateVector(n, random_state(rng, n))
    out = apply_rotation(p, np.pi / 2, psi)
    np.testing.assert_allclose(
        out.amplitudes, -1j * apply_pauli(p, psi).amplitudes, atol=1e-12
    )


def test_rotation_on_eigenstate_is_phase():
    psi = StateVector.basis_state(1, 0)
    theta = 0.37
    out = apply_rotation(PauliString.from_label("Z"), theta, psi)
    np.testing.assert_allclose(out.amplitudes, np.exp(-1j * theta) * psi.amplitudes)


def test_rotation_matches_dense_expm(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        p = random_pauli(rng, n)
        theta = rng.uniform(-np.pi, np.pi)
        amps = random_state(rng, n)
        out = apply_rotation(p, theta, StateVector(n, amps))
        expected = scipy.linalg.expm(-1j * theta * dense_pauli(p)) @ amps
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_rotation_unitarity_and_composition(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    p = random_pauli(rng, n)
    t1, t2 = rng.uniform(-3, 3, size=2)
    psi = StateVector(n, random_state(rng, n))
    once = apply_rotation(p, t1, apply_rotation(p, t2, psi))
    assert abs(once.norm() - 1.0) < 1e-12
    combined = apply_rotation(p, t1 + t2, psi)
    np.testing.assert_allclose(once.amplitudes, combined.amplitudes, atol=1e-12)


def test_apply_rotation_leaves_input_unchanged(rng):
    psi = StateVector(4, random_state(rng, 4))
    before = psi.amplitudes.copy()
    out = apply_rotation(PauliString.from_label("XYZI"), 0.7, psi)
    np.testing.assert_array_equal(psi.amplitudes, before)
    assert not np.shares_memory(out.amplitudes, psi.amplitudes)


# --- in-place rotation kernel against the gather oracle --------------------


def _kernel_cases(rng):
    """All strings up to 3 qubits; random 6-8 qubit strings with X/Y on qubit 0 and Y·Y pairs."""
    for n in (1, 2, 3):
        for letters in itertools.product("IXYZ", repeat=n):
            yield PauliString.from_label("".join(letters))
    for n in (6, 7, 8):
        for i in range(12):
            label = list(rng.choice(list("IXYZ"), size=n))
            label[0] = "XY"[i % 2]
            if i % 3 == 0:
                a, b = rng.choice(np.arange(1, n), size=2, replace=False)
                label[a] = label[b] = "Y"
            yield PauliString.from_label("".join(label))
        yield PauliString.from_label("Y" * n)


def test_rotation_kernel_matches_gather_oracle_bitwise(rng):
    cases = 0
    for p in _kernel_cases(rng):
        dim = 1 << p.n_qubits
        for k in (1, 2, 7):
            rows = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
            rows[0] = 0.0
            rows[0, int(rng.integers(dim))] = 1.0  # a basis state: exact zeros
            for theta in (0.0, np.pi / 2, float(rng.uniform(-np.pi, np.pi))):
                expected = _rotation_rows(p, theta, rows)
                out = rows.copy()
                buf = np.full((k + 2, dim), np.nan + 0j)  # larger than needed, garbage-filled
                _rotate_rows(p, theta, out, buf)
                assert np.array_equal(out, expected), (p.label(), k, theta)
                cases += 1
    assert cases == (4 + 16 + 64 + 3 * 13) * 3 * 3


# --- apply_hamiltonian / expectation / variance --------------------------


def test_hamiltonian_z_on_zero():
    h = WeightedPauliSum(1, [(1.0, PauliString.from_label("Z"))])
    out = apply_hamiltonian(h, StateVector.basis_state(1, 0))
    np.testing.assert_allclose(out.amplitudes, [1, 0])


def test_hamiltonian_linearity():
    h = WeightedPauliSum(
        1, [(1.0, PauliString.from_label("X")), (1.0, PauliString.from_label("Z"))]
    )
    out = apply_hamiltonian(h, StateVector.basis_state(1, 0))
    np.testing.assert_allclose(out.amplitudes, [1, 1])


def test_tfim_action_matches_term_sum():
    n = 4
    h = tfim_chain(n)
    psi = StateVector.basis_state(n, 0)  # all spins up
    out = apply_hamiltonian(h, psi)
    expected = np.zeros(1 << n, dtype=complex)
    for coeff, p in h.terms:
        expected += coeff * (dense_pauli(p) @ psi.amplitudes)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
    # ferromagnetic all-up state: -J per bond, X terms flip one spin each
    assert out.amplitudes[0] == pytest.approx(-4.0)
    for i in range(n):
        assert out.amplitudes[1 << i] == pytest.approx(-2.0)


def test_eigenstate_expectation_and_variance():
    h = WeightedPauliSum(1, [(1.0, PauliString.from_label("Z"))])
    psi = StateVector.basis_state(1, 0)
    assert expectation(h, psi) == pytest.approx(1.0)
    assert variance(h, psi) == pytest.approx(0.0, abs=1e-12)


def test_plus_state_variance():
    h = WeightedPauliSum(1, [(1.0, PauliString.from_label("Z"))])
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    assert expectation(h, plus) == pytest.approx(0.0, abs=1e-12)
    assert variance(h, plus) == pytest.approx(1.0)


def test_tfim_expectation_variance_vs_dense():
    n = 4
    h = tfim_chain(n)
    psi = StateVector.basis_state(n, 0)
    hd = dense_sum(h)
    assert expectation(h, psi) == pytest.approx(-4.0)
    e = np.real(psi.amplitudes.conj() @ hd @ psi.amplitudes)
    var_dense = np.real(psi.amplitudes.conj() @ hd @ hd @ psi.amplitudes) - e**2
    assert variance(h, psi) == pytest.approx(var_dense, abs=1e-10)


def test_variance_nonnegative_random(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        h = random_hamiltonian(rng, n)
        psi = StateVector(n, random_state(rng, n))
        assert variance(h, psi) >= -1e-10


def test_dense_hamiltonian_matches_kron(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        h = random_hamiltonian(rng, n)
        np.testing.assert_allclose(dense_hamiltonian(h), dense_sum(h), atol=1e-12)


# --- inner / fidelity -----------------------------------------------------


def test_inner_conjugates_first_argument():
    a = StateVector(1, np.array([1j, 0]))
    b = StateVector(1, np.array([1, 0], dtype=complex))
    assert inner(a, b) == pytest.approx(-1j)


def test_fidelity_basics():
    zero = StateVector.basis_state(1, 0)
    one = StateVector.basis_state(1, 1)
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    assert fidelity(zero, zero) == pytest.approx(1.0)
    assert fidelity(zero, one) == pytest.approx(0.0)
    assert fidelity(zero, plus) == pytest.approx(0.5)


# --- exact_evolve ---------------------------------------------------------


def test_evolve_eigenstate_acquires_phase():
    h = tfim_chain(4, j=1.0, hx=0.0)  # diagonal: all-up is an eigenstate
    psi = StateVector.basis_state(4, 0)
    out = exact_evolve(h, 0.7, psi)
    np.testing.assert_allclose(
        out.amplitudes, np.exp(-1j * (-4.0) * 0.7) * psi.amplitudes, atol=1e-10
    )


def test_evolve_plus_under_z():
    h = WeightedPauliSum(1, [(1.0, PauliString.from_label("Z"))])
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    out = exact_evolve(h, np.pi / 4, plus)
    expected = np.array([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]) / np.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)
    x = WeightedPauliSum(1, [(1.0, PauliString.from_label("X"))])
    assert expectation(x, out) == pytest.approx(0.0, abs=1e-10)


def test_evolve_matches_dense_expm():
    n = 6
    h = tfim_chain(n)
    psi = StateVector.basis_state(n, 0)
    out = exact_evolve(h, 1.0, psi)
    expected = scipy.linalg.expm(-1j * dense_sum(h)) @ psi.amplitudes
    assert abs(np.vdot(expected, out.amplitudes)) ** 2 > 1 - 1e-8
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-7)


def test_evolve_group_property(rng):
    n = 4
    h = random_hamiltonian(rng, n, n_terms=6)
    psi = StateVector(n, random_state(rng, n))
    two_steps = exact_evolve(h, 0.9, exact_evolve(h, 0.4, psi))
    one_step = exact_evolve(h, 1.3, psi)
    np.testing.assert_allclose(two_steps.amplitudes, one_step.amplitudes, atol=1e-7)


def test_evolve_conserves_energy(rng):
    n = 5
    h = tfim_chain(n)
    psi = StateVector(n, random_state(rng, n))
    e0 = expectation(h, psi)
    for t in (0.3, 1.1, 2.6):
        assert expectation(h, exact_evolve(h, t, psi)) == pytest.approx(e0, abs=1e-8)


def test_evolve_rejects_negative_time():
    h = WeightedPauliSum(1, [(1.0, PauliString.from_label("Z"))])
    with pytest.raises(ValueError):
        exact_evolve(h, -0.1, StateVector.basis_state(1))


def test_exact_propagator_matches_evolve(rng):
    n = 5
    h = tfim_chain(n)
    psi = StateVector(n, random_state(rng, n))
    prop = ExactPropagator(h, psi)
    for t in (0.2, 0.9, 2.4):
        a = prop.state_at(t)
        b = exact_evolve(h, t, psi)
        assert fidelity(a, b) > 1 - 1e-10


def _real_hamiltonian(rng, n, n_terms):
    """Random weight-1..3 terms with an even number of Y factors."""
    terms = []
    while len(terms) < n_terms:
        p = random_pauli(rng, n, max_weight=3)
        if p.label().count("Y") % 2 == 0:
            terms.append((float(rng.normal()), p))
    return WeightedPauliSum(n, terms)


def test_exact_propagator_real_path(rng):
    n = 5
    h = _real_hamiltonian(rng, n, 12)
    assert any("Y" in p.label() for _, p in h.terms)
    assert dense_hamiltonian(h).dtype == np.float64
    psi = StateVector(n, random_state(rng, n))
    prop = ExactPropagator(h, psi)
    assert prop._modes.dtype == np.float64
    for t in (0.0, 0.3, 1.7):
        assert fidelity(prop.state_at(t), exact_evolve(h, t, psi)) > 1 - 1e-12


def test_exact_propagator_complex_path(rng):
    n = 5
    h = WeightedPauliSum(n, list(_real_hamiltonian(rng, n, 8).terms) + [(0.7, PauliString.from_label("IIIXY"))])
    assert dense_hamiltonian(h).dtype == np.complex128
    psi = StateVector(n, random_state(rng, n))
    prop = ExactPropagator(h, psi)
    assert prop._modes.dtype == np.complex128
    for t in (0.0, 0.3, 1.7):
        assert fidelity(prop.state_at(t), exact_evolve(h, t, psi)) > 1 - 1e-12
