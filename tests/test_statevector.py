import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import avqds.statevector
from avqds.models import build_model, default_model
from avqds.pauli import PauliString, WeightedPauliSum
from avqds.statevector import (
    EvolveError,
    ExactPropagator,
    StateVector,
    apply_hamiltonian,
    apply_pauli,
    _hamiltonian_rows,
    _pauli_into,
    _multiply_views,
    _planned_views,
    _rotate_rows,
    _rotate_views,
    _TAYLOR_SPAN,
    _rotation_plan,
    apply_rotation,
    dense_hamiltonian,
    exact_evolve,
    expectation,
    fidelity,
    inner,
    variance,
)
from conftest import (
    _pauli_rows,
    _rotation_rows,
    dense_pauli,
    dense_sum,
    eigh_propagator,
    expm_multiply_state,
    gather_hamiltonian_rows,
    hamiltonian_coo,
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
    """All strings up to 3 qubits; random 6-8 qubit strings with X/Y on qubit 0
    and Y·Y pairs; at 8 and 10 qubits, single X/Y/Z on qubits 0, 1, 2 and n-1,
    and pure-X strings (scalar coefficient) beside an X·Z string (array)."""
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
    for n in (8, 10):
        for q in (0, 1, 2, n - 1):
            for letter in "XYZ":
                yield PauliString.single(n, q, letter)
        yield PauliString.from_label("X" * n)
        yield PauliString.from_label("XX" + "I" * (n - 2))
        yield PauliString.from_label("X" + "I" * (n - 2) + "X")
        yield PauliString.from_label("IIX" + "I" * (n - 4) + "Z")


_N_KERNEL_CASES = 4 + 16 + 64 + 3 * 13 + 2 * 16
_KERNEL_ROWS = (1, 2, 7, 64)  # 64 rows: one merged row loop for pure-X strings


def _kernel_block(rng, k, dim):
    rows = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
    rows[0] = 0.0
    rows[0, int(rng.integers(dim))] = 1.0  # a basis state: exact zeros
    return rows


def test_rotation_kernel_matches_gather_oracle_bitwise(rng):
    cases = 0
    for p in _kernel_cases(rng):
        dim = 1 << p.n_qubits
        for k in _KERNEL_ROWS:
            rows = _kernel_block(rng, k, dim)
            for theta in (0.0, np.pi / 2, float(rng.uniform(-np.pi, np.pi))):
                expected = _rotation_rows(p, theta, rows)
                out = rows.copy()
                buf = np.full((k + 2, dim), np.nan + 0j)  # larger than needed, garbage-filled
                _rotate_rows(p, theta, out, buf)
                assert np.array_equal(out, expected), (p.label(), k, theta)
                cases += 1
    assert cases == _N_KERNEL_CASES * len(_KERNEL_ROWS) * 3


def test_pauli_into_matches_gather_bitwise(rng):
    cases = 0
    for p in _kernel_cases(rng):
        dim = 1 << p.n_qubits
        for k in _KERNEL_ROWS:
            rows = _kernel_block(rng, k, dim)
            theta = float(rng.uniform(-np.pi, np.pi))
            for scale in (1.0, -1j, -1j * np.sin(theta)):
                out = np.full((k, dim), np.nan + 0j)
                _pauli_into(p, scale, rows, out)
                assert np.array_equal(out, scale * _pauli_rows(p, rows)), (p.label(), k, scale)
                cases += 1
    assert cases == _N_KERNEL_CASES * len(_KERNEL_ROWS) * 3


@pytest.mark.parametrize("letter", "XYZ")
def test_rotation_plan_iterates_a_long_axis_last(letter):
    """The bitwise tests cannot see the iteration order; this pins the rule
    for every flip pattern x at 8 qubits. With the lowest flipped qubit at 2
    or above, the blocks of amplitudes below it are gathered as items; a flip
    of qubit 0 alone iterates its flip axis, then the rows, then the long
    axis; every other pattern takes the row axis first and its longest axis
    last. The z bits are none (``X``), those of x (Y on every flipped qubit,
    ``Y``) or all (Z on the rest, ``Z``), and the plan must not depend on them."""
    n = 8
    for x in range(1 << n):
        z = {"X": 0, "Y": x, "Z": (1 << n) - 1}[letter]
        shape, reverse, order, coeffs, _, item = _rotation_plan(n, x, z)
        bare = _rotation_plan(n, x, 0)
        assert (shape, reverse, order, item) == (bare.shape, bare.reverse, bare.order, bare.item)
        assert sorted(order) == list(range(len(shape) + 1))
        low = (x & -x).bit_length() - 1
        if low >= 2:
            assert item.itemsize == 16 << low and order == tuple(range(len(shape) + 1))
            assert math.prod(shape) << low == 1 << n
        elif x == 1:
            assert item is None and order == (2, 0, 1), order
        else:
            assert item is None and order[0] == 0
            assert shape[order[-1] - 1] == max(shape), (x, shape, order)
        assert isinstance(coeffs, complex) == (letter == "X" or x == 0 and letter == "Y"), (x, letter)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


_PLAN_PATHS = [(3, 0), (8, 1), (8, 0b10), (8, 0b11), (8, 0b10000001), (8, 0b100), (10, 0b1101000)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1), st.integers(1, 9),
    st.floats(-math.pi, math.pi), st.integers(0, 2**31 - 1))))
def test_no_plan_moves_a_bit(case):
    """Whatever order or path ``_rotation_plan`` picks, ``_rotate_views`` and
    ``_multiply_views`` equal the gathers ``_rotation_rows`` and
    ``_pauli_rows`` bit for bit, sign bits included: the rows hold no zero, so
    each output component is one rounded product (plus one rounded sum)
    whatever the iteration order. ``_PLAN_PATHS`` runs every path of the rule
    at each draw."""
    n, x, z, k, theta, seed = case
    rng = np.random.default_rng(seed)
    for n, x in [(n, x)] + _PLAN_PATHS:
        dim = 1 << n
        p = PauliString(n, x, z % dim)
        plan = _rotation_plan(n, p.x_bits, p.z_bits)
        rows = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
        # a zero or underflowing scale gives products whose only bits are the signs of zeros
        for scale in (-1j, -1j * np.sin(theta)) if abs(np.sin(theta)) > 1e-150 else (-1j,):
            out = np.full((k, dim), np.nan + 0j)
            src, dst = _planned_views(plan, rows, out)
            _multiply_views(plan, src, scale * plan.coeffs, dst, out)
            assert np.array_equal(_bits(out), _bits(scale * _pauli_rows(p, rows))), (n, x, z, k, scale)

        rotated, scratch = rows.copy(), np.full((k, dim), np.nan + 0j)
        src, dst = _planned_views(plan, rotated, scratch)
        _rotate_views(plan, -1j * np.sin(theta) * plan.coeffs, np.cos(theta), rotated, src, scratch, dst)
        assert np.array_equal(_bits(rotated), _bits(_rotation_rows(p, theta, rows))), (n, x, z, k, theta)


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


@pytest.mark.parametrize("kind", ["tfim", "mfim", "hm"])
def test_hamiltonian_rows_match_the_gather_bitwise(rng, kind):
    """H·psi, one ``_pauli_into`` per term, is the per-term gather bit for
    bit, on single states and on row blocks."""
    for n in (4, 6, 8, 10):
        _, h, _ = build_model(default_model(kind, n))
        rows = np.stack([random_state(rng, n) for _ in range(3)])
        assert np.array_equal(_hamiltonian_rows(h, rows[0]), gather_hamiltonian_rows(h, rows[0]))
        assert np.array_equal(_hamiltonian_rows(h, rows), gather_hamiltonian_rows(h, rows))


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


def test_dense_hamiltonian_is_bitwise_the_per_term_sum(rng):
    """The dense H is the per-term fancy-index ``+=`` sum, and the COO
    builder's ``toarray()`` adds the same entries in the same term order, so
    the two are the same bits."""
    for complex_term in (False, True):
        terms = list(_real_hamiltonian(rng, 5, 12).terms)
        if complex_term:
            terms.append((0.7, PauliString.from_label("IIIXY")))
        h = WeightedPauliSum(5, terms)
        expected = np.zeros((32, 32), dtype=np.complex128 if complex_term else np.float64)
        idx = np.arange(32)
        for coeff, p in h.terms:
            column = dense_pauli(p)[idx ^ p.x_bits, idx]
            expected[idx ^ p.x_bits, idx] += coeff * (column if complex_term else column.real)
        got = dense_hamiltonian(h)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        coo = hamiltonian_coo(h).toarray()
        assert coo.dtype == got.dtype
        assert coo.tobytes() == got.tobytes()


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


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "stepper"])
def test_propagator_only_goes_forward_on_both_paths(monkeypatch, dense):
    """The dense path refuses to go back in time as the stepper does: a time
    below the latest one asked for, or below 0, raises ``ValueError``; one
    within 1e-12 below it is still served."""
    n = 3
    if not dense:
        monkeypatch.setattr(avqds.statevector, "_DENSE_MAX_QUBITS", 0)
    prop = ExactPropagator(tfim_chain(n), StateVector.basis_state(n))
    assert prop._dense == dense
    with pytest.raises(ValueError):
        prop.state_at(-0.5)
    later = prop.state_at(0.5).amplitudes.copy()
    for t in (-0.5, 0.25):
        with pytest.raises(ValueError):
            prop.state_at(t)
    assert np.array_equal(prop.state_at(0.5).amplitudes, later)
    np.testing.assert_allclose(prop.state_at(0.5 - 1e-13).amplitudes, later, rtol=0, atol=1e-12)


def test_exact_propagator_matches_evolve(rng):
    n = 5
    h = tfim_chain(n)
    psi = StateVector(n, random_state(rng, n))
    prop = ExactPropagator(h, psi)
    for t in (0.2, 0.9, 2.4):
        reference = StateVector(n, expm_multiply_state(h, t, psi.amplitudes))
        assert fidelity(prop.state_at(t), reference) > 1 - 1e-10
        assert fidelity(exact_evolve(h, t, psi), reference) > 1 - 1e-10


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
        reference = StateVector(n, expm_multiply_state(h, t, psi.amplitudes))
        assert fidelity(prop.state_at(t), reference) > 1 - 1e-12
        assert fidelity(exact_evolve(h, t, psi), reference) > 1 - 1e-12


def test_exact_propagator_complex_path(rng):
    n = 5
    h = WeightedPauliSum(n, list(_real_hamiltonian(rng, n, 8).terms) + [(0.7, PauliString.from_label("IIIXY"))])
    assert dense_hamiltonian(h).dtype == np.complex128
    psi = StateVector(n, random_state(rng, n))
    prop = ExactPropagator(h, psi)
    assert prop._modes.dtype == np.complex128
    for t in (0.0, 0.3, 1.7):
        reference = StateVector(n, expm_multiply_state(h, t, psi.amplitudes))
        assert fidelity(prop.state_at(t), reference) > 1 - 1e-12
        assert fidelity(exact_evolve(h, t, psi), reference) > 1 - 1e-12


def test_exact_propagator_sparse_path_matches_dense(rng, monkeypatch):
    n = 5
    h = tfim_chain(n)
    psi = StateVector(n, random_state(rng, n))
    dense = ExactPropagator(h, psi)
    monkeypatch.setattr(avqds.statevector, "_DENSE_MAX_QUBITS", 0)
    sparse = ExactPropagator(h, psi)
    assert not sparse._dense
    for t in (0.2, 0.9, 2.4):
        assert fidelity(sparse.state_at(t), dense.state_at(t)) > 1 - 1e-10
    with pytest.raises(ValueError):
        sparse.state_at(0.9)


def test_sparse_path_tracks_dense_over_engine_sized_steps(rng, monkeypatch):
    """The engine asks the oracle for every step time in increasing order."""
    n = 5
    h = tfim_chain(n)
    psi = StateVector(n, random_state(rng, n))
    dense = ExactPropagator(h, psi)
    monkeypatch.setattr(avqds.statevector, "_DENSE_MAX_QUBITS", 0)
    sparse = ExactPropagator(h, psi)
    for k in range(1, 401):
        t = k * 0.005
        assert fidelity(sparse.state_at(t), dense.state_at(t)) > 1 - 1e-12


def test_norm_drift_raises_evolve_error(rng, monkeypatch):
    n = 4
    h = tfim_chain(n)
    psi = StateVector(n, random_state(rng, n))
    monkeypatch.setattr(avqds.statevector, "_DENSE_MAX_QUBITS", 0)
    sparse = ExactPropagator(h, psi)
    # H·v = i·v is not Hermitian: the stepped state grows by e^t
    monkeypatch.setattr(ExactPropagator, "_apply_h", lambda self: np.multiply(self._term, 1j, out=self._h_term))
    with pytest.raises(EvolveError):
        exact_evolve(h, 0.3, psi)
    with pytest.raises(EvolveError):
        sparse.state_at(0.3)


@pytest.mark.parametrize("n", [11, 12])
def test_oracle_builds_in_sparse_mode(n):
    prop = ExactPropagator(tfim_chain(n), StateVector.basis_state(n))
    assert not prop._dense


def test_non_finite_step_raises_evolve_error(rng, monkeypatch):
    """A Taylor sum gone non-finite never meets its stopping rule; it stops
    at ``_TAYLOR_MAX_TERMS`` and the norm check raises."""
    n = 4
    h = tfim_chain(n)
    psi = StateVector(n, random_state(rng, n))
    monkeypatch.setattr(avqds.statevector, "_DENSE_MAX_QUBITS", 0)
    monkeypatch.setattr(ExactPropagator, "_apply_h", lambda self: self._h_term.fill(np.nan))
    with pytest.raises(EvolveError):
        ExactPropagator(h, psi).state_at(0.3)


# --- Taylor stepper against the dense eigh and expm_multiply ---------------


def _paired_hamiltonian(rng, n, complex_term):
    """Random real terms, plus XX and YY on one bond (one flip group with
    two sign patterns) and, when asked, a term with one Y, which makes H
    complex."""
    terms = list(_real_hamiltonian(rng, n, 10).terms)
    terms += [(0.8, PauliString.two_site(n, (1, 2), "XX")), (-0.6, PauliString.two_site(n, (1, 2), "YY"))]
    if complex_term:
        terms.append((0.7, PauliString.two_site(n, (0, n - 1), "XY")))
    return WeightedPauliSum(n, terms)


@pytest.mark.parametrize("complex_term", [False, True], ids=["real", "complex"])
def test_taylor_stepper_matches_eigh(rng, monkeypatch, complex_term):
    """Forced below the dense cutoff, the stepper follows the dense ``eigh``
    on random states: at t = 0 (the input itself), over one substep, and
    over a step with tau·sum|c| forty times ``_TAYLOR_SPAN``."""
    n = 6
    h = _paired_hamiltonian(rng, n, complex_term)
    assert (dense_hamiltonian(h).dtype == np.complex128) == complex_term
    span = _TAYLOR_SPAN / sum(abs(c) for c, _ in h.terms)
    monkeypatch.setattr(avqds.statevector, "_DENSE_MAX_QUBITS", 0)
    for _ in range(3):
        amps = random_state(rng, n)
        reference = eigh_propagator(h, amps)
        prop = ExactPropagator(h, StateVector(n, amps))
        assert not prop._dense
        assert np.array_equal(prop.state_at(0.0).amplitudes, amps)
        for t in (0.5 * span, 40.5 * span):
            np.testing.assert_allclose(prop.state_at(t).amplitudes, reference(t), rtol=0, atol=1e-12)


def test_taylor_stepper_at_ten_qubits_matches_eigh(rng):
    """The 10-qubit oracle steps; it follows the dense ``eigh`` over
    engine-sized and long steps and refuses to go back in time."""
    n = 10
    h = tfim_chain(n)
    amps = random_state(rng, n)
    prop = ExactPropagator(h, StateVector(n, amps))
    assert not prop._dense
    reference = eigh_propagator(h, amps)
    for t in (0.005, 0.01, 0.5, 2.0):
        np.testing.assert_allclose(prop.state_at(t).amplitudes, reference(t), rtol=0, atol=1e-12)
    assert prop.state_at(2.0 - 1e-13) is prop.state_at(2.0)
    with pytest.raises(ValueError):
        prop.state_at(1.0)


@pytest.mark.parametrize("complex_term", [False, True], ids=["real", "complex"])
def test_taylor_stepper_at_twelve_qubits_matches_expm_multiply(rng, complex_term):
    n = 12
    h = _paired_hamiltonian(rng, n, complex_term)
    psi = StateVector(n, random_state(rng, n))
    prop = ExactPropagator(h, psi)
    for t in (0.005, 0.3):
        expected = expm_multiply_state(h, t, psi.amplitudes)
        np.testing.assert_allclose(prop.state_at(t).amplitudes, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(exact_evolve(h, 0.3, psi).amplitudes, expected, rtol=0, atol=1e-12)
