"""Shared fixtures and independent dense-matrix oracles.

The dense oracles here deliberately avoid the package's bitmask kernels:
operators are built as explicit Kronecker products so agreement between the
two routes is meaningful. The exceptions are ``_pauli_rows`` and
``_rotation_rows``, the fancy-index gathers that the strided kernels
``_pauli_into`` and ``_rotate_rows`` replaced, and the tangent sweep
``gather_sweep`` built on them; they are kept as the references the kernels
and the tiled sweep must reproduce bit for bit wherever no Z-only generator
occurs (the sweep applies a run of those as one phase multiply).
``reference_frame`` is the assembly the fused sweep and the real Gram
product replaced: that sweep and the complex Gram. ``brute_force_scores``
is the scoring loop the bound-pruned ranking replaced, kept as its oracle.
"""

from functools import reduce

import numpy as np
import pytest

from avqds.mclachlan import McLachlanSystem, TangentFrame, augment_block, extend_system, mclachlan_distance
from avqds.pauli import PauliString, WeightedPauliSum
from avqds.solvers import solve
from avqds.statevector import _hamiltonian_rows, _pauli_tables

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli(p: PauliString) -> np.ndarray:
    """Kronecker-product matrix of a Pauli string (qubit 0 = index LSB)."""
    mats = [SINGLE[p.letter(i)] for i in range(p.n_qubits)]
    return reduce(np.kron, mats[::-1])


def _pauli_rows(p: PauliString, rows: np.ndarray) -> np.ndarray:
    """P applied to each row of a (k, dim) array by one fancy-index gather."""
    src, signs, phase = _pauli_tables(p.n_qubits, p.x_bits, p.z_bits)
    return phase * (signs * rows[..., src])


def _rotation_rows(p: PauliString, theta: float, rows: np.ndarray) -> np.ndarray:
    """exp(-i·theta·P) on each row (valid because P squares to identity)."""
    src, signs, phase = _pauli_tables(p.n_qubits, p.x_bits, p.z_bits)
    return np.cos(theta) * rows + (-1j * np.sin(theta) * phase) * (signs * rows[..., src])


def gather_sweep(a):
    """(tangents, psi) of an ansatz by the sweep as written before the in-place
    kernel: two gathers per generator, every finished row rotated at once."""
    tangents = np.empty((a.n_params, 1 << a.n_qubits), dtype=np.complex128)
    phi = a.reference.amplitudes
    for k, (p, theta) in enumerate(zip(a.generators, a.angles)):
        tangents[:k] = _rotation_rows(p, theta, tangents[:k])
        phi = _rotation_rows(p, theta, phi)
        tangents[k] = -1j * _pauli_rows(p, phi)
    return tangents, phi


def complex_gram(xi, psi, h_psi, energy):
    """(M, V, <xi|psi>) from the complex Gram of a conjugated copy of the rows."""
    xi_conj = xi.conj()
    overlaps = xi_conj @ psi
    m = np.real(xi_conj @ xi.T - np.outer(overlaps, overlaps.conj()))
    m = 0.5 * (m + m.T)
    v = np.imag(xi_conj @ h_psi - overlaps * energy)
    return m, v, overlaps


def reference_frame(a, h):
    """``assemble_frame`` as written before the fused sweep: ``gather_sweep``,
    then ``complex_gram``."""
    xi, psi = gather_sweep(a)
    h_psi = _hamiltonian_rows(h, psi)
    energy = float(np.real(np.vdot(psi, h_psi)))
    var_h = float(np.real(np.vdot(h_psi, h_psi)) - energy * energy)
    m, v, overlaps = complex_gram(xi, psi, h_psi, energy)
    return TangentFrame(a, McLachlanSystem(m, v, var_h), psi, h_psi, xi, overlaps, energy)


def brute_force_scores(frame, pool, solver_cfg, l2_before=None):
    """(index, score) for every pool operator: border the system with its
    column, re-solve and difference the distances."""
    if l2_before is None:
        td, _ = solve(frame.system, solver_cfg)
        l2_before = mclachlan_distance(frame.system, td)
    cols, diags, v_news = augment_block(frame, list(pool.operators))
    scores = []
    for idx in range(len(pool)):
        extended = extend_system(frame.system, cols[idx], float(diags[idx]), float(v_news[idx]))
        td, _ = solve(extended, solver_cfg)
        scores.append((idx, l2_before - mclachlan_distance(extended, td)))
    return scores


def dense_sum(h: WeightedPauliSum) -> np.ndarray:
    dim = 1 << h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, p in h.terms:
        out += coeff * dense_pauli(p)
    return out


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def random_pauli(rng: np.random.Generator, n_qubits: int, max_weight: int = 2) -> PauliString:
    weight = int(rng.integers(1, max_weight + 1))
    sites = rng.choice(n_qubits, size=min(weight, n_qubits), replace=False)
    label = ["I"] * n_qubits
    for s in sites:
        label[s] = "XYZ"[rng.integers(3)]
    return PauliString.from_label("".join(label))


def random_hamiltonian(
    rng: np.random.Generator, n_qubits: int, n_terms: int = 4
) -> WeightedPauliSum:
    terms = [(float(rng.normal()), random_pauli(rng, n_qubits)) for _ in range(n_terms)]
    return WeightedPauliSum(n_qubits, terms)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
