"""Shared fixtures and independent dense-matrix oracles.

The dense oracles here deliberately avoid the package's bitmask kernels:
operators are built as explicit Kronecker products so agreement between the
two routes is meaningful. The one exception is ``_rotation_rows``, the
fancy-index gather that the in-place rotation kernel replaced, and the
tangent sweep ``gather_sweep`` built on it; they are kept as the references
the kernel and the tiled sweep must reproduce bit for bit.
"""

from functools import reduce

import numpy as np
import pytest

from avqds.pauli import PauliString, WeightedPauliSum
from avqds.statevector import _pauli_rows, _pauli_tables

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
