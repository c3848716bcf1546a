"""Quench setups on periodic spin chains, with every fact tied to a model.

Each model provides the pre-quench Hamiltonian (whose eigenstate is the
initial state), the post-quench Hamiltonian driving the dynamics, the
couplings of the quench studied for its kind, the matching operator pool
convention (field Ising chains use single-site plus nearest-neighbour
generators, the Heisenberg chain two-site generators only) and the
brick-wall grouping of its terms used by the product formula and the
layered fixed ansatz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pauli import PauliString, WeightedPauliSum
from .statevector import StateVector, variance

# couplings of each kind's quench; fields left out are zero
KIND_FIELDS = {
    "tfim": {"j": 1.0, "h_x": -2.0},
    "mfim": {"j": 1.0, "h_x": -2.0, "h_z": 0.5},
    "hm": {"j": 1.0},
}
KINDS = tuple(KIND_FIELDS)
DEFAULT_KIND = "tfim"
# the ModelSpec fields a kind sets (KIND_FIELDS)
COUPLINGS = ("j", "h_x", "h_z")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    n_qubits: int
    j: float = 1.0
    h_x: float = 0.0
    h_z: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"model.kind must be one of {KINDS}, got {self.kind!r}")
        if self.n_qubits < 3:
            raise ValueError(
                "model.n_qubits must be at least 3 (periodic bonds would double up)"
            )
        for name in COUPLINGS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"model.{name} must be finite, got {value}")
            if value != 0.0 and name not in KIND_FIELDS[self.kind]:
                raise ValueError(f"model.{name} must be 0: {self.kind} couples only {', '.join(KIND_FIELDS[self.kind])}")


def default_model(kind: str = DEFAULT_KIND, n_qubits: int = 8) -> ModelSpec:
    """The model of a kind with its quench couplings; an unknown kind fails in ModelSpec."""
    return ModelSpec(kind, n_qubits, **KIND_FIELDS.get(kind, {}))


@dataclass(frozen=True)
class OperatorPool:
    n_qubits: int
    operators: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operators", tuple(self.operators))
        seen = set()
        for op in self.operators:
            if op.n_qubits != self.n_qubits:
                raise ValueError("pool operator qubit count mismatch")
            if op.weight < 1:
                raise ValueError("identity operators are not allowed in the pool")
            key = (op.x_bits, op.z_bits)
            if key in seen:
                raise ValueError(f"duplicate pool operator {op.label()}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.operators)


def nearest_neighbour_pool(n_qubits: int, include_single_qubit: bool = True) -> OperatorPool:
    """Single-site X/Y/Z plus all two-site Pauli pairs on PBC bonds."""
    ops: list[PauliString] = []
    if include_single_qubit:
        for q in range(n_qubits):
            for letter in "XYZ":
                ops.append(PauliString.single(n_qubits, q, letter))
    for i in range(n_qubits):
        j = (i + 1) % n_qubits
        for a in "XYZ":
            for b in "XYZ":
                ops.append(PauliString.two_site(n_qubits, (i, j), a + b))
    return OperatorPool(n_qubits, tuple(ops))


def greedy_sublayers(h: WeightedPauliSum) -> tuple[tuple[int, ...], ...]:
    """First-fit partition of term indices into disjoint-support groups.

    Terms are packed in construction order; for the chains built here that
    gives the brick-wall pattern, e.g. even bonds / odd bonds / transverse
    fields for the transverse-field Ising chain.
    """
    groups: list[list[int]] = []
    masks: list[int] = []
    for idx, (_, p) in enumerate(h.terms):
        for g_idx, mask in enumerate(masks):
            if mask & p.support_mask == 0:
                groups[g_idx].append(idx)
                masks[g_idx] |= p.support_mask
                break
        else:
            groups.append([idx])
            masks.append(p.support_mask)
    return tuple(tuple(g) for g in groups)


def _bonds(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def neel_index(n_qubits: int) -> int:
    """Basis index of the alternating up/down product state."""
    return sum(1 << i for i in range(1, n_qubits, 2))


def build_model(spec: ModelSpec) -> tuple[WeightedPauliSum, WeightedPauliSum, StateVector]:
    """Return (pre-quench H0, post-quench H, initial state).

    The initial state is checked to be an H0 eigenstate (zero variance) so a
    run with H = H0 is exactly stationary.
    """
    n = spec.n_qubits
    if spec.kind in ("tfim", "mfim"):
        zz = [(-spec.j, PauliString.two_site(n, b, "ZZ")) for b in _bonds(n)]
        h0 = WeightedPauliSum(n, zz)
        fields = [(spec.h_x, PauliString.single(n, i, "X")) for i in range(n)]
        if spec.kind == "mfim":
            fields += [(spec.h_z, PauliString.single(n, i, "Z")) for i in range(n)]
        h = WeightedPauliSum(n, zz + fields)
        psi0 = StateVector.basis_state(n, 0)  # all spins up
    else:
        zz = [(spec.j, PauliString.two_site(n, b, "ZZ")) for b in _bonds(n)]
        h0 = WeightedPauliSum(n, zz)
        exchange = [
            (spec.j, PauliString.two_site(n, b, letters))
            for b in _bonds(n)
            for letters in ("XX", "YY", "ZZ")
        ]
        h = WeightedPauliSum(n, exchange)
        psi0 = StateVector.basis_state(n, neel_index(n))
    drift = variance(h0, psi0)
    if drift > 1e-10:
        raise AssertionError(
            f"initial state is not an eigenstate of the pre-quench Hamiltonian "
            f"(variance {drift:.3e})"
        )
    return h0, h, psi0


def model_pool(spec: ModelSpec) -> OperatorPool:
    """Default adaptive-growth pool for a model."""
    return nearest_neighbour_pool(spec.n_qubits, include_single_qubit=spec.kind != "hm")


def hamiltonian_term_pool(spec: ModelSpec) -> OperatorPool:
    """Pool restricted to the generators appearing in the quench Hamiltonian."""
    _, h, _ = build_model(spec)
    return OperatorPool(spec.n_qubits, tuple(p for _, p in h.terms))


def model_sublayers(spec: ModelSpec) -> tuple[tuple[int, ...], ...]:
    """Brick-wall sub-layer grouping of the post-quench Hamiltonian terms.

    Periodic brick-wall packing needs an even chain; odd sizes are rejected
    rather than silently regrouped.
    """
    if spec.n_qubits % 2:
        raise ValueError(
            f"brick-wall grouping needs an even number of qubits, got {spec.n_qubits}"
        )
    _, h, _ = build_model(spec)
    return greedy_sublayers(h)
