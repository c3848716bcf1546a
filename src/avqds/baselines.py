"""Product-formula evolution and the layered fixed ansatz.

Both order Hamiltonian terms by sub-layers of pairwise-disjoint support,
by default the brick-wall grouping ``models.greedy_sublayers``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import Ansatz, cnot_cost
from .models import greedy_sublayers
from .pauli import WeightedPauliSum
from .statevector import StateVector, _rotate_rows


def _validate_sublayers(h: WeightedPauliSum, sublayers) -> None:
    seen: set[int] = set()
    for group in sublayers:
        mask = 0
        for idx in group:
            if idx in seen:
                raise ValueError(f"term {idx} appears in more than one sub-layer")
            seen.add(idx)
            support = h.terms[idx][1].support_mask
            if mask & support:
                raise ValueError("sub-layer contains overlapping supports")
            mask |= support
    if len(seen) != len(h.terms):
        raise ValueError("every Hamiltonian term must appear in exactly one sub-layer")


def build_hva(
    h: WeightedPauliSum,
    reference: StateVector,
    layers: int,
    sublayers: tuple[tuple[int, ...], ...] | None = None,
) -> Ansatz:
    """Layered ansatz with one rotation per Hamiltonian term per layer.

    Angles start at zero, so the prepared state is the reference state. With
    ``layers=0`` this degenerates to the empty ansatz.
    """
    if layers < 0:
        raise ValueError("layer count must be non-negative")
    if sublayers is None:
        sublayers = greedy_sublayers(h)
    _validate_sublayers(h, sublayers)
    order = [idx for group in sublayers for idx in group]
    generators = tuple(h.terms[idx][1] for _ in range(layers) for idx in order)
    return Ansatz(reference, generators, np.zeros(len(generators)))


@dataclass(frozen=True, eq=False)
class TrotterResult:
    times: np.ndarray
    states: tuple[StateVector, ...]
    depths: np.ndarray  # cumulative gate-layer count at each boundary
    cnot_counts: np.ndarray


def trotter_run(
    h: WeightedPauliSum,
    psi0: StateVector,
    dt: float,
    t_final: float,
    sublayers: tuple[tuple[int, ...], ...] | None = None,
) -> TrotterResult:
    """First-order product-formula evolution with per-step resource counts.

    Each step applies exp(-i·dt·c·P) for every term, sub-layer by sub-layer;
    depth grows by the sub-layer count per step and the two-qubit gate count
    by the staircase cost of all terms.
    """
    if not dt > 0:
        raise ValueError("trotter step must be positive")
    if not t_final > 0:
        raise ValueError("final time must be positive")
    if h.n_qubits != psi0.n_qubits:
        raise ValueError("qubit-count mismatch")
    if sublayers is None:
        sublayers = greedy_sublayers(h)
    _validate_sublayers(h, sublayers)
    order = [idx for group in sublayers for idx in group]
    n_steps = max(1, int(np.ceil(t_final / dt - 1e-9)))
    depth_per_step = len(sublayers)
    cnots_per_step = sum(cnot_cost(p) for _, p in h.terms)

    rows = psi0.amplitudes.reshape(1, -1).copy()
    buf = np.empty_like(rows)
    states = [StateVector(psi0.n_qubits, rows[0].copy())]
    for _ in range(n_steps):
        for idx in order:
            coeff, p = h.terms[idx]
            _rotate_rows(p, dt * coeff, rows, buf)
        states.append(StateVector(psi0.n_qubits, rows[0].copy()))
    steps = np.arange(n_steps + 1)
    return TrotterResult(
        times=steps * dt,
        states=tuple(states),
        depths=steps * depth_per_step,
        cnot_counts=steps * cnots_per_step,
    )
