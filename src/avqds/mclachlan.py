"""Assembly of the variational equations of motion.

For the current ansatz this produces the metric M (real part of the quantum
geometric tensor, with the global-phase projector), the force vector V and
the energy variance. The squared defect between exact and variational state
derivatives is the quadratic form

    L2(theta_dot) = 2·td'·M·td - 4·V'·td + 2·var_h,

which reduces to 2·(var_h - V'·td) at a solution of M·td = V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import Ansatz, swept_state, tangent_states
from .ansatz import prepare_state  # noqa: F401  perfbench/tracing.py wraps it under this module
from .pauli import PauliString, WeightedPauliSum
from .statevector import _hamiltonian_rows, _pauli_rows


@dataclass(frozen=True, eq=False)
class McLachlanSystem:
    m: np.ndarray
    v: np.ndarray
    var_h: float

    @property
    def n_params(self) -> int:
        return self.v.shape[0]


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """An assembled system together with the states needed to extend it."""

    ansatz: Ansatz
    hamiltonian: WeightedPauliSum
    system: McLachlanSystem
    psi: np.ndarray
    h_psi: np.ndarray
    tangents: np.ndarray
    overlaps: np.ndarray  # <tangent_k|psi>
    energy: float


def assemble_frame(a: Ansatz, h: WeightedPauliSum) -> TangentFrame:
    if h.n_qubits != a.n_qubits:
        raise ValueError("Hamiltonian and ansatz qubit counts differ")
    xi = tangent_states(a)
    psi = swept_state(xi)
    h_psi = _hamiltonian_rows(h, psi)
    energy = float(np.real(np.vdot(psi, h_psi)))
    var_h = float(np.real(np.vdot(h_psi, h_psi)) - energy * energy)
    xi_conj = xi.conj()
    gram = xi_conj @ xi.T
    overlaps = xi_conj @ psi
    m = np.real(gram - np.outer(overlaps, overlaps.conj()))
    m = 0.5 * (m + m.T)
    v = np.imag(xi_conj @ h_psi - overlaps * energy)
    return TangentFrame(
        ansatz=a,
        hamiltonian=h,
        system=McLachlanSystem(m=m, v=v, var_h=var_h),
        psi=psi,
        h_psi=h_psi,
        tangents=xi,
        overlaps=overlaps,
        energy=energy,
    )


def assemble_system(a: Ansatz, h: WeightedPauliSum) -> McLachlanSystem:
    return assemble_frame(a, h).system


def mclachlan_distance(s: McLachlanSystem, theta_dot: np.ndarray) -> float:
    theta_dot = np.asarray(theta_dot, dtype=float)
    if theta_dot.shape != (s.n_params,):
        raise ValueError(
            f"theta_dot has shape {theta_dot.shape}, system has {s.n_params} parameters"
        )
    value = float(
        2.0 * theta_dot @ s.m @ theta_dot - 4.0 * s.v @ theta_dot + 2.0 * s.var_h
    )
    if -1e-10 <= value < 0.0:
        return 0.0
    return value


def augment_block(frame: TangentFrame, candidates: list[PauliString]):
    """New M column and V element for each candidate appended with angle 0.

    Each candidate's tangent is -i·A|psi> (no trailing rotations follow it),
    so one Pauli application plus inner products against the stored tangents
    gives the full border of the extended system.

    Returns ``(cols, diags, v_new)`` with shapes (P, N), (P,), (P,).
    """
    psi = frame.psi
    new_tangents = np.empty((len(candidates), psi.shape[0]), dtype=np.complex128)
    for j, op in enumerate(candidates):
        new_tangents[j] = -1j * _pauli_rows(op, psi)
    c_new = new_tangents.conj() @ psi
    if frame.tangents.shape[0]:
        gram = frame.tangents.conj() @ new_tangents.T  # (N, P)
        cols = np.real(gram - np.outer(frame.overlaps, c_new.conj())).T
    else:
        cols = np.zeros((len(candidates), 0))
    diags = 1.0 - np.abs(c_new) ** 2
    v_new = np.imag(new_tangents.conj() @ frame.h_psi - c_new * frame.energy)
    return cols, diags, v_new


def augment_candidate(frame: TangentFrame, candidate: PauliString):
    """Border entries for one candidate: (M column incl. diagonal, V element)."""
    cols, diags, v_new = augment_block(frame, [candidate])
    column = np.concatenate([cols[0], diags[:1]])
    return column, float(v_new[0])


def extend_system(s: McLachlanSystem, col: np.ndarray, diag: float, v_new: float) -> McLachlanSystem:
    """The (N+1)-parameter system obtained by bordering with one candidate."""
    n = s.n_params
    m = np.empty((n + 1, n + 1))
    m[:n, :n] = s.m
    m[:n, n] = col
    m[n, :n] = col
    m[n, n] = diag
    v = np.append(s.v, v_new)
    return McLachlanSystem(m=m, v=v, var_h=s.var_h)
