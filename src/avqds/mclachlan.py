"""Assembly of the variational equations of motion.

For the current ansatz this produces the metric M (real part of the quantum
geometric tensor, with the global-phase projector), the force vector V and
the energy variance. The squared defect between exact and variational state
derivatives is the quadratic form

    L2(theta_dot) = 2·td'·M·td - 4·V'·td + 2·var_h,

which reduces to 2·(var_h - V'·td) at a solution of M·td = V.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ansatz import Ansatz, swept_state, tangent_states
from .ansatz import prepare_state  # noqa: F401  perfbench/tracing.py wraps it under this module
from .pauli import PauliString, WeightedPauliSum
from .statevector import _hamiltonian_rows, _pauli_into


def symmetric_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (as columns) of a real symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size and np.max(np.abs(m - m.T)) > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    return np.linalg.eigh(m)


@dataclass(frozen=True, eq=False)
class McLachlanSystem:
    m: np.ndarray
    v: np.ndarray
    var_h: float

    @property
    def n_params(self) -> int:
        return self.v.shape[0]

    @functools.cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """``symmetric_eig(m)``, computed on first use: the solve and the
        candidate bounds of one growth iteration share it."""
        return symmetric_eig(self.m)


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """An assembled system together with the states needed to extend it."""

    ansatz: Ansatz
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
    return _frame(a, xi, psi, h_psi, energy, var_h)


def extend_frame(frame: TangentFrame, grown: Ansatz) -> TangentFrame:
    """The frame of ``grown``, which appends generators at angle zero to
    ``frame.ansatz``, without a new sweep.

    The appended rotations are identities, so the old tangents, psi, H·psi,
    the energy and the variance stay; each new tangent is -i·P·psi, and only
    M and V are formed again. It agrees with ``assemble_frame(grown, h)`` up
    to rounding: a fresh sweep merges appended Z-only generators into the
    phase of a Z-only run they extend.
    """
    n = frame.ansatz.n_params
    if grown.generators[:n] != frame.ansatz.generators or not np.array_equal(
        grown.angles, np.append(frame.ansatz.angles, np.zeros(grown.n_params - n))
    ):
        raise ValueError("grown ansatz must extend the frame's ansatz with generators at angle zero")
    block = np.empty((grown.n_params + 1, frame.psi.shape[0]), dtype=np.complex128)
    block[:n] = frame.tangents
    block[-1] = frame.psi
    for k in range(n, grown.n_params):
        _pauli_into(grown.generators[k], -1j, block[-1:], block[k : k + 1])
    xi = block[:-1]
    return _frame(grown, xi, swept_state(xi), frame.h_psi, frame.energy, frame.system.var_h)


def _frame(a, xi, psi, h_psi, energy, var_h) -> TangentFrame:
    """M and V from the tangent rows, in real arithmetic on their float64 view.

    Re<xi_j|xi_k> is one real product of the (N, 2·2**n) view with its
    transpose. <xi|psi> and Im<xi|H·psi> come from one more product, against
    the float views of psi, -i·psi and -i·H·psi, so the rows are never
    conjugated into a copy. numpy forms a product with its own transpose by
    a symmetric rank-k update, so both terms of M, and M, are symmetric bit
    for bit.
    """
    xr = xi.view(np.float64)
    targets = np.stack([psi, -1j * psi, -1j * h_psi]).view(np.float64)
    prod = xr @ targets.T  # (N, 3): Re<xi|psi>, Im<xi|psi>, Im<xi|H psi>
    pairs = np.ascontiguousarray(prod[:, :2])
    m = xr @ xr.T
    m -= pairs @ pairs.T  # Re(<xi_j|psi><psi|xi_k>)
    v = prod[:, 2] - prod[:, 1] * energy
    overlaps = pairs.view(np.complex128).ravel()
    return TangentFrame(
        ansatz=a,
        system=McLachlanSystem(m=m, v=v, var_h=var_h),
        psi=psi,
        h_psi=h_psi,
        tangents=xi,
        overlaps=overlaps,
        energy=energy,
    )


def mclachlan_distance(s: McLachlanSystem, theta_dot: np.ndarray) -> float:
    theta_dot = np.asarray(theta_dot, dtype=float)
    if theta_dot.shape != (s.n_params,):
        raise ValueError(
            f"theta_dot has shape {theta_dot.shape}, system has {s.n_params} parameters"
        )
    value = float(
        2.0 * theta_dot @ s.m @ theta_dot - 4.0 * s.v @ theta_dot + 2.0 * s.var_h
    )
    if value < 0.0 and value >= -_distance_rounding(s, theta_dot):
        return 0.0
    return value


def _distance_rounding(s: McLachlanSystem, theta_dot: np.ndarray) -> float:
    """Rounding bound of the three terms of L2: eps·(N + 1) times their sizes,
    2·||M||·|td|^2 + 4·||V||·|td| + 2·var_h (Frobenius norm of M). A negative
    L2 within it is rounding of a zero distance; a noisy system's genuinely
    negative L2 lies far below it."""
    td = float(np.linalg.norm(theta_dot))
    size = 2.0 * np.linalg.norm(s.m) * td * td + 4.0 * np.linalg.norm(s.v) * td + 2.0 * abs(s.var_h)
    return np.finfo(float).eps * (s.n_params + 1) * size


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
        _pauli_into(op, -1j, psi.reshape(1, -1), new_tangents[j : j + 1])
    c_new = new_tangents.conj() @ psi
    if frame.tangents.shape[0]:
        gram = frame.tangents.conj() @ new_tangents.T  # (N, P)
        cols = np.real(gram - np.outer(frame.overlaps, c_new.conj())).T
    else:
        cols = np.zeros((len(candidates), 0))
    diags = 1.0 - np.abs(c_new) ** 2
    v_new = np.imag(new_tangents.conj() @ frame.h_psi - c_new * frame.energy)
    return cols, diags, v_new


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
