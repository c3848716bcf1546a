"""Assembly of the variational equations of motion.

For the current ansatz this produces the metric M (real part of the quantum
geometric tensor, with the global-phase projector), the force vector V and
the energy variance. The squared defect between exact and variational state
derivatives is the quadratic form

    L2(theta_dot) = 2·td'·M·td - 4·V'·td + 2·var_h,

which reduces to 2·(var_h - V'·td) at a solution of M·td = V.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .ansatz import Ansatz, _apply_circuit, _step_bounds, prepare_state, tangent_states
from .pauli import PauliString, WeightedPauliSum
from .statevector import StateVector, _hamiltonian_rows, _pauli_into


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
    """An assembled system together with the states needed to extend it.

    ``psi`` and ``h_psi`` are the prepared state and H·psi at the end of the
    circuit; the oracle reads ``psi``. The tangent rows are held in the frame
    of a step boundary m of the circuit instead: ``inverse_suffix`` is the
    circuit after m run backwards from psi, and its steps carry a state from
    the end of the circuit to m. ``frame_psi`` and ``frame_h_psi`` are psi and
    H·psi so carried. M, V and the overlaps do not depend on the frame, since
    one unitary acts on every tangent row and on psi and H·psi alike. With
    m = N the suffix is empty and the frame is the end of the circuit.
    """

    ansatz: Ansatz
    system: McLachlanSystem
    psi: np.ndarray
    h_psi: np.ndarray
    tangents: np.ndarray
    overlaps: np.ndarray  # <tangent_k|psi>
    energy: float
    inverse_suffix: Ansatz
    frame_psi: np.ndarray
    frame_h_psi: np.ndarray


def assemble_frame(a: Ansatz, h: WeightedPauliSum, pool_size: int = 0) -> TangentFrame:
    """The tangent frame of ``a`` under ``h``, split where ``_split_point``
    puts it. ``pool_size`` is the number of candidates ``augment_block``
    will carry back to the split on a growth step; the split stays at or
    after it."""
    if h.n_qubits != a.n_qubits:
        raise ValueError("Hamiltonian and ansatz qubit counts differ")
    return _split_frame(a, h, _split_point(a, pool_size))


def _split_frame(a: Ansatz, h: WeightedPauliSum, m: int) -> TangentFrame:
    """The frame of ``a`` with its tangent rows at step boundary m.

    Rows 0..m-1 are the tangents of the first m generators, whose sweep
    leaves psi_m as its last row; the rest of the circuit applied to psi_m
    is psi, bit for bit ``prepare_state(a)``. Rows m..N-1 are the tangents
    of the inverse suffix (the generators after m reversed, angles negated)
    swept from psi: for generator k its row is U_m^†···U_k^†·(-i·P_k)·
    U_{k+1}^†···U_{N-1}^†·psi, the tangent of the full circuit carried back
    to m, and the sweep leaves psi carried back as its last row; H·psi rides
    along in the same sweep. Rotating the rows is the sweep's O(N^2·2^n)
    cost: about m^2/2 + (N-m)^2/2 rows instead of N^2/2. With m = N the
    suffix is empty, the carried states are psi and H·psi themselves, and
    the result is that of one forward sweep bit for bit.
    """
    n, dim = a.n_params, 1 << a.n_qubits
    gens, angles = a.generators, a.angles
    block = np.empty((n + 1, dim), dtype=np.complex128)
    tangent_states(Ansatz(a.reference, gens[:m], angles[:m]), out=block)
    psi = prepare_state(Ansatz(StateVector(a.n_qubits, block[m]), gens[m:], angles[m:])).amplitudes
    h_psi = _hamiltonian_rows(h, psi)
    energy = float(np.real(np.vdot(psi, h_psi)))
    var_h = float(np.real(np.vdot(h_psi, h_psi)) - energy * energy)
    inverse = Ansatz(StateVector(a.n_qubits, psi), gens[m:][::-1], -angles[m:][::-1])
    back = np.empty((n - m + 2, dim), dtype=np.complex128)  # H·psi, rows N-1..m, psi
    back[0] = h_psi
    block[m:n] = tangent_states(inverse, out=back, carried=1)[::-1]
    block[n] = back[-1]
    xi = block[:n]
    system, overlaps = _system(xi, block[n], back[0], energy, var_h)
    return TangentFrame(a, system, psi, h_psi, xi, overlaps, energy, inverse, block[n], back[0].copy())


# Fixed cost of one step of a pass over the circuit, in amplitudes of row
# work: building the step and calling its kernel. Fitted with one thread to
# the assembly times of TFIM HVA ansätze at 6, 8 and 10 qubits (N = 32 to
# 128, seven splits each against the forward sweep): about 11 µs a step
# against 2.5 ns an amplitude. With it a 6-qubit HVA of 96 generators
# splits at m = 80 and one of 64 generators, where every split measured
# slower, does not split.
_STEP_AMPLITUDES = 4000


def _split_point(a: Ansatz, pool_size: int = 0) -> int:
    """The step boundary m >= ``pool_size`` at which ``_split_frame`` does the
    least work, or N when no split beats the forward sweep.

    The work counts rows, each 2**n amplitudes, plus ``_STEP_AMPLITUDES``
    per step of each pass. A step before m meets the rows born before it
    and the running row. A step after m is taken twice, by the suffix pass
    on one row and by the inverse sweep on the rows born before it there,
    its running row and H·psi; a growth iteration takes it again on the
    ``pool_size`` candidate rows ``augment_block`` carries back to m, and
    those rows are counted as if every step grew. The split saves at least
    m·(N - m) rows, so m >= ``pool_size`` also keeps one growth iteration
    from rotating more rows than the forward sweep.
    """
    n, dim = a.n_params, 1 << a.n_qubits
    if pool_size >= n:
        return n
    steps = _step_bounds(a.generators)
    after = [n - stop + 3 + pool_size for _, stop in steps]  # rows of a step after the split
    ahead = sum(after)
    done = 0  # rows before the split
    best, split = math.inf, n
    for s, (first, _) in enumerate(steps):
        if first >= pool_size:
            cost = dim * (done + ahead) + _STEP_AMPLITUDES * (2 * len(steps) - s)
            if cost < best:
                best, split = cost, first
        done += first + 1
        ahead -= after[s]
    return split if best < dim * done + _STEP_AMPLITUDES * len(steps) else n


def extend_frame(frame: TangentFrame, grown: Ansatz) -> TangentFrame:
    """The frame of ``grown``, which appends generators at angle zero to
    ``frame.ansatz``, without a new sweep.

    The appended rotations are identities, so the old tangents, psi, H·psi,
    the energy, the variance and the frame's split stay; each new tangent is
    -i·P·psi carried back to the split, and only M and V are formed again.
    It agrees with ``assemble_frame(grown, h)`` up to rounding: a fresh sweep
    merges appended Z-only generators into the phase of a Z-only run they
    extend, and may split elsewhere.
    """
    n = frame.ansatz.n_params
    if grown.generators[:n] != frame.ansatz.generators or not np.array_equal(
        grown.angles, np.append(frame.ansatz.angles, np.zeros(grown.n_params - n))
    ):
        raise ValueError("grown ansatz must extend the frame's ansatz with generators at angle zero")
    xi = np.empty((grown.n_params, frame.psi.shape[0]), dtype=np.complex128)
    xi[:n] = frame.tangents
    for k in range(n, grown.n_params):
        _pauli_into(grown.generators[k], -1j, frame.psi.reshape(1, -1), xi[k : k + 1])
    _apply_circuit(frame.inverse_suffix, xi[n:])
    system, overlaps = _system(xi, frame.frame_psi, frame.frame_h_psi, frame.energy, frame.system.var_h)
    return dataclasses.replace(frame, ansatz=grown, system=system, tangents=xi, overlaps=overlaps)


def _system(xi, psi, h_psi, energy, var_h) -> tuple[McLachlanSystem, np.ndarray]:
    """M and V, and <xi|psi>, from the tangent rows, in real arithmetic on
    their float64 view.

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
    return McLachlanSystem(m=m, v=v, var_h=var_h), pairs.view(np.complex128).ravel()


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
    so one Pauli application plus inner products gives the full border of
    the extended system. Its overlap and force element are taken at the end
    of the circuit; its products with the stored tangents after carrying it
    back to the frame's split, P·(N - m) row rotations.

    Returns ``(cols, diags, v_new)`` with shapes (P, N), (P,), (P,).
    """
    psi = frame.psi
    new_tangents = np.empty((len(candidates), psi.shape[0]), dtype=np.complex128)
    for j, op in enumerate(candidates):
        _pauli_into(op, -1j, psi.reshape(1, -1), new_tangents[j : j + 1])
    c_new = new_tangents.conj() @ psi
    v_new = np.imag(new_tangents.conj() @ frame.h_psi - c_new * frame.energy)
    if frame.tangents.shape[0]:
        _apply_circuit(frame.inverse_suffix, new_tangents)
        gram = frame.tangents.conj() @ new_tangents.T  # (N, P)
        cols = np.real(gram - np.outer(frame.overlaps, c_new.conj())).T
    else:
        cols = np.zeros((len(candidates), 0))
    diags = 1.0 - np.abs(c_new) ** 2
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
