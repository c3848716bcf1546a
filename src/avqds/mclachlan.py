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
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ansatz import Ansatz, apply_slice, prepare_state, tangent_states
from .pauli import PauliString, WeightedPauliSum
from .statevector import _multiply_views, _planned_views, _rotation_plan, _run


@dataclass(frozen=True, eq=False)
class McLachlanSystem:
    """M·theta_dot = V with the energy variance. M must be symmetric: every
    builder here makes it so bit for bit, and the solve reads one triangle
    of it without checking."""

    m: np.ndarray
    v: np.ndarray
    var_h: float

    @property
    def n_params(self) -> int:
        return self.v.shape[0]

    @functools.cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh(m)``, computed on first use: a truncated solve
        and the candidate bounds of one growth iteration share it. Other
        solvers leave it to the bounds or to ``diagnose``."""
        return np.linalg.eigh(self.m)


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """An assembled system together with the states needed to extend it.

    ``psi`` and ``h_psi`` are the prepared state and H·psi at the end of the
    circuit; the oracle reads ``psi``. The tangent rows are held in the frame
    of the step boundary ``split`` of the circuit instead: undoing the
    generators after it (``apply_slice`` with ``inverse``) carries a state
    from the end of the circuit there. ``frame_psi`` and ``frame_h_psi`` are
    psi and H·psi so carried. M, V and the overlaps do not depend on the
    frame, since one unitary acts on every tangent row and on psi and H·psi
    alike. With split = N the frame is the end of the circuit.
    """

    ansatz: Ansatz
    system: McLachlanSystem
    psi: np.ndarray
    h_psi: np.ndarray
    tangents: np.ndarray
    overlaps: np.ndarray  # <tangent_k|psi>
    energy: float
    split: int
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

    The passes run in the circuit's ``Workspace`` for m, built at the first
    assembly there; the frame copies its rows out of it, so no frame shares
    memory with a later assembly.
    """
    n, dim, ws = a.n_params, 1 << a.n_qubits, a.circuit.workspace(m)
    prefix, suffix, inverse = ws.load(a.reference.amplitudes, a.angles)
    head = tangent_states(prefix)
    psi = prepare_state(suffix).amplitudes.copy()
    h_psi = ws.apply_hamiltonian(h).copy()
    tail = tangent_states(inverse)
    energy = float(np.real(np.vdot(psi, h_psi)))
    var_h = float(np.real(np.vdot(h_psi, h_psi)) - energy * energy)
    back = inverse.block  # H·psi, rows N-1..m, psi
    block = np.empty((n + 1, dim), dtype=np.complex128)
    block[:m] = head
    block[m:n] = tail[::-1]
    block[n] = back[-1]
    xi, frame_h_psi = block[:n], back[0].copy()
    system, overlaps = _system(xi, block[n], frame_h_psi, energy, var_h)
    return TangentFrame(a, system, psi, h_psi, xi, overlaps, energy, m, block[n], frame_h_psi)


# Fixed cost of one step of a pass over the circuit, in amplitudes of row
# work. Fitted with one thread to the assembly times of TFIM HVA ansätze at
# 6, 8 and 10 qubits (N = 32 to 128, seven splits each against the forward
# sweep) when every assembly built its steps and their views: about 11 µs a
# step against 2.5 ns an amplitude. With it a 6-qubit HVA of 96 generators
# splits at m = 80 and one of 64 generators, where every split measured
# slower, does not split. Since each split point's ``Workspace`` holds its
# kernel calls, a one-row step costs 3.5-4.2 µs at 6 qubits and 5.0-5.2 µs
# at 8 (the suffix pass of the 96- and 128-generator HVAs, loading the
# angles included), so 4,000 overstates it about 2.5-fold. The rows that
# ``_split_point`` counts are those of a sweep that births each tangent after
# its own step; a sweep births a run of commuting generators at its end, so
# inside such runs the count is an upper bound. Both stay as they are: a
# refit moves split points, and with them the bits of the outputs.
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
    from rotating more rows than the forward sweep. These are the rows of
    births after each step; births at the end of a commuting run rotate
    fewer. It is computed once per circuit and pool size.
    """
    n, dim, splits = a.n_params, 1 << a.n_qubits, a.circuit.splits
    if pool_size >= n or pool_size in splits:
        return splits.get(pool_size, n)
    steps = a.circuit.steps
    after = [n - step.stop + 3 + pool_size for step in steps]  # rows of a step after the split
    ahead = sum(after)
    done = 0  # rows before the split
    best, split = math.inf, n
    for s, (first, *_) in enumerate(steps):
        if first >= pool_size:
            cost = dim * (done + ahead) + _STEP_AMPLITUDES * (2 * len(steps) - s)
            if cost < best:
                best, split = cost, first
        done += first + 1
        ahead -= after[s]
    splits[pool_size] = split if best < dim * done + _STEP_AMPLITUDES * len(steps) else n
    return splits[pool_size]


def extend_frame(frame: TangentFrame, grown: Ansatz, border: Border) -> TangentFrame:
    """The frame of ``grown``, which appends generators at angle zero to
    ``frame.ansatz``, without a new sweep.

    The appended rotations are identities, so the old tangents, psi, H·psi,
    the energy, the variance and the frame's split stay; each new tangent is
    -i·P·psi carried back to the split, and only M and V are formed again.
    The new rows are those of ``border``, the growth step's border
    (``augment_block``) of a candidate list that holds every appended
    generator, made on the step's assembled frame; ``ValueError`` names an
    appended generator it does not hold.
    It agrees with ``assemble_frame(grown, h)`` up to rounding: a fresh sweep
    merges appended Z-only generators into the phase of a Z-only run they
    extend, and may split elsewhere.
    """
    n = frame.ansatz.n_params
    if grown.generators[:n] != frame.ansatz.generators or not np.array_equal(
        grown.angles, np.append(frame.ansatz.angles, np.zeros(grown.n_params - n))
    ):
        raise ValueError("grown ansatz must extend the frame's ansatz with generators at angle zero")
    try:
        new = [border.index[g] for g in grown.generators[n:]]
    except KeyError as err:
        raise ValueError(f"the border holds no row for the appended generator {err.args[0]}") from None
    xi = np.empty((grown.n_params, frame.psi.shape[0]), dtype=np.complex128)
    xi[:n] = frame.tangents
    xi[n:] = border.rows[new]
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


class _Births:
    """The kernel calls that write -i·P·psi for each P of a candidate list
    into the scratch block ``rows``, from psi copied into the fixed row
    ``psi``, built once per candidate list (``_births``) as a ``Workspace``
    is per split point. Each call is the one ``statevector._pauli_into``
    makes, so the rows are its rows bit for bit. ``index`` maps each
    candidate to its row. Every border of the list is born in the same
    block, so no border keeps it: ``augment_block`` copies the rows out."""

    def __init__(self, candidates: tuple[PauliString, ...], dim: int):
        self.psi = np.empty((1, dim), dtype=np.complex128)
        self.rows = np.empty((len(candidates), dim), dtype=np.complex128)
        self.calls = []
        for j, p in enumerate(candidates):
            plan, row = _rotation_plan(p.n_qubits, p.x_bits, p.z_bits), self.rows[j : j + 1]
            src, dst = _planned_views(plan, self.psi, row)
            self.calls.append((_multiply_views, (plan, src, -1j * plan.coeffs, dst, row)))
        self.index = {p: j for j, p in enumerate(candidates)}


@functools.lru_cache(maxsize=4)
def _births(candidates: tuple[PauliString, ...], dim: int) -> _Births:
    return _Births(candidates, dim)


# The border of one candidate list in one growth step (``augment_block``):
# the candidates' tangents carried back to the split, one row each at
# ``index``, <cand|psi>, the force elements and the diagonals.
Border = namedtuple("Border", "rows index overlaps v_new diags")


def augment_block(frame: TangentFrame, candidates: Sequence[PauliString]) -> Border:
    """The border of ``candidates`` appended to the assembled frame's ansatz
    at angle zero.

    Each candidate's tangent is -i·A|psi> (no trailing rotations follow
    it), born by kernel calls built once per candidate list, bit for bit
    ``statevector._pauli_into``. Its overlap and force element are taken at
    the end of the circuit, from a conjugated copy of the born rows;
    conjugated back in place, which is exact, the copy is carried back to
    the frame's split by ``apply_slice``, P·(N - m) row rotations, and
    becomes the border's own rows. The arrays are read-only.

    Appending generators at angle zero changes neither psi, H·psi nor the
    split, so a growth step makes its border once, on its assembled frame:
    ``extend_frame`` takes the appended tangents from it, and
    ``border_columns`` forms its columns against each frame of the step.
    A grown frame is no input here: its split need not be a step boundary
    of the grown circuit, as appended Z-only generators extend a Z-only run.
    """
    candidates = tuple(candidates)
    births = _births(candidates, frame.psi.shape[0])
    births.psi[0] = frame.psi
    _run(births.calls)
    rows = births.rows.conj()
    overlaps = rows @ frame.psi
    v_new = np.imag(rows @ frame.h_psi - overlaps * frame.energy)
    np.conjugate(rows, out=rows)
    a = frame.ansatz
    if frame.split < a.n_params:
        apply_slice(a.circuit, a.angles, rows, frame.split, inverse=True)
    diags = 1.0 - np.abs(overlaps) ** 2
    for values in (rows, overlaps, v_new, diags):
        values.setflags(write=False)
    return Border(rows, births.index, overlaps, v_new, diags)


def border_columns(frame: TangentFrame, border: Border) -> np.ndarray:
    """The (P, N) M columns of ``border`` against the tangents of ``frame``,
    the frame it was made on or one that ``extend_frame`` grew from it.

    Re<xi|cand> is one real product of the float64 views of the carried rows
    and of the tangents, as ``_system`` forms M, with no conjugated copy; it
    moves the columns from those of the complex Gram at rounding level.
    """
    cols = border.rows.view(np.float64) @ frame.tangents.view(np.float64).T
    cols -= np.real(np.outer(border.overlaps.conj(), frame.overlaps))
    return cols


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
