"""Statevector operations: Pauli action, rotations, expectations, evolution.

Public functions are pure; inputs are never mutated. The hot kernels also
come in row-block form (operating on a ``(k, 2**n)`` array of states at once)
so tangent-state sweeps stay vectorized. The exceptions to purity are the
private kernels, which overwrite or write into the blocks they are given;
their callers hand them arrays they own.

A Pauli's action on a row block is one elementwise product through strided
views (``_rotation_plan``). Whether a flip runs near the contiguous rate
depends on the flipped qubits: with the lowest one at qubit 2 or above, the
blocks of amplitudes below it are copied as single items and multiplied in
one contiguous pass; below that the row axis is iterated first and the
longest axis last, so each row stays in L1. At 8 qubits and 32 rows that
took X on qubit 2 from 4.6 to 3.1 ns per amplitude and the slowest flip
pattern, XY on qubits 1 and 2, from 5.4 to 4.1, against 2.1–2.3 for X on
qubit 0 or 7.

A Pauli string is a real matrix iff it has an even number of Y factors, so
the Hamiltonians of the built-in models (tfim, mfim, hm) are real. The exact
oracle diagonalizes those densely, in real arithmetic, up to
``_DENSE_MAX_QUBITS``; above that it steps exp(-iHt) by a truncated Taylor
series on the Pauli terms, grouped by the bits they flip. The module needs
numpy alone.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from .pauli import PauliString, WeightedPauliSum


# Largest system the exact oracle diagonalizes densely. Timed on TFIM with
# one thread, dt = 0.005, medians over 5 runs of 100 calls: at 10 qubits the
# Taylor stepper sets up in 1.1 ms and takes 0.51 ms a call, against 207 ms
# of dense ``eigh`` and 0.84 ms a call. At 9 qubits a stepped call takes
# 0.32 ms against 0.08 ms after 30 ms of ``eigh``, so the dense path pays
# off within about 125 calls, a run's worth; it stays, and with it the bits
# of every output at 9 qubits or fewer.
_DENSE_MAX_QUBITS = 9

# Taylor stepper (``ExactPropagator._advance``): each substep covers at most
# _TAYLOR_SPAN of tau·sum|c_t|, and its sum stops once the last two terms are
# below _TAYLOR_TOL of the running sum. At a span of 4 the worst case (a
# bound that is tight) needs 33 terms and the largest term is 4**4/4! ~ 11
# times the state, so rounding stays near eps. _TAYLOR_MAX_TERMS only stops a
# sum gone non-finite; the norm check then raises.
_TAYLOR_SPAN = 4.0
_TAYLOR_TOL = 2.0**-53
_TAYLOR_MAX_TERMS = 60


class EvolveError(RuntimeError):
    """Raised when the Taylor stepper returns a state whose norm is not that
    of its input (including a non-finite one)."""


class StateVector:
    """A 2**n_qubits complex amplitude vector; qubit 0 is the index LSB."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (1 << n_qubits,):
            raise ValueError(
                f"expected {1 << n_qubits} amplitudes, got shape {amplitudes.shape}"
            )
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    @classmethod
    def basis_state(cls, n_qubits: int, index: int = 0) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


def _check_match(n_a: int, n_b: int) -> None:
    if n_a != n_b:
        raise ValueError(f"qubit-count mismatch: {n_a} vs {n_b}")


@functools.lru_cache(maxsize=4096)
def _pauli_tables(n_qubits: int, x_bits: int, z_bits: int):
    """Per-string gather table: (source indices, source signs, Y phase)."""
    dim = 1 << n_qubits
    idx = np.arange(dim, dtype=np.int64)
    src = idx ^ x_bits
    # parity of popcount(src & z_bits) via xor-fold
    v = src & z_bits
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    signs = 1.0 - 2.0 * (v & 1)
    phase = 1j ** (bin(x_bits & z_bits).count("1") % 4)
    src.setflags(write=False)
    signs.setflags(write=False)
    return src, signs, complex(phase)


_Plan = namedtuple("_Plan", "shape reverse order coeffs pauli item")

# Lowest flipped qubit from which a plan gathers whole blocks (``item``)
# instead of iterating strided axes; see ``_rotation_plan``.
_GATHER_FROM_QUBIT = 2


@functools.lru_cache(maxsize=4096)
def _rotation_plan(n_qubits: int, x_bits: int, z_bits: int) -> _Plan:
    """Strided form of a Pauli's permutation: (axes shape, reversal, axis order, coefficients, Pauli, item).

    The index bits are split into axes from the most significant bit down:
    every flipped (X or Y) bit is its own length-2 axis and each run of other
    bits is one merged axis. Reversing the flipped axes of a row block
    reshaped to ``(k, *shape)`` then reads ``rows[..., i ^ x_bits]`` at
    position i without a gather.

    Where the lowest flipped qubit q is at least ``_GATHER_FROM_QUBIT``, the
    run of the q bits below it becomes ``item``, one opaque item of 2**q
    amplitudes (a cache line or more): the block is copied item by item,
    reversed on the flipped axes above, and the coefficients multiply the
    copy in one contiguous pass. Otherwise ``item`` is None, and one strided
    multiply reads and writes through the views in ``order``, axis 0 being
    the row axis: the row axis first and the longest axis last, so each row
    (4 KiB at 8 qubits) stays in L1 while the short axes revisit it. A flip
    of qubit 0 alone keeps its flip axis outermost and the row axis just
    before the long axis, which numpy merges with it into one loop over the
    rows for a pure-X string.

    The rule was chosen per flip pattern by ``tests/test_kernel_bench.py``
    (one thread, ns per amplitude at 8 qubits and 32 rows). The previous
    order, every short axis outside the row axis, took 4.6 on X at qubit 2,
    5.3 on Y at qubit 2 and 5.4 on XY at qubits (1, 2), against 2.1–2.3 on
    X at qubits 0 and 7; these now take 3.1, 3.8 and 4.1. Gathering items of
    one or two amplitudes (q = 0, 1) was slower than either strided order,
    and rows first was slower for a flip of qubit 0 alone (3.3 against 2.3).

    The coefficients are ``phase·signs``, shaped ``(1, *shape)`` and put in
    that order, or ``(1, 2**n)`` in index order with an ``item``. When they
    are all equal (every pure-X string) they are one Python complex instead.
    Both the layout and the order depend on ``x_bits`` alone, so plans that
    flip the same bits can sum their coefficients.
    """
    shape: list[int] = []
    flipped: list[bool] = []
    run = 0
    for q in range(n_qubits - 1, -1, -1):
        if x_bits >> q & 1:
            if run:
                shape.append(1 << run)
                flipped.append(False)
                run = 0
            shape.append(2)
            flipped.append(True)
        else:
            run += 1
    if run:
        shape.append(1 << run)
        flipped.append(False)
    low = (x_bits & -x_bits).bit_length() - 1  # lowest flipped qubit, -1 for none
    axes, item = list(range(1, len(shape) + 1)), None
    if low >= _GATHER_FROM_QUBIT:
        item = np.dtype((np.void, 16 << low))
        del shape[-1], flipped[-1], axes[-1]
        order = (0, *axes)
    else:
        longest = 1 + shape.index(max(shape))
        axes.remove(longest)
        order = (*axes, 0, longest) if x_bits == 1 else (0, *axes, longest)
    reverse = (slice(None),) + tuple(slice(None, None, -1) if f else slice(None) for f in flipped)
    _, signs, phase = _pauli_tables(n_qubits, x_bits, z_bits)
    coeffs = phase * signs
    if np.all(coeffs == coeffs[0]):
        coeffs = complex(coeffs[0])
    else:
        coeffs = coeffs.reshape(1, -1) if item is not None else coeffs.reshape((1, *shape)).transpose(order)
        coeffs.setflags(write=False)
    return _Plan(tuple(shape), reverse, order, coeffs, PauliString(n_qubits, x_bits, z_bits), item)


def _planned_views(plan: _Plan, src: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The views through which ``_multiply_views`` reads ``src`` and writes
    ``out``, both C-contiguous (k, dim) blocks: ``src`` reversed on the
    flipped axes, both in the plan's axis order, as items if it has one."""
    block = (src.shape[0], *plan.shape)
    if plan.item is not None:
        return src.view(plan.item).reshape(block)[plan.reverse], out.view(plan.item).reshape(block)
    return src.reshape(block)[plan.reverse].transpose(plan.order), out.reshape(block).transpose(plan.order)


def _multiply_views(plan: _Plan, src: np.ndarray, coeffs, dst: np.ndarray, out: np.ndarray) -> None:
    """out = coeffs·src[..., i ^ x_bits] through ``src`` and ``dst``, the
    plan's ``_planned_views`` of two blocks that do not overlap, ``dst``
    viewing ``out`` and ``coeffs`` shaped as ``plan.coeffs``. Strided views
    take one multiply, iterated in the plan's axis order (``order="C"`` on
    the transposed views keeps numpy from sorting the axes back by stride);
    item views take one copy, then one multiply of ``out`` in place."""
    if plan.item is None:
        np.multiply(src, coeffs, out=dst, order="C")
    else:
        np.copyto(dst, src)
        np.multiply(out, coeffs, out=out)


def _pauli_into(p: PauliString, scale: complex, src: np.ndarray, out: np.ndarray) -> None:
    """out = scale·P·src for C-contiguous (k, dim) blocks; ``out`` must not overlap ``src``.

    ``phase·signs`` is ±1 or ±i, so when ``scale`` is real or imaginary every
    product has a factor with one zero component, and each output component
    is rounded once whatever the loop order, SIMD path or FMA use: the result
    equals ``scale·(phase·(signs·src[..., i ^ x_bits]))`` bit for bit, up to
    the sign of a zero.
    """
    plan = _rotation_plan(p.n_qubits, p.x_bits, p.z_bits)
    view, dst = _planned_views(plan, src, out)
    _multiply_views(plan, view, scale * plan.coeffs, dst, out)


def _run(calls: list) -> None:
    """Make prebuilt kernel calls, each a (function, args) pair, in order."""
    for fn, args in calls:
        fn(*args)


def _rotate_views(plan: _Plan, coeffs, cos, rows: np.ndarray, src: np.ndarray, scratch: np.ndarray,
                  dst: np.ndarray) -> None:
    """exp(-i·theta·P) applied in place to each row of a C-contiguous (k, dim)
    block, from P's plan, ``coeffs`` = -i·sin(theta)·``plan.coeffs`` and
    ``cos`` = cos(theta), through ``src`` and ``dst``, the ``_planned_views``
    of ``rows`` and of ``scratch``, k rows of scratch.

    The three operations below round exactly as cos·rows + (-i·sin·phase)·
    (signs·rows[..., src]) does: the multiply by the imaginary scale rounds
    once per component (see ``_pauli_into``), and so does the real cos. Only
    the first, ``_multiply_views``, depends on the flipped qubits, and only
    in the order it visits the amplitudes.
    """
    if plan.item is None:  # _multiply_views inline, one call less on a one-row block
        np.multiply(src, coeffs, out=dst, order="C")
    else:
        np.copyto(dst, src)
        np.multiply(scratch, coeffs, out=scratch)
    rows *= cos
    rows += scratch


def _rotate_rows(p: PauliString, theta: float, rows: np.ndarray, buf: np.ndarray) -> None:
    """``_rotate_views`` for one Pauli and angle, with scratch from ``buf``,
    which has at least as many rows as ``rows``."""
    plan = _rotation_plan(p.n_qubits, p.x_bits, p.z_bits)
    scratch = buf[: rows.shape[0]]
    src, dst = _planned_views(plan, rows, scratch)
    _rotate_views(plan, -1j * np.sin(theta) * plan.coeffs, np.cos(theta), rows, src, scratch, dst)


def _hamiltonian_calls(h: WeightedPauliSum, src: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> list:
    """The ``_run`` calls that write H·src into ``out``, C-contiguous (k, dim)
    blocks, with scratch the size of ``out``: ``out`` zeroed, then per term
    its ``_pauli_into`` product in ``scratch`` added to it. Each call holds
    its strided views, so the list is built once for fixed blocks."""
    calls = [(out.fill, (0.0,))]
    for coeff, p in h.terms:
        plan = _rotation_plan(p.n_qubits, p.x_bits, p.z_bits)
        view, dst = _planned_views(plan, src, scratch)
        calls += [(_multiply_views, (plan, view, np.asarray(coeff * plan.coeffs), dst, scratch)),
                  (np.add, (out, scratch, out))]
    return calls


def _hamiltonian_rows(h: WeightedPauliSum, rows: np.ndarray) -> np.ndarray:
    """H·rows for one state or a (k, dim) block, by ``_hamiltonian_calls``."""
    src = rows.reshape(-1, rows.shape[-1])
    out, scratch = np.empty(src.shape, dtype=np.complex128), np.empty(src.shape, dtype=np.complex128)
    _run(_hamiltonian_calls(h, src, out, scratch))
    return out.reshape(rows.shape)


def apply_pauli(p: PauliString, psi: StateVector) -> StateVector:
    """Return P|psi>, with exact phase tracking from Y sites and Z signs."""
    _check_match(p.n_qubits, psi.n_qubits)
    out = np.empty((1, 1 << psi.n_qubits), dtype=np.complex128)
    _pauli_into(p, 1.0, psi.amplitudes.reshape(1, -1), out)
    return StateVector(psi.n_qubits, out[0])


def apply_rotation(p: PauliString, theta: float, psi: StateVector) -> StateVector:
    """Return exp(-i·theta·P)|psi> = cos(theta)|psi> - i·sin(theta)·P|psi>."""
    _check_match(p.n_qubits, psi.n_qubits)
    rows = psi.amplitudes.reshape(1, -1).copy()
    _rotate_rows(p, theta, rows, np.empty_like(rows))
    return StateVector(psi.n_qubits, rows[0])


def apply_hamiltonian(h: WeightedPauliSum, psi: StateVector) -> StateVector:
    """Return H|psi> (generally unnormalized)."""
    _check_match(h.n_qubits, psi.n_qubits)
    return StateVector(psi.n_qubits, _hamiltonian_rows(h, psi.amplitudes))


def inner(psi: StateVector, phi: StateVector) -> complex:
    """<psi|phi> with conjugation on the first argument."""
    _check_match(psi.n_qubits, phi.n_qubits)
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))


def expectation(h: WeightedPauliSum, psi: StateVector) -> float:
    """<psi|H|psi> for normalized psi and Hermitian H."""
    _check_match(h.n_qubits, psi.n_qubits)
    h_psi = _hamiltonian_rows(h, psi.amplitudes)
    return float(np.real(np.vdot(psi.amplitudes, h_psi)))


def variance(h: WeightedPauliSum, psi: StateVector) -> float:
    """<H^2> - <H>^2, computed from the single product state H|psi>."""
    _check_match(h.n_qubits, psi.n_qubits)
    h_psi = _hamiltonian_rows(h, psi.amplitudes)
    e = np.real(np.vdot(psi.amplitudes, h_psi))
    return float(np.real(np.vdot(h_psi, h_psi)) - e * e)


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|^2 for normalized states."""
    _check_match(psi.n_qubits, phi.n_qubits)
    return float(abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2)


def _hamiltonian_entries(h: WeightedPauliSum) -> tuple[np.dtype, list[tuple[np.ndarray, np.ndarray]]]:
    """H term by term, as (dtype, [(rows, values)] per term): column b of
    each term P has its single entry at row b ^ x with value
    coeff·phase·(sign of b).

    The dtype is float64 when every term is real (an even number of Y
    factors) and complex128 otherwise.
    """
    real = all(bin(p.x_bits & p.z_bits).count("1") % 2 == 0 for _, p in h.terms)
    entries = []
    for coeff, p in h.terms:
        src, signs, phase = _pauli_tables(p.n_qubits, p.x_bits, p.z_bits)
        scale = coeff * phase  # phase is +-1 for a real term
        entries.append((src, (scale.real if real else scale) * signs[src]))
    return np.dtype(np.float64 if real else np.complex128), entries


def dense_hamiltonian(h: WeightedPauliSum) -> np.ndarray:
    """Dense matrix of H; intended for small systems and oracles.

    The matrix is float64 when every term is real and complex128 otherwise.
    Each term's ``_hamiltonian_entries`` are added to a zeroed matrix in term
    order. Within one term the rows are a permutation of the columns, so one
    ``+=`` writes no entry twice, and the sums round as the duplicate entries
    of a COO matrix built from the same entries do on ``toarray()``.
    """
    dim = 1 << h.n_qubits
    dtype, entries = _hamiltonian_entries(h)
    out = np.zeros((dim, dim), dtype=dtype)
    cols = np.arange(dim, dtype=np.int64)
    for src, values in entries:
        out[src, cols] += values
    return out


def _modes_times(m: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``m @ vec`` for a complex vector. A real ``m`` acts as one real product
    on the (dim, 2) float view of ``vec``, so it is never cast to complex."""
    if np.iscomplexobj(m):
        return m @ vec
    pairs = np.ascontiguousarray(vec).view(np.float64).reshape(-1, 2)
    return (m @ pairs).view(np.complex128).ravel()


def _norm(vec: np.ndarray) -> float:
    """2-norm by one BLAS dot (``np.linalg.norm`` takes two and twice the time)."""
    return math.sqrt(np.vdot(vec, vec).real)


def exact_evolve(h: WeightedPauliSum, t: float, psi0: StateVector) -> StateVector:
    """exp(-iHt)|psi0>, from a fresh ``ExactPropagator``, which raises
    ``ValueError`` for a negative t (it only goes forward) and whose stepper
    raises ``EvolveError`` rather than return a state that lost its norm."""
    return ExactPropagator(h, psi0).state_at(t)


class ExactPropagator:
    """Reusable exp(-iHt)|psi0> evaluator for trajectory infidelities.

    For up to ``_DENSE_MAX_QUBITS`` qubits the Hamiltonian is diagonalized once
    and states at arbitrary times come from the spectral representation.
    When every term of H is real (an even number of Y factors), the dense
    matrix is float64 and ``eigh`` runs in real arithmetic; the real modes
    then act on the complex coefficients through ``_modes_times`` and are
    never cast to complex. A Hamiltonian with a complex term is diagonalized
    as a complex Hermitian matrix.

    Beyond that size a running state is advanced monotonically by a Taylor
    stepper, with no set-up beyond grouping the terms: H is held as one
    coefficient vector per set of flipped bits x (one diagonal group, and
    for TFIM one group per X field), laid out as ``_rotation_plan(n, x, 0)``
    lays out its coefficients, so H·v is one ``_multiply_views`` and one add
    per group. The views of the propagator's one-row buffers are built here
    once.
    A step whose result does not keep the norm raises ``EvolveError``.

    Both paths only go forward: a time below the latest one asked for (or
    below 0) raises ``ValueError``.
    """

    def __init__(self, h: WeightedPauliSum, psi0: StateVector):
        _check_match(h.n_qubits, psi0.n_qubits)
        self.n_qubits = n = h.n_qubits
        self._t = 0.0
        self._dense = n <= _DENSE_MAX_QUBITS
        if self._dense:
            w, u = np.linalg.eigh(dense_hamiltonian(h))
            self._eigvals = w
            self._modes = u
            self._coeffs = _modes_times(u.conj().T, psi0.amplitudes)
            return
        self._state = psi0.copy()
        self._norm_bound = sum(abs(coeff) for coeff, _ in h.terms)  # bounds ||H||_2
        groups: dict[int, np.ndarray | complex] = {0: 0.0}  # x_bits -> summed coefficients
        for coeff, p in h.terms:
            groups[p.x_bits] = groups.get(p.x_bits, 0.0) + coeff * _rotation_plan(n, p.x_bits, p.z_bits).coeffs
        self._term, self._h_term, self._flip = np.empty((3, 1, 1 << n), dtype=np.complex128)
        self._groups = []
        for x, coeffs in sorted(groups.items()):
            out = self._h_term if x == 0 else self._flip
            plan = _rotation_plan(n, x, 0)
            src, dst = _planned_views(plan, self._term, out)
            self._groups.append((plan, src, coeffs, dst, out))

    def _apply_h(self) -> None:
        """``_h_term`` = H·``_term``: the diagonal group writes it, and each
        flip group is multiplied into ``_flip`` and added."""
        diagonal, *flips = self._groups
        _multiply_views(*diagonal)
        for group in flips:
            _multiply_views(*group)
            self._h_term += self._flip

    def _advance(self, tau: float) -> np.ndarray:
        """exp(-iH·tau) of the running state by the truncated Taylor series
        with scaling of Al-Mohy and Higham ("Computing the action of the
        matrix exponential", SIAM J. Sci. Comput. 33, 2011), the algorithm
        behind ``scipy.sparse.linalg.expm_multiply``. The substep count
        comes from tau·sum|c_t| (see ``_TAYLOR_SPAN``)."""
        vec = self._state.amplitudes
        substeps = max(1, math.ceil(tau * self._norm_bound / _TAYLOR_SPAN))
        out = vec.copy()
        term = self._term[0]
        for _ in range(substeps):
            term[:] = out
            c1 = _norm(term)
            for k in range(1, _TAYLOR_MAX_TERMS + 1):
                self._apply_h()
                np.multiply(self._h_term, -1j * tau / (substeps * k), out=self._term)
                out += term
                c2 = _norm(term)
                if c1 + c2 <= _TAYLOR_TOL * _norm(out):
                    break
                c1 = c2
        nrm, nrm0 = _norm(out), _norm(vec)
        if not abs(nrm - nrm0) <= 1e-8 * nrm0:
            raise EvolveError(f"norm went from {nrm0} to {nrm} over t={tau:g}")
        return out

    def state_at(self, t: float) -> StateVector:
        if t < self._t - 1e-12:
            raise ValueError(f"the propagator only goes forward in time: asked for t={t} after t={self._t}")
        if self._dense:
            self._t = max(self._t, t)
            amps = _modes_times(self._modes, np.exp(-1j * self._eigvals * t) * self._coeffs)
            return StateVector(self.n_qubits, amps)
        if t > self._t:
            self._state = StateVector(self.n_qubits, self._advance(t - self._t))
            self._t = t
        return self._state
