"""Statevector operations: Pauli action, rotations, expectations, evolution.

Public functions are pure; inputs are never mutated. The hot kernels also
come in row-block form (operating on a ``(k, 2**n)`` array of states at once)
so tangent-state sweeps stay vectorized. The one exception to purity is the
private rotation kernel ``_rotate_rows``, which overwrites the block it is
given; its callers hand it arrays they own.

A Pauli string is a real matrix iff it has an even number of Y factors, so
the Hamiltonians of the built-in models (tfim, mfim, hm) are real. The dense
oracle diagonalizes those in real arithmetic.
"""

from __future__ import annotations

import functools

import numpy as np

from .pauli import PauliString, WeightedPauliSum


class EvolveError(RuntimeError):
    """Raised when the Krylov propagator cannot meet its error target."""


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


def _pauli_rows(p: PauliString, rows: np.ndarray) -> np.ndarray:
    """Apply a Pauli string to each row of a (k, dim) array."""
    src, signs, phase = _pauli_tables(p.n_qubits, p.x_bits, p.z_bits)
    return phase * (signs * rows[..., src])


@functools.lru_cache(maxsize=4096)
def _rotation_plan(n_qubits: int, x_bits: int, z_bits: int):
    """Strided form of a Pauli's permutation: (axes shape, reversal, coefficients).

    The index bits are split into axes from the most significant bit down:
    every flipped (X or Y) bit is its own length-2 axis and each run of other
    bits is one merged axis. Reversing the flipped axes of a row block
    reshaped to ``(k, *shape)`` then reads ``rows[..., i ^ x_bits]`` at
    position i without a gather. The coefficients are ``phase·signs`` in the
    same shape.
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
    reverse = (slice(None),) + tuple(slice(None, None, -1) if f else slice(None) for f in flipped)
    _, signs, phase = _pauli_tables(n_qubits, x_bits, z_bits)
    coeffs = (phase * signs).reshape(shape)
    coeffs.setflags(write=False)
    return tuple(shape), reverse, coeffs


def _rotate_rows(p: PauliString, theta: float, rows: np.ndarray, buf: np.ndarray) -> None:
    """exp(-i·theta·P) applied in place to each row of a C-contiguous (k, dim) block.

    ``buf`` is C-contiguous scratch with at least k rows of width dim. The
    three operations below round exactly as cos·rows + (-i·sin·phase)·
    (signs·rows[..., src]) does: each product has a factor with one zero
    component. Folding a diagonal P into a single multiply by cos - i·sin·s
    would not, so Z-only strings take the same route.
    """
    shape, reverse, coeffs = _rotation_plan(p.n_qubits, p.x_bits, p.z_bits)
    k = rows.shape[0]
    block = (k,) + shape
    scratch = buf[:k]
    np.multiply(rows.reshape(block)[reverse], (-1j * np.sin(theta)) * coeffs, out=scratch.reshape(block))
    rows *= np.cos(theta)
    rows += scratch


def _hamiltonian_rows(h: WeightedPauliSum, rows: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rows)
    for coeff, p in h.terms:
        src, signs, phase = _pauli_tables(p.n_qubits, p.x_bits, p.z_bits)
        out += (coeff * phase) * (signs * rows[..., src])
    return out


def apply_pauli(p: PauliString, psi: StateVector) -> StateVector:
    """Return P|psi>, with exact phase tracking from Y sites and Z signs."""
    _check_match(p.n_qubits, psi.n_qubits)
    return StateVector(psi.n_qubits, _pauli_rows(p, psi.amplitudes))


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


def _is_real(p: PauliString) -> bool:
    """True iff the matrix of ``p`` is real: an even number of Y factors."""
    return bin(p.x_bits & p.z_bits).count("1") % 2 == 0


def dense_hamiltonian(h: WeightedPauliSum) -> np.ndarray:
    """Dense matrix of H; intended for small systems and oracles.

    The matrix is float64 when every term is real and complex128 otherwise.
    """
    dim = 1 << h.n_qubits
    idx = np.arange(dim, dtype=np.int64)
    real = all(_is_real(p) for _, p in h.terms)
    out = np.zeros((dim, dim), dtype=np.float64 if real else np.complex128)
    for coeff, p in h.terms:
        src, signs, phase = _pauli_tables(p.n_qubits, p.x_bits, p.z_bits)
        scale = coeff * phase  # phase is +-1 for a real term
        # column b of P has its single entry at row b ^ x with the sign of b
        out[idx ^ p.x_bits, idx] += (scale.real if real else scale) * signs[idx ^ p.x_bits]
    return out


def _modes_times(m: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``m @ vec`` for a complex vector. A real ``m`` acts as one real product
    on the (dim, 2) float view of ``vec``, so it is never cast to complex."""
    if np.iscomplexobj(m):
        return m @ vec
    pairs = np.ascontiguousarray(vec).view(np.float64).reshape(-1, 2)
    return (m @ pairs).view(np.complex128).ravel()


def _lanczos(h: WeightedPauliSum, vec: np.ndarray, m_max: int):
    """Lanczos basis with full reorthogonalization.

    Returns (basis rows V (m, dim), alpha (m,), beta (m-1,), residual), where
    residual is the coupling to the next Krylov vector; ~0 means the space is
    invariant and a step of any size is exact within it.
    """
    dim = vec.shape[0]
    m_max = min(m_max, dim)
    basis = np.empty((m_max, dim), dtype=np.complex128)
    alpha = np.empty(m_max)
    beta = np.empty(max(m_max - 1, 0))
    basis[0] = vec
    b = 0.0
    for j in range(m_max):
        w = _hamiltonian_rows(h, basis[j])
        alpha[j] = np.real(np.vdot(basis[j], w))
        w -= alpha[j] * basis[j]
        if j > 0:
            w -= beta[j - 1] * basis[j - 1]
        # full reorthogonalization; m_max is small so this is cheap
        proj = basis[: j + 1].conj() @ w
        w -= basis[: j + 1].T @ proj
        b = float(np.linalg.norm(w))
        if j + 1 == m_max or b < 1e-13:
            return basis[: j + 1], alpha[: j + 1], beta[:j], b
        beta[j] = b
        basis[j + 1] = w / b
    return basis, alpha, beta, b


def _expm_tridiag_e1(alpha: np.ndarray, beta: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale·T)·e1 for the real symmetric tridiagonal T(alpha, beta)."""
    m = alpha.shape[0]
    t = np.diag(alpha)
    if m > 1:
        t += np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
    w, u = np.linalg.eigh(t)
    return u @ (np.exp(scale * w) * u[0, :])


def exact_evolve(
    h: WeightedPauliSum,
    t: float,
    psi0: StateVector,
    krylov_dim: int = 30,
    local_tol: float = 1e-10,
) -> StateVector:
    """exp(-iHt)|psi0> by short-iterate Krylov stepping.

    The step size is adapted so the leaked-amplitude estimate of each
    sub-step stays below ``local_tol``; failure to converge raises
    EvolveError rather than returning a degraded state.
    """
    _check_match(h.n_qubits, psi0.n_qubits)
    if t < 0:
        raise ValueError(f"evolution time must be non-negative, got {t}")
    if t == 0:
        return psi0.copy()
    vec = psi0.amplitudes.copy()
    remaining = t
    tau = t
    substeps = 0
    while remaining > 1e-15 * t:
        tau = min(tau, remaining)
        basis, alpha, beta, residual = _lanczos(h, vec, krylov_dim)
        m = alpha.shape[0]
        while True:
            y = _expm_tridiag_e1(alpha, beta, -1j * tau)
            err = residual * float(abs(y[m - 1]))
            if err < local_tol:
                break
            tau *= 0.5
            if tau < 1e-14 * t:
                raise EvolveError(
                    f"Krylov step size underflow at t={t - remaining:g} "
                    f"(error estimate {err:.3e})"
                )
        vec = basis[:m].T @ y
        nrm = np.linalg.norm(vec)
        if abs(nrm - 1.0) > 1e-8:
            raise EvolveError(f"norm drifted to {nrm} during Krylov stepping")
        vec /= nrm
        remaining -= tau
        tau *= 2.0
        substeps += 1
        if substeps > 1_000_000:
            raise EvolveError("sub-step budget exhausted")
    return StateVector(psi0.n_qubits, vec)


class ExactPropagator:
    """Reusable exp(-iHt)|psi0> evaluator for trajectory infidelities.

    For up to ``dense_cutoff`` qubits the Hamiltonian is diagonalized once
    and states at arbitrary times come from the spectral representation;
    beyond that a running Krylov-stepped state is advanced monotonically.

    When every term of H is real (an even number of Y factors), the dense
    matrix is float64 and ``eigh`` runs in real arithmetic; the real modes
    then act on the complex coefficients through ``_modes_times`` and are
    never cast to complex. A Hamiltonian with a complex term is diagonalized
    as a complex Hermitian matrix.
    """

    def __init__(self, h: WeightedPauliSum, psi0: StateVector, dense_cutoff: int = 12):
        _check_match(h.n_qubits, psi0.n_qubits)
        self._h = h
        self.n_qubits = h.n_qubits
        self._dense = h.n_qubits <= dense_cutoff
        if self._dense:
            w, u = np.linalg.eigh(dense_hamiltonian(h))
            self._eigvals = w
            self._modes = u
            self._coeffs = _modes_times(u.conj().T, psi0.amplitudes)
        else:
            self._t = 0.0
            self._state = psi0.copy()

    def state_at(self, t: float) -> StateVector:
        if self._dense:
            amps = _modes_times(self._modes, np.exp(-1j * self._eigvals * t) * self._coeffs)
            return StateVector(self.n_qubits, amps)
        if t < self._t - 1e-12:
            raise ValueError("Krylov-backed propagator only advances forward in time")
        if t > self._t:
            self._state = exact_evolve(self._h, t - self._t, self._state)
            self._t = t
        return self._state
