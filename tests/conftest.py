"""Shared fixtures and the slow oracles of the fast paths: one line per rounding regime.

The dense oracles (``dense_pauli``, ``dense_sum``) are explicit Kronecker products, apart from the
package's bitmask kernels. The others must be reproduced bit for bit unless marked "tolerance":

- gathers, with no Z-only run: ``_pauli_rows``, ``_rotation_rows``, ``gather_sweep``, ``gather_hamiltonian_rows``
- the assembly before the fused sweep and the real Gram (tolerance): ``reference_frame``, ``complex_gram``
- the compiled circuit and its workspaces, from the generators alone: ``rebuilt_pass``, ``rebuilt_split_frame``
- the bound-pruned ranking and ``engine._spanned``: ``brute_force_scores``, ``full_ranking``, ``reference_spanned``
- the per-step border's births and carry: ``reference_carried``; its real product (tolerance): ``reference_border``
- the noise plan and one-stream draws, and ``_aggregate``: ``reference_noisy_system``, ``reference_aggregate``
- the LU ridge solve (tolerance) and ``diagnose``: ``reference_tikhonov``, ``reference_diagnostics``
- the Taylor stepper (tolerance): ``hamiltonian_coo``, ``expm_multiply_state``, ``eigh_propagator``

``rebuilt_split_frame`` sweeps the ``rebuilt_pass`` of three ``sliced`` ansätze by ``bound_tangent_states``
and ``bound_prepare_state``: untiled, each tangent born after its own step, steps by ``step_bounds``.
``rows_rotated`` counts the row operations of a compiled pass, and ``index_order`` puts a plan's
coefficients back in index order. ``fresh_interpreter`` runs code in a new Python process, for what
this test process has already imported or set.
"""

import functools
import os
import subprocess
import sys
from collections import namedtuple
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import coo_array
from scipy.sparse.linalg import expm_multiply

from avqds.ansatz import Ansatz
from avqds.engine import CandidateRanking
from avqds.experiment import _fmt_float
from avqds.mclachlan import (McLachlanSystem, TangentFrame, _system, augment_block, border_columns, extend_system,
                             mclachlan_distance)
from avqds.noise import shot_sigma
from avqds.pauli import PauliString, WeightedPauliSum
from avqds.solvers import solve
from avqds.statevector import (
    StateVector,
    _hamiltonian_entries,
    _hamiltonian_rows,
    _pauli_into,
    _pauli_tables,
    _rotate_rows,
    _rotate_views,
    dense_hamiltonian,
)


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    """Each pytest-benchmark case runs once as a plain test, every assertion
    included, unless ``--benchmark-enable`` (or ``--benchmark-only``) asks
    for its timings."""
    if config.pluginmanager.hasplugin("benchmark") and not config.getoption("benchmark_only"):
        config.option.benchmark_disable = True


def pytest_collection_modifyitems(config, items):
    """Without the pytest-benchmark plugin, not installed or turned off by
    ``-p no:benchmark``, every case that asks for its ``benchmark`` fixture
    skips instead of failing to find it."""
    if config.pluginmanager.hasplugin("benchmark"):
        return
    skip = pytest.mark.skip(reason="needs the pytest-benchmark plugin")
    for item in items:
        if "benchmark" in getattr(item, "fixturenames", ()):
            item.add_marker(skip)


def fresh_interpreter(code, *args, **env):
    """``python -c code args...`` in a new interpreter that imports the package from this
    tree, with the variables ``env`` added to the environment; the finished process, its
    output as text."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )


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


def index_order(plan, coeffs) -> np.ndarray:
    """A plan's coefficient array, or one shaped as it, back in index order as (1, dim)."""
    if plan.item is None:
        coeffs = coeffs.transpose(np.argsort(plan.order))
    return coeffs.reshape(1, -1)


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


def step_bounds(generators):
    """(first, stop) of each step of a pass: every contiguous run of Z-only
    generators (``x_bits == 0``) is one step, every other generator a step
    of its own."""
    bounds = []
    first = 0
    while first < len(generators):
        stop = first + 1
        if not generators[first].x_bits:
            while stop < len(generators) and not generators[stop].x_bits:
                stop += 1
        bounds.append((first, stop))
        first = stop
    return bounds


def _phase(phase, rows, buf):
    rows *= phase


def _run_births(signs, psi, out):
    np.multiply(-1j * signs, psi, out=out)


class BoundPass(namedtuple("BoundPass", "n_qubits reference steps n_params")):
    """A pass bound to its angles and to the state it starts from. Its steps
    are (first, stop, apply, birth), counted from the start of the pass:
    ``apply(rows, buf)`` acts in place on a C-contiguous row block with
    scratch ``buf``; ``birth(psi, out)`` writes -i·P_k·psi for the step's
    generators into ``out`` from a (1, dim) ``psi``."""

    def apply(self, rows):
        buf = np.empty_like(rows)
        for _, _, apply, _ in self.steps:
            apply(rows, buf)


def bound_prepare_state(p):
    """``prepare_state`` of a bound pass."""
    rows = p.reference.reshape(1, -1).copy()
    p.apply(rows)
    return StateVector(p.n_qubits, rows[0])


def bound_tangent_states(p, out=None, carried=0):
    """``tangent_states`` of a bound pass in one untiled block, each tangent
    born right after its own step: a step acts on the ``carried`` rows of
    ``out`` (kept ahead of the tangents), the rows born before it and the
    running row."""
    n = p.n_params
    block = np.empty((n + 1, 1 << p.n_qubits), dtype=np.complex128) if out is None else out[: carried + n + 1]
    buf = np.empty_like(block)
    born = block[carried:]
    born[0] = p.reference
    for first, stop, apply, birth in p.steps:
        apply(block[: carried + first + 1], buf)
        born[stop] = born[first]
        birth(born[stop : stop + 1], born[first:stop])
    return born[:n]


def rebuilt_pass(a):
    """The pass of ``a`` rebuilt from its generators, as every step did before
    the circuit was compiled: ``step_bounds``, then per step a rotation by
    ``_rotate_rows`` (a plan lookup and scalar sin and cos) or one phase
    multiply for a run of Z-only generators."""
    gens, angles = a.generators, a.angles
    steps = []
    for first, stop in step_bounds(gens):
        if gens[first].x_bits:
            apply = functools.partial(_rotate_rows, gens[first], angles[first])
            birth = functools.partial(_pauli_into, gens[first], -1j)
        else:
            signs = np.stack([_pauli_tables(a.n_qubits, 0, g.z_bits)[1] for g in gens[first:stop]])
            apply = functools.partial(_phase, np.exp(-1j * (angles[first:stop] @ signs)))
            birth = functools.partial(_run_births, signs)
        steps.append((first, stop, apply, birth))
    return BoundPass(a.n_qubits, a.reference.amplitudes, steps, a.n_params)


def sliced(a, start, reference, inverse=False):
    """The ansatz of the generators of ``a`` from ``start`` on, run from the
    amplitudes ``reference``; with ``inverse``, the one that undoes them:
    in reverse order, at negated angles."""
    gens, angles = a.generators[start:], a.angles[start:]
    if inverse:
        gens, angles = gens[::-1], -angles[::-1]
    return Ansatz(StateVector(a.n_qubits, reference), gens, angles)


def rebuilt_split_frame(a, h, m):
    """``mclachlan._split_frame`` rebuilt from the generators alone: the
    prefix (generators [0, m) from the reference), the suffix ([m, N) from
    psi_m) and the inverse suffix ([m, N) undone, from psi, with H·psi
    carried) are each the ``rebuilt_pass`` of a sliced ansatz."""
    n, dim = a.n_params, 1 << a.n_qubits
    block = np.empty((n + 1, dim), dtype=np.complex128)
    prefix = Ansatz(a.reference, a.generators[:m], a.angles[:m])
    bound_tangent_states(rebuilt_pass(prefix), out=block)
    psi = bound_prepare_state(rebuilt_pass(sliced(a, m, block[m]))).amplitudes
    h_psi = _hamiltonian_rows(h, psi)
    energy = float(np.real(np.vdot(psi, h_psi)))
    var_h = float(np.real(np.vdot(h_psi, h_psi)) - energy * energy)
    inverse = rebuilt_pass(sliced(a, m, psi, inverse=True))
    back = np.empty((n - m + 2, dim), dtype=np.complex128)  # H·psi, rows N-1..m, psi
    back[0] = h_psi
    block[m:n] = bound_tangent_states(inverse, out=back, carried=1)[::-1]
    block[n] = back[-1]
    system, overlaps = _system(block[:n], block[n], back[0], energy, var_h)
    return TangentFrame(a, system, psi, h_psi, block[:n], overlaps, energy, m, block[n], back[0].copy())


def rows_rotated(p):
    """Rows that the calls of a compiled ``Pass`` apply steps to, summed: the
    rows of each rotation and of each Z-only run's phase multiply, those of
    the tile flushes included."""
    total = 0
    for fn, args in p.calls:
        if fn is _rotate_views:
            total += args[3].shape[0]
        elif fn is np.multiply:  # a phase multiply; births and copies are other functions
            total += args[0].shape[0]
    return total


def reference_spanned(ansatz, candidates):
    """``engine._spanned`` with its anticommutation parity folded inline, as
    it was before ``pauli.anticommutes``."""
    def bits(ops):
        return (np.array([p.x_bits for p in ops], dtype=np.uint64),
                np.array([p.z_bits for p in ops], dtype=np.uint64))

    gx, gz = bits(ansatz.generators)
    px, pz = (b[:, None] for b in bits(candidates))
    odd = (px & gz) ^ (pz & gx)
    for shift in (32, 16, 8, 4, 2, 1):
        odd ^= odd >> np.uint64(shift)
    moves = (odd & np.uint64(1)).astype(bool) & (ansatz.angles != 0)
    blocked = np.zeros_like(moves)
    blocked[:, :-1] = np.logical_or.accumulate(moves[:, :0:-1], axis=1)[:, ::-1]
    return np.any((px == gx) & (pz == gz) & ~blocked, axis=1)


def gather_hamiltonian_rows(h, rows):
    """H·rows by one fancy-index gather per term, as before ``_pauli_into``."""
    out = np.zeros_like(rows)
    for coeff, p in h.terms:
        src, signs, phase = _pauli_tables(p.n_qubits, p.x_bits, p.z_bits)
        out += (coeff * phase) * (signs * rows[..., src])
    return out


def swept_state(tangents):
    """The prepared state that ``tangent_states`` leaves in the row after its result."""
    return tangents.base[tangents.shape[0]]


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
    return TangentFrame(a, McLachlanSystem(m, v, var_h), psi, h_psi, xi, overlaps, energy, a.n_params, psi, h_psi)


def reference_carried(frame, candidates):
    """Each candidate's tangent -i·P·psi by ``_pauli_into``, carried back to
    the frame's split by the ``rebuilt_pass`` that undoes the generators
    after it, and its overlap and force element, all made afresh on every
    call."""
    psi = frame.psi.reshape(1, -1)
    rows = np.empty((len(candidates), psi.shape[1]), dtype=np.complex128)
    for j, op in enumerate(candidates):
        _pauli_into(op, -1j, psi, rows[j : j + 1])
    overlaps = rows.conj() @ frame.psi
    forces = np.imag(rows.conj() @ frame.h_psi - overlaps * frame.energy)
    rebuilt_pass(sliced(frame.ansatz, frame.split, frame.psi, inverse=True)).apply(rows)
    return rows, overlaps, forces


def bordered(frame, candidates):
    """(columns, diagonals, forces) of the candidates: ``augment_block``, then
    ``border_columns`` against the same frame."""
    border = augment_block(frame, candidates)
    return border_columns(frame, border), border.diags, border.v_new


def reference_border(frame, candidates):
    """``bordered`` with the births and carry of ``reference_carried`` and the
    columns from the complex Gram of a conjugated copy of the tangents."""
    rows, c_new, v_new = reference_carried(frame, candidates)
    gram = frame.tangents.conj() @ rows.T  # (N, P)
    cols = np.real(gram - np.outer(frame.overlaps, c_new.conj())).T
    return cols, 1.0 - np.abs(c_new) ** 2, v_new


def brute_force_scores(frame, pool, solver_cfg, l2_before=None, border=None):
    """(index, score) for every pool operator: border the system with its
    column, re-solve and difference the distances. The border is
    ``bordered``'s unless one is given."""
    if l2_before is None:
        td = solve(frame.system, solver_cfg)
        l2_before = mclachlan_distance(frame.system, td)
    cols, diags, v_news = bordered(frame, pool.operators) if border is None else border
    scores = []
    for idx in range(len(pool)):
        extended = extend_system(frame.system, cols[idx], float(diags[idx]), float(v_news[idx]))
        td = solve(extended, solver_cfg)
        scores.append((idx, l2_before - mclachlan_distance(extended, td)))
    return scores


def full_ranking(scores):
    """``CandidateRanking`` of precomputed (index, score) pairs: each bound is
    the score itself."""
    table = dict(scores)
    return CandidateRanking(table, table.__getitem__)


def _reference_draws(means, cfg, rng):
    sigmas = shot_sigma(means, cfg.n_shots)
    draws = rng.normal(means, sigmas)
    if cfg.truncate_sigmas is not None:
        half_width = cfg.truncate_sigmas * sigmas
        draws = np.clip(draws, means - half_width, means + half_width)
    return draws


def reference_noisy_system(s, layout, cfg, rng):
    """``noisy_system`` with its noisy mask built on every call, draws from
    ``rng.normal(means, sigmas)`` and 2-D fancy gathers and scatters."""
    n = s.n_params
    if np.isinf(cfg.n_shots) or n == 0:
        return s
    deep = layout.prefix_depths() > cfg.d_c
    rows, cols = np.triu_indices(n)
    noisy = deep[cols]
    if not np.any(noisy) and not cfg.noisy_v:
        return s
    m = s.m.copy()
    if np.any(noisy):
        r, c = rows[noisy], cols[noisy]
        draws = _reference_draws(m[r, c], cfg, rng)
        m[r, c] = draws
        m[c, r] = draws
    v = s.v
    if cfg.noisy_v and np.any(deep):
        v = v.copy()
        v[deep] = _reference_draws(v[deep], cfg, rng)
    return McLachlanSystem(m=m, v=v, var_h=s.var_h)


def reference_aggregate(per_run):
    """``_aggregate`` as a loop over the grid: a cursor per run moves to its
    latest record at or before t + 1e-15, then a 1-D mean and std per field."""
    grid = sorted({r.t for records in per_run for r in records})
    fields = ("n_params", "l2", "depth", "cnot_count", "dt", "energy", "infidelity")
    header = ["t", "n_runs"]
    for f in fields:
        name = "cnots" if f == "cnot_count" else f
        header += [f"{name}_mean", f"{name}_std"]
    lines = [",".join(header)]
    cursors = [0] * len(per_run)
    current = [records[0] for records in per_run]
    for t in grid:
        for i, records in enumerate(per_run):
            while cursors[i] + 1 < len(records) and records[cursors[i] + 1].t <= t + 1e-15:
                cursors[i] += 1
            current[i] = records[cursors[i]]
        row = [_fmt_float(t), str(len(per_run))]
        for f in fields:
            values = np.array([float(getattr(r, f)) for r in current])
            row.append(_fmt_float(float(np.mean(values))))
            row.append(_fmt_float(float(np.std(values, ddof=1)) if len(values) > 1 else 0.0))
        lines.append(",".join(row))
    return lines


def reference_tikhonov(s, epsilon):
    """(M + epsilon·I)^-1·V through the eigendecomposition of M."""
    w, u = np.linalg.eigh(s.m)
    return u @ ((u.T @ s.v) / (w + epsilon))


def reference_diagnostics(s, theta_dot, epsilon):
    """The ``SolveDiagnostics`` fields of a solve, from a decomposition of its own."""
    if s.n_params == 0:
        return dict(n_null=0, min_eigenvalue=np.inf, max_eigenvalue=-np.inf, residual=0.0, null_defect=0.0)
    w, u = np.linalg.eigh(s.m)
    null = w <= epsilon
    y = u.T @ s.v
    return dict(
        n_null=int(np.sum(null)),
        min_eigenvalue=float(w[0]),
        max_eigenvalue=float(w[-1]),
        residual=float(np.linalg.norm(s.m @ theta_dot - s.v)),
        null_defect=float(np.max(np.abs(y[null]))) if null.any() else 0.0,
    )


def hamiltonian_coo(h: WeightedPauliSum) -> coo_array:
    """H as a COO matrix of its per-term entries (``_hamiltonian_entries``);
    its ``toarray()`` sums duplicate entries in term order."""
    dim = 1 << h.n_qubits
    dtype, entries = _hamiltonian_entries(h)
    # the empty seeds give an empty H its shape and dtype
    rows = np.concatenate([np.empty(0, dtype=np.int64)] + [src for src, _ in entries])
    vals = np.concatenate([np.empty(0, dtype=dtype)] + [values for _, values in entries])
    cols = np.tile(np.arange(dim, dtype=np.int64), len(entries))
    return coo_array((vals, (rows, cols)), shape=(dim, dim))


def expm_multiply_state(h: WeightedPauliSum, t: float, amps: np.ndarray) -> np.ndarray:
    """exp(-iHt)·amps by scipy's ``expm_multiply`` on the CSR form of H."""
    return expm_multiply((-1j * t) * hamiltonian_coo(h).tocsr(), amps)


def eigh_propagator(h: WeightedPauliSum, amps: np.ndarray):
    """t -> exp(-iHt)·amps from one dense ``eigh`` of H, at any size."""
    w, u = np.linalg.eigh(dense_hamiltonian(h))
    coeffs = u.conj().T @ amps
    return lambda t: u @ (np.exp(-1j * w * t) * coeffs)


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
