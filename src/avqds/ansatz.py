"""Ordered Pauli-rotation ansatz and its packing into disjoint-support layers.

The ansatz state is ``U_{N-1}···U_1 U_0 |ref>`` with ``U_k = exp(-i·angle_k·
generator_k)``; generator index order is circuit time order. Layering is
as-soon-as-possible: a unitary lands in the earliest layer after every
earlier-indexed unitary that shares a qubit with it, so the layer assignment
of a prefix of the ansatz never depends on what comes later.
"""

from __future__ import annotations

import bisect
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliString, WeightedPauliSum, anticommutes, masks
from .statevector import (StateVector, _hamiltonian_calls, _multiply_views, _pauli_tables, _planned_views,
                          _rotate_views, _rotation_plan, _run)


@dataclass(frozen=True, eq=False)
class Ansatz:
    """A reference state, generators and their angles. The generators are
    compiled once into ``circuit``, which ``with_angles`` shares and
    ``extended`` extends."""

    reference: StateVector
    generators: tuple[PauliString, ...] = ()
    angles: np.ndarray = field(default_factory=lambda: np.zeros(0))
    circuit: Circuit | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        angles = np.array(self.angles, dtype=float)
        angles.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        if len(self.generators) != angles.shape[0]:
            raise ValueError("generator and angle counts differ")
        if self.circuit is None:
            object.__setattr__(self, "circuit", Circuit(self.n_qubits).extended(self.generators))
        elif self.circuit.generators is not self.generators:
            raise ValueError("circuit was compiled for other generators")

    @property
    def n_qubits(self) -> int:
        return self.reference.n_qubits

    @property
    def n_params(self) -> int:
        return len(self.generators)

    def with_angles(self, angles: np.ndarray) -> "Ansatz":
        return Ansatz(self.reference, self.generators, angles, self.circuit)

    def extended(self, new_generators) -> "Ansatz":
        """Append generators with angle 0; the prepared state is unchanged."""
        circuit = self.circuit.extended(new_generators)
        angles = np.concatenate([self.angles, np.zeros(len(circuit.generators) - self.n_params)])
        return Ansatz(self.reference, circuit.generators, angles, circuit)


# A compiled step over generators [first, stop): a rotation has its plan and
# birth coefficients -i·phase·signs; a run of Z-only generators (plan None),
# one multiply by exp(-i·angles @ signs), its ±1 eigenvalues and a reversed
# copy of them.
_Step = namedtuple("_Step", "first stop plan birth signs reversed_signs")


@dataclass(frozen=True, eq=False)
class Circuit:
    """What an ansatz's passes need of its generators, compiled once per
    generator tuple: the steps, each a rotation or a contiguous run of Z-only
    generators (``x_bits == 0``), and the ASAP layout. ``splits`` memoises
    ``mclachlan._split_point`` per pool size, and ``workspaces`` the
    ``Workspace`` of each split point the circuit was assembled at, whose
    sweeps group the steps into runs of commuting generators.

    An assembly writes its workspace in place, so two threads must not
    assemble ansätze of one circuit at once; ``run.workers > 1`` runs
    trajectories in processes, which share no circuit.
    """

    n_qubits: int
    generators: tuple[PauliString, ...] = ()
    steps: tuple[_Step, ...] = ()
    layout: CircuitLayout | None = None
    splits: dict[int, int] = field(default_factory=dict)
    workspaces: dict[int, Workspace] = field(default_factory=dict, repr=False)

    def extended(self, new_generators) -> "Circuit":
        """The circuit with ``new_generators`` appended. Its steps and layout
        are kept, except a trailing Z-only run, compiled again if Z-only
        generators extend it."""
        new = tuple(new_generators)
        if any(g.n_qubits != self.n_qubits for g in new):
            raise ValueError("generator qubit count differs from reference state")
        generators, steps, first = self.generators + new, list(self.steps), len(self.generators)
        if new and not new[0].x_bits and steps and steps[-1].plan is None:
            first = steps.pop().first
        while first < len(generators):
            g, stop = generators[first], first + 1
            if g.x_bits:
                plan = _rotation_plan(self.n_qubits, g.x_bits, g.z_bits)
                steps.append(_Step(first, stop, plan, np.asarray(-1j * plan.coeffs), None, None))
            else:
                while stop < len(generators) and not generators[stop].x_bits:
                    stop += 1
                signs = np.stack([_pauli_tables(self.n_qubits, 0, z.z_bits)[1] for z in generators[first:stop]])
                steps.append(_Step(first, stop, None, None, signs, signs[::-1].copy()))
            first = stop
        layout = _placed(self.layout or CircuitLayout(self.n_qubits), new)
        return Circuit(self.n_qubits, generators, tuple(steps), layout)

    def workspace(self, m: int) -> Workspace:
        """The workspace of the assembly split at step boundary m, built the
        first time the circuit is assembled there."""
        ws = self.workspaces.get(m)
        if ws is None:
            ws = self.workspaces[m] = Workspace(self, m)
        return ws


def _boundary(steps: tuple[_Step, ...], m: int, n: int) -> int:
    """Index of the step that starts at generator m, ``len(steps)`` for m = n;
    ``ValueError`` naming the boundaries around an m inside a Z-only run or
    outside [0, n]."""
    if not 0 <= m <= n:
        raise ValueError(f"split point m={m} is outside the step boundaries 0 to {n}")
    starts = [step.first for step in steps] + [n]
    s = bisect.bisect_left(starts, m)
    if starts[s] != m:
        raise ValueError(f"split point m={m} is inside the Z-only run between step boundaries "
                         f"{starts[s - 1]} and {starts[s]}")
    return s


def _pass_steps(steps, start: int, stop: int, inverse: bool, base: int, rotations: list, runs: list) -> list:
    """The ``steps`` of generators [start, stop) in the order a pass takes
    them, as (first, stop, plan, birth coefficients or ±1 eigenvalues, slot)
    with first and stop counted from the start of the pass. With ``inverse``
    the pass undoes them: reverse order, negated angles, a run by its
    reversed eigenvalues.

    Each rotation appends its angle's index in the pass's angle array
    (``base`` + first) and its plan's coefficients to ``rotations``, each
    Z-only run its angle range and eigenvalues to ``runs``; a step's slot is
    its place in that list, where a ``_Trig`` keeps its values."""
    out = []
    for step in steps[::-1] if inverse else steps:
        first, last = (stop - step.stop, stop - step.first) if inverse else (step.first - start, step.stop - start)
        if step.plan is not None:
            out.append((first, last, step.plan, step.birth, len(rotations)))
            rotations.append((base + first, step.plan.coeffs))
        else:
            signs = step.reversed_signs if inverse else step.signs
            out.append((first, last, None, signs, len(runs)))
            runs.append((base + first, base + last, signs))
    return out


class _Trig:
    """The angle-dependent values of compiled passes, in arrays that their
    calls hold views of. Per rotation: its plan's coefficients times
    -i·sin(angle), and cos(angle) as a complex number; per Z-only run: its
    phases exp(-i·angles @ signs). ``load`` sets them from the angles, with
    one sine and one cosine call over all of them."""

    def __init__(self, rotations: list, runs: list, dim: int):
        self.index = np.array([k for k, _ in rotations], dtype=np.int64)
        self.cosines = np.empty(len(rotations), dtype=np.complex128)
        # plan coefficients that are one complex (every pure-X string) are multiplied all at once
        uniform = [j for j, (_, coeffs) in enumerate(rotations) if isinstance(coeffs, complex)]
        self.uniform = np.array(uniform, dtype=np.int64)
        self.uniform_coeffs = np.array([rotations[j][1] for j in uniform], dtype=np.complex128)
        self.uniform_products = np.empty(len(uniform), dtype=np.complex128)
        self.products = [None] * len(rotations)
        for slot, j in enumerate(uniform):
            self.products[j] = self.uniform_products[slot, ...]
        self.varying = [(j, coeffs, np.empty_like(coeffs)) for j, (_, coeffs) in enumerate(rotations)
                        if self.products[j] is None]
        for j, _, out in self.varying:
            self.products[j] = out
        self.runs = runs
        self.phases = np.empty((len(runs), dim), dtype=np.complex128)

    def load(self, angles: np.ndarray) -> None:
        scales = (-1j * np.sin(angles))[self.index]
        np.multiply(scales[self.uniform], self.uniform_coeffs, out=self.uniform_products)
        for j, coeffs, out in self.varying:
            np.multiply(scales[j], coeffs, out=out)
        self.cosines[...] = np.cos(angles)[self.index]
        run_angles = np.empty(self.phases.shape)
        for out, (lo, hi, signs) in zip(run_angles, self.runs):
            np.matmul(angles[lo:hi], signs, out=out)
        np.multiply(-1j, run_angles, out=self.phases)
        np.exp(self.phases, out=self.phases)


# Scratch budget of one row tile in the tangent sweep: 32 rows at 10 qubits,
# 128 at 8, so a tile and its scratch stay inside a 2 MiB L2 cache.
_TILE_BYTES = 512 * 1024

def _run_births(signs: np.ndarray, psi: np.ndarray, rows: np.ndarray) -> None:
    """-i·s_j·psi for every generator of a Z-only run in one multiply."""
    np.multiply(-1j * signs, psi, out=rows)


def _apply_call(step, rows: np.ndarray, buf: np.ndarray, trig: _Trig) -> tuple:
    """The call that applies a pass step in place to ``rows``, a C-contiguous
    row block, with scratch from ``buf``, reading its angle from ``trig``."""
    _, _, plan, _, slot = step
    if plan is None:
        return np.multiply, (rows, trig.phases[slot], rows)
    scratch = buf[: rows.shape[0]]
    src, dst = _planned_views(plan, rows, scratch)
    return _rotate_views, (plan, trig.products[slot], trig.cosines[slot, ...], rows, src, scratch, dst)


def _commuting_runs(steps: list, generators: tuple[PauliString, ...]) -> list[list]:
    """Pass ``steps`` grouped into runs of consecutive steps whose generators
    commute, ``generators`` being the pass's generators in its order.

    A rotation joins the run before it if it commutes with every generator
    of that run. A Z-only step always starts a run: it follows a rotation,
    as no two Z-only steps are adjacent, and a birth moved past its phase,
    a general complex factor, would round differently.
    """
    x, z = masks(generators)
    odd = anticommutes(x[:, None], z[:, None], x, z)
    runs = []
    for step in steps:
        first, _, plan, _, _ = step
        if runs and plan is not None and not odd[first, runs[-1][0][0] : first].any():
            runs[-1].append(step)
        else:
            runs.append([step])
    return runs


def _sweep_calls(runs: list, block: np.ndarray, carried: int, buf: np.ndarray, tile: int, trig: _Trig) -> list:
    """The calls of the tangent sweep over the ``_commuting_runs`` of a pass
    into ``block``, in the order ``tangent_states`` describes: per run each
    step on the rows in flight when the run starts, the running row copied
    on once and the births of every generator of the run, and each full
    tile's calls through the steps after the run."""
    calls = []
    born = block[carried:]  # row k of the sweep is born[k]; the carried rows precede row 0
    start = 0  # first row of the tile being filled, in block
    for i, run in enumerate(runs):
        first, stop = run[0][0], run[-1][1]
        calls += [_apply_call(step, block[start : carried + first + 1], buf, trig) for step in run]
        calls.append((np.copyto, (born[stop], born[first])))
        psi = born[stop : stop + 1]
        for lo, hi, plan, coeffs, _ in run:
            if plan is None:
                calls.append((_run_births, (coeffs, psi, born[lo:hi])))
            else:
                src, dst = _planned_views(plan, psi, born[lo:hi])
                calls.append((_multiply_views, (plan, src, coeffs, dst, born[lo:hi])))
        while carried + stop - start >= tile:
            rows = block[start : start + tile]
            calls += [_apply_call(step, rows, buf, trig) for later_run in runs[i + 1 :] for step in later_run]
            start += tile
    return calls


class Pass(namedtuple("Pass", "n_qubits n_params block carried calls")):
    """A pass over the steps of a circuit between two step boundaries,
    compiled onto fixed rows: ``calls`` are ``_run`` calls, each holding the
    strided views of the rows it reads and writes and of the trig values of
    its angle. ``block`` holds ``carried`` rows, then the pass's tangents
    and its running row (a one-row pass has no tangents). A pass starts from
    what its running row holds, unless its first call copies a state in."""

    __slots__ = ()


class Workspace:
    """The rows and kernel calls of the assembly split at step boundary m
    (``mclachlan._split_frame``), built once per circuit and split point.

    ``prefix`` sweeps the first m generators into an (m + 1)-row block;
    ``suffix`` copies the prefix's running row into its one row and takes it
    through the rest of the circuit there. That row is the first born row of
    ``inverse``, the sweep that undoes the generators after m with one
    carried row, H·psi, ahead of it. One scratch tile serves all three. The
    two sweeps group their steps, each in its own order, into runs of
    commuting generators once, here, and birth the tangents of a run at its
    end. An assembly only loads the reference and the angles.
    """

    def __init__(self, circuit: Circuit, m: int):
        nq, n, dim = circuit.n_qubits, len(circuit.generators), 1 << circuit.n_qubits
        s = _boundary(circuit.steps, m, n)
        rotations, runs = [], []  # over the angles, then the suffix's negated
        forward = _pass_steps(circuit.steps, 0, n, False, 0, rotations, runs)
        inverse = _pass_steps(circuit.steps[s:], m, n, True, n, rotations, runs)
        self.m, self.trig = m, _Trig(rotations, runs, dim)
        tile = max(1, _TILE_BYTES // (16 * dim))
        head = np.empty((m + 1, dim), dtype=np.complex128)
        back = np.empty((n - m + 2, dim), dtype=np.complex128)  # H·psi, rows N-1..m, running row
        buf = np.empty((max(min(m, tile), min(n - m + 1, tile) + 1), dim), dtype=np.complex128)
        row, gens = back[1:2], circuit.generators
        head_runs, back_runs = _commuting_runs(forward[:s], gens[:m]), _commuting_runs(inverse, gens[m:][::-1])
        self.prefix = Pass(nq, m, head, 0, _sweep_calls(head_runs, head, 0, buf, tile, self.trig))
        suffix = [(np.copyto, (row, head[m]))] + [_apply_call(step, row, buf, self.trig) for step in forward[s:]]
        self.suffix = Pass(nq, n - m, row, 0, suffix)
        self.inverse = Pass(nq, n - m, back, 1, _sweep_calls(back_runs, back, 1, buf, tile, self.trig))
        self._scratch, self._h, self._h_calls = buf[:1], None, []

    def load(self, reference: np.ndarray, angles: np.ndarray) -> tuple[Pass, Pass, Pass]:
        """The prefix, suffix and inverse passes from ``reference`` at
        ``angles``: the reference goes into the prefix's running row."""
        self.trig.load(np.concatenate((angles, -angles[self.m :][::-1])))
        self.prefix.block[0] = reference
        return self.prefix, self.suffix, self.inverse

    def apply_hamiltonian(self, h: WeightedPauliSum) -> np.ndarray:
        """H·psi written into the inverse sweep's carried row from psi, the
        suffix's row after it, by ``_hamiltonian_calls``, built for the last
        ``h`` asked for."""
        out = self.inverse.block[0:1]
        if self._h is not h:
            self._h_calls, self._h = _hamiltonian_calls(h, self.suffix.block, out, self._scratch), h
        _run(self._h_calls)
        return out[0]


def apply_slice(circuit: Circuit, angles: np.ndarray, rows: np.ndarray, start: int = 0, inverse: bool = False) -> None:
    """Apply the generators of ``circuit`` from step boundary ``start`` on,
    at ``angles`` (one per generator of the circuit), in place to ``rows``,
    a C-contiguous row block; with ``inverse``, undo them, as the inverse
    pass of the workspace split there undoes them."""
    n, rotations, runs = len(circuit.generators), [], []
    steps = _pass_steps(circuit.steps[_boundary(circuit.steps, start, n) :], start, n, inverse, 0, rotations, runs)
    trig = _Trig(rotations, runs, 1 << circuit.n_qubits)
    trig.load(-angles[start:][::-1] if inverse else angles[start:])
    buf = np.empty_like(rows)
    _run([_apply_call(step, rows, buf, trig) for step in steps])


def prepare_state(a: Ansatz | Pass) -> StateVector:
    """Apply the rotations in index order to the reference state, each run of
    Z-only generators as one phase multiply. A compiled one-row ``Pass`` runs
    in its own row, which the result shares."""
    if isinstance(a, Pass):
        _run(a.calls)
        return StateVector(a.n_qubits, a.block[0])
    rows = a.reference.amplitudes.reshape(1, -1).copy()
    apply_slice(a.circuit, a.angles, rows)
    return StateVector(a.n_qubits, rows[0])


def tangent_states(a: Ansatz | Pass) -> np.ndarray:
    """All derivative states d|psi>/d(angle_k), one per row, each unit norm.

    The forward pass applies the steps of its pass: one rotation per
    generator, except that a run of Z-only generators is one phase multiply.
    The running state rides along as the row after the finished ones, so each
    step costs one in-place operation on the rows in flight. The steps go in
    runs of commuting generators (``_commuting_runs``), and births wait for
    the end of each run: every step of a run is applied to the rows born
    before it and the running row, then the rows of all its generators are
    born from the running state psi as -i·P_k·psi, a Z-only step's in one
    multiply. Since P_k commutes with the rest of its run, that is the row
    born after its own step and carried through the rest of the run, and bit
    for bit so: a birth multiplies by ±1 or ±i, which is exact, and a rotation
    by cos(angle) and by -i·sin(angle)·phase·signs, each purely real or purely
    imaginary, so each product component is rounded once whichever factor
    comes first (up to the sign of a zero). A Z-only run's phase is a general
    complex number, which FMA rounds differently once a unit factor moves past
    it; hence a Z-only step starts a run and no birth waits past its phase.
    Later steps are applied to finished rows in block operations, so the sweep
    costs O(n_params) operations per state.

    Finished rows go in tiles of ``max(1, _TILE_BYTES // (16·2**n))`` rows.
    Once a tile is full, which is checked at the end of each run, it is pushed
    alone through every remaining step, with scratch the size of one tile,
    and the sweep carries on from the running row; each amplitude meets the
    same operations in the same order as in one untiled block, so the result
    does not depend on the tile size.

    For an ansatz the sweep runs in a one-off workspace, and the result is
    an (n_params, 2**n) view of an (n_params + 1)-row block whose last row
    is the prepared state, equal bit for bit to ``prepare_state(a).amplitudes``:
    the running row meets the same steps with the same kernels. A compiled
    sweep ``Pass`` runs in its own block, and the result is a view of its
    tangent rows; rows it carries ahead of them (the workspace's inverse pass
    carries H·psi) ride in flight like rows born before the first step.
    """
    if isinstance(a, Ansatz):  # the prefix pass of a workspace split at N sweeps the whole circuit
        a = Workspace(a.circuit, a.n_params).load(a.reference.amplitudes, a.angles)[0]
    _run(a.calls)
    return a.block[a.carried : a.carried + a.n_params]


def cnot_cost(p: PauliString) -> int:
    """Staircase-decomposition two-qubit gate count: 2(weight-1), 0 for weight<2."""
    w = p.weight
    return 2 * (w - 1) if w >= 2 else 0


@dataclass(frozen=True)
class CircuitLayout:
    """ASAP layer assignment of an ordered set of unitaries."""

    n_qubits: int
    layer_masks: tuple[int, ...] = ()
    layer_of: tuple[int, ...] = ()
    cnot_count: int = 0

    @property
    def depth(self) -> int:
        return len(self.layer_masks)

    def prefix_depths(self) -> np.ndarray:
        """Entry k is the depth of the circuit cut after unitary k: the running
        max of ``layer_of``, plus one, since the ASAP placement of a prefix
        is the prefix of the full placement."""
        return np.maximum.accumulate(np.array(self.layer_of, dtype=np.int64)) + 1

    def placement_level(self, support_mask: int) -> int:
        """Layer an appended unitary on ``support_mask`` lands in under the ASAP rule."""
        return _asap_level(self.layer_masks, support_mask)

    def idle_qubits_in_last_layer(self) -> int:
        """Bit mask of qubits untouched by the final layer (0 if no layers)."""
        if not self.layer_masks:
            return 0
        full = (1 << self.n_qubits) - 1
        return full & ~self.layer_masks[-1]


def layout(generators, n_qubits: int) -> CircuitLayout:
    """Pack generators into disjoint-support layers by the ASAP rule."""
    return _placed(CircuitLayout(n_qubits), generators)


def _asap_level(masks, support_mask: int) -> int:
    """One past the last layer whose mask meets ``support_mask``, 0 if none does."""
    for level in range(len(masks) - 1, -1, -1):
        if masks[level] & support_mask:
            return level + 1
    return 0


def _placed(base: CircuitLayout, generators) -> CircuitLayout:
    """``base`` with ``generators`` appended under the ASAP rule, which
    places a prefix of the unitaries the same whatever follows it."""
    masks = list(base.layer_masks)
    layer_of = list(base.layer_of)
    cnots = base.cnot_count
    for g in generators:
        level = _asap_level(masks, g.support_mask)
        if level == len(masks):
            masks.append(0)
        masks[level] |= g.support_mask
        layer_of.append(level)
        cnots += cnot_cost(g)
    return CircuitLayout(
        n_qubits=base.n_qubits,
        layer_masks=tuple(masks),
        layer_of=tuple(layer_of),
        cnot_count=cnots,
    )


def ansatz_layout(a: Ansatz) -> CircuitLayout:
    """The layout compiled with ``a``'s circuit. The engine takes every
    layout from here, the boundary that ``perfbench/tracing.py`` rebinds as
    ``engine.ansatz_layout``; ``layout`` packs generator tuples that have no
    ansatz."""
    return a.circuit.layout
