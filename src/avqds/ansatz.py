"""Ordered Pauli-rotation ansatz and its packing into disjoint-support layers.

The ansatz state is ``U_{N-1}···U_1 U_0 |ref>`` with ``U_k = exp(-i·angle_k·
generator_k)``; generator index order is circuit time order. Layering is
as-soon-as-possible: a unitary lands in the earliest layer after every
earlier-indexed unitary that shares a qubit with it, so the layer assignment
of a prefix of the ansatz never depends on what comes later.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliString
from .statevector import StateVector, _multiply_planned, _pauli_tables, _rotate_planned, _rotation_plan


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
# birth; a run of Z-only generators (plan None), one multiply by
# exp(-i·angles @ signs), its ±1 eigenvalues and a reversed copy of them.
_Step = namedtuple("_Step", "first stop plan birth signs reversed_signs")

# A circuit, or a slice of one between step boundaries, bound to its angles
# and to the state it starts from. Its steps are (first, stop, apply, birth),
# counted from the start of the pass: ``apply(rows, buf)`` acts in place on a
# C-contiguous row block with scratch ``buf``; ``birth(psi, out)`` writes
# -i·P_k·psi for the step's generators into ``out`` from a (1, dim) ``psi``.
Pass = namedtuple("Pass", "n_qubits reference steps n_params")


@dataclass(frozen=True, eq=False)
class Circuit:
    """What an ansatz's passes need of its generators, compiled once per
    generator tuple: the steps, each a rotation or a contiguous run of Z-only
    generators (``x_bits == 0``), and the ASAP layout. ``splits`` memoises
    ``mclachlan._split_point`` per pool size."""

    n_qubits: int
    generators: tuple[PauliString, ...] = ()
    steps: tuple[_Step, ...] = ()
    layout: CircuitLayout | None = None
    splits: dict[int, int] = field(default_factory=dict)

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
                birth = functools.partial(_multiply_planned, plan, -1j * plan.coeffs)
                steps.append(_Step(first, stop, plan, birth, None, None))
            else:
                while stop < len(generators) and not generators[stop].x_bits:
                    stop += 1
                signs = np.stack([_pauli_tables(self.n_qubits, 0, z.z_bits)[1] for z in generators[first:stop]])
                steps.append(_Step(first, stop, None, None, signs, signs[::-1].copy()))
            first = stop
        layout = _placed(self.layout or CircuitLayout(self.n_qubits), new)
        return Circuit(self.n_qubits, generators, tuple(steps), layout)

    def bind(self, reference: np.ndarray, angles: np.ndarray, start: int = 0,
             stop: int | None = None, inverse: bool = False) -> Pass:
        """The pass from ``reference`` over generators [start, stop), both
        step boundaries, at ``angles`` (one per generator): sin and cos of all
        its angles in one call each and one product per Z-only run. With
        ``inverse`` it undoes those generators: their steps in reverse order,
        at negated angles, a run by its reversed eigenvalue matrix."""
        stop = len(self.generators) if stop is None else stop
        starts = [step.first for step in self.steps] + [len(self.generators)]
        steps = self.steps[starts.index(start) : starts.index(stop)]  # ValueError inside a Z-only run
        angles = -angles[start:stop][::-1] if inverse else angles[start:stop]
        scales, cosines = (-1j * np.sin(angles)).tolist(), np.cos(angles).tolist()
        bound = []
        for first, last, plan, birth, signs, reversed_signs in steps[::-1] if inverse else steps:
            first, last = (stop - last, stop - first) if inverse else (first - start, last - start)
            if plan is not None:
                apply = functools.partial(_rotate_planned, plan, scales[first], cosines[first])
            else:
                signs = reversed_signs if inverse else signs
                apply = functools.partial(_phase_rows, np.exp(-1j * (angles[first:last] @ signs)))
                birth = functools.partial(_run_births, signs)
            bound.append((first, last, apply, birth))
        return Pass(self.n_qubits, reference, bound, stop - start)


def _phase_rows(phase: np.ndarray, rows: np.ndarray, buf: np.ndarray) -> None:
    rows *= phase


def _run_births(signs: np.ndarray, psi: np.ndarray, out: np.ndarray) -> None:
    """-i·s_j·psi for every generator of a Z-only run in one multiply, bit for
    bit what ``_pauli_into`` gives for each of them."""
    np.multiply(-1j * signs, psi, out=out)


def _as_pass(a: Ansatz | Pass) -> Pass:
    return a if isinstance(a, Pass) else a.circuit.bind(a.reference.amplitudes, a.angles)


def _apply_circuit(a: Ansatz | Pass, rows: np.ndarray) -> None:
    """Apply the circuit of ``a`` (not its reference) in place to each row of a
    C-contiguous (k, 2**n) block."""
    buf = np.empty_like(rows)
    for _, _, apply, _ in _as_pass(a).steps:
        apply(rows, buf)


def prepare_state(a: Ansatz | Pass) -> StateVector:
    """Apply the rotations in index order to the reference state, each run of
    Z-only generators as one phase multiply."""
    a = _as_pass(a)
    rows = a.reference.reshape(1, -1).copy()
    _apply_circuit(a, rows)
    return StateVector(a.n_qubits, rows[0])


# Scratch budget of one row tile in the tangent sweep: 32 rows at 10 qubits,
# 128 at 8, so a tile and its scratch stay inside a 2 MiB L2 cache.
_TILE_BYTES = 512 * 1024


def tangent_states(a: Ansatz | Pass, out: np.ndarray | None = None, carried: int = 0) -> np.ndarray:
    """All derivative states d|psi>/d(angle_k), one per row, each unit norm.

    The forward pass applies the steps of its pass: one rotation per
    generator, except that a run of Z-only generators is one phase multiply.
    The running state rides along as the row after the finished ones, so each
    step costs one in-place operation on the rows in flight. After a step the
    rows of its generators are born from the running state psi as -i·P_k·psi;
    inside a Z-only run every generator commutes with the rest of the run, so
    the state after the whole run serves for all of them, and the run's rows
    are born in one multiply. Later steps are applied to finished rows in
    block operations, so the sweep costs O(n_params) operations per state.

    Finished rows go in tiles of ``max(1, _TILE_BYTES // (16·2**n))`` rows.
    Once a tile is full it is pushed alone through every remaining step, with
    scratch the size of one tile, and the sweep carries on from the running
    row; each amplitude meets the same operations in the same order as in
    one untiled block, so the result does not depend on the tile size.

    The result is an (n_params, 2**n) view of an (n_params + 1)-row block
    whose last row is the prepared state, equal bit for bit to
    ``prepare_state(a).amplitudes``: the running row meets the same steps
    with the same kernels. Given ``out``, a C-contiguous complex array, the
    sweep writes into its first ``carried + n_params + 1`` rows instead. Its
    first ``carried`` rows are states to carry through the circuit: they
    ride in flight like rows born before the first step, and the circuit is
    applied to them in place. The tangents follow them, then the prepared
    state.
    """
    a = _as_pass(a)
    n = a.n_params
    dim = 1 << a.n_qubits
    tile = max(1, _TILE_BYTES // (16 * dim))
    block = np.empty((n + 1, dim), dtype=np.complex128) if out is None else out[: carried + n + 1]
    # the first step meets every carried row before any tile is full
    buf = np.empty((min(carried + n, tile) + carried, dim), dtype=np.complex128)
    born = block[carried:]  # row k of the sweep is born[k]; the carried rows precede row 0
    born[0] = a.reference
    steps = a.steps
    start = 0  # first row of the tile being filled, in block
    for i, (first, stop, apply, birth) in enumerate(steps):
        apply(block[start : carried + first + 1], buf)
        born[stop] = born[first]
        birth(born[stop : stop + 1], born[first:stop])
        while carried + stop - start >= tile:
            rows = block[start : start + tile]
            for _, _, later, _ in steps[i + 1 :]:
                later(rows, buf)
            start += tile
    return born[:n]


def cnot_cost(p: PauliString) -> int:
    """Staircase-decomposition two-qubit gate count: 2(weight-1), 0 for weight<2."""
    w = p.weight
    return 2 * (w - 1) if w >= 2 else 0


@dataclass(frozen=True)
class CircuitLayout:
    """ASAP layer assignment of an ordered set of unitaries."""

    n_qubits: int
    layers: tuple[tuple[int, ...], ...] = ()
    layer_masks: tuple[int, ...] = ()
    layer_of: tuple[int, ...] = ()
    cnot_count: int = 0

    @property
    def depth(self) -> int:
        return len(self.layers)

    def prefix_depth(self, last_index: int) -> int:
        """Depth of the circuit truncated after unitary ``last_index``.

        Valid because ASAP placement of a prefix equals the prefix of the
        full placement.
        """
        if not 0 <= last_index < len(self.layer_of):
            raise IndexError(f"unitary index {last_index} out of range")
        return max(self.layer_of[: last_index + 1]) + 1

    def prefix_depths(self) -> np.ndarray:
        """``prefix_depth(k)`` for every k at once: the running max of ``layer_of``, plus one."""
        return np.maximum.accumulate(np.array(self.layer_of, dtype=np.int64)) + 1

    def placement_level(self, support_mask: int) -> int:
        """Layer an appended unitary on ``support_mask`` lands in under the ASAP rule."""
        return _asap_level(self.layer_masks, support_mask)

    def idle_qubits_in_last_layer(self) -> int:
        """Bit mask of qubits untouched by the final layer (0 if no layers)."""
        if not self.layers:
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
    layers = [list(l) for l in base.layers]
    masks = list(base.layer_masks)
    layer_of = list(base.layer_of)
    cnots = base.cnot_count
    for g in generators:
        level = _asap_level(masks, g.support_mask)
        if level == len(layers):
            layers.append([])
            masks.append(0)
        layers[level].append(len(layer_of))
        masks[level] |= g.support_mask
        layer_of.append(level)
        cnots += cnot_cost(g)
    return CircuitLayout(
        n_qubits=base.n_qubits,
        layers=tuple(tuple(l) for l in layers),
        layer_masks=tuple(masks),
        layer_of=tuple(layer_of),
        cnot_count=cnots,
    )


def ansatz_layout(a: Ansatz) -> CircuitLayout:
    return a.circuit.layout
