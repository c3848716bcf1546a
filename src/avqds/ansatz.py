"""Ordered Pauli-rotation ansatz and its packing into disjoint-support layers.

The ansatz state is ``U_{N-1}···U_1 U_0 |ref>`` with ``U_k = exp(-i·angle_k·
generator_k)``; generator index order is circuit time order. Layering is
as-soon-as-possible: a unitary lands in the earliest layer after every
earlier-indexed unitary that shares a qubit with it, so the layer assignment
of a prefix of the ansatz never depends on what comes later.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliString
from .statevector import StateVector, _pauli_into, _rotate_rows, _run_signs


@dataclass(frozen=True, eq=False)
class Ansatz:
    reference: StateVector
    generators: tuple[PauliString, ...] = ()
    angles: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        angles = np.array(self.angles, dtype=float)
        angles.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        if len(self.generators) != angles.shape[0]:
            raise ValueError("generator and angle counts differ")
        for g in self.generators:
            if g.n_qubits != self.reference.n_qubits:
                raise ValueError("generator qubit count differs from reference state")

    @property
    def n_qubits(self) -> int:
        return self.reference.n_qubits

    @property
    def n_params(self) -> int:
        return len(self.generators)

    def with_angles(self, angles: np.ndarray) -> "Ansatz":
        return Ansatz(self.reference, self.generators, angles)

    def extended(self, new_generators) -> "Ansatz":
        """Append generators with angle 0; the prepared state is unchanged."""
        new_generators = tuple(new_generators)
        angles = np.concatenate([self.angles, np.zeros(len(new_generators))])
        return Ansatz(self.reference, self.generators + new_generators, angles)


def _segments(a: Ansatz) -> list[tuple[int, int, Callable[[np.ndarray, np.ndarray], None]]]:
    """The forward pass as (first, stop, apply) steps in circuit order.

    Each contiguous run of Z-only generators (``x_bits == 0``) is one step:
    the rotations commute and are diagonal, so together they are one multiply
    by exp(-i·sum_j theta_j·s_j), with s_j the ±1 eigenvalues of generator j.
    Every other generator is a step of its own, one in-place rotation.
    ``apply(rows, buf)`` acts in place on a C-contiguous row block; ``buf``
    is scratch with at least as many rows.
    """
    gens, angles = a.generators, a.angles
    steps = []
    first = 0
    while first < len(gens):
        stop = first + 1
        if gens[first].x_bits:
            steps.append((first, stop, functools.partial(_rotate_rows, gens[first], angles[first])))
        else:
            while stop < len(gens) and not gens[stop].x_bits:
                stop += 1
            signs = _run_signs(a.n_qubits, tuple(g.z_bits for g in gens[first:stop]))
            phase = np.exp(-1j * (angles[first:stop] @ signs))
            steps.append((first, stop, functools.partial(_phase_rows, phase)))
        first = stop
    return steps


def _phase_rows(phase: np.ndarray, rows: np.ndarray, buf: np.ndarray) -> None:
    rows *= phase


def prepare_state(a: Ansatz) -> StateVector:
    """Apply the rotations in index order to the reference state, each run of
    Z-only generators as one phase multiply."""
    rows = a.reference.amplitudes.reshape(1, -1).copy()
    buf = np.empty_like(rows)
    for _, _, apply in _segments(a):
        apply(rows, buf)
    return StateVector(a.n_qubits, rows[0])


# Scratch budget of one row tile in the tangent sweep: 32 rows at 10 qubits,
# 128 at 8, so a tile and its scratch stay inside a 2 MiB L2 cache.
_TILE_BYTES = 512 * 1024


def tangent_states(a: Ansatz) -> np.ndarray:
    """All derivative states d|psi>/d(angle_k), one per row, each unit norm.

    The forward pass applies the steps of ``_segments``: one rotation per
    generator, except that a run of Z-only generators is one phase multiply.
    The running state rides along as the row after the finished ones, so each
    step costs one in-place operation on the rows in flight. After a step the
    rows of its generators are born from the running state psi as -i·P_k·psi;
    inside a Z-only run every generator commutes with the rest of the run, so
    the state after the whole run serves for all of them. Later steps are
    applied to finished rows in block operations, so the sweep costs
    O(n_params) operations per state.

    Finished rows go in tiles of ``max(1, _TILE_BYTES // (16·2**n))`` rows.
    Once a tile is full it is pushed alone through every remaining step, with
    scratch the size of one tile, and the sweep carries on from the running
    row; each amplitude meets the same operations in the same order as in
    one untiled block, so the result does not depend on the tile size.

    The result is an (n_params, 2**n) view of an (n_params + 1)-row block
    whose last row is the prepared state; ``swept_state`` reads it.
    """
    n = a.n_params
    dim = 1 << a.n_qubits
    tile = max(1, _TILE_BYTES // (16 * dim))
    block = np.empty((n + 1, dim), dtype=np.complex128)
    buf = np.empty((min(n, tile), dim), dtype=np.complex128)
    block[0] = a.reference.amplitudes
    steps = _segments(a)
    start = 0  # first row of the tile being filled
    for i, (first, stop, apply) in enumerate(steps):
        apply(block[start : first + 1], buf)
        block[stop] = block[first]
        for k in range(first, stop):
            _pauli_into(a.generators[k], -1j, block[stop : stop + 1], block[k : k + 1])
        while stop - start >= tile:
            rows = block[start : start + tile]
            for _, _, later in steps[i + 1 :]:
                later(rows, buf)
            start += tile
    return block[:n]


def swept_state(tangents: np.ndarray) -> np.ndarray:
    """The prepared state left by ``tangent_states``: the row after its result.

    Equal bit for bit to ``prepare_state(a).amplitudes``, because the running
    row meets the same steps with the same kernels.
    """
    return tangents.base[tangents.shape[0]]


def cnot_cost(p: PauliString) -> int:
    """Staircase-decomposition two-qubit gate count: 2(weight-1), 0 for weight<2."""
    w = p.weight
    return 2 * (w - 1) if w >= 2 else 0


@dataclass(frozen=True)
class CircuitLayout:
    """ASAP layer assignment of an ordered set of unitaries."""

    n_qubits: int
    layers: tuple[tuple[int, ...], ...]
    layer_masks: tuple[int, ...]
    layer_of: tuple[int, ...]
    cnot_count: int

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
    return _layout(tuple(generators), n_qubits)


def _asap_level(masks, support_mask: int) -> int:
    """One past the last layer whose mask meets ``support_mask``, 0 if none does."""
    for level in range(len(masks) - 1, -1, -1):
        if masks[level] & support_mask:
            return level + 1
    return 0


@functools.lru_cache(maxsize=256)
def _layout(generators: tuple[PauliString, ...], n_qubits: int) -> CircuitLayout:
    # CircuitLayout is frozen and holds only tuples, so callers may share it
    layers: list[list[int]] = []
    masks: list[int] = []
    layer_of: list[int] = []
    cnots = 0
    for idx, g in enumerate(generators):
        level = _asap_level(masks, g.support_mask)
        if level == len(layers):
            layers.append([])
            masks.append(0)
        layers[level].append(idx)
        masks[level] |= g.support_mask
        layer_of.append(level)
        cnots += cnot_cost(g)
    return CircuitLayout(
        n_qubits=n_qubits,
        layers=tuple(tuple(l) for l in layers),
        layer_masks=tuple(masks),
        layer_of=tuple(layer_of),
        cnot_count=cnots,
    )


def ansatz_layout(a: Ansatz) -> CircuitLayout:
    return layout(a.generators, a.n_qubits)
