"""Ordered Pauli-rotation ansatz and its packing into disjoint-support layers.

The ansatz state is ``U_{N-1}···U_1 U_0 |ref>`` with ``U_k = exp(-i·angle_k·
generator_k)``; generator index order is circuit time order. Layering is
as-soon-as-possible: a unitary lands in the earliest layer after every
earlier-indexed unitary that shares a qubit with it, so the layer assignment
of a prefix of the ansatz never depends on what comes later.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliString
from .statevector import StateVector, _pauli_rows, _rotate_rows


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


def prepare_state(a: Ansatz) -> StateVector:
    """Apply the rotations in index order to the reference state."""
    rows = a.reference.amplitudes.reshape(1, -1).copy()
    buf = np.empty_like(rows)
    for p, theta in zip(a.generators, a.angles):
        _rotate_rows(p, theta, rows, buf)
    return StateVector(a.n_qubits, rows[0])


# Scratch budget of one row tile in the tangent sweep: 32 rows at 10 qubits,
# 128 at 8, so a tile and its scratch stay inside a 2 MiB L2 cache.
_TILE_BYTES = 512 * 1024


def tangent_states(a: Ansatz) -> np.ndarray:
    """All derivative states d|psi>/d(angle_k), one per row, each unit norm.

    Row k is built as soon as rotation k has been applied in the forward
    pass, and later rotations are applied to finished rows in block
    operations, so the sweep costs O(n_params) rotations per state. The
    running state rides along as the row after the finished ones, so each
    generator costs one in-place rotation of the rows in flight.

    Finished rows go in tiles of ``max(1, _TILE_BYTES // (16·2**n))`` rows.
    When a tile fills it is pushed alone through every remaining generator,
    with scratch the size of one tile, and the sweep carries on from the
    running row; each amplitude meets the same operations in the same order
    as in one untiled block, so the result does not depend on the tile size.

    The result is an (n_params, 2**n) view of an (n_params + 1)-row block
    whose last row is the prepared state; ``swept_state`` reads it.
    """
    n = a.n_params
    dim = 1 << a.n_qubits
    tile = max(1, _TILE_BYTES // (16 * dim))
    block = np.empty((n + 1, dim), dtype=np.complex128)
    buf = np.empty((min(n, tile), dim), dtype=np.complex128)
    block[0] = a.reference.amplitudes
    steps = tuple(zip(a.generators, a.angles))
    start = 0  # first row of the tile being filled
    for k, (p, theta) in enumerate(steps):
        _rotate_rows(p, theta, block[start : k + 1], buf)
        block[k + 1] = block[k]
        block[k] = -1j * _pauli_rows(p, block[k + 1])
        if k + 1 - start == tile:
            rows = block[start : k + 1]
            for q, phi in steps[k + 1 :]:
                _rotate_rows(q, phi, rows, buf)
            start = k + 1
    return block[:n]


def swept_state(tangents: np.ndarray) -> np.ndarray:
    """The prepared state left by ``tangent_states``: the row after its result.

    Equal bit for bit to ``prepare_state(a).amplitudes``, because the running
    row meets the same rotations with the same kernel.
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

    def idle_qubits_in_last_layer(self) -> int:
        """Bit mask of qubits untouched by the final layer (0 if no layers)."""
        if not self.layers:
            return 0
        full = (1 << self.n_qubits) - 1
        return full & ~self.layer_masks[-1]


def layout(generators, n_qubits: int) -> CircuitLayout:
    """Pack generators into disjoint-support layers by the ASAP rule."""
    return _layout(tuple(generators), n_qubits)


@functools.lru_cache(maxsize=256)
def _layout(generators: tuple[PauliString, ...], n_qubits: int) -> CircuitLayout:
    # CircuitLayout is frozen and holds only tuples, so callers may share it
    next_free = [0] * n_qubits
    layers: list[list[int]] = []
    masks: list[int] = []
    layer_of: list[int] = []
    cnots = 0
    for idx, g in enumerate(generators):
        support = g.support
        level = max((next_free[q] for q in support), default=0)
        if level == len(layers):
            layers.append([])
            masks.append(0)
        layers[level].append(idx)
        masks[level] |= g.support_mask
        layer_of.append(level)
        for q in support:
            next_free[q] = level + 1
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
