"""Pauli strings and real-weighted sums of them.

A Pauli string is stored as two bit masks over the qubits: ``x_bits`` marks
sites carrying an X component, ``z_bits`` sites carrying a Z component, and a
site present in both masks carries Y. Overall phases are never stored here;
they are tracked at application time and in term coefficients. Qubit ``i``
corresponds to bit ``i`` of a basis-state index (qubit 0 is the least
significant bit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators (phase-free)."""

    n_qubits: int
    x_bits: int
    z_bits: int

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        full = (1 << self.n_qubits) - 1
        if not 0 <= self.x_bits <= full or not 0 <= self.z_bits <= full:
            raise ValueError("bit mask out of range for qubit count")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a letter string, ``label[i]`` acting on qubit ``i``."""
        x = z = 0
        for i, letter in enumerate(label.upper()):
            try:
                xb, zb = _LETTER_TO_BITS[letter]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {letter!r}") from None
            x |= xb << i
            z |= zb << i
        return cls(len(label), x, z)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, letter: str) -> "PauliString":
        if not 0 <= qubit < n_qubits:
            raise ValueError(f"qubit {qubit} out of range for {n_qubits} qubits")
        xb, zb = _LETTER_TO_BITS[letter.upper()]
        return cls(n_qubits, xb << qubit, zb << qubit)

    @classmethod
    def two_site(cls, n_qubits: int, qubits: tuple[int, int], letters: str) -> "PauliString":
        """Two single-site letters on distinct qubits, e.g. ``("ZZ", (0, 1))``."""
        qa, qb = qubits
        if qa == qb:
            raise ValueError("two_site requires distinct qubits")
        a = cls.single(n_qubits, qa, letters[0])
        b = cls.single(n_qubits, qb, letters[1])
        return cls(n_qubits, a.x_bits | b.x_bits, a.z_bits | b.z_bits)

    @property
    def support_mask(self) -> int:
        return self.x_bits | self.z_bits

    @property
    def support(self) -> tuple[int, ...]:
        mask = self.support_mask
        return tuple(i for i in range(self.n_qubits) if mask >> i & 1)

    @property
    def weight(self) -> int:
        return bin(self.support_mask).count("1")

    def letter(self, qubit: int) -> str:
        return _BITS_TO_LETTER[(self.x_bits >> qubit & 1, self.z_bits >> qubit & 1)]

    def label(self) -> str:
        return "".join(self.letter(i) for i in range(self.n_qubits))

    def __str__(self) -> str:
        return self.label()


def masks(strings) -> tuple[np.ndarray, np.ndarray]:
    """The x and z bit masks of Pauli strings as two ``uint64`` arrays."""
    strings = tuple(strings)
    return (np.array([p.x_bits for p in strings], dtype=np.uint64),
            np.array([p.z_bits for p in strings], dtype=np.uint64))


def anticommutes(x1, z1, x2, z2) -> np.ndarray:
    """Whether Pauli strings anticommute, elementwise over their ``uint64``
    bit masks broadcast together (up to 64 qubits): the parity of
    popcount((x1 & z2) ^ (z1 & x2)), the sites where the X part of one
    string meets the Z part of the other."""
    odd = (x1 & z2) ^ (z1 & x2)
    for shift in (32, 16, 8, 4, 2, 1):
        odd ^= odd >> np.uint64(shift)
    return (odd & np.uint64(1)).astype(bool)


class WeightedPauliSum:
    """A Hermitian operator as an ordered sum of real-weighted Pauli strings.

    Duplicate strings are merged on construction (coefficients summed);
    ordering of first occurrence is preserved so downstream term groupings
    are reproducible.
    """

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int, terms: list[tuple[float, PauliString]] | tuple = ()):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        merged: dict[tuple[int, int], float] = {}
        strings: dict[tuple[int, int], PauliString] = {}
        for coeff, string in terms:
            if isinstance(coeff, complex):
                if abs(coeff.imag) > 1e-14:
                    raise ValueError(f"coefficient {coeff} is not real")
                coeff = coeff.real
            if string.n_qubits != n_qubits:
                raise ValueError(
                    f"term on {string.n_qubits} qubits in a {n_qubits}-qubit sum"
                )
            key = (string.x_bits, string.z_bits)
            merged[key] = merged.get(key, 0.0) + float(coeff)
            strings.setdefault(key, string)
        self.n_qubits = n_qubits
        self.terms: tuple[tuple[float, PauliString], ...] = tuple(
            (merged[k], strings[k]) for k in merged
        )

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __repr__(self) -> str:
        body = " + ".join(f"{c:g}*{s.label()}" for c, s in self.terms)
        return f"WeightedPauliSum({body or '0'})"
