"""Micro-benchmark of the in-place rotation kernel, by lowest flipped qubit.

``pytest tests/test_kernel_bench.py`` prints ns-scale timings per case;
``--benchmark-disable`` runs each case once as a plain test. Every case first
checks the kernel against the gather oracle, so it never times a wrong kernel.
"""

import numpy as np
import pytest

from avqds.pauli import PauliString
from avqds.statevector import _rotate_rows
from conftest import _rotation_rows

pytest.importorskip("pytest_benchmark")
pytestmark = pytest.mark.slow

ROWS = 32


def _cases():
    for n in (6, 8, 10):
        yield n, PauliString.two_site(n, (0, 1), "ZZ"), f"n{n}-none-ZZ"
        for q in (0, 1, 2, n - 1):
            for letter in "XY":
                yield n, PauliString.single(n, q, letter), f"n{n}-q{q}-{letter}"


_CASES = list(_cases())


@pytest.mark.parametrize("n, p", [c[:2] for c in _CASES], ids=[c[2] for c in _CASES])
def test_rotation_kernel_speed(benchmark, n, p):
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(ROWS, 1 << n)) + 1j * rng.normal(size=(ROWS, 1 << n))
    buf = np.empty_like(rows)
    expected = _rotation_rows(p, 0.3, rows)
    _rotate_rows(p, 0.3, rows, buf)
    assert np.array_equal(rows, expected)
    benchmark.pedantic(_rotate_rows, args=(p, 0.3, rows, buf), rounds=50, iterations=5)
