"""Micro-benchmark of the in-place rotation kernel, by flip pattern and row count.

``pytest tests/test_kernel_bench.py --benchmark-enable`` prints ns-scale
timings per case; without the flag each case runs once as a plain test. Every
case first checks the kernel against the gather oracle, so it never times a
wrong kernel.

The cases are single X and Y flips on qubits 0, 1, 2 and n - 1, a Z-only
string, and the two-site patterns that ``model_pool`` puts on low qubits:
XY on (1, 2), YZ on (2, 3) and XX on the wrapped bond (0, n - 1). Each runs
on 32 rows (the ids without a suffix) and on 96 (``-r96``). Dividing a
case's median by rows·2**n gives ns per amplitude, the figure that
``statevector._rotation_plan``'s rule was chosen by.
"""

import numpy as np
import pytest

from avqds.pauli import PauliString
from avqds.statevector import _rotate_rows
from conftest import _rotation_rows

pytest.importorskip("pytest_benchmark")
pytestmark = pytest.mark.slow

ROWS = (32, 96)


def _cases():
    for n in (6, 8, 10):
        yield n, PauliString.two_site(n, (0, 1), "ZZ"), f"n{n}-none-ZZ"
        for q in (0, 1, 2, n - 1):
            for letter in "XY":
                yield n, PauliString.single(n, q, letter), f"n{n}-q{q}-{letter}"
        for sites, letters in (((1, 2), "XY"), ((2, 3), "YZ"), ((0, n - 1), "XX")):
            yield n, PauliString.two_site(n, sites, letters), f"n{n}-q{sites[0]}q{sites[1]}-{letters}"


_CASES = [(n, p, k, name if k == ROWS[0] else f"{name}-r{k}") for n, p, name in _cases() for k in ROWS]


@pytest.mark.parametrize("n, p, k", [c[:3] for c in _CASES], ids=[c[3] for c in _CASES])
def test_rotation_kernel_speed(benchmark, n, p, k):
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(k, 1 << n)) + 1j * rng.normal(size=(k, 1 << n))
    buf = np.empty_like(rows)
    expected = _rotation_rows(p, 0.3, rows)
    _rotate_rows(p, 0.3, rows, buf)
    assert np.array_equal(rows, expected)
    benchmark.extra_info["amplitudes"] = k << n
    benchmark.pedantic(_rotate_rows, args=(p, 0.3, rows, buf), rounds=50, iterations=5)
