"""Micro-benchmark of the exact oracle: ``ExactPropagator`` set-up plus one
``state_at`` call on TFIM, on the dense path at 6, 8 and 9 qubits and on the
Taylor stepper at 10 and 12, so both sides of ``_DENSE_MAX_QUBITS`` are timed.

``pytest tests/test_oracle_bench.py --benchmark-enable`` prints the timings;
without the flag each case runs once as a plain test. Every case first
checks the H that its path uses against the COO builder's
(``conftest.hamiltonian_coo``): on the dense path the dense H bit for bit,
and on the stepper its grouped H·v against the COO matrix times v, which
builds no dense matrix.
"""

import numpy as np
import pytest

from avqds.models import ModelSpec, build_model
from avqds.statevector import _DENSE_MAX_QUBITS, ExactPropagator, dense_hamiltonian
from conftest import hamiltonian_coo, random_state

pytestmark = pytest.mark.slow

DT = 0.005


def _oracle(h, psi0):
    return ExactPropagator(h, psi0).state_at(DT)


@pytest.mark.parametrize("n", [6, 8, 9, 10, 12])
def test_oracle_speed(benchmark, n):
    _, h, psi0 = build_model(ModelSpec("tfim", n, j=1.0, h_x=-2.0))
    prop = ExactPropagator(h, psi0)
    assert prop._dense == (n <= _DENSE_MAX_QUBITS)
    if prop._dense:
        dense, coo = dense_hamiltonian(h), hamiltonian_coo(h).toarray()
        assert dense.dtype == coo.dtype == np.float64
        assert np.array_equal(dense.view(np.int64), coo.view(np.int64))  # bits, not values
    else:
        v = random_state(np.random.default_rng(n), n)
        prop._term[0] = v
        prop._apply_h()
        np.testing.assert_allclose(prop._h_term[0], hamiltonian_coo(h) @ v, rtol=0, atol=1e-13)
    benchmark.pedantic(_oracle, args=(h, psi0), rounds=5, iterations=1)
