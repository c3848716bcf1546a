"""Micro-benchmark of one assembly: the tangent sweep and the M/V formation,
the per-generator oracles against the code they were replaced by, and the
whole assembly split where ``_split_point`` puts it against the forward
sweep.

Each case is an n-qubit TFIM Hamiltonian-variational ansatz cut to N
generators, at random angles: per layer a run of ZZ bonds, which the sweep
applies as one phase multiply, and a run of X fields. ``pytest
tests/test_assembly_bench.py`` prints the timings; every case first checks
that both routes agree within the bounds the sweep and assembly tests use.
"""

import numpy as np
import pytest

from avqds.ansatz import Ansatz, prepare_state, tangent_states
from avqds.baselines import build_hva
from avqds.mclachlan import _split_frame, _split_point, _system
from avqds.models import build_model, default_model, model_sublayers
from avqds.statevector import _hamiltonian_rows
from conftest import complex_gram, gather_sweep, reference_frame, swept_state

pytest.importorskip("pytest_benchmark")
pytestmark = pytest.mark.slow

ATOL = 1e-13


def _case(n_qubits, n_params):
    spec = default_model("tfim", n_qubits)
    _, h, psi0 = build_model(spec)
    layers = -(-n_params // (2 * n_qubits))
    gens = build_hva(h, psi0, layers, model_sublayers(spec)).generators[:n_params]
    angles = np.random.default_rng(n_params).uniform(-1.5, 1.5, size=n_params)
    return Ansatz(psi0, gens, angles), h


def _swept_case(n_qubits, n_params):
    a, h = _case(n_qubits, n_params)
    xi = tangent_states(a)
    psi = swept_state(xi)
    h_psi = _hamiltonian_rows(h, psi)
    energy = float(np.real(np.vdot(psi, h_psi)))
    return a, xi, psi, h_psi, energy


def _real_gram(a, xi, psi, h_psi, energy):
    system, _ = _system(xi, psi, h_psi, energy, 0.0)
    return system.m, system.v


def _complex_gram(a, xi, psi, h_psi, energy):
    return complex_gram(xi, psi, h_psi, energy)[:2]


SIZES = [(n, N) for n in (6, 8, 10) for N in (32, 128, 256)]


@pytest.mark.parametrize("route", ["gather_sweep", "fused_sweep"])
@pytest.mark.parametrize("n_qubits, n_params", SIZES)
def test_sweep_speed(benchmark, n_qubits, n_params, route):
    a, xi, psi, _, _ = _swept_case(n_qubits, n_params)
    expected, phi = gather_sweep(a)
    assert np.max(np.abs(xi - expected)) <= ATOL and np.max(np.abs(psi - phi)) <= ATOL
    sweep = gather_sweep if route == "gather_sweep" else tangent_states
    benchmark.pedantic(sweep, args=(a,), rounds=5, iterations=1)


@pytest.mark.parametrize("route", ["complex_gram", "real_gram"])
@pytest.mark.parametrize("n_qubits, n_params", SIZES)
def test_metric_and_force_speed(benchmark, n_qubits, n_params, route):
    case = _swept_case(n_qubits, n_params)
    for new, old in zip(_real_gram(*case), _complex_gram(*case)):
        assert np.max(np.abs(new - old)) <= ATOL
    form = _complex_gram if route == "complex_gram" else _real_gram
    benchmark.pedantic(form, args=case, rounds=20, iterations=1)


@pytest.mark.parametrize("route", ["forward", "split"])
@pytest.mark.parametrize("n_qubits, n_params", SIZES)
def test_split_assembly_speed(benchmark, n_qubits, n_params, route):
    a, h = _case(n_qubits, n_params)
    m = n_params if route == "forward" else _split_point(a)
    frame, expected = _split_frame(a, h, m), reference_frame(a, h)
    assert np.max(np.abs(frame.system.m - expected.system.m)) <= ATOL
    assert np.max(np.abs(frame.system.v - expected.system.v)) <= ATOL
    assert np.array_equal(frame.psi, prepare_state(a).amplitudes)
    benchmark.extra_info["split"] = m
    benchmark.pedantic(_split_frame, args=(a, h, m), rounds=5, iterations=1)
