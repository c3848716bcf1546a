"""Micro-benchmark of one assembly: the tangent sweep and the M/V formation,
the per-generator oracles against the code they were replaced by, the
whole assembly split where ``_split_point`` puts it against the forward
sweep, and the assembly on a compiled circuit (warm), on one compiled from
scratch (cold) and on one extended by a growth (grown). ``ansatz_layout``
on the compiled layout is timed against a layout packed afresh for the
call. ``noisy_system`` on the compiled layout, whose noise plan is cached,
is timed against ``reference_noisy_system``, which builds its mask on
every call, and against ``noisy_system`` on a layout packed afresh.

Each case is an n-qubit TFIM Hamiltonian-variational ansatz cut to N
generators, at random angles: per layer a run of ZZ bonds, which the sweep
applies as one phase multiply, and a run of X fields. ``pytest
tests/test_assembly_bench.py --benchmark-enable`` prints the timings; every
case first checks that both routes agree within the bounds the sweep and
assembly tests use.

The tangent sweep of a TETRIS-like 10-qubit ansatz of the TFIM Hamiltonian
pool, whose repeated X-field layers make runs of commuting generators wider
than a tile, is timed with births at the end of each run and by the
per-step rebuild (``conftest.rebuilt_pass``); both first agree bit for bit.

The assembly at 10, 12 and 14 qubits, where the sweeps fill tiles, is timed
after it agrees with ``reference_frame``.

Building a circuit's ``Workspace`` from scratch, which the first assembly
after each growth pays, is timed at the final sizes of the benchmark
workloads (8 qubits at N = 101 and 128, 10 qubits at N = 167, whose sweeps
fill tiles) after a frame assembled in the built workspace equals
``conftest.rebuilt_split_frame`` bit for bit.
"""

import numpy as np
import pytest

from avqds.ansatz import Ansatz, Workspace, ansatz_layout, layout, prepare_state, tangent_states
from avqds.baselines import build_hva
from avqds.mclachlan import _split_frame, _split_point, _system, assemble_frame
from avqds.models import build_model, default_model, hamiltonian_term_pool, model_sublayers
from avqds.noise import NoiseConfig, noisy_system
from avqds.statevector import _hamiltonian_rows
from conftest import (
    bound_tangent_states,
    complex_gram,
    gather_sweep,
    rebuilt_pass,
    rebuilt_split_frame,
    reference_frame,
    reference_noisy_system,
    rows_rotated,
    swept_state,
)

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


def _fresh_layout(a):
    return layout(a.generators, a.n_qubits)


@pytest.mark.parametrize("route", ["fresh_layout", "compiled_layout"])
@pytest.mark.parametrize("n_qubits, n_params", SIZES)
def test_layout_speed(benchmark, n_qubits, n_params, route):
    a, _ = _case(n_qubits, n_params)
    assert ansatz_layout(a) == _fresh_layout(a)
    lookup = _fresh_layout if route == "fresh_layout" else ansatz_layout
    benchmark.pedantic(lookup, args=(a,), rounds=20, iterations=5)


@pytest.mark.parametrize("route", ["reference", "fresh_layout", "compiled_layout"])
@pytest.mark.parametrize("n_qubits, n_params", SIZES)
def test_noisy_system_speed(benchmark, n_qubits, n_params, route):
    a, h = _case(n_qubits, n_params)
    system = assemble_frame(a, h).system
    cfg = NoiseConfig(n_shots=1e4, d_c=0)
    rng, expected_rng = np.random.default_rng(5), np.random.default_rng(5)
    planned = noisy_system(system, ansatz_layout(a), cfg, rng)
    expected = reference_noisy_system(system, _fresh_layout(a), cfg, expected_rng)
    assert np.array_equal(planned.m, expected.m) and np.array_equal(planned.v, expected.v)
    assert rng.bit_generator.state == expected_rng.bit_generator.state
    inject = reference_noisy_system if route == "reference" else noisy_system
    lookup = _fresh_layout if route == "fresh_layout" else ansatz_layout
    rng = np.random.default_rng(7)
    benchmark.pedantic(lambda: inject(system, lookup(a), cfg, rng), rounds=20, iterations=5)


@pytest.mark.parametrize("route", ["cold", "grown", "warm"])
@pytest.mark.parametrize("n_qubits, n_params", SIZES)
def test_compiled_assembly_speed(benchmark, n_qubits, n_params, route):
    a, h = _case(n_qubits, n_params)
    base = Ansatz(a.reference, a.generators[:-n_qubits], a.angles[:-n_qubits])

    def cold():
        return assemble_frame(Ansatz(a.reference, a.generators, a.angles), h)

    def grown():
        return assemble_frame(base.extended(a.generators[-n_qubits:]).with_angles(a.angles), h)

    def warm():
        return assemble_frame(a.with_angles(a.angles), h)

    frames = [cold(), grown(), warm()]
    for frame in frames[1:]:
        assert np.array_equal(frame.system.m, frames[0].system.m)
        assert np.array_equal(frame.system.v, frames[0].system.v)
        assert np.array_equal(frame.psi, frames[0].psi)
    benchmark.pedantic({"cold": cold, "grown": grown, "warm": warm}[route], rounds=5, iterations=1)


def _tetris_case(n_qubits, layers, repeats):
    """TETRIS-like layers of the TFIM Hamiltonian pool at random angles: ZZ
    bonds on disjoint pairs of one half of the ring and X fields on the other
    half, alternating halves, each layer followed by ``repeats`` layers of X
    fields on every qubit."""
    spec = default_model("tfim", n_qubits)
    ops = hamiltonian_term_pool(spec).operators
    bonds = {p.support: p for p in ops if not p.x_bits}
    fields = [p for p in ops if p.x_bits]
    half = n_qubits // 2
    gens = []
    for layer in range(layers):
        bonded = range(0, half) if layer % 2 == 0 else range(half, n_qubits)
        gens += [bonds[(q, q + 1)] for q in bonded[:-1:2]]
        gens += [p for p in fields if p.support[0] not in bonded[: len(bonded) // 2 * 2]]
        gens += fields * repeats
    _, _, psi0 = build_model(spec)
    return Ansatz(psi0, tuple(gens), np.random.default_rng(len(gens)).uniform(-1.5, 1.5, size=len(gens)))


@pytest.mark.parametrize("route", ["rebuilt", "commuting_runs"])
def test_commuting_run_sweep_speed(benchmark, route):
    a = _tetris_case(10, 4, 4)
    ws = a.circuit.workspace(a.n_params)

    def compiled():
        return tangent_states(ws.load(a.reference.amplitudes, a.angles)[0])

    def rebuilt():
        return bound_tangent_states(rebuilt_pass(a))

    xi, want = compiled(), rebuilt()
    assert np.array_equal(xi, want) and np.array_equal(swept_state(xi), swept_state(want))
    benchmark.extra_info["row_rotations"] = rows_rotated(ws.prefix)
    benchmark.pedantic(rebuilt if route == "rebuilt" else compiled, rounds=20, iterations=1)


@pytest.mark.parametrize("n_qubits, n_params", [(10, 200), (12, 192), (14, 140)])
def test_tiled_assembly_speed(benchmark, n_qubits, n_params):
    a, h = _case(n_qubits, n_params)
    frame, expected = assemble_frame(a, h), reference_frame(a, h)
    assert np.max(np.abs(frame.system.m - expected.system.m)) <= ATOL
    assert np.max(np.abs(frame.system.v - expected.system.v)) <= ATOL
    assert np.array_equal(frame.psi, prepare_state(a).amplitudes)
    benchmark.extra_info["split"] = _split_point(a)
    benchmark.pedantic(assemble_frame, args=(a, h), rounds=7, iterations=1)


@pytest.mark.parametrize("n_qubits, n_params", [(8, 101), (8, 128), (10, 167)])
def test_workspace_build_speed(benchmark, n_qubits, n_params):
    a, h = _case(n_qubits, n_params)
    m = _split_point(a)
    frame, want = _split_frame(a, h, m), rebuilt_split_frame(a, h, m)  # the first assembly builds the workspace
    for name in ("psi", "h_psi", "tangents", "overlaps", "frame_psi", "frame_h_psi"):
        assert np.array_equal(getattr(frame, name), getattr(want, name)), name
    assert np.array_equal(frame.system.m, want.system.m) and np.array_equal(frame.system.v, want.system.v)
    assert (frame.energy, frame.system.var_h) == (want.energy, want.system.var_h)
    benchmark.extra_info["split"] = m
    benchmark.pedantic(Workspace, args=(a.circuit, m), rounds=40, iterations=1)
