"""The compiled circuit: built once per generator tuple, shared by every
angle update, extended on growth, and bit for bit the per-step rebuild it
replaced (``conftest.rebuilt_pass`` and ``conftest.rebuilt_split_frame``)."""

import numpy as np
import pytest

from avqds.ansatz import Ansatz, ansatz_layout, layout, prepare_state, tangent_states
from avqds.baselines import build_hva
from avqds.mclachlan import _split_frame, _split_point, augment_block, extend_frame
from avqds.models import build_model, default_model, model_sublayers
from avqds.pauli import PauliString
from avqds.statevector import StateVector
from conftest import (
    random_hamiltonian,
    random_pauli,
    random_state,
    rebuilt_pass,
    rebuilt_split_frame,
    step_bounds,
    swept_state,
)

FRAME_ARRAYS = ("psi", "h_psi", "tangents", "overlaps", "frame_psi", "frame_h_psi")


def hva(kind, n_qubits, layers, rng):
    spec = default_model(kind, n_qubits)
    _, h, psi0 = build_model(spec)
    a = build_hva(h, psi0, layers, model_sublayers(spec))
    return a.with_angles(rng.uniform(-1.5, 1.5, size=a.n_params)), h


def cases(rng):
    """HVA ansätze (runs of Z-only generators) and random ones, whose Z-only
    strings make runs of every length, each with a Hamiltonian."""
    yield hva("tfim", 4, 3, rng)
    yield hva("mfim", 4, 2, rng)
    yield hva("tfim", 6, 2, rng)
    for n in (2, 3, 5):
        gens = tuple(random_pauli(rng, n) for _ in range(14))
        a = Ansatz(StateVector(n, random_state(rng, n)), gens, rng.uniform(-1.5, 1.5, size=14))
        yield a, random_hamiltonian(rng, n, n_terms=6)


def assert_same_circuit(got, want):
    assert got.generators == want.generators
    assert [(s.first, s.stop) for s in got.steps] == step_bounds(want.generators)
    for g, w in zip(got.steps, want.steps, strict=True):
        assert (g.first, g.stop, g.plan) == (w.first, w.stop, w.plan)
        if w.plan is None:
            assert np.array_equal(g.signs, w.signs) and np.array_equal(g.reversed_signs, w.reversed_signs)
    assert got.layout == want.layout


def test_with_angles_shares_the_compiled_circuit(rng):
    a, _ = hva("tfim", 4, 2, rng)
    b = a.with_angles(a.angles + 0.1)
    assert b.circuit is a.circuit and ansatz_layout(b) is ansatz_layout(a)
    assert _split_point(b, 3) == _split_point(a, 3)
    with pytest.raises(ValueError, match="other generators"):
        Ansatz(a.reference, a.generators[1:], a.angles[1:], a.circuit)


@pytest.mark.parametrize(
    "base, appended",
    [
        (("XZI", "ZZI"), ("IZZ", "ZIZ")),  # Z-only appended to a trailing Z-only run: one run
        (("ZZI", "IZZ"), ("ZIZ", "XII", "IZZ")),  # the run grows, then new steps follow
        (("XZI", "ZZI"), ("YII", "ZIZ")),  # the trailing run stays as it is
        (("ZIZ", "XII"), ("IZZ", "ZZI")),  # a new run after a rotation
        ((), ("ZZI", "IXI")),
        (("XXI",), ()),
    ],
)
def test_extended_circuit_matches_a_fresh_compile(base, appended):
    def gens(labels):
        return tuple(PauliString.from_label(label) for label in labels)

    ref = StateVector.basis_state(3)
    a = Ansatz(ref, gens(base), np.linspace(0.2, 0.9, len(base)))
    grown = a.extended(gens(appended))
    fresh = Ansatz(ref, grown.generators, grown.angles)
    assert_same_circuit(grown.circuit, fresh.circuit)
    assert grown.circuit.layout == layout(grown.generators, 3)
    for pool_size in range(grown.n_params + 1):
        assert _split_point(grown, pool_size) == _split_point(fresh, pool_size)


def test_extended_circuit_matches_a_fresh_compile_on_growing_ansatze(rng):
    for a, _ in cases(rng):
        grown = a
        for _ in range(4):
            grown = grown.extended(random_pauli(rng, a.n_qubits) for _ in range(int(rng.integers(1, 4))))
        fresh = Ansatz(a.reference, grown.generators, grown.angles)
        assert_same_circuit(grown.circuit, fresh.circuit)
        assert [_split_point(grown, k) for k in range(0, grown.n_params, 3)] == [
            _split_point(fresh, k) for k in range(0, grown.n_params, 3)
        ]


def test_compiled_passes_match_the_rebuilt_passes_bitwise(rng):
    """``tangent_states``, ``prepare_state``, ``_split_frame`` at every step
    boundary, ``augment_block`` and ``extend_frame``, by the compiled circuit
    and by the per-step rebuild, are equal bit for bit."""
    for a, h in cases(rng):
        old = rebuilt_pass(a)
        xi, old_xi = tangent_states(a), tangent_states(old)
        assert np.array_equal(xi, old_xi) and np.array_equal(swept_state(xi), swept_state(old_xi))
        assert np.array_equal(prepare_state(a).amplitudes, prepare_state(old).amplitudes)
        pool = [random_pauli(rng, a.n_qubits) for _ in range(5)]
        grown = a.extended(pool[:2])
        for m in [first for first, _ in step_bounds(a.generators)] + [a.n_params]:
            frame, want = _split_frame(a, h, m), rebuilt_split_frame(a, h, m)
            assert frame.inverse_suffix.n_params == want.inverse_suffix.n_params == a.n_params - m
            for name in FRAME_ARRAYS:
                assert np.array_equal(getattr(frame, name), getattr(want, name)), (m, name)
            assert np.array_equal(frame.system.m, want.system.m) and np.array_equal(frame.system.v, want.system.v)
            for got, expected in zip(augment_block(frame, pool), augment_block(want, pool), strict=True):
                assert np.array_equal(got, expected)
            ext, ext_want = extend_frame(frame, grown), extend_frame(want, grown)
            assert np.array_equal(ext.tangents, ext_want.tangents)
            assert np.array_equal(ext.system.m, ext_want.system.m) and np.array_equal(ext.system.v, ext_want.system.v)


def test_bind_rejects_a_slice_inside_a_z_only_run():
    gens = tuple(PauliString.from_label(label) for label in ("XI", "ZZ", "ZI", "IX"))
    a = Ansatz(StateVector.basis_state(2), gens, [0.1, 0.2, 0.3, 0.4])
    assert a.circuit.bind(a.reference.amplitudes, a.angles, 1, 3).n_params == 2
    with pytest.raises(ValueError):
        a.circuit.bind(a.reference.amplitudes, a.angles, 2)


def test_vectorised_trig_equals_the_scalar_calls_bitwise():
    """A pass takes sin and cos of all its angles in one call and
    exponentiates each run's phase as an array; the CSVs stay byte-identical
    to the per-generator scalar calls only while these agree bit for bit."""
    rng = np.random.default_rng(11)
    angles = np.concatenate([rng.uniform(-4.0, 4.0, 10_000), rng.normal(0.0, 1e-3, 5_000),
                             rng.uniform(-100.0, 100.0, 5_000)])
    for vector, scalar in (
        (np.sin(angles), [np.sin(x) for x in angles]),
        (np.cos(angles), [np.cos(x) for x in angles]),
        (np.exp(-1j * angles), [np.exp(-1j * x) for x in angles]),
        ((-1j * np.sin(angles)).tolist(), [-1j * np.sin(x) for x in angles]),
    ):
        assert np.array_equal(np.asarray(vector).view(np.uint64), np.asarray(scalar).view(np.uint64))
