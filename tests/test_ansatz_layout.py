import numpy as np
import pytest

import avqds.ansatz
from avqds.ansatz import (
    Ansatz,
    ansatz_layout,
    cnot_cost,
    layout,
    prepare_state,
    swept_state,
    tangent_states,
)
from avqds.pauli import PauliString
from avqds.statevector import StateVector, apply_rotation
from conftest import gather_sweep, random_pauli, random_state


def make_ansatz(rng, n_qubits, n_params):
    gens = tuple(random_pauli(rng, n_qubits) for _ in range(n_params))
    angles = rng.uniform(-1.5, 1.5, size=n_params)
    return Ansatz(StateVector(n_qubits, random_state(rng, n_qubits)), gens, angles)


# --- prepare_state --------------------------------------------------------


def test_empty_ansatz_prepares_reference():
    ref = StateVector.basis_state(2, 1)
    out = prepare_state(Ansatz(ref))
    np.testing.assert_array_equal(out.amplitudes, ref.amplitudes)


def test_single_x_rotation():
    a = Ansatz(StateVector.basis_state(1), (PauliString.from_label("X"),), [np.pi / 2])
    np.testing.assert_allclose(prepare_state(a).amplitudes, [0, -1j], atol=1e-15)


def test_prepare_matches_sequential_rotations(rng):
    a = make_ansatz(rng, 3, 5)
    psi = a.reference
    for p, theta in zip(a.generators, a.angles):
        psi = apply_rotation(p, theta, psi)
    np.testing.assert_array_equal(prepare_state(a).amplitudes, psi.amplitudes)


def test_prepare_and_tangents_leave_inputs_unchanged(rng):
    for a in (make_ansatz(rng, 4, 6), Ansatz(StateVector(3, random_state(rng, 3)))):
        ref_before = a.reference.amplitudes.copy()
        angles_before = a.angles.copy()
        psi = prepare_state(a)
        tangent_states(a)
        np.testing.assert_array_equal(a.reference.amplitudes, ref_before)
        np.testing.assert_array_equal(a.angles, angles_before)
        assert not np.shares_memory(psi.amplitudes, a.reference.amplitudes)


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        Ansatz(StateVector.basis_state(1), (PauliString.from_label("X"),), [0.1, 0.2])


# --- tangent_states -------------------------------------------------------


def test_single_x_tangent_closed_form():
    theta = 0.8
    a = Ansatz(StateVector.basis_state(1), (PauliString.from_label("X"),), [theta])
    xi = tangent_states(a)
    np.testing.assert_allclose(
        xi[0], [-np.sin(theta), -1j * np.cos(theta)], atol=1e-14
    )


def test_zero_angles_tangents_are_pauli_actions(rng):
    from avqds.statevector import apply_pauli

    n = 3
    gens = tuple(random_pauli(rng, n) for _ in range(4))
    ref = StateVector(n, random_state(rng, n))
    a = Ansatz(ref, gens, np.zeros(4))
    xi = tangent_states(a)
    for k, gen in enumerate(gens):
        expected = -1j * apply_pauli(gen, ref).amplitudes
        np.testing.assert_allclose(xi[k], expected, atol=1e-14)


def finite_difference_tangents(a, h=1e-5):
    out = np.empty((a.n_params, 1 << a.n_qubits), dtype=complex)
    for k in range(a.n_params):
        up = np.array(a.angles)
        dn = np.array(a.angles)
        up[k] += h
        dn[k] -= h
        plus = prepare_state(a.with_angles(up)).amplitudes
        minus = prepare_state(a.with_angles(dn)).amplitudes
        out[k] = (plus - minus) / (2 * h)
    return out


def test_tangents_match_finite_differences(rng):
    for _ in range(8):
        a = make_ansatz(rng, int(rng.integers(2, 5)), int(rng.integers(1, 7)))
        xi = tangent_states(a)
        fd = finite_difference_tangents(a)
        assert np.max(np.abs(xi - fd)) < 1e-8


def test_tangents_match_gather_sweep_bitwise(rng):
    for n, n_params in ((3, 9), (6, 20)):
        a = make_ansatz(rng, n, n_params)
        a = Ansatz(a.reference, a.generators + (g("Z" * n),), np.append(a.angles, 0.3))
        expected, phi = gather_sweep(a)
        assert np.array_equal(tangent_states(a), expected)
        assert np.array_equal(prepare_state(a).amplitudes, phi)


def flipping_ansatz(rng, n_qubits, n_params):
    """Random weight-1..3 generators, every other one with X or Y on qubit 0."""
    gens = []
    for k in range(n_params):
        p = random_pauli(rng, n_qubits, max_weight=3)
        if k % 2 == 0:
            p = g("XY"[k // 2 % 2] + p.label()[1:])
        gens.append(p)
    angles = rng.uniform(-1.5, 1.5, size=n_params)
    return Ansatz(StateVector(n_qubits, random_state(rng, n_qubits)), tuple(gens), angles)


def assert_sweep_matches_gather(a):
    xi = tangent_states(a)
    expected, phi = gather_sweep(a)
    assert isinstance(xi, np.ndarray) and xi.shape == (a.n_params, 1 << a.n_qubits)
    assert np.array_equal(xi, expected)
    psi = swept_state(xi)
    assert np.array_equal(psi, phi)
    assert np.array_equal(psi, prepare_state(a).amplitudes)


@pytest.mark.parametrize("tile", [1, 2, 3, 7])
@pytest.mark.parametrize("n_qubits", [3, 6])
def test_tiled_sweep_matches_gather_sweep_bitwise(rng, monkeypatch, n_qubits, tile):
    monkeypatch.setattr(avqds.ansatz, "_TILE_BYTES", tile * 16 << n_qubits)
    for n_params in sorted({0, 1, tile - 1, tile, tile + 1, 2 * tile + 3}):
        assert_sweep_matches_gather(flipping_ansatz(rng, n_qubits, n_params))


def test_ten_qubit_sweep_spans_tiles_and_matches_gather_sweep(rng):
    assert avqds.ansatz._TILE_BYTES // (16 << 10) == 32
    assert_sweep_matches_gather(flipping_ansatz(rng, 10, 40))


def test_tangents_unit_norm(rng):
    a = make_ansatz(rng, 4, 6)
    norms = np.linalg.norm(tangent_states(a), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


# --- layout ---------------------------------------------------------------


def g(label):
    return PauliString.from_label(label)


def test_empty_layout():
    lo = layout((), 4)
    assert lo.depth == 0
    assert lo.cnot_count == 0
    assert lo.idle_qubits_in_last_layer() == 0


def test_disjoint_two_qubit_pair():
    lo = layout((g("ZZII"), g("IIXX")), 4)
    assert lo.depth == 1
    assert lo.cnot_count == 4
    assert lo.layers == ((0, 1),)


def test_asap_packs_independent_late_unitary():
    lo = layout((g("ZZII"), g("IZZI"), g("IIIX")), 4)
    assert lo.depth == 2
    assert lo.layers == ((0, 2), (1,))
    assert lo.cnot_count == 4
    assert lo.layer_of == (0, 1, 0)


def test_cnot_rule():
    assert cnot_cost(g("XIII")) == 0
    assert cnot_cost(g("XYII")) == 2
    assert cnot_cost(g("XYZI")) == 4
    assert cnot_cost(g("XYZZ")) == 6


def test_depth_bounds(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        gens = tuple(random_pauli(rng, n) for _ in range(int(rng.integers(1, 10))))
        lo = layout(gens, n)
        assert lo.depth <= len(gens)
    # all supports overlapping forces one layer per unitary
    gens = tuple(PauliString.two_site(4, (0, i), "ZX") for i in (1, 2, 3)) * 2
    assert layout(gens, 4).depth == len(gens)


def test_layout_depends_only_on_supports():
    a = layout((g("ZZII"), g("IZZI"), g("IIIX")), 4)
    b = layout((g("XYII"), g("IXXI"), g("IIIZ")), 4)
    assert a.layers == b.layers
    assert a.layer_of == b.layer_of


def test_layout_idempotent_on_ansatz(rng):
    a = make_ansatz(rng, 4, 6)
    assert ansatz_layout(a).layers == ansatz_layout(a).layers


def test_prefix_depth_is_prefix_of_full_schedule(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        gens = tuple(random_pauli(rng, n) for _ in range(int(rng.integers(1, 10))))
        lo = layout(gens, n)
        for k in range(len(gens)):
            assert lo.prefix_depth(k) == layout(gens[: k + 1], n).depth
        np.testing.assert_array_equal(
            lo.prefix_depths(), [lo.prefix_depth(k) for k in range(len(gens))]
        )
        op = random_pauli(rng, n)
        assert lo.placement_level(op.support_mask) == layout(gens + (op,), n).layer_of[-1]


def test_idle_qubits_mask():
    lo = layout((g("ZZII"), g("IZZI")), 4)
    # last layer holds only the middle bond; qubits 0 and 3 idle
    assert lo.idle_qubits_in_last_layer() == 0b1001


def test_layers_have_disjoint_supports(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        gens = tuple(random_pauli(rng, n) for _ in range(int(rng.integers(1, 12))))
        lo = layout(gens, n)
        for layer in lo.layers:
            seen = 0
            for idx in layer:
                mask = gens[idx].support_mask
                assert seen & mask == 0
                seen |= mask
