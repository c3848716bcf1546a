import numpy as np
import pytest

import avqds.ansatz
from avqds.ansatz import (
    Ansatz,
    ansatz_layout,
    cnot_cost,
    layout,
    prepare_state,
    tangent_states,
)
from avqds.baselines import build_hva
from avqds.models import build_model, default_model, model_sublayers
from avqds.pauli import PauliString
from avqds.statevector import StateVector, apply_rotation
from conftest import gather_sweep, random_pauli, random_state, swept_state

# Where a run of Z-only generators occurs, the sweep applies it as one phase
# multiply and the per-generator gather sweep rotates by each generator in
# turn: rows and psi then agree within this bound, not bit for bit.
Z_RUN_ATOL = 1e-13


def make_ansatz(rng, n_qubits, n_params):
    gens = tuple(random_pauli(rng, n_qubits) for _ in range(n_params))
    angles = rng.uniform(-1.5, 1.5, size=n_params)
    return Ansatz(StateVector(n_qubits, random_state(rng, n_qubits)), gens, angles)


def flipping(p):
    """``p``, or, if it is Z-only, ``p`` with an X added on its lowest qubit."""
    return p if p.x_bits else PauliString(p.n_qubits, p.z_bits & -p.z_bits, p.z_bits)


def without_z_only(a):
    return Ansatz(a.reference, tuple(flipping(p) for p in a.generators), a.angles)


def hva_ansatz(rng, kind, n_qubits, layers):
    """The model's HVA at random angles: per layer, runs of ZZ bonds (and Z
    fields for mfim) between X-field runs."""
    spec = default_model(kind, n_qubits)
    _, h, psi0 = build_model(spec)
    a = build_hva(h, psi0, layers, model_sublayers(spec))
    return a.with_angles(rng.uniform(-1.5, 1.5, size=a.n_params))


# --- prepare_state --------------------------------------------------------


def test_empty_ansatz_prepares_reference():
    ref = StateVector.basis_state(2, 1)
    out = prepare_state(Ansatz(ref))
    np.testing.assert_array_equal(out.amplitudes, ref.amplitudes)


def test_single_x_rotation():
    a = Ansatz(StateVector.basis_state(1), (PauliString.from_label("X"),), [np.pi / 2])
    np.testing.assert_allclose(prepare_state(a).amplitudes, [0, -1j], atol=1e-15)


def test_prepare_matches_sequential_rotations(rng):
    for _ in range(4):
        a = make_ansatz(rng, 3, 8)
        for fused in (a, without_z_only(a)):
            psi = fused.reference
            for p, theta in zip(fused.generators, fused.angles):
                psi = apply_rotation(p, theta, psi)
            out = prepare_state(fused).amplitudes
            if fused is a:
                np.testing.assert_allclose(out, psi.amplitudes, rtol=0, atol=Z_RUN_ATOL)
            else:  # one rotation per generator, with the same kernel
                np.testing.assert_array_equal(out, psi.amplitudes)


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
    """Without a Z-only generator the sweep rotates by each generator with
    the kernel the gather sweep reproduces, so every bit agrees."""
    for n, n_params in ((3, 9), (6, 20)):
        a = without_z_only(make_ansatz(rng, n, n_params))
        a = Ansatz(a.reference, a.generators + (g("Y" + "Z" * (n - 1)),), np.append(a.angles, 0.3))
        expected, phi = gather_sweep(a)
        assert np.array_equal(tangent_states(a), expected)
        assert np.array_equal(prepare_state(a).amplitudes, phi)


def assert_sweep_matches_gather(a, atol=0.0):
    """Rows and psi against the gather sweep (bit for bit unless ``atol``),
    and psi bit for bit against ``prepare_state``."""
    xi = tangent_states(a)
    expected, phi = gather_sweep(a)
    assert isinstance(xi, np.ndarray) and xi.shape == (a.n_params, 1 << a.n_qubits)
    psi = swept_state(xi)
    if atol:
        assert np.max(np.abs(xi - expected), initial=0.0) <= atol
        assert np.max(np.abs(psi - phi)) <= atol
    else:
        assert np.array_equal(xi, expected)
        assert np.array_equal(psi, phi)
    assert np.array_equal(psi, prepare_state(a).amplitudes)
    return xi


@pytest.mark.parametrize("kind, n_qubits, layers", [("tfim", 6, 4), ("mfim", 6, 3), ("tfim", 8, 2), ("hm", 4, 2)])
def test_z_runs_match_gather_sweep_within_bound(rng, kind, n_qubits, layers):
    a = hva_ansatz(rng, kind, n_qubits, layers)
    assert any(not p.x_bits for p in a.generators)
    assert_sweep_matches_gather(a, atol=Z_RUN_ATOL)


def test_z_runs_of_length_one_match_gather_sweep(rng):
    n = 4
    for _ in range(5):
        # lone Z-only generators between flipping ones, and one at each end
        gens = tuple(
            PauliString(n, 0, int(rng.integers(1, 1 << n))) if k % 2 == 0 else flipping(random_pauli(rng, n, 3))
            for k in range(13)
        )
        a = Ansatz(StateVector(n, random_state(rng, n)), gens, rng.uniform(-1.5, 1.5, size=len(gens)))
        assert_sweep_matches_gather(a, atol=Z_RUN_ATOL)


def flipping_ansatz(rng, n_qubits, n_params):
    """Random weight-1..3 generators, every other one with X or Y on qubit 0,
    and no Z-only one."""
    gens = []
    for k in range(n_params):
        p = random_pauli(rng, n_qubits, max_weight=3)
        if k % 2 == 0:
            p = g("XY"[k // 2 % 2] + p.label()[1:])
        gens.append(p)
    angles = rng.uniform(-1.5, 1.5, size=n_params)
    return without_z_only(Ansatz(StateVector(n_qubits, random_state(rng, n_qubits)), tuple(gens), angles))


def z_run_ansatz(rng, n_qubits, n_params):
    """Runs of one to five Z-only generators between single flips."""
    gens = []
    while len(gens) < n_params:
        gens += [PauliString(n_qubits, 0, int(rng.integers(1, 1 << n_qubits))) for _ in range(rng.integers(1, 6))]
        gens.append(flipping(random_pauli(rng, n_qubits, max_weight=3)))
    angles = rng.uniform(-1.5, 1.5, size=n_params)
    return Ansatz(StateVector(n_qubits, random_state(rng, n_qubits)), tuple(gens[:n_params]), angles)


@pytest.mark.parametrize("tile", [1, 2, 3, 7])
@pytest.mark.parametrize("n_qubits", [3, 6])
def test_tiled_sweep_matches_gather_sweep_bitwise(rng, monkeypatch, n_qubits, tile):
    monkeypatch.setattr(avqds.ansatz, "_TILE_BYTES", tile * 16 << n_qubits)
    for n_params in sorted({0, 1, tile - 1, tile, tile + 1, 2 * tile + 3}):
        assert_sweep_matches_gather(flipping_ansatz(rng, n_qubits, n_params))


@pytest.mark.parametrize("tile", [1, 2, 3, 7])
@pytest.mark.parametrize("n_qubits", [1, 3, 6])
def test_tiled_sweep_with_z_runs_matches_untiled_bitwise(rng, monkeypatch, n_qubits, tile):
    """Z runs that start, end and cross tile boundaries: every row meets the
    same operations whatever the tile size."""
    for n_params in sorted({1, tile - 1, tile, tile + 1, 2 * tile + 3, 4 * tile + 5} - {0}):
        a = z_run_ansatz(rng, n_qubits, n_params)
        untiled = tangent_states(a).base.copy()
        with monkeypatch.context() as m:
            m.setattr(avqds.ansatz, "_TILE_BYTES", tile * 16 << n_qubits)
            assert np.array_equal(assert_sweep_matches_gather(a, atol=Z_RUN_ATOL).base, untiled)


@pytest.mark.parametrize("tile", [1, 2, 3, 1 << 20])
def test_carried_rows_ride_the_sweep_bitwise(rng, monkeypatch, tile):
    """Rows carried ahead of the tangents (as the split assembly carries H·psi)
    leave the tangents and psi bit for bit as without them, at any tile size,
    and come out as ``prepare_state`` from them would, bit for bit."""
    monkeypatch.setattr(avqds.ansatz, "_TILE_BYTES", tile * 16 << 3)
    for a in (z_run_ansatz(rng, 3, 9), flipping_ansatz(rng, 3, 8)):
        carried = [random_state(rng, 3) for _ in range(2)]
        out = np.empty((a.n_params + 3, 8), dtype=np.complex128)
        out[:2] = carried
        xi = tangent_states(a, out=out, carried=2)
        plain = tangent_states(a)
        assert np.array_equal(xi, plain) and np.array_equal(out[-1], swept_state(plain))
        for row, state in zip(out[:2], carried):
            assert np.array_equal(row, prepare_state(Ansatz(StateVector(3, state), a.generators, a.angles)).amplitudes)


def test_ten_qubit_sweep_spans_tiles_and_matches_gather_sweep(rng, monkeypatch):
    assert avqds.ansatz._TILE_BYTES // (16 << 10) == 32
    for a, atol in ((flipping_ansatz(rng, 10, 40), 0.0), (z_run_ansatz(rng, 10, 70), Z_RUN_ATOL)):
        tiled = assert_sweep_matches_gather(a, atol=atol)
        with monkeypatch.context() as m:
            m.setattr(avqds.ansatz, "_TILE_BYTES", 1 << 30)
            assert np.array_equal(tangent_states(a).base, tiled.base)


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
