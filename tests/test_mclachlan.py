from dataclasses import replace

import numpy as np
import pytest

import avqds.engine as engine
import avqds.mclachlan as mclachlan
from avqds.ansatz import Ansatz, CircuitSlice, ansatz_layout, prepare_state, tangent_states
from avqds.baselines import build_hva
from avqds.experiment import preset_benchmark, run_single
from avqds.mclachlan import (
    _split_frame,
    _split_point,
    _system,
    assemble_frame,
    augment_block,
    extend_frame,
    extend_system,
    mclachlan_distance,
)
from avqds.models import build_model, default_model, model_sublayers
from avqds.noise import NoiseConfig, noisy_system
from avqds.pauli import PauliString, WeightedPauliSum
from avqds.solvers import SolverConfig, solve
from avqds.statevector import StateVector, _hamiltonian_rows, variance
from conftest import (
    dense_sum,
    random_hamiltonian,
    random_pauli,
    random_state,
    reference_border,
    reference_carried,
    reference_frame,
    step_bounds,
    swept_state,
)


def make_ansatz(rng, n_qubits, n_params):
    gens = tuple(random_pauli(rng, n_qubits) for _ in range(n_params))
    angles = rng.uniform(-1.5, 1.5, size=n_params)
    return Ansatz(StateVector(n_qubits, random_state(rng, n_qubits)), gens, angles)


def x_ansatz(theta):
    return Ansatz(StateVector.basis_state(1), (PauliString.from_label("X"),), [theta])


X1 = WeightedPauliSum(1, [(1.0, PauliString.from_label("X"))])
Z1 = WeightedPauliSum(1, [(1.0, PauliString.from_label("Z"))])


# --- assembly -------------------------------------------------------------


def test_empty_ansatz_system():
    ref = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    s = assemble_frame(Ansatz(ref), Z1).system
    assert s.m.shape == (0, 0)
    assert s.v.shape == (0,)
    assert s.var_h == pytest.approx(variance(Z1, ref))


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.2, -2.0])
def test_single_x_with_x_field(theta):
    s = assemble_frame(x_ansatz(theta), X1).system
    np.testing.assert_allclose(s.m, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(s.v, [1.0], atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.2, -2.0])
def test_single_x_with_z_field(theta):
    s = assemble_frame(x_ansatz(theta), Z1).system
    np.testing.assert_allclose(s.m, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(s.v, [0.0], atol=1e-12)


def fd_reference_system(a, h, step=1e-6):
    """M and V evaluated from finite-difference derivative states only."""
    psi = prepare_state(a).amplitudes
    hd = dense_sum(h)
    n = a.n_params
    xi = np.empty((n, psi.shape[0]), dtype=complex)
    for k in range(n):
        up = np.array(a.angles)
        dn = np.array(a.angles)
        up[k] += step
        dn[k] -= step
        xi[k] = (
            prepare_state(a.with_angles(up)).amplitudes
            - prepare_state(a.with_angles(dn)).amplitudes
        ) / (2 * step)
    proj = np.eye(psi.shape[0]) - np.outer(psi, psi.conj())
    m = np.real(xi.conj() @ proj @ xi.T)
    v = np.imag(xi.conj() @ proj @ hd @ psi)
    return m, v


def test_assembly_matches_finite_difference_definition(rng):
    for _ in range(6):
        n = int(rng.integers(2, 5))
        a = make_ansatz(rng, n, int(rng.integers(1, 6)))
        h = random_hamiltonian(rng, n)
        s = assemble_frame(a, h).system
        m_ref, v_ref = fd_reference_system(a, h)
        np.testing.assert_allclose(s.m, m_ref, atol=5e-9)
        np.testing.assert_allclose(s.v, v_ref, atol=5e-9)


def test_metric_psd_and_null_orthogonal_to_force(rng):
    for _ in range(40):
        n = int(rng.integers(2, 5))
        a = make_ansatz(rng, n, int(rng.integers(1, 8)))
        h = random_hamiltonian(rng, n)
        s = assemble_frame(a, h).system
        np.testing.assert_allclose(s.m, s.m.T, atol=1e-12)
        w, u = np.linalg.eigh(s.m)
        assert w.min(initial=np.inf) >= -1e-10
        for k in range(len(w)):
            if w[k] <= 1e-10:
                assert abs(u[:, k] @ s.v) <= 1e-8


def assert_frames_close(frame, expected, atol):
    np.testing.assert_allclose(frame.system.m, expected.system.m, rtol=0, atol=atol)
    np.testing.assert_allclose(frame.system.v, expected.system.v, rtol=0, atol=atol)
    assert frame.system.var_h == pytest.approx(expected.system.var_h, rel=0, abs=atol)
    np.testing.assert_allclose(frame.psi, expected.psi, rtol=0, atol=atol)
    np.testing.assert_allclose(frame.overlaps, expected.overlaps, rtol=0, atol=atol)


def test_real_assembly_matches_complex_gram_reference(rng):
    """The fused sweep and the real Gram product against the per-generator
    gather sweep and the complex Gram of a conjugated copy."""
    for _ in range(6):
        n = int(rng.integers(2, 6))
        a = make_ansatz(rng, n, int(rng.integers(0, 25)))
        h = random_hamiltonian(rng, n, n_terms=6)
        frame = assemble_frame(a, h)
        assert np.array_equal(frame.system.m, frame.system.m.T)
        assert_frames_close(frame, reference_frame(a, h), 1e-13)


def test_extended_frame_matches_a_fresh_assembly(rng):
    """Growth reuses the swept frame: old rows, psi, H·psi, E and var_h stay,
    the new rows are -i·P·psi and only M and V are formed again."""
    spec = default_model("mfim", 4)
    _, h, psi0 = build_model(spec)
    hva = build_hva(h, psi0, 2, model_sublayers(spec))
    a = hva.with_angles(rng.uniform(-1, 1, size=hva.n_params))
    assert not a.generators[-1].x_bits  # appended Z-only ones extend its last run
    frame = assemble_frame(a, h)
    for new in ([PauliString.from_label("ZZII"), PauliString.from_label("IIIZ")],
                [random_pauli(rng, 4) for _ in range(3)], []):
        grown = a.extended(new)
        extended = extend_frame(frame, grown)
        assert extended.ansatz is grown
        assert np.array_equal(extended.tangents[: a.n_params], frame.tangents)
        assert np.array_equal(extended.psi, frame.psi)
        assert extended.h_psi is frame.h_psi and extended.energy == frame.energy
        assert extended.system.var_h == frame.system.var_h
        assert_frames_close(extended, assemble_frame(grown, h), 1e-13)
    with pytest.raises(ValueError):
        extend_frame(frame, a.extended([PauliString.from_label("XIII")]).with_angles(np.full(a.n_params + 1, 0.1)))


# --- split sweep ----------------------------------------------------------

SPLIT_ATOL = 1e-13


def split_cases(rng):
    """TFIM and MFIM HVA ansätze (runs of Z-only generators) and ansätze of
    random Pauli strings, at random angles, with a few candidates each."""
    for kind in ("tfim", "mfim"):
        spec = default_model(kind, 4)
        _, h, psi0 = build_model(spec)
        hva = build_hva(h, psi0, 2, model_sublayers(spec))
        yield hva.with_angles(rng.uniform(-1.5, 1.5, size=hva.n_params)), h
    for n in (2, 3, 5):
        yield make_ansatz(rng, n, 12), random_hamiltonian(rng, n, n_terms=6)


def test_split_frame_matches_the_reference_at_every_step_boundary(rng):
    """M, V, the overlaps, the candidate border and the extended frame, with
    the rows carried to any step boundary m from 0 to N, against the gather
    sweep and complex Gram at the end of the circuit; psi bit for bit."""
    for a, h in split_cases(rng):
        expected = reference_frame(a, h)
        pool = [random_pauli(rng, a.n_qubits) for _ in range(4)]
        border = augment_block(expected, pool)
        grown = a.extended(pool[:2])
        expected_grown = reference_frame(grown, h)
        psi = prepare_state(a).amplitudes
        for m in [first for first, _ in step_bounds(a.generators)] + [a.n_params]:
            frame = _split_frame(a, h, m)
            assert frame.inverse_suffix.n_params == a.n_params - m
            assert np.array_equal(frame.psi, psi)
            assert_frames_close(frame, expected, SPLIT_ATOL)
            for got, want in zip(augment_block(frame, pool), border):
                np.testing.assert_allclose(got, want, rtol=0, atol=SPLIT_ATOL)
            assert_frames_close(extend_frame(frame, grown), expected_grown, SPLIT_ATOL)


def counted_births_and_carries(monkeypatch):
    """Counts of the births (``_run`` of prebuilt calls) and carries
    (``CircuitSlice.apply``) that ``mclachlan`` makes from now on."""
    counts = {"births": 0, "carries": 0}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(mclachlan, "_run", counting("births", mclachlan._run))
    monkeypatch.setattr(CircuitSlice, "apply", counting("carries", CircuitSlice.apply))
    return counts


def test_border_rows_are_the_births_carried_bit_for_bit(rng, monkeypatch):
    """At every step boundary, the carried rows the border memoises and the
    rows ``extend_frame`` appends, from the memo or born without it, are
    ``_pauli_into`` followed by ``CircuitSlice.apply`` bit for bit, sign bits
    included; so are the forces. A second ``augment_block`` on the extended
    frame births and carries nothing, and its columns are the reference
    border's against the grown tangents."""
    for a, h in split_cases(rng):
        pool = [random_pauli(rng, a.n_qubits) for _ in range(6)]
        grown, n = a.extended(pool[1:4]), a.n_params
        for m in [first for first, _ in step_bounds(a.generators)] + [n]:
            frame = _split_frame(a, h, m)
            _, diags, v_new = augment_block(frame, pool)
            fresh_slice = replace(frame, inverse_suffix=CircuitSlice(a.circuit, a.angles, m, inverse=True), borders={})
            rows, overlaps, forces = reference_carried(fresh_slice, pool)
            assert frame.borders[tuple(pool)].rows.tobytes() == rows.tobytes()
            assert v_new.tobytes() == forces.tobytes()
            assert diags.tobytes() == (1.0 - np.abs(overlaps) ** 2).tobytes()
            unmemoised = extend_frame(replace(frame, borders={}), grown)
            assert unmemoised.tangents[n:].tobytes() == rows[1:4].tobytes()
            counts = counted_births_and_carries(monkeypatch)
            ext = extend_frame(frame, grown)
            assert ext.tangents[n:].tobytes() == rows[1:4].tobytes()
            again = augment_block(ext, pool)
            assert counts == {"births": 0, "carries": 0}
            monkeypatch.undo()
            for got, want in zip(again, reference_border(ext, pool), strict=True):
                np.testing.assert_allclose(got, want, rtol=0, atol=SPLIT_ATOL)


def test_one_frame_bordered_with_other_lists_keeps_its_own_rows(rng, monkeypatch):
    """Two candidate lists on one frame, and the same lists on a frame of
    other angles, in turn: each border gets its own list's rows, carried by
    its own frame, although one list's prebuilt births serve both frames.
    A border keeps its rows after another frame borders its list, so
    extending its frame then births and carries nothing."""
    a, h = next(split_cases(rng))
    boundaries = [first for first, _ in step_bounds(a.generators)]
    m = boundaries[len(boundaries) // 2]
    frame = _split_frame(a, h, m)
    other = _split_frame(a.with_angles(rng.uniform(-1.5, 1.5, size=a.n_params)), h, m)
    first, second = [random_pauli(rng, 4) for _ in range(4)], [random_pauli(rng, 4) for _ in range(3)]
    for f, pool in [(frame, first), (frame, second), (other, first), (frame, first), (other, second),
                    (frame, second), (frame, first)]:
        for got, want in zip(augment_block(f, pool), reference_border(f, pool), strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=SPLIT_ATOL)
        assert f.borders[tuple(pool)].rows.tobytes() == reference_carried(f, pool)[0].tobytes()
    augment_block(other, first)  # births ``first`` again, into the block frame's border was born in
    counts = counted_births_and_carries(monkeypatch)
    ext = extend_frame(frame, a.extended(first[:2]))
    assert counts == {"births": 0, "carries": 0}
    monkeypatch.undo()
    assert ext.tangents[a.n_params :].tobytes() == reference_carried(frame, first)[0][:2].tobytes()


def test_unsplit_frame_is_the_forward_sweep_bit_for_bit(rng):
    """m = N is the forward sweep: the same tangent block, psi and H·psi
    as their own carried states, and M and V formed from them."""
    for a, h in split_cases(rng):
        frame = _split_frame(a, h, a.n_params)
        xi = tangent_states(a)
        assert frame.inverse_suffix.n_params == 0
        assert np.array_equal(frame.tangents, xi)
        assert np.array_equal(frame.frame_psi, frame.psi) and np.array_equal(frame.psi, swept_state(xi))
        assert np.array_equal(frame.frame_h_psi, frame.h_psi)
        assert np.array_equal(frame.h_psi, _hamiltonian_rows(h, frame.psi))
        system, overlaps = _system(xi, frame.psi, frame.h_psi, frame.energy, frame.system.var_h)
        assert np.array_equal(frame.system.m, system.m) and np.array_equal(frame.system.v, system.v)
        assert np.array_equal(frame.overlaps, overlaps)


def test_split_point_is_a_step_boundary_after_the_pool():
    """The split is N or a step boundary (never inside a Z-only run) at or
    after ``pool_size``; small systems are not split."""
    spec = default_model("tfim", 8)
    _, h, psi0 = build_model(spec)
    hva = build_hva(h, psi0, 4, model_sublayers(spec))
    a = hva.with_angles(np.linspace(-1.0, 1.0, hva.n_params))
    starts = {first for first, _ in step_bounds(a.generators)}
    m = _split_point(a)
    assert m in starts and 0 < m < a.n_params
    for pool_size in (m, m + 1, a.n_params - 1):
        split = _split_point(a, pool_size)
        assert split == a.n_params or (split in starts and split >= pool_size)
    assert _split_point(a, a.n_params + 1) == a.n_params
    assert assemble_frame(a, h, a.n_params).inverse_suffix.n_params == 0
    spec = default_model("tfim", 4)
    _, h, psi0 = build_model(spec)
    small = build_hva(h, psi0, 2, model_sublayers(spec))
    assert _split_point(small) == small.n_params


# --- distance -------------------------------------------------------------


def test_distance_at_zero_velocity(rng):
    a = make_ansatz(rng, 3, 4)
    h = random_hamiltonian(rng, 3)
    s = assemble_frame(a, h).system
    assert mclachlan_distance(s, np.zeros(4)) == pytest.approx(2 * s.var_h)


def test_distance_exactly_representable_case():
    s = assemble_frame(x_ansatz(0.7), X1).system
    assert mclachlan_distance(s, np.array([1.0])) == pytest.approx(0.0, abs=1e-12)


def dense_defect_norm(a, h, theta_dot):
    """Frobenius norm^2 of the density-matrix derivative defect."""
    psi = prepare_state(a).amplitudes
    xi = tangent_states(a)
    hd = dense_sum(h)
    rho = np.outer(psi, psi.conj())
    d_rho = sum(
        td * (np.outer(x, psi.conj()) + np.outer(psi, x.conj()))
        for td, x in zip(theta_dot, xi)
    )
    defect = d_rho + 1j * (hd @ rho - rho @ hd)
    return float(np.linalg.norm(defect, "fro") ** 2)


def test_distance_matches_dense_defect(rng):
    for _ in range(8):
        n = int(rng.integers(2, 4))
        a = make_ansatz(rng, n, int(rng.integers(1, 6)))
        h = random_hamiltonian(rng, n)
        s = assemble_frame(a, h).system
        theta_dot = rng.normal(size=a.n_params)
        assert mclachlan_distance(s, theta_dot) == pytest.approx(
            dense_defect_norm(a, h, theta_dot), abs=1e-9, rel=1e-9
        )


@pytest.mark.parametrize("kind", ["mfim", "hm"])
def test_noiseless_distances_are_never_negative(monkeypatch, kind):
    """The 4-qubit layer-packed benchmark presets border candidate systems
    whose L2 rounds below zero, on the Heisenberg run as far as -5.8e-9 (below
    the fixed clamp at -1e-10 once used; on the MFIM run one once reached
    -1.05e-10). The clamp scales with the rounding of L2's terms, so every
    one of them, and every step's L2, comes out as zero."""
    raw, returned = [], []
    real = engine.mclachlan_distance

    def spy(s, td):
        raw.append(float(2.0 * td @ s.m @ td - 4.0 * s.v @ td + 2.0 * s.var_h))
        returned.append(real(s, td))
        return returned[-1]

    monkeypatch.setattr(engine, "mclachlan_distance", spy)
    cfg = dict(preset_benchmark(kind))["avqds-t"]
    run_single(replace(cfg, model=default_model(kind, 4), oracle=False), 0)
    assert min(raw) < -1e-11
    assert min(returned) >= 0.0


def test_noisy_negative_distance_stays_negative(rng):
    """Shot noise makes M indefinite, and its L2 is then genuinely negative:
    the clamp must leave it so."""
    spec = default_model("tfim", 4)
    _, h, psi0 = build_model(spec)
    hva = build_hva(h, psi0, 4, model_sublayers(spec))
    frame = assemble_frame(hva.with_angles(rng.uniform(-0.3, 0.3, size=hva.n_params)), h)
    noisy = noisy_system(frame.system, ansatz_layout(frame.ansatz), NoiseConfig(n_shots=1e2), rng)
    td = solve(noisy, SolverConfig("tikhonov", epsilon=1e-2))
    l2 = mclachlan_distance(noisy, td)
    assert l2 < -1e-3
    assert l2 == float(2.0 * td @ noisy.m @ td - 4.0 * noisy.v @ td + 2.0 * noisy.var_h)


def test_metric_is_symmetric_by_construction(rng):
    """Every builder of M makes it symmetric bit for bit, which the solve
    relies on when it reads one triangle."""
    spec = default_model("tfim", 6)
    _, h, psi0 = build_model(spec)
    hva = build_hva(h, psi0, 8, model_sublayers(spec))
    hva = hva.with_angles(rng.uniform(-1.5, 1.5, size=hva.n_params))
    rand = make_ansatz(rng, 4, 20)
    rand_h = random_hamiltonian(rng, 4)
    grown = rand.extended([random_pauli(rng, 4) for _ in range(5)])
    frames = [
        _split_frame(hva, h, hva.n_params),
        _split_frame(hva, h, _split_point(hva)),
        assemble_frame(rand, rand_h),
        assemble_frame(grown.with_angles(rng.uniform(-1.5, 1.5, size=grown.n_params)), rand_h),
    ]
    assert _split_point(hva) < hva.n_params
    base = assemble_frame(rand, rand_h)
    frames.append(extend_frame(base, grown))
    systems = [f.system for f in frames]
    cols, diags, v_new = augment_block(base, [random_pauli(rng, 4)])
    systems.append(extend_system(base.system, cols[0], diags[0], v_new[0]))
    lo = ansatz_layout(hva)
    for d_c in (0, lo.depth // 2):
        systems.append(noisy_system(frames[1].system, lo, NoiseConfig(n_shots=1e3, d_c=d_c, noisy_v=True), rng))
    for s in systems:
        assert np.array_equal(s.m, s.m.T)


def test_distance_dimension_check():
    s = assemble_frame(x_ansatz(0.1), X1).system
    with pytest.raises(ValueError):
        mclachlan_distance(s, np.zeros(3))


# --- augmentation ---------------------------------------------------------


def test_augment_matches_full_assembly(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = make_ansatz(rng, n, int(rng.integers(1, 6)))
        h = random_hamiltonian(rng, n)
        frame = assemble_frame(a, h)
        cand = random_pauli(rng, n)
        cols, diags, v_new = augment_block(frame, [cand])
        full = assemble_frame(a.extended([cand]), h).system
        np.testing.assert_allclose(cols[0], full.m[:-1, -1], atol=1e-12)
        assert diags[0] == pytest.approx(full.m[-1, -1], abs=1e-12)
        assert v_new[0] == pytest.approx(full.v[-1], abs=1e-12)
        ext = extend_system(frame.system, cols[0], diags[0], v_new[0])
        np.testing.assert_allclose(ext.m, full.m, atol=1e-12)
        np.testing.assert_allclose(ext.v, full.v, atol=1e-12)


def test_augment_with_repeat_of_last_generator(rng):
    # inserting the last generator again at angle 0 reproduces its diagonal
    a = make_ansatz(rng, 3, 4)
    h = random_hamiltonian(rng, 3)
    frame = assemble_frame(a, h)
    _, diags, _ = augment_block(frame, [a.generators[-1]])
    assert diags[0] == pytest.approx(frame.system.m[-1, -1], abs=1e-12)


def test_augment_empty_ansatz_y_candidate():
    ref = StateVector.basis_state(1)
    frame = assemble_frame(Ansatz(ref), Z1)
    cols, diags, v_new = augment_block(frame, [PauliString.from_label("Y")])
    # tangent -iY|0> = -i(i|1>) = |1>, orthogonal to |0>; force element vanishes
    assert cols.shape == (1, 0)
    assert diags[0] == pytest.approx(1.0)
    assert v_new[0] == pytest.approx(0.0, abs=1e-14)
