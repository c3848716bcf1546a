"""The compiled circuit: built once per generator tuple, shared by every
angle update, extended on growth, and bit for bit the passes rebuilt from
its generators (``conftest.rebuilt_pass`` and ``conftest.rebuilt_split_frame``).
Its workspaces are built once per split point, and a plain step builds no
view."""

import dataclasses
import functools

import numpy as np
import pytest

import avqds.ansatz
from avqds.ansatz import (
    Ansatz,
    _commuting_runs,
    _pass_steps,
    ansatz_layout,
    layout,
    prepare_state,
    tangent_states,
)
from avqds.baselines import build_hva
from avqds.engine import AvqdsRun, StepConfig
from avqds.mclachlan import _split_frame, _split_point, assemble_frame, augment_block, extend_frame
from avqds.models import build_model, default_model, model_sublayers
from avqds.noise import NoiseConfig
from avqds.pauli import PauliString
from avqds.solvers import SolverConfig
from avqds.statevector import StateVector
from conftest import (
    bound_prepare_state,
    bound_tangent_states,
    random_hamiltonian,
    random_pauli,
    random_state,
    rebuilt_pass,
    rebuilt_split_frame,
    rows_rotated,
    sliced,
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


def assert_frames_equal(got, want):
    for name in FRAME_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.system.m, want.system.m) and np.array_equal(got.system.v, want.system.v)
    assert (got.energy, got.system.var_h) == (want.energy, want.system.var_h)


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
        xi, old_xi = tangent_states(a), bound_tangent_states(old)
        assert np.array_equal(xi, old_xi) and np.array_equal(swept_state(xi), swept_state(old_xi))
        assert np.array_equal(prepare_state(a).amplitudes, bound_prepare_state(old).amplitudes)
        pool = [random_pauli(rng, a.n_qubits) for _ in range(5)]
        grown = a.extended(pool[:2])
        for m in [first for first, _ in step_bounds(a.generators)] + [a.n_params]:
            frame, want = _split_frame(a, h, m), rebuilt_split_frame(a, h, m)
            assert frame.inverse_suffix.n_params == want.inverse_suffix.n_params == a.n_params - m
            assert_frames_equal(frame, want)
            for got, expected in zip(augment_block(frame, pool), augment_block(want, pool), strict=True):
                assert np.array_equal(got, expected)
            ext, ext_want = extend_frame(frame, grown), extend_frame(want, grown)
            assert np.array_equal(ext.tangents, ext_want.tangents)
            assert np.array_equal(ext.system.m, ext_want.system.m) and np.array_equal(ext.system.v, ext_want.system.v)


def test_workspace_rejects_a_split_inside_a_z_only_run():
    gens = tuple(PauliString.from_label(label) for label in ("XI", "ZZ", "ZI", "IX"))
    a = Ansatz(StateVector.basis_state(2), gens, [0.1, 0.2, 0.3, 0.4])
    assert a.circuit.workspace(1).suffix.n_params == 3
    assert a.circuit.workspace(3).prefix.n_params == 3
    with pytest.raises(ValueError, match="m=2 is inside the Z-only run between step boundaries 1 and 3"):
        a.circuit.workspace(2)
    with pytest.raises(ValueError, match="m=5 is outside the step boundaries 0 to 4"):
        a.circuit.workspace(5)
    assert sorted(a.circuit.workspaces) == [1, 3]


WORKSPACE_CASES = [("tfim", 6, 3), ("mfim", 6, 2), ("tfim", 8, 2), ("tfim", 10, 2)]


@pytest.mark.parametrize("kind, n_qubits, layers", WORKSPACE_CASES)
def test_workspace_matches_the_bound_split_frame_at_every_step_boundary(rng, kind, n_qubits, layers):
    """Each split point's workspace, assembled twice at different angles,
    reproduces ``rebuilt_split_frame`` bit for bit; at 10 qubits a tile
    holds 32 rows, so the prefix and the inverse sweep flush tiles."""
    a, h = hva(kind, n_qubits, layers, rng)
    if n_qubits == 10:
        assert avqds.ansatz._TILE_BYTES // (16 << n_qubits) < a.n_params
    b = a.with_angles(rng.uniform(-1.5, 1.5, size=a.n_params))
    splits = [first for first, _ in step_bounds(a.generators)] + [a.n_params]
    for m in splits:
        for ansatz in (a, b):
            assert_frames_equal(_split_frame(ansatz, h, m), rebuilt_split_frame(ansatz, h, m))
    assert sorted(a.circuit.workspaces) == splits


@pytest.mark.parametrize("pool_size", [0, 12, 24])
def test_pool_size_split_matches_the_bound_split_frame(rng, pool_size):
    a, h = hva("tfim", 6, 8, rng)
    m = _split_point(a, pool_size)
    assert pool_size <= m < a.n_params
    for angles in (a.angles, rng.uniform(-1.5, 1.5, size=a.n_params)):
        b = a.with_angles(angles)
        assert_frames_equal(assemble_frame(b, h, pool_size), rebuilt_split_frame(b, h, m))
    assert m in a.circuit.workspaces


def test_workspace_follows_the_hamiltonian_it_is_asked_for(rng):
    """One circuit assembled at one split point under h1, then h2, then h1
    again: each frame equals ``rebuilt_split_frame`` bit for bit, so the
    workspace builds its H·psi calls again whenever the Hamiltonian changes."""
    a, h1 = hva("tfim", 6, 3, rng)
    h2 = random_hamiltonian(rng, 6, n_terms=6)
    m = _split_point(a)
    for h in (h1, h2, h1):
        assert_frames_equal(_split_frame(a, h, m), rebuilt_split_frame(a, h, m))
    assert list(a.circuit.workspaces) == [m]


@pytest.mark.parametrize("layers", [1, 8])
def test_frame_keeps_its_arrays_when_the_circuit_is_assembled_again(rng, layers):
    """No frame shares memory with its circuit's workspace: assembling the
    circuit again at other angles leaves an earlier frame as it was."""
    a, h = hva("tfim", 6, layers, rng)
    frame = assemble_frame(a, h)
    saved = {name: getattr(frame, name).copy() for name in FRAME_ARRAYS}
    again = assemble_frame(a.with_angles(rng.uniform(-1.5, 1.5, size=a.n_params)), h)
    assert not np.array_equal(again.psi, frame.psi)
    for name, value in saved.items():
        assert np.array_equal(getattr(frame, name), value), name


def test_lazy_inverse_suffix_matches_the_eager_binding(rng):
    """``augment_block`` and ``extend_frame`` on a frame whose inverse suffix
    is bound on first use, and again on the frame extended from it, equal
    the same calls on the frame whose suffix is the rebuilt pass that undoes
    the generators after m, which carries its own borders."""
    a, h = hva("tfim", 6, 8, rng)
    pool = [random_pauli(rng, 6) for _ in range(6)]
    for m in (_split_point(a), 42, a.n_params):
        frame = _split_frame(a, h, m)
        assert frame.inverse_suffix._bound is None
        eager = dataclasses.replace(frame, inverse_suffix=rebuilt_pass(sliced(a, m, frame.psi, inverse=True)),
                                    borders={})
        for got, want in zip(augment_block(frame, pool), augment_block(eager, pool), strict=True):
            assert np.array_equal(got, want)
        grown = a.extended(pool[:3])
        ext, ext_eager = extend_frame(frame, grown), extend_frame(eager, grown)
        assert ext.inverse_suffix is frame.inverse_suffix
        assert np.array_equal(ext.tangents, ext_eager.tangents)
        assert np.array_equal(ext.system.m, ext_eager.system.m) and np.array_equal(ext.system.v, ext_eager.system.v)
        for got, want in zip(augment_block(ext, pool[3:]), augment_block(ext_eager, pool[3:]), strict=True):
            assert np.array_equal(got, want)


def test_plain_step_builds_no_view_and_no_partial(rng, monkeypatch):
    """After its first step, a fixed-ansatz run builds no strided view and no
    ``functools.partial`` per step: each step loads its angles into the
    workspace and runs its calls."""
    a, h = hva("tfim", 6, 8, rng)
    run = AvqdsRun(h, a, StepConfig(dtheta_max=0.005, dt_fixed=0.005, t_final=1.0),
                   SolverConfig("truncation", epsilon=1e-3), noise_cfg=NoiseConfig(n_shots=1e4, d_c=0))
    run.step()
    counts = {"views": 0, "partial": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(avqds.ansatz, "_planned_views", counted("views", avqds.ansatz._planned_views))
    monkeypatch.setattr(functools, "partial", counted("partial", functools.partial))
    for _ in range(3):
        run.step()
    assert counts == {"views": 0, "partial": 0}
    assert list(a.circuit.workspaces) == [_split_point(a)]
    assert not hasattr(a.circuit, "bind")


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


def labelled(labels, rng):
    """An ansatz of the labelled generators from a random state, at random angles."""
    n = len(labels[0])
    gens = tuple(PauliString.from_label(label) for label in labels)
    return Ansatz(StateVector(n, random_state(rng, n)), gens, rng.uniform(-1.5, 1.5, size=len(gens)))


def commuting_runs(a, inverse=False):
    """The runs of the whole forward pass of ``a`` (with ``inverse``, of the
    pass that undoes it), each as the (first, stop) of its generators
    counted from the start of the pass, and whether it starts with a
    Z-only step."""
    n = a.n_params
    steps = _pass_steps(a.circuit.steps, 0, n, inverse, 0, [], [])
    runs = _commuting_runs(steps, a.generators[::-1] if inverse else a.generators)
    return [(run[0][0], run[-1][1], run[0][2] is None) for run in runs]


@pytest.mark.parametrize(
    "labels, runs, inverse_runs",
    [
        (("XI", "IX", "XX"), [(0, 3)], [(0, 3)]),  # pairwise commuting rotations: one run
        (("XI", "YI"), [(0, 1), (1, 2)], [(0, 1), (1, 2)]),  # anticommuting: a new run
        (("XY", "YX"), [(0, 2)], [(0, 2)]),  # two anticommuting sites: they commute
        # YI commutes with IY, not with XI before it; undone, XI meets YI in the run before it
        (("XI", "IY", "YI"), [(0, 2), (2, 3)], [(0, 2), (2, 3)]),
        # a Z-only step that commutes with the rotation before it starts a run, which XI then joins
        (("XI", "IZ", "XI"), [(0, 1), (1, 3)], [(0, 1), (1, 3)]),
        # a rotation joins a Z-only run it commutes with; undone, the Z-only run comes last
        (("ZIZ", "IZI", "XIX", "IYI"), [(0, 3), (3, 4)], [(0, 2), (2, 4)]),
        (("ZZI", "IXX"), [(0, 1), (1, 2)], [(0, 1), (1, 2)]),  # ... and not one it does not commute with
    ],
)
def test_commuting_runs_follow_the_rule(labels, runs, inverse_runs, rng):
    a = labelled(labels, rng)
    assert [(first, stop) for first, stop, _ in commuting_runs(a)] == runs
    assert [(first, stop) for first, stop, _ in commuting_runs(a, inverse=True)] == inverse_runs


def assert_births_wait_bitwise(a, h):
    """``tangent_states`` and ``_split_frame`` at every step boundary, so at
    splits that cut runs, equal the per-step-birth oracles bit for bit."""
    xi, old = tangent_states(a), bound_tangent_states(rebuilt_pass(a))
    assert np.array_equal(xi, old) and np.array_equal(swept_state(xi), swept_state(old))
    for m in [first for first, _ in step_bounds(a.generators)] + [a.n_params]:
        assert_frames_equal(_split_frame(a, h, m), rebuilt_split_frame(a, h, m))


def _chain(n, letters, sites):
    """The label with ``letters`` on ``sites`` (in order), I elsewhere."""
    label = ["I"] * n
    for letter, site in zip(letters, sites):
        label[site] = letter
    return "".join(label)


def test_a_run_wider_than_a_tile_births_bitwise(rng):
    """(a) 10 qubits, a ring of ZZ bonds, X fields repeated four times (one
    run of 40 rotations, wider than the 32-row tile), the bonds and the
    fields again."""
    n = 10
    bonds = [_chain(n, "ZZ", (q, (q + 1) % n)) for q in range(n)]
    fields = [_chain(n, "X", (q,)) for q in range(n)]
    a = labelled(bonds + 4 * fields + bonds + fields, rng)
    _, h, _ = build_model(default_model("tfim", n))
    tile = avqds.ansatz._TILE_BYTES // (16 << n)
    assert max(stop - first for first, stop, _ in commuting_runs(a)) == 40 > tile
    assert max(stop - first for first, stop, _ in commuting_runs(a, inverse=True)) == 40
    assert_births_wait_bitwise(a, h)


def test_z_births_wait_past_the_rotations_of_a_tetris_layer(rng):
    """(b) TETRIS layers on 8 qubits: ZZ bonds on half the chain, then X
    fields on the other half, which commute with them; the run starts with
    the Z-only step, whose births wait past the rotations."""
    n, labels = 8, []
    for layer in range(4):
        bonded = range(0, 4) if layer % 2 == 0 else range(4, 8)
        labels += [_chain(n, "ZZ", (q, q + 1)) for q in bonded[::2]]
        labels += [_chain(n, "X", (q,)) for q in range(n) if q not in bonded]
    a = labelled(labels, rng)
    assert commuting_runs(a) == [(6 * k, 6 * k + 6, True) for k in range(4)]
    assert_births_wait_bitwise(a, random_hamiltonian(rng, n, n_terms=6))


def test_a_commuting_z_only_step_after_a_rotation_starts_a_run(rng):
    """(c) Z-only steps that commute with the rotations before them: each
    starts a run, so no rotation's birth waits past a Z-only phase."""
    a = labelled(["XIII", "IIIX", "IZZI", "IIIY", "IXII", "ZIIZ", "IIZI", "YIIY"], rng)
    assert commuting_runs(a) == [(0, 2, False), (2, 4, True), (4, 5, False), (5, 8, True)]
    assert_births_wait_bitwise(a, random_hamiltonian(rng, 4, n_terms=6))


def test_random_paulis_with_y_factors_birth_bitwise(rng):
    """(d) random strings of X, Y and Z on 5 qubits, interleaved with strings
    of I and Y, which commute with one another, so runs of several rotations
    hold Y factors."""
    for _ in range(3):
        labels = []
        for _ in range(12):
            labels.append("".join(rng.choice(list("IXYZ"), size=5)))
            labels += ["".join(rng.choice(list("IY"), size=5)) for _ in range(int(rng.integers(0, 4)))]
        labels = [label if label.strip("I") else "YIIII" for label in labels]
        a = labelled(labels, rng)
        runs = commuting_runs(a)
        assert max(stop - first for first, stop, z_only in runs if not z_only) >= 3
        assert_births_wait_bitwise(a, random_hamiltonian(rng, 5, n_terms=6))


@pytest.mark.parametrize("width", [1, 7, 40])
def test_a_run_of_w_rotations_saves_w_choose_2_row_rotations(width):
    """A run of w commuting rotations between two that anticommute with it
    rotates w(w-1)/2 fewer rows than per-step births do, in the prefix that
    sweeps the whole circuit and in the inverse pass that undoes it, with
    tiles flushed or not. Per-step births rotate the rows born before each
    step, the running row and the carried ones, whatever the tile: over s
    steps, s(s+1)/2 + carried·s rows."""
    n = 10
    labels = ["Y" * n] + [_chain(n, "X", (k % n,)) for k in range(width)] + ["Y" * n]
    gens = tuple(PauliString.from_label(label) for label in labels)
    a = Ansatz(StateVector.basis_state(n), gens, np.zeros(width + 2))
    assert [(first, stop) for first, stop, _ in commuting_runs(a)] == [(0, 1), (1, 1 + width), (1 + width, 2 + width)]
    steps = width + 2
    for m, name in ((a.n_params, "prefix"), (0, "inverse")):
        sweep = getattr(a.circuit.workspace(m), name)
        per_step = steps * (steps + 1) // 2 + sweep.carried * steps
        assert per_step - rows_rotated(sweep) == width * (width - 1) // 2
