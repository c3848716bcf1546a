"""The bound-pruned candidate scorer against the brute-force oracle.

``score_candidates`` solves only the candidates whose upper bound could
still put them next; these tests check that the bounds hold on every growth
event of real runs and that the selection equals ``select_additions`` on
the full brute-force ranking.
"""

import itertools
import types
from dataclasses import replace

import numpy as np
import pytest

import avqds.engine as engine
from avqds.ansatz import Ansatz, ansatz_layout
from avqds.config import ExperimentConfig
from avqds.engine import (
    _TIE_RTOL,
    CandidateRanking,
    GrowthConfig,
    StepConfig,
    grow_once,
    run_avqds,
    score_bounds,
    score_candidates,
    select_additions,
)
from avqds.experiment import preset_benchmark, run_single
from avqds.mclachlan import assemble_frame, augment_block, mclachlan_distance
from avqds.models import (
    ModelSpec,
    OperatorPool,
    build_model,
    default_model,
    hamiltonian_term_pool,
    model_pool,
    nearest_neighbour_pool,
)
from avqds.pauli import PauliString, WeightedPauliSum
from avqds.solvers import METHODS, SolverConfig, solve
from avqds.statevector import StateVector
from conftest import (
    brute_force_scores,
    full_ranking,
    random_hamiltonian,
    random_pauli,
    random_state,
    reference_border,
    reference_frame,
    reference_spanned,
)

TRUNC = SolverConfig("truncation", epsilon=1e-6)


def _tfim(n):
    return ModelSpec("tfim", n, j=1.0, h_x=-2.0)


# the benchmark's wide_pool_m1 and desk_tfim8 configs with t_final shortened,
# the criterion-6 config (both methods), and the 4-qubit MFIM layer-packed and
# Heisenberg single-op runs of the benchmark preset; each with the ceiling
# on score - B_p
GROWTH_RUNS = {
    "wide_pool_m1": ([(_tfim(8), model_pool, GrowthConfig(l2_cut=1e-3, method=1), 0.25)], 1e-12),
    "desk_tfim8": ([(_tfim(8), hamiltonian_term_pool, GrowthConfig(l2_cut=1e-3, method=3), 1.0)], 1e-12),
    "criterion_6": (
        [
            (_tfim(4), hamiltonian_term_pool, GrowthConfig(l2_cut=2e-3, score_cut=1e-4, method=m), 5.0)
            for m in (1, 3)
        ],
        1e-12,
    ),
    "mfim4_layered": ([(default_model("mfim", 4), hamiltonian_term_pool, GrowthConfig(method=3), 4.0)], 1e-12),
    "hm4_single": ([(default_model("hm", 4), hamiltonian_term_pool, GrowthConfig(method=1), 4.0)], 1e-12),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", list(GROWTH_RUNS))
def test_bounds_hold_on_every_growth_event(monkeypatch, name):
    """B_p + slack >= the brute-force score for every candidate of every
    growth event, and the selection equals ``select_additions`` over brute
    force on ``reference_border``, the border of the complex Gram built on
    every call.

    The largest score - B_p is 0.0 on every run: the bound is met with
    equality only where the L2_before cap binds; a bordered L2 that rounds
    below zero is clamped to zero by ``mclachlan_distance``. Dropping the
    eigenvalues of M up to 1e-12·||M|| instead of 1e-15·||M|| makes the
    Heisenberg run's 8.1e-9.

    The real product of ``augment_block`` moves the brute-force scores from
    those on the reference border by at most 1.3e-12 (Heisenberg; 2.6e-13
    on wide_pool_m1 over its 73 events, 5.1e-13 on criterion 6), and no
    selection.
    """
    runs, ceiling = GROWTH_RUNS[name]
    events = []
    real_grow = engine.grow_once

    def spy(frame, pool, growth_cfg, solver_cfg, l2_before, *rest):
        border = augment_block(frame, list(pool.operators))
        bounds, slack = score_bounds(frame, pool, border, l2_before)
        scores = np.array([s for _, s in brute_force_scores(frame, pool, solver_cfg, l2_before)])
        reference = brute_force_scores(frame, pool, solver_cfg, l2_before, reference_border(frame, pool.operators))
        want = select_additions(growth_cfg.method, full_ranking(reference), pool, frame.ansatz, growth_cfg.score_cut,
                                growth_cfg.max_depth)
        result = real_grow(frame, pool, growth_cfg, solver_cfg, l2_before, *rest)
        assert (list(result.added), result.suppressed) == want
        events.append((bounds, slack, scores, np.array([s for _, s in reference])))
        return result

    monkeypatch.setattr(engine, "grow_once", spy)
    for spec, make_pool, growth, t_final in runs:
        _, h, psi0 = build_model(spec)
        run_avqds(psi0, h, make_pool(spec), growth, StepConfig(dtheta_max=0.005, t_final=t_final), TRUNC,
                  compute_infidelity=False)
    assert len(events) >= 10
    assert all(np.all(scores <= bounds + slack) for bounds, slack, scores, _ in events)
    assert max(float(np.max(scores - bounds)) for bounds, _, scores, _ in events) < ceiling
    moved = max(float(np.max(np.abs(scores - reference))) for _, _, scores, reference in events)
    print(f"\n{name}: {len(events)} growth events, largest score move from the reference border {moved:.3e}")


def _random_frame(rng, n, pool, solver):
    """A frame on a random ansatz drawn from the pool, with a repeated
    generator and a zero angle among its parameters."""
    k = int(rng.integers(2, 7))
    picks = list(rng.choice(len(pool), size=k))
    picks.append(picks[0])
    angles = rng.uniform(-1, 1, size=len(picks))
    angles[rng.integers(len(picks))] = 0.0
    psi0 = StateVector(n, random_state(rng, n)) if rng.random() < 0.5 else StateVector.basis_state(n)
    a = Ansatz(psi0, tuple(pool.operators[i] for i in picks), angles)
    frame = assemble_frame(a, random_hamiltonian(rng, n, n_terms=6))
    td = solve(frame.system, solver)
    return frame, mclachlan_distance(frame.system, td)


def _counting_solve(monkeypatch):
    calls = []
    real_solve = engine.solve

    def counting(*args):
        calls.append(1)
        return real_solve(*args)

    monkeypatch.setattr(engine, "solve", counting)
    return calls


@pytest.mark.parametrize("solver", [SolverConfig(m) for m in METHODS], ids=METHODS)
def test_pruned_selection_matches_brute_force_ranking(rng, monkeypatch, solver):
    n = 4
    pool = nearest_neighbour_pool(n)
    calls = _counting_solve(monkeypatch)
    suppressed_seen = 0
    for _ in range(4):
        frame, l2 = _random_frame(rng, n, pool, solver)
        brute = brute_force_scores(frame, pool, solver, l2)
        depth = ansatz_layout(frame.ansatz).depth
        for method in (1, 2, 3):
            for max_depth in (None, max(depth, 1)):
                for score_cut in (0.0, 1e-3):
                    growth = GrowthConfig(l2_cut=1.0, method=method, score_cut=score_cut, max_depth=max_depth)
                    expected = select_additions(method, full_ranking(brute), pool, frame.ansatz, score_cut, max_depth)
                    calls.clear()
                    assert score_candidates(frame, pool, growth, solver, l2) == expected
                    assert len(calls) < len(pool)
                    suppressed_seen += expected[1]
    assert suppressed_seen


def test_exact_score_ties_break_toward_the_lower_index():
    # X on every qubit of |0000> under a uniform field scores bit-identically
    n = 4
    terms = [(-0.7, PauliString.single(n, i, "X")) for i in range(n)]
    terms += [(0.3, PauliString.two_site(n, (i, i + 1), "ZZ")) for i in range(n - 1)]
    h = WeightedPauliSum(n, terms)
    pool = nearest_neighbour_pool(n)
    for generators in ((), (PauliString.single(n, 1, "Z"),)):
        frame = assemble_frame(Ansatz(StateVector.basis_state(n), generators, np.zeros(len(generators))), h)
        td = solve(frame.system, TRUNC)
        l2 = mclachlan_distance(frame.system, td)
        brute = brute_force_scores(frame, pool, TRUNC, l2)
        best = max(s for _, s in brute)
        assert sum(s == best for _, s in brute) >= n
        for method in (1, 2, 3):
            growth = GrowthConfig(l2_cut=1.0, method=method)
            expected = select_additions(method, full_ranking(brute), pool, frame.ansatz, growth.score_cut, None)
            assert score_candidates(frame, pool, growth, TRUNC, l2) == expected


def planted_tie_cases(rng, count=200):
    """(scores, bounds, cut) of small rankings with many exact ties."""
    for _ in range(count):
        size = int(rng.integers(1, 12))
        scores = {i: float(rng.integers(0, 4)) for i in range(size)}  # many exact ties
        # bounds: exact for some, loose for others, some equal to another's score
        bounds = {i: s + float(rng.choice([0.0, 0.0, 1.0, 2.5])) for i, s in scores.items()}
        yield scores, bounds, float(rng.choice([-1.0, 0.0, 1.5]))


def test_lazy_ranking_reproduces_the_full_sort_with_planted_ties(rng):
    for scores, bounds, cut in planted_tie_cases(rng):
        solved = []

        def score(i):
            solved.append(i)
            return scores[i]

        ranking = CandidateRanking(bounds, score)
        lazy = list(ranking.ranked(cut, skip=lambda i: False))
        full = [(i, s) for i, s in sorted(scores.items(), key=lambda item: (-item[1], item[0])) if s > cut]
        assert lazy == full
        assert len(solved) == len(set(solved))
        # a second pass reuses the cached scores
        assert list(ranking.ranked(cut, skip=lambda i: False)) == full
        assert len(solved) == len(set(solved))


def test_select_additions_on_a_lazy_ranking_matches_the_list(rng):
    ops = tuple(PauliString.from_label(label) for label in ("ZZII", "IZZI", "IIZZ", "XIII", "IIIX", "IXII", "IIXI"))
    pool = OperatorPool(4, ops)
    layered = Ansatz(StateVector.basis_state(4), (ops[0], ops[4]), np.zeros(2))
    for _ in range(100):
        scores = [(i, float(rng.integers(0, 3)) / 2) for i in range(len(ops))]
        bounds = {i: s + float(rng.choice([0.0, 0.5, 2.0])) for i, s in scores}
        for a in (Ansatz(StateVector.basis_state(4)), layered):
            for method in (1, 2, 3):
                for max_depth in (None, 1, 2):
                    expected = select_additions(method, full_ranking(scores), pool, a, 0.0, max_depth)
                    ranking = CandidateRanking(bounds, dict(scores).__getitem__)
                    assert select_additions(method, ranking, pool, a, 0.0, max_depth) == expected


def test_capped_candidates_go_unscored_once_suppression_is_flagged(monkeypatch):
    # one full layer and max_depth = 1: every candidate would open layer 2
    n = 4
    spec = _tfim(n)
    _, h, psi0 = build_model(spec)
    layer = tuple(PauliString.single(n, q, "X") for q in range(n))
    frame = assemble_frame(Ansatz(psi0, layer, np.full(n, 0.2)), h)
    pool = nearest_neighbour_pool(n)
    td = solve(frame.system, TRUNC)
    l2 = mclachlan_distance(frame.system, td)
    brute = brute_force_scores(frame, pool, TRUNC, l2)
    bounds, slack = score_bounds(frame, pool, augment_block(frame, list(pool.operators)), l2)
    # scored: the candidates whose key tops the best score, then no more
    contenders = int(np.sum(bounds + slack >= max(s for _, s in brute)))
    assert contenders < len(pool) // 4
    calls = _counting_solve(monkeypatch)
    for method in (1, 2, 3):
        expected = select_additions(method, full_ranking(brute), pool, frame.ansatz, 1e-6, 1)
        assert expected == ([], True)
        calls.clear()
        assert score_candidates(frame, pool, GrowthConfig(method=method, max_depth=1), TRUNC, l2) == expected
        assert len(calls) <= contenders


def tolerant_walk(scores, cut, skip):
    """The tie rule by brute force: among the candidates left with score >
    cut, take the lowest index within ``_TIE_RTOL`` of the best score."""
    left = dict(scores)
    while True:
        live = {i: v for i, v in left.items() if v > cut and not skip(i)}
        if not live:
            return
        top = max(live.values())
        best = min(i for i, v in live.items() if v >= top - _TIE_RTOL * abs(top))
        yield best, live.pop(best)
        del left[best]


def test_near_ties_go_to_the_lower_index_and_gaps_to_the_higher_score():
    pool = OperatorPool(4, tuple(PauliString.single(4, q, "X") for q in range(4)))
    empty = Ansatz(StateVector.basis_state(4))
    for method in (1, 2, 3):
        for gap, winner in ((0.5 * _TIE_RTOL, 0), (0.99 * _TIE_RTOL, 0), (2 * _TIE_RTOL, 3), (1e-3, 3)):
            scores = [(0, 1e-4 * (1 - gap)), (1, 1e-5), (2, 1e-5), (3, 1e-4)]
            chosen, _ = select_additions(method, full_ranking(scores), pool, empty, 1e-6, None)
            assert chosen[0] == winner
            if method == 3:
                assert chosen == [winner, 3 - winner, 1, 2]


def test_lazy_ranking_is_the_tolerant_walk_with_planted_near_ties(rng):
    offsets = np.array([0.0, 0.3, 0.9, 1.1, 3.0, 1e3]) * _TIE_RTOL
    for _ in range(300):
        size = int(rng.integers(1, 12))
        # a few score levels, each copied with relative offsets inside and
        # just outside the tolerance
        levels = rng.choice([1e-5, 3e-5, 1e-4], size=size)
        scores = {i: float(lv * (1 - rng.choice(offsets))) for i, lv in enumerate(levels)}
        bounds = {i: v * (1 + float(rng.choice([0.0, 0.0, 0.5, 2.0]) * _TIE_RTOL)) + float(rng.choice([0, 0, 1e-5]))
                  for i, v in scores.items()}
        cut = float(rng.choice([0.0, 2e-5]))
        skipped = set(rng.choice(size, size=int(rng.integers(0, 3))).tolist())
        solved = []

        def score(i):
            solved.append(i)
            return scores[i]

        ranking = CandidateRanking(bounds, score)
        lazy = list(ranking.ranked(cut, skip=skipped.__contains__))
        assert lazy == list(tolerant_walk(scores, cut, skipped.__contains__))
        assert len(solved) == len(set(solved))
        assert not skipped & set(solved) or all(i in skipped for i in solved if i in skipped)


def test_one_growth_iteration_decomposes_the_metric_once(monkeypatch):
    """The step solve and the candidate bounds share one ``eigh`` of M."""
    n = 4
    _, h, psi0 = build_model(_tfim(n))
    pool = nearest_neighbour_pool(n)
    frame = assemble_frame(Ansatz(psi0, pool.operators[:6], np.linspace(-0.4, 0.4, 6)), h)
    real_eigh = np.linalg.eigh
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(a)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    td = solve(frame.system, TRUNC)
    result = grow_once(frame, pool, GrowthConfig(l2_cut=1e-3, method=3), TRUNC, mclachlan_distance(frame.system, td))
    assert result.added
    assert sum(a is frame.system.m for a in calls) == 1
    assert all(a.shape == (7, 7) for a in calls if a is not frame.system.m)


def _growth_sequence(records):
    return [key for key, _ in itertools.groupby((r.n_params, r.depth) for r in records)]


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["tfim", "mfim", "hm"])
def test_growth_does_not_depend_on_the_assembly_rounding(monkeypatch, kind):
    """The 4-qubit benchmark presets (methods 1 and 3) grow the same ansatz
    when every frame is assembled by the per-generator gather sweep and the
    complex Gram, and re-assembled after growth, instead.

    Step by step, (n_params, depth) and the infidelity agree, except on the
    MFIM layer-packed run: its truncated solve amplifies any rounding
    difference about 1.25-fold per step from t = 1.39 (N = 38), so the step
    sizes part and it takes 1,433 steps against 1,524. It does so before
    this assembly too: scaling M by 1 + 2.2e-16·cos(j + k) took it from
    1,422 to 2,156 steps. Its growth sequence, each (n_params, depth) in
    turn, is still the same."""
    runs = [(name, replace(cfg, model=default_model(kind, 4))) for name, cfg in preset_benchmark(kind)
            if name.startswith("avqds")]
    new = [run_single(cfg, 0) for _, cfg in runs]
    old = _runs_with_reference_assembly(monkeypatch, [cfg for _, cfg in runs])
    for (name, _), a, b in zip(runs, new, old):
        assert _growth_sequence(a) == _growth_sequence(b)
        if (kind, name) != ("mfim", "avqds-t"):
            assert [(r.n_params, r.depth) for r in a] == [(r.n_params, r.depth) for r in b]
            assert max(abs(r.infidelity - q.infidelity) for r, q in zip(a, b)) < 1e-9


@pytest.mark.slow
def test_growth_does_not_depend_on_the_split_assembly_rounding(monkeypatch):
    """The 4-qubit presets never split the sweep; the 8-qubit TFIM desk run
    (hamiltonian pool, method 3) cut at t = 0.5 does from N = 40 on, at or
    after the 16 candidates of its pool. Step by step it grows the same
    ansatz as under the reference assembly, with infidelity within 1e-9."""
    cfg = ExperimentConfig(
        model=ModelSpec("tfim", 8, j=1.0, h_x=-2.0),
        algorithm="avqds",
        pool="hamiltonian",
        growth=GrowthConfig(l2_cut=1e-3, method=3),
        step=StepConfig(dtheta_max=0.005, t_final=0.5),
        solver=SolverConfig("truncation", epsilon=1e-6),
    )
    splits = []
    assemble = engine.assemble_frame

    def recording(a, hamiltonian, pool_size=0):
        frame = assemble(a, hamiltonian, pool_size)
        splits.append((a.n_params - frame.inverse_suffix.n_params, a.n_params, pool_size))
        return frame

    monkeypatch.setattr(engine, "assemble_frame", recording)
    new = run_single(cfg, 0)
    assert {pool for _, _, pool in splits} == {16}
    assert all(m >= pool or m == n for m, n, pool in splits)
    assert sum(m < n for m, n, _ in splits) > len(splits) // 2
    (old,) = _runs_with_reference_assembly(monkeypatch, [cfg])
    assert [(r.n_params, r.depth) for r in new] == [(r.n_params, r.depth) for r in old]
    assert max(abs(r.infidelity - q.infidelity) for r, q in zip(new, old)) < 1e-9


def _runs_with_reference_assembly(monkeypatch, cfgs):
    """Each config run with every frame assembled by ``reference_frame``,
    and assembled again after growth."""
    h = []

    def reference(a, hamiltonian, pool_size=0):
        h[:] = [hamiltonian]
        return reference_frame(a, hamiltonian)

    monkeypatch.setattr(engine, "assemble_frame", reference)
    monkeypatch.setattr(engine, "extend_frame", lambda frame, grown: reference_frame(grown, h[0]))
    return [run_single(cfg, 0) for cfg in cfgs]


@pytest.mark.parametrize("n_qubits", [3, 6, 40, 64])
def test_spanned_matches_the_inline_parity(rng, n_qubits):
    """``engine._spanned`` on ``pauli.anticommutes`` gives the masks of the
    xor fold it inlined before, on random pools that repeat some of the
    generators, with some angles zero; 64 qubits fill every bit of a mask."""
    seen = set()
    for _ in range(20):
        gens = tuple(random_pauli(rng, n_qubits, max_weight=3) for _ in range(int(rng.integers(1, 16))))
        angles = np.where(rng.random(len(gens)) < 0.4, 0.0, rng.uniform(-1, 1, size=len(gens)))
        pool = [random_pauli(rng, n_qubits, max_weight=3) for _ in range(8)] + list(gens[::2])
        ansatz = types.SimpleNamespace(generators=gens, angles=angles)  # _spanned reads only these
        got, want = engine._spanned(ansatz, pool), reference_spanned(ansatz, pool)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        seen.update(got.tolist())
    assert seen == {False, True}
