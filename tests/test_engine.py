import logging
import pickle

import numpy as np
import pytest

import avqds.ansatz
import avqds.engine
from avqds.ansatz import Ansatz, prepare_state
from avqds.engine import (
    AvqdsRun,
    GrowthConfig,
    StepConfig,
    grow_once,
    run_avqds,
    run_fixed_ansatz,
    select_additions,
)
from avqds.mclachlan import McLachlanSystem, assemble_frame, mclachlan_distance
from avqds.models import OperatorPool, nearest_neighbour_pool
from avqds.noise import NoiseConfig
from avqds.pauli import PauliString, WeightedPauliSum
from avqds.solvers import NonFiniteSystemError, SolverConfig, solve
from avqds.statevector import StateVector, _pauli_tables, fidelity
from conftest import brute_force_scores, full_ranking, index_order, random_hamiltonian, random_pauli, random_state


def g(label):
    return PauliString.from_label(label)


def tfim(n, j=1.0, hx=-2.0):
    terms = [(-j, PauliString.two_site(n, (i, (i + 1) % n), "ZZ")) for i in range(n)]
    terms += [(hx, PauliString.single(n, i, "X")) for i in range(n)]
    return WeightedPauliSum(n, terms)


SOLVER = SolverConfig("truncation", epsilon=1e-6)


# --- pools ----------------------------------------------------------------


def test_pool_sizes():
    assert len(nearest_neighbour_pool(4)) == 12 + 36
    assert len(nearest_neighbour_pool(4, include_single_qubit=False)) == 36
    assert len(nearest_neighbour_pool(8)) == 24 + 72


def test_pool_rejects_duplicates_and_identity():
    with pytest.raises(ValueError):
        OperatorPool(2, (g("XI"), g("XI")))
    with pytest.raises(ValueError):
        OperatorPool(2, (g("II"),))


# --- config validation ------------------------------------------------------


def test_growth_config_validation():
    with pytest.raises(ValueError):
        GrowthConfig(method=4)
    with pytest.raises(ValueError):
        GrowthConfig(l2_cut=1e-7, score_cut=1e-6)
    with pytest.raises(ValueError):
        GrowthConfig(max_depth=0)
    with pytest.raises(ValueError):
        StepConfig(dtheta_max=0.0)
    with pytest.raises(ValueError):
        StepConfig(t_final=-1.0)


# --- scoring ----------------------------------------------------------------


def test_score_spanning_candidate_removes_whole_distance():
    h = WeightedPauliSum(1, [(1.0, g("X"))])
    frame = assemble_frame(Ansatz(StateVector.basis_state(1)), h)
    pool = OperatorPool(1, (g("X"), g("Z")))
    scores = dict(brute_force_scores(frame, pool, SOLVER))
    assert scores[0] == pytest.approx(2.0, abs=1e-10)  # full 2*var[X]
    assert scores[1] == pytest.approx(0.0, abs=1e-9)  # tangent parallel to psi


def test_scores_match_full_reassembly(rng):
    for _ in range(5):
        n = 3
        gens = tuple(random_pauli(rng, n) for _ in range(3))
        a = Ansatz(
            StateVector(n, random_state(rng, n)), gens, rng.uniform(-1, 1, size=3)
        )
        h = random_hamiltonian(rng, n)
        frame = assemble_frame(a, h)
        pool = OperatorPool(n, tuple({(p.x_bits, p.z_bits): p for p in (random_pauli(rng, n) for _ in range(8))}.values()))
        td = solve(frame.system, SOLVER)
        l2_before = mclachlan_distance(frame.system, td)
        for idx, delta in brute_force_scores(frame, pool, SOLVER):
            full = assemble_frame(a.extended([pool.operators[idx]]), h).system
            td_full = solve(full, SOLVER)
            l2_full = mclachlan_distance(full, td_full)
            assert delta == pytest.approx(l2_before - l2_full, abs=1e-10)
            assert delta >= -1e-9


# --- selection rules --------------------------------------------------------


def synthetic_pool():
    ops = (g("ZZII"), g("IZZI"), g("IIZZ"), g("XIII"), g("IIIX"))
    return OperatorPool(4, ops)


def empty_ansatz(n=4):
    return Ansatz(StateVector.basis_state(n))


def test_method3_greedy_disjoint_trace():
    pool = synthetic_pool()
    scores = [(0, 0.9), (1, 0.8), (2, 0.7), (3, 0.0), (4, 0.0)]
    chosen, suppressed = select_additions(3, full_ranking(scores), pool, empty_ansatz(), 1e-6, None)
    assert chosen == [0, 2]  # middle bond overlaps the first pick
    assert not suppressed


def test_method1_is_first_pick_of_method3():
    pool = synthetic_pool()
    scores = [(0, 0.5), (1, 0.9), (2, 0.2), (3, 0.1), (4, 0.05)]
    one, _ = select_additions(1, full_ranking(scores), pool, empty_ansatz(), 1e-6, None)
    three, _ = select_additions(3, full_ranking(scores), pool, empty_ansatz(), 1e-6, None)
    assert three[0] == one[0] == 1


def test_tie_breaks_toward_lower_pool_index():
    pool = synthetic_pool()
    scores = [(0, 0.5), (1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5)]
    one, _ = select_additions(1, full_ranking(scores), pool, empty_ansatz(), 1e-6, None)
    assert one == [0]


def test_no_candidate_above_cut_stalls():
    pool = synthetic_pool()
    scores = [(i, 0.0) for i in range(5)]
    for method in (1, 2, 3):
        chosen, _ = select_additions(method, full_ranking(scores), pool, empty_ansatz(), 1e-6, None)
        assert chosen == []


def test_method2_prefers_idle_qubits():
    pool = synthetic_pool()
    # current last layer occupies qubits 0,1 -> idle 2,3
    a = empty_ansatz().extended([g("ZZII")])
    scores = [(0, 0.9), (1, 0.8), (2, 0.3), (3, 0.2), (4, 0.1)]
    chosen, _ = select_additions(2, full_ranking(scores), pool, a, 1e-6, None)
    # best overall (bond 0-1 again) would deepen; bond 2-3 fits the idle set
    assert chosen == [2]


def test_method2_opens_new_layer_when_nothing_fits():
    pool = synthetic_pool()
    a = empty_ansatz().extended([g("ZZII")])
    scores = [(0, 0.9), (1, 0.8), (2, 0.0), (3, 0.2), (4, 0.0)]
    chosen, _ = select_additions(2, full_ranking(scores), pool, a, 1e-6, None)
    assert chosen == [0]


def test_max_depth_suppresses_growth():
    pool = synthetic_pool()
    a = empty_ansatz().extended([g("ZZII")])
    scores = [(0, 0.9), (1, 0.8), (2, 0.0), (3, 0.0), (4, 0.0)]
    chosen, suppressed = select_additions(1, full_ranking(scores), pool, a, 1e-6, 1)
    assert chosen == [] and suppressed
    # an op that still fits inside the depth budget is allowed
    scores = [(0, 0.9), (1, 0.0), (2, 0.7), (3, 0.0), (4, 0.0)]
    chosen, suppressed = select_additions(1, full_ranking(scores), pool, a, 1e-6, 1)
    assert chosen == [2] and suppressed


# --- grow_once --------------------------------------------------------------


def test_grow_keeps_state_and_reduces_distance(rng):
    n = 4
    h = tfim(n)
    psi0 = StateVector.basis_state(n)
    frame = assemble_frame(Ansatz(psi0), h)
    pool = nearest_neighbour_pool(n)
    growth = GrowthConfig(l2_cut=1e-3, method=3)
    before_state = prepare_state(frame.ansatz)
    td = solve(frame.system, SOLVER)
    l2_before = mclachlan_distance(frame.system, td)

    result = grow_once(frame, pool, growth, SOLVER, l2_before)
    assert result.added
    after_state = prepare_state(result.ansatz)
    assert fidelity(before_state, after_state) == pytest.approx(1.0, abs=1e-12)

    new_system = assemble_frame(result.ansatz, h).system
    td_new = solve(new_system, SOLVER)
    assert mclachlan_distance(new_system, td_new) <= l2_before + 1e-9

    # supports added in one iteration are pairwise disjoint
    seen = 0
    for idx in result.added:
        mask = pool.operators[idx].support_mask
        assert seen & mask == 0
        seen |= mask


def test_grow_stalls_on_hopeless_pool():
    # Z rotations leave |0...0> invariant: no candidate can help
    h = WeightedPauliSum(2, [(1.0, g("XI"))])
    frame = assemble_frame(Ansatz(StateVector.basis_state(2)), h)
    pool = OperatorPool(2, (g("ZI"), g("IZ"), g("ZZ")))
    td = solve(frame.system, SOLVER)
    result = grow_once(frame, pool, GrowthConfig(), SOLVER, mclachlan_distance(frame.system, td))
    assert result.stalled and not result.added


# --- stepping ---------------------------------------------------------------


def x_run(t_final=0.1, **kwargs):
    h = WeightedPauliSum(1, [(1.0, g("X"))])
    a = Ansatz(StateVector.basis_state(1), (g("X"),), [0.0])
    return AvqdsRun(
        h, a, StepConfig(dtheta_max=0.005, t_final=t_final), SOLVER, **kwargs
    )


def test_single_qubit_exact_step():
    run = x_run()
    rec = run.step()
    assert rec.t == 0.0
    assert rec.dt == pytest.approx(0.005)
    assert rec.l2 == pytest.approx(0.0, abs=1e-12)
    assert run.ansatz.angles[0] == pytest.approx(0.005)
    assert rec.n_params == 1 and rec.depth == 1


def test_quench_start_grows_before_first_step():
    n = 4
    h = tfim(n)
    records = run_avqds(
        StateVector.basis_state(n),
        h,
        nearest_neighbour_pool(n),
        GrowthConfig(l2_cut=1e-3, method=3),
        StepConfig(dtheta_max=0.005, t_final=0.02),
        SOLVER,
    )
    assert records[0].t == 0.0
    assert records[0].n_params > 0
    assert records[0].l2 < 1e-3


def test_fixed_dt_in_every_record():
    run = x_run(t_final=0.01)
    run.step_cfg = StepConfig(dtheta_max=0.005, dt_fixed=0.002, t_final=0.01)
    records = run.run()
    assert len(records) == 5
    assert all(rec.dt == 0.002 for rec in records)


def test_stationary_state_never_grows():
    n = 4
    h0 = tfim(n, hx=0.0)  # diagonal; all-up is an eigenstate
    records = run_avqds(
        StateVector.basis_state(n),
        h0,
        nearest_neighbour_pool(n),
        GrowthConfig(l2_cut=1e-3, method=3),
        StepConfig(dtheta_max=0.005, t_final=0.3),
        SOLVER,
    )
    assert all(rec.n_params == 0 for rec in records)
    assert all(rec.l2 < 1e-10 for rec in records)
    assert all(rec.infidelity < 1e-10 for rec in records)
    # stall-floor cap: dt = 10 * dtheta_max
    assert all(rec.dt == pytest.approx(0.05) for rec in records)


def test_records_strictly_time_ordered_and_deterministic():
    n = 3
    h = tfim(n)
    kwargs = dict(
        psi0=StateVector.basis_state(n),
        hamiltonian=h,
        pool=nearest_neighbour_pool(n),
        growth_cfg=GrowthConfig(l2_cut=1e-3, method=3),
        step_cfg=StepConfig(dtheta_max=0.01, t_final=0.3),
        solver_cfg=SOLVER,
        seed=7,
    )
    a = run_avqds(**kwargs)
    b = run_avqds(**kwargs)
    assert a == b
    times = [rec.t for rec in a]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


def test_depth_ordering_methods_1_vs_3():
    # layer packing must never exceed single-op growth in depth on this
    # config (violation-free for the full t=5 run; this prefix inherits that)
    n = 4
    h = tfim(n)
    pool_ops = [PauliString.two_site(n, (i, (i + 1) % n), "ZZ") for i in range(n)]
    pool_ops += [PauliString.single(n, i, "X") for i in range(n)]
    common = dict(
        psi0=StateVector.basis_state(n),
        hamiltonian=h,
        pool=OperatorPool(n, tuple(pool_ops)),
        step_cfg=StepConfig(dtheta_max=0.005, t_final=1.0),
        solver_cfg=SOLVER,
    )
    rec1 = run_avqds(growth_cfg=GrowthConfig(l2_cut=2e-3, method=1, score_cut=1e-4), **common)
    rec3 = run_avqds(growth_cfg=GrowthConfig(l2_cut=2e-3, method=3, score_cut=1e-4), **common)

    def depth_at(records, t):
        depth = records[0].depth
        for rec in records:
            if rec.t <= t + 1e-12:
                depth = rec.depth
        return depth

    for rec in rec3:
        assert rec.depth <= depth_at(rec1, rec.t)


def test_run_continues_after_growth_stall():
    # pool of Z rotations cannot reduce the distance for an X quench from
    # |00>; the run proceeds best-effort with the stall flagged
    n = 2
    h = WeightedPauliSum(n, [(1.0, g("XI")), (1.0, g("IX"))])
    records = run_avqds(
        StateVector.basis_state(n),
        h,
        OperatorPool(n, (g("ZI"), g("IZ"), g("ZZ"))),
        GrowthConfig(l2_cut=1e-3, method=3),
        StepConfig(dtheta_max=0.005, t_final=0.2),
        SOLVER,
    )
    assert all(rec.n_params == 0 for rec in records)
    assert all(rec.growth_stalled for rec in records)
    assert records[-1].t > records[0].t


def test_growth_budget_exhaustion_warns(caplog):
    n = 4
    h = tfim(n)
    with caplog.at_level(logging.WARNING, logger="avqds.engine"):
        run_avqds(
            StateVector.basis_state(n),
            h,
            nearest_neighbour_pool(n),
            GrowthConfig(l2_cut=1e-9, score_cut=0.0, method=1, max_grow_iters=2),
            StepConfig(dtheta_max=0.005, t_final=0.002),
            SOLVER,
        )
    assert any("growth budget exhausted" in rec.message for rec in caplog.records)


def test_exhausted_growth_budget_is_flagged_on_the_record():
    n = 4
    records = run_avqds(
        StateVector.basis_state(n),
        tfim(n),
        nearest_neighbour_pool(n),
        GrowthConfig(l2_cut=1e-12, score_cut=0.0, method=1, max_grow_iters=1),
        StepConfig(dtheta_max=0.005, t_final=0.002),
        SOLVER,
    )
    assert records[0].growth_exhausted
    assert all(rec.growth_exhausted == (rec.l2 >= 1e-12) for rec in records)
    generous = run_avqds(
        StateVector.basis_state(n),
        tfim(n),
        nearest_neighbour_pool(n),
        GrowthConfig(l2_cut=1e-3, method=3),
        StepConfig(dtheta_max=0.005, t_final=0.002),
        SOLVER,
    )
    assert not any(rec.growth_exhausted for rec in generous)


def test_non_finite_hamiltonian_raises_located_error():
    n = 3
    h = WeightedPauliSum(n, [(float("nan"), g("XII")), (1.0, g("ZZI"))])
    run = AvqdsRun(
        h,
        Ansatz(StateVector.basis_state(n)),
        StepConfig(dtheta_max=0.005, t_final=0.1),
        SOLVER,
        pool=nearest_neighbour_pool(n),
        growth_cfg=GrowthConfig(),
        compute_infidelity=False,
    )
    with pytest.raises(NonFiniteSystemError) as info:
        run.step()
    err = info.value
    assert isinstance(err, ValueError)
    assert (err.t, err.step, err.n_params, err.phase) == (0.0, 0, 0, "step solve")
    assert "step solve at t=0, step 0" in str(err)
    assert str(pickle.loads(pickle.dumps(err))) == str(err)  # crosses worker processes


def test_singular_ridge_system_raises_located_error(monkeypatch):
    """A noisy M with an eigenvalue at exactly -epsilon has no Tikhonov
    solution; the run raises instead of stepping by dt = nan."""
    n = 2
    h = WeightedPauliSum(n, [(1.0, g("XI")), (1.0, g("IX"))])
    singular = McLachlanSystem(np.diag([-0.01, 1.0]), np.ones(2), 1.0)
    monkeypatch.setattr(avqds.engine, "noisy_system", lambda *args: singular)
    run = AvqdsRun(
        h,
        Ansatz(StateVector.basis_state(n), (g("YI"), g("IY")), np.full(2, 0.1)),
        StepConfig(dtheta_max=0.005, t_final=0.1),
        SolverConfig("tikhonov", epsilon=0.01),
        noise_cfg=NoiseConfig(n_shots=1e4, d_c=0),
        compute_infidelity=False,
    )
    with pytest.raises(NonFiniteSystemError) as info:
        run.step()
    err = info.value
    assert (err.t, err.step, err.n_params, err.phase) == (0.0, 0, 2, "step solve")
    assert "no finite solution of the linear system (step solve at t=0, step 0" in str(err)


def test_a_non_finite_candidate_score_raises_located_error(monkeypatch):
    """A bordered system whose solve fails is reported at the growth
    iteration's candidate score, not at the step's solve."""
    n = 4
    run = AvqdsRun(
        tfim(n),
        Ansatz(StateVector.basis_state(n)),
        StepConfig(dtheta_max=0.005, t_final=0.1),
        SOLVER,
        pool=nearest_neighbour_pool(n),
        growth_cfg=GrowthConfig(),
        compute_infidelity=False,
    )

    def solve_or_fail(s, cfg):
        if s.n_params > run.ansatz.n_params:
            raise NonFiniteSystemError(s.n_params)
        return solve(s, cfg)

    monkeypatch.setattr(avqds.engine, "solve", solve_or_fail)
    with pytest.raises(NonFiniteSystemError) as info:
        run.step()
    err = info.value
    assert (err.t, err.step, err.n_params, err.phase) == (0.0, 0, 1, "candidate score")
    assert "candidate score at t=0, step 0" in str(err)


def test_depth_cap_suppresses_and_flags():
    n = 4
    h = tfim(n)
    records = run_avqds(
        StateVector.basis_state(n),
        h,
        nearest_neighbour_pool(n),
        GrowthConfig(l2_cut=1e-3, method=3, max_depth=1),
        StepConfig(dtheta_max=0.005, t_final=0.05),
        SOLVER,
    )
    assert all(rec.depth <= 1 for rec in records)
    assert any(rec.growth_suppressed for rec in records)


def test_depth_cap_warns_once_when_run_continues_above_cutoff(caplog):
    n = 4
    run = AvqdsRun(
        tfim(n),
        Ansatz(StateVector.basis_state(n)),
        StepConfig(dtheta_max=0.005, t_final=0.05),
        SOLVER,
        pool=nearest_neighbour_pool(n),
        growth_cfg=GrowthConfig(l2_cut=1e-3, method=3, max_depth=1),
    )
    with caplog.at_level(logging.WARNING, logger="avqds.engine"):
        records = run.run()
    capped = [rec for rec in records if rec.growth_suppressed and rec.l2 >= 1e-3]
    assert len(capped) > 1
    warnings = [rec.getMessage() for rec in caplog.records if "max_depth" in rec.getMessage()]
    assert len(warnings) == 1
    assert f"t={capped[0].t:g}" in warnings[0]
    assert f"l2={capped[0].l2:.3e}" in warnings[0]


def test_run_matches_gather_oracle_kernel(monkeypatch):
    n = 4
    kwargs = dict(
        psi0=StateVector.basis_state(n),
        hamiltonian=tfim(n),
        pool=nearest_neighbour_pool(n),
        growth_cfg=GrowthConfig(l2_cut=1e-3, method=3),
        step_cfg=StepConfig(dtheta_max=0.01, t_final=0.5),
        solver_cfg=SOLVER,
    )
    fast = run_avqds(**kwargs)
    calls = []

    def gather_kernel(plan, coeffs, cos, rows, *views):
        calls.append(rows.shape[0])
        src = _pauli_tables(plan.pauli.n_qubits, plan.pauli.x_bits, plan.pauli.z_bits)[0]
        if np.ndim(coeffs):  # -i·sin·phase·signs, from the plan's layout back to index order
            coeffs = index_order(plan, coeffs)
        rows[...] = cos * rows + coeffs * rows[..., src]

    monkeypatch.setattr(avqds.ansatz, "_rotate_views", gather_kernel)
    slow = run_avqds(**kwargs)
    assert calls and fast[-1].n_params > 4
    assert slow == fast


def test_run_with_one_row_tiles_matches_default_run(monkeypatch):
    n = 4
    kwargs = dict(
        psi0=StateVector.basis_state(n),
        hamiltonian=tfim(n),
        pool=nearest_neighbour_pool(n),
        growth_cfg=GrowthConfig(l2_cut=1e-3, method=3),
        step_cfg=StepConfig(dtheta_max=0.01, t_final=0.5),
        solver_cfg=SOLVER,
    )
    default = run_avqds(**kwargs)
    monkeypatch.setattr(avqds.ansatz, "_TILE_BYTES", 16 << n)
    one_row = run_avqds(**kwargs)
    assert default[-1].n_params > 4
    assert one_row == default


def test_fixed_ansatz_run_never_grows(rng):
    n = 3
    h = tfim(n)
    gens = tuple(random_pauli(rng, n) for _ in range(4))
    a = Ansatz(StateVector.basis_state(n), gens, np.zeros(4))
    records = run_fixed_ansatz(
        a, h, StepConfig(dtheta_max=0.01, t_final=0.1), SOLVER
    )
    assert all(rec.n_params == 4 for rec in records)
    assert records[0].infidelity == pytest.approx(0.0, abs=1e-12)
