"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here, not configurable. Criteria 6 and 7 guard
relative claims (layer packing adds no layer its growth rule could do without;
the Trotter baseline converges at first order); their docstrings record the
measurements behind the form each clause takes.
"""

import time

import numpy as np
import pytest

from avqds.ansatz import Ansatz, prepare_state, tangent_states
from avqds.baselines import build_hva, trotter_run
from avqds.cli import main as cli_main
from avqds.engine import AvqdsRun, GrowthConfig, StepConfig, run_avqds
from avqds.mclachlan import McLachlanSystem, assemble_frame
from avqds.models import ModelSpec, OperatorPool, build_model, hamiltonian_term_pool, model_sublayers
from avqds.noise import NoiseConfig, noisy_system, shot_sigma
from avqds.pauli import PauliString, WeightedPauliSum
from avqds.solvers import SolverConfig, solve
from avqds.statevector import ExactPropagator, StateVector, exact_evolve, fidelity
from conftest import random_hamiltonian, random_pauli, random_state

TRUNC = SolverConfig("truncation", epsilon=1e-6)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def random_ansatz(rng, n_qubits, n_params):
    gens = tuple(random_pauli(rng, n_qubits) for _ in range(n_params))
    angles = rng.uniform(-1.5, 1.5, size=n_params)
    ref = StateVector(n_qubits, random_state(rng, n_qubits))
    return Ansatz(ref, gens, angles)


def test_criterion_01_metric_structure():
    """PSD metric and force orthogonal to its null space, 200 random cases."""
    start = time.time()
    rng = np.random.default_rng(101)
    worst_eig = np.inf
    worst_defect = 0.0
    for _ in range(200):
        n_q = int(rng.integers(2, 7))
        n_p = int(rng.integers(1, 13))
        a = random_ansatz(rng, n_q, n_p)
        h = random_hamiltonian(rng, n_q, n_terms=int(rng.integers(2, 7)))
        s = assemble_frame(a, h).system
        w, u = np.linalg.eigh(s.m)
        worst_eig = min(worst_eig, float(w[0]))
        for k in range(n_p):
            if w[k] <= 1e-10:
                worst_defect = max(worst_defect, float(abs(u[:, k] @ s.v)))
    elapsed = time.time() - start
    ok = worst_eig >= -1e-10 and worst_defect <= 1e-8 and elapsed < 60
    assert report(
        1,
        ok,
        f"min eigenvalue {worst_eig:.2e} (>= -1e-10), "
        f"max null-space overlap {worst_defect:.2e} (<= 1e-8), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_tangent_finite_difference():
    """Derivative states agree with central differences at h=1e-5."""
    rng = np.random.default_rng(202)
    h_step = 1e-5
    worst = 0.0
    for _ in range(50):
        a = random_ansatz(rng, int(rng.integers(2, 6)), int(rng.integers(1, 9)))
        xi = tangent_states(a)
        for k in range(a.n_params):
            up = np.array(a.angles)
            dn = np.array(a.angles)
            up[k] += h_step
            dn[k] -= h_step
            fd = (
                prepare_state(a.with_angles(up)).amplitudes
                - prepare_state(a.with_angles(dn)).amplitudes
            ) / (2 * h_step)
            worst = max(worst, float(np.max(np.abs(xi[k] - fd))))
    ok = worst < 1e-8
    assert report(2, ok, f"max tangent deviation {worst:.2e} (< 1e-8) over 50 ansaetze")


def test_criterion_03_exactly_representable_dynamics():
    """Single X rotation under an X field: unit velocity, zero distance."""
    h = WeightedPauliSum(1, [(1.0, PauliString.from_label("X"))])
    a = Ansatz(StateVector.basis_state(1), (PauliString.from_label("X"),), [0.0])
    records = AvqdsRun(h, a, StepConfig(dtheta_max=0.005, t_final=2.0), TRUNC, seed=0).run()
    td = solve(assemble_frame(a.with_angles([0.7]), h).system, TRUNC)
    max_l2 = max(r.l2 for r in records)
    max_inf = max(r.infidelity for r in records)
    dt_dev = max(abs(r.dt - 0.005) for r in records)
    ok = (
        abs(td[0] - 1.0) < 1e-10
        and max_l2 < 1e-12
        and max_inf < 1e-10
        and dt_dev < 1e-12
        and records[-1].t + records[-1].dt >= 2.0 - 1e-9
    )
    assert report(
        3,
        ok,
        f"theta_dot={td[0]:.12f}, max L2 {max_l2:.1e}, max infidelity {max_inf:.1e} "
        f"(< 1e-10) over {len(records)} steps to t=2",
    )


def test_criterion_04_solver_oracle_equivalence():
    """Truncation equals the pseudoinverse; all methods agree when regular."""
    rng = np.random.default_rng(404)

    def orthogonal(n):
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        return q * np.sign(np.diag(r))

    worst_pinv = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        rank = int(rng.integers(1, n))
        u = orthogonal(n)
        w = np.zeros(n)
        w[n - rank :] = rng.uniform(0.5, 3.0, size=rank)
        m = u @ np.diag(w) @ u.T
        v = m @ rng.normal(size=n)
        s = McLachlanSystem(m=m, v=v, var_h=1.0)
        td = solve(s, SolverConfig("truncation", epsilon=1e-6))
        worst_pinv = max(worst_pinv, float(np.max(np.abs(td - np.linalg.pinv(m) @ v))))

    worst_agree = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 10))
        u = orthogonal(n)
        m = u @ np.diag(rng.uniform(2.0, 5.0, size=n)) @ u.T
        v = m @ rng.uniform(-1.0, 1.0, size=n)
        s = McLachlanSystem(m=m, v=v, var_h=1.0)
        sols = [
            solve(s, SolverConfig(meth, epsilon=1e-6, bound=5.0))
            for meth in ("lsq_unbounded", "lsq_bounded", "tikhonov", "truncation")
        ]
        scale = max(1.0, max(np.linalg.norm(x) for x in sols))
        for x in sols[1:]:
            worst_agree = max(worst_agree, float(np.linalg.norm(x - sols[0]) / scale))
    ok = worst_pinv <= 1e-8 and worst_agree <= 1e-6
    assert report(
        4,
        ok,
        f"max |truncation - pinv| {worst_pinv:.2e} (<= 1e-8) on 100 singular systems; "
        f"max cross-method deviation {worst_agree:.2e} (<= 1e-6 relative)",
    )


DESK = ModelSpec("tfim", 8, j=1.0, h_x=-2.0)


@pytest.fixture(scope="module")
def desk_run():
    """Criterion 5's layer-packed run of the 8-site TFIM quench to t = 4
    (Hamiltonian pool, l2_cut 1e-3), once per module: its records and its
    wall time in seconds."""
    _, h, psi0 = build_model(DESK)
    start = time.time()
    records = run_avqds(
        psi0,
        h,
        hamiltonian_term_pool(DESK),
        GrowthConfig(l2_cut=1e-3, method=3),
        StepConfig(dtheta_max=0.005, t_final=4.0),
        TRUNC,
        seed=0,
    )
    return records, time.time() - start


@pytest.mark.slow
def test_criterion_05_desk_scale_fidelity(desk_run):
    """Layer-packed adaptive run tracks an 8-site quench below 1% infidelity."""
    records, elapsed = desk_run
    max_inf = max(r.infidelity for r in records)
    ok = max_inf < 1e-2 and elapsed < 300
    assert report(
        5,
        ok,
        f"max infidelity {max_inf:.2e} (< 1e-2) over t in [0, 4], "
        f"{records[-1].n_params} parameters, {elapsed:.0f}s (< 300s)",
    )


@pytest.mark.slow
def test_criterion_06_layer_packing_compression():
    """Layer-filling growth vs single-operator growth, identical config.

    Clauses: single-op depth >= 1.5x the layer-packed depth d3, the packed
    run never deeper than the single-op run at equal t, and no layer the rule
    could do without: capped at d3 - 1 layers the same rule loses the quench
    (max infidelity > 1e-2 by t=1.5) while the uncapped run tracks it
    (< 1e-2 to t=5).

    The depth clauses are relative because neither the repository nor the
    paper's abstract fixes an absolute depth for this quench. At this
    config d3 = 9 (26 params) and the rule needs all nine layers:
    - every method-3 growth is real: the L2 before it is the same at
      truncation epsilon 1e-6, 1e-8, 1e-10 and 1e-12;
    - reversed, X-first, site-rotated and shuffled pool orderings all end
      at depth 9 with 26 params (single-op: depth 16);
    - capped at 8, growth is suppressed from t ~ 0.37, the infidelity
      passes 1e-2 at t ~ 0.89 and peaks at 0.985 by t=5 (0.23 by t=1.5);
      uncapped it peaks at 9.9e-4;
    - a fixed 2-layer brick-wall HVA (16 rotations in 6 layers, X first)
      exceeds the L2 cutoff at t ~ 0.22 and reaches infidelity 0.80.

    Part of the ratio margin (16 / 9 = 1.78) comes from the truncation
    threshold: from t ~ 0.264 on, single-op growth takes the depth from 8
    to 16 and adds 15 of its 34 params, and each of those growths is set
    off by metric eigenvalues in [3e-8, 1e-6) that truncation at 1e-6
    drops; at epsilon <= 1e-8 the L2 was already under the cutoff. A change
    to how epsilon is handled must re-check the ratio clause, not relax it.
    """
    spec = ModelSpec("tfim", 4, j=1.0, h_x=-2.0)
    _, h, psi0 = build_model(spec)
    pool = hamiltonian_term_pool(spec)
    growth = dict(l2_cut=2e-3, score_cut=1e-4)
    step = StepConfig(dtheta_max=0.005, t_final=5.0)
    rec = {
        m: run_avqds(
            psi0, h, pool, GrowthConfig(method=m, **growth), step, TRUNC, seed=0
        )
        for m in (1, 3)
    }
    d1, d3 = rec[1][-1].depth, rec[3][-1].depth

    def depth_at(records, t):
        depth = records[0].depth
        for r in records:
            if r.t <= t + 1e-12:
                depth = r.depth
        return depth

    violations = sum(1 for r in rec[3] if r.depth > depth_at(rec[1], r.t))
    worst = max(r.infidelity for r in rec[3])
    capped = run_avqds(
        psi0,
        h,
        pool,
        GrowthConfig(method=3, max_depth=d3 - 1, **growth),
        StepConfig(dtheta_max=0.005, t_final=1.5),
        TRUNC,
        seed=0,
    )
    worst_capped = max(r.infidelity for r in capped)
    ok = (
        worst < 1e-2
        and worst_capped > 1e-2
        and d1 >= 1.5 * d3
        and violations == 0
    )
    assert report(
        6,
        ok,
        f"final depths: single-op {d1}, layer-packed {d3} "
        f"(need ratio >= 1.5, have {d1 / d3:.2f}); "
        f"max infidelity {worst:.2e} (< 1e-2), capped at {d3 - 1} layers "
        f"{worst_capped:.2e} by t=1.5 (> 1e-2); "
        f"ordering violations {violations} (need 0)",
    )


def test_criterion_07_trotter_step_halving():
    """Error ratio between dt=0.04 and dt=0.02 first-order product-formula runs.

    The window [1.5, 3.0] applies to a first-order quantity: the
    Fubini-Study angle arccos(sqrt(F)) between the Trotter and the exact
    state. The state error of a first-order formula is O(dt), so halving dt
    halves the angle (ratio 2.04 here). The overlap infidelity is second
    order and is printed, not gated: it falls by 4.48, 4.16, 4.06 and 4.03
    per halving over dt = 0.08 ... 0.005 (test_baselines asserts [3, 5] on
    it). A dense route (one expm per term, same brick-wall order) gives the
    same infidelities to 3e-14. The window still rejects other orders: a
    half-order formula (infidelity ratio 2) gives an angle ratio of 1.41, a
    second-order Strang splitting of the same terms about 4.
    """
    n = 6
    spec = ModelSpec("tfim", n, j=1.0, h_x=-2.0)
    _, h, psi0 = build_model(spec)
    exact = exact_evolve(h, 2.0, psi0)
    infid, angle = {}, {}
    for dt in (0.04, 0.02):
        result = trotter_run(h, psi0, dt=dt, t_final=2.0, sublayers=model_sublayers(spec))
        f = fidelity(result.states[-1], exact)
        infid[dt] = 1 - f
        angle[dt] = float(np.arccos(np.sqrt(np.clip(f, 0.0, 1.0))))
    ratio = angle[0.04] / angle[0.02]
    ok = 1.5 <= ratio <= 3.0
    assert report(
        7,
        ok,
        f"angles {angle[0.04]:.3e} / {angle[0.02]:.3e}, ratio {ratio:.2f} "
        f"(window [1.5, 3.0]); infidelities {infid[0.04]:.3e} / "
        f"{infid[0.02]:.3e}, ratio {infid[0.04] / infid[0.02]:.2f}",
    )


def _site_rotated(p: PauliString) -> PauliString:
    """``p`` with each site moved to the next one around the ring."""
    n, full = p.n_qubits, (1 << p.n_qubits) - 1
    return PauliString(n, *(((bits << 1) | (bits >> (n - 1))) & full for bits in (p.x_bits, p.z_bits)))


# criterion 6's pool orderings, each a function of the pool's operators
POOL_ORDERINGS = {
    "default": lambda ops: ops,
    "reversed": lambda ops: ops[::-1],
    "x_first": lambda ops: sorted(ops, key=lambda p: not p.x_bits),
    "site_rotated": lambda ops: [_site_rotated(p) for p in ops],
    "shuffled": lambda ops: [ops[i] for i in np.random.default_rng(0).permutation(len(ops))],
}


@pytest.mark.parametrize("ordering", list(POOL_ORDERINGS))
def test_adaptive_circuit_needs_fewer_cnots_than_trotter_and_single_op_growth(ordering):
    """The compressed-circuit claim on criterion 6's config (TFIM, 4 sites,
    t = 5, l2_cut 2e-3, score_cut 1e-4): AVQDS(T) ends with fewer CNOTs than
    single-op growth in each of criterion 6's pool orderings, and far fewer
    than a first-order Trotter circuit (``model_sublayers``) as accurate as
    it.

    Measured: AVQDS(T) ends with 20 CNOTs at depth 9 and max infidelity
    9.87e-4; single-op growth with 38 CNOTs at 2.93e-3. Trotter's max
    infidelity at its step boundaries, against ``ExactPropagator``, is
    3.22e-3 with 1,000 CNOTs at dt = 0.04, 7.45e-4 with 2,000 at dt = 0.02
    and 1.81e-4 with 4,000 at dt = 0.01. The coarsest of those dt that is as
    accurate as the adaptive run is 0.02, 100 times its CNOTs; the clause
    asks for more than 50 times. The Trotter circuit does not depend on the
    pool, so that clause runs with the default ordering only.

    Over the pool orderings (default, reversed, X-first, site-rotated, that
    is every site moved to the next, and shuffled by rng seed 0), AVQDS(T)
    ends with 20 CNOTs at depth 9 and 26 params in all five; single-op
    growth ends with 38, 36, 36, 38 and 38 CNOTs at depth 16, 16, 16, 16
    and 17, 34 params each. The four extra orderings take about 8.5 s on one
    core.
    """
    spec = ModelSpec("tfim", 4, j=1.0, h_x=-2.0)
    _, h, psi0 = build_model(spec)
    pool = OperatorPool(4, POOL_ORDERINGS[ordering](list(hamiltonian_term_pool(spec).operators)))
    assert set(pool.operators) == set(hamiltonian_term_pool(spec).operators)
    step = StepConfig(dtheta_max=0.005, t_final=5.0)
    rec = {
        m: run_avqds(psi0, h, pool, GrowthConfig(method=m, l2_cut=2e-3, score_cut=1e-4), step, TRUNC, seed=0)
        for m in (1, 3)
    }
    cnots = {m: records[-1].cnot_count for m, records in rec.items()}
    print(f"\n{ordering}: " + ", ".join(f"method {m} {r[-1].cnot_count} CNOTs, depth {r[-1].depth}, "
                                         f"{r[-1].n_params} params" for m, r in rec.items()))
    assert cnots[3] < cnots[1], cnots
    if ordering == "default":
        worst = max(r.infidelity for r in rec[3])
        trotter = {}
        for dt in (0.04, 0.02, 0.01):
            result = trotter_run(h, psi0, dt=dt, t_final=5.0, sublayers=model_sublayers(spec))
            oracle = ExactPropagator(h, psi0)
            infid = max(1 - fidelity(s, oracle.state_at(t)) for t, s in zip(result.times, result.states))
            trotter[dt] = (int(result.cnot_counts[-1]), infid)
        dt = max((dt for dt, (_, infid) in trotter.items() if infid <= worst), default=None)
        assert dt is not None, (worst, trotter)
        assert trotter[dt][0] > 50 * cnots[3], (dt, trotter, cnots)


@pytest.mark.slow
def test_desk_adaptive_circuit_needs_fewer_cnots_than_trotter(desk_run):
    """The compressed-circuit claim at desk scale, on criterion 5's run:
    AVQDS(T) ends with far fewer CNOTs than a first-order Trotter circuit
    (``model_sublayers``) as accurate as it.

    Measured: AVQDS(T) ends with 112 CNOTs at depth 23 (128 params) and max
    infidelity 1.41e-3. Trotter's max infidelity at its step boundaries,
    against ``ExactPropagator``, is 7.61e-3 with 1,600 CNOTs at dt = 0.04,
    1.87e-3 with 3,200 at dt = 0.02 and 4.62e-4 with 6,400 at dt = 0.01.
    The coarsest of those dt that is as accurate as the adaptive run is
    0.01, 57 times its CNOTs; the clause asks for more than 40 times, which
    holds while AVQDS(T) ends with at most 159 CNOTs, 47 more than it does
    now. The Trotter runs take about 0.1 s.
    """
    records, _ = desk_run
    worst, cnots = max(r.infidelity for r in records), records[-1].cnot_count
    _, h, psi0 = build_model(DESK)
    trotter = {}
    for dt in (0.04, 0.02, 0.01):
        result = trotter_run(h, psi0, dt=dt, t_final=4.0, sublayers=model_sublayers(DESK))
        oracle = ExactPropagator(h, psi0)  # steps forward only
        infid = max(1 - fidelity(s, oracle.state_at(t)) for t, s in zip(result.times, result.states))
        trotter[dt] = (int(result.cnot_counts[-1]), infid)
    print(f"\ndesk: AVQDS(T) {cnots} CNOTs at max infidelity {worst:.2e}; Trotter {trotter}")
    dt = max((dt for dt, (_, infid) in trotter.items() if infid <= worst), default=None)
    assert dt is not None, (worst, trotter)
    assert trotter[dt][0] > 40 * cnots, (dt, trotter, cnots)


@pytest.mark.slow
def test_criterion_08_fixed_ansatz_failure_mode():
    """A two-layer fixed ansatz collapses while the adaptive run stays accurate."""
    spec = ModelSpec("tfim", 8, j=1.0, h_x=-2.0)
    _, h, psi0 = build_model(spec)
    solver = TRUNC
    hva = build_hva(h, psi0, 2, model_sublayers(spec))
    rec_hva = AvqdsRun(h, hva, StepConfig(dtheta_max=0.005, dt_fixed=0.005, t_final=10.0), solver).run()
    worst_hva = max(r.infidelity for r in rec_hva)
    rec_adaptive = run_avqds(
        psi0,
        h,
        hamiltonian_term_pool(spec),
        GrowthConfig(l2_cut=1e-3, method=3),
        StepConfig(dtheta_max=0.005, t_final=10.0),
        solver,
        seed=0,
    )
    worst_adaptive = max(r.infidelity for r in rec_adaptive)
    ok = worst_hva > 0.5 and worst_adaptive < 1e-2
    assert report(
        8,
        ok,
        f"two-layer fixed ansatz max infidelity {worst_hva:.3f} (> 0.5); "
        f"adaptive max infidelity {worst_adaptive:.2e} (< 1e-2) over t in [0, 10]",
    )


@pytest.mark.slow
def test_criterion_09_noisy_solver_ordering():
    """Truncation outlasts ridge regularization in the acceptance band."""
    start = time.time()
    spec = ModelSpec("tfim", 6, j=1.0, h_x=-2.0)
    _, h, psi0 = build_model(spec)
    hva = build_hva(h, psi0, 8, model_sublayers(spec))
    step = StepConfig(dtheta_max=0.005, dt_fixed=0.005, t_final=1.0)
    noise = NoiseConfig(n_shots=1e4, d_c=0)

    def acceptance_time(solver):
        times = []
        for seed in range(20):
            records = AvqdsRun(h, hva, step, solver, noise_cfg=noise, seed=seed).run()
            t_exit = step.t_final
            for r in records:
                if r.infidelity >= 0.1:  # fidelity drops to 0.9
                    t_exit = r.t
                    break
            times.append(t_exit)
        return float(np.median(times))

    t_trunc = acceptance_time(SolverConfig("truncation", epsilon=1e-3))
    t_tik = acceptance_time(SolverConfig("tikhonov", epsilon=1e-2))
    elapsed = time.time() - start
    ok = t_trunc > t_tik and elapsed < 600
    assert report(
        9,
        ok,
        f"median time in acceptance band: truncation {t_trunc:.3f} > tikhonov {t_tik:.3f} "
        f"(20 runs each, shots 1e4), {elapsed:.0f}s (< 600s)",
    )


@pytest.mark.slow
def test_criterion_10_hybrid_noiseless_prefix():
    """Runs are bit-identical until the depth threshold, then depart."""
    spec = ModelSpec("tfim", 8, j=1.0, h_x=-2.0)
    _, h, psi0 = build_model(spec)
    pool = hamiltonian_term_pool(spec)
    growth = GrowthConfig(l2_cut=1e-3, method=3, max_depth=30)
    step = StepConfig(dtheta_max=0.005, t_final=2.0)
    clean = run_avqds(psi0, h, pool, growth, step, TRUNC, seed=7)
    d_c = max(r.depth for r in clean if r.t <= 1.0)
    noisy = run_avqds(
        psi0,
        h,
        pool,
        growth,
        step,
        TRUNC,
        noise_cfg=NoiseConfig(n_shots=1e4, d_c=d_c),
        seed=7,
    )
    prefix_len = sum(1 for r in clean if r.depth <= d_c)
    prefix_identical = clean[:prefix_len] == noisy[:prefix_len]
    overlap = min(len(clean), len(noisy))
    departs = any(
        clean[i].infidelity != noisy[i].infidelity for i in range(prefix_len, overlap)
    )
    ok = prefix_identical and departs and prefix_len < len(clean)
    assert report(
        10,
        ok,
        f"threshold depth {d_c} (reached at t~1): {prefix_len} records bit-identical, "
        f"trajectories depart afterwards: {departs}",
    )


def test_criterion_11_shot_noise_statistics():
    """Monte Carlo spread of jittered elements matches the analytic sigma."""
    from avqds.ansatz import layout

    lo = layout(
        (
            PauliString.from_label("ZZII"),
            PauliString.from_label("IZZI"),
            PauliString.from_label("IIIX"),
        ),
        4,
    )
    m = np.array([[0.20, 0.05, -0.10], [0.05, 0.15, 0.00], [-0.10, 0.00, 0.22]])
    s = McLachlanSystem(m=m, v=np.array([0.2, -0.2, 0.1]), var_h=0.5)
    worst = 0.0
    for n_shots in (1e3, 1e4):
        cfg = NoiseConfig(n_shots=n_shots, d_c=0)
        rng = np.random.default_rng(1111)
        draws = np.array([noisy_system(s, lo, cfg, rng).m for _ in range(10_000)])
        for i in range(3):
            for j in range(3):
                expected = shot_sigma(m[i, j], n_shots)
                observed = float(draws[:, i, j].std())
                worst = max(worst, abs(observed - expected) / expected)
    ok = worst < 0.05
    assert report(
        11, ok, f"worst relative sigma deviation {worst:.3%} (< 5%) at shots 1e3 and 1e4"
    )


def test_criterion_12_preset_determinism(tmp_path):
    """A preset re-run with the same seed reproduces every byte."""
    out = tmp_path / "det"
    args = [
        "preset",
        "benchmark",
        "--nq",
        "4",
        "--t-final",
        "0.5",
        "--runs",
        "2",
        "--seed",
        "3",
        "--out",
        str(out),
    ]
    assert cli_main(args) == 0
    snapshot = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))}
    assert cli_main(args) == 0
    after = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))}
    ok = snapshot == after and len(snapshot) >= 8
    assert report(
        12, ok, f"{len(snapshot)} CSV files byte-identical across re-runs"
    )
