import math

import numpy as np
import pytest

from avqds.ansatz import Ansatz, ansatz_layout, layout
from avqds.baselines import build_hva
from avqds.mclachlan import McLachlanSystem, assemble_frame
from avqds.models import build_model, default_model, model_sublayers
from avqds.noise import NoiseConfig, _noise_plan, noisy_system, shot_sigma
from avqds.pauli import PauliString
from conftest import reference_noisy_system


def g(label):
    return PauliString.from_label(label)


def chain_layout():
    # three unitaries: bond (0,1), bond (1,2), single site 3 -> depths 1,2,2
    return layout((g("ZZII"), g("IZZI"), g("IIIX")), 4)


def small_system():
    # all entries inside (-1/4, 1/4) so every element has a nonzero sigma
    m = np.array([[0.20, 0.05, -0.10], [0.05, 0.15, 0.00], [-0.10, 0.00, 0.22]])
    v = np.array([0.2, -0.2, 0.1])
    return McLachlanSystem(m=m, v=v, var_h=0.5)


# --- shot_sigma -----------------------------------------------------------


def test_sigma_at_zero_element():
    for n_shots in (1e3, 1e4):
        assert shot_sigma(0.0, n_shots) == pytest.approx(math.sqrt(1.0 / (16 * n_shots)))


def test_sigma_vanishes_at_range_boundary():
    assert shot_sigma(0.25, 1e4) == 0.0
    assert shot_sigma(-0.25, 1e4) == 0.0
    # clamped beyond the representable range as well
    assert shot_sigma(1.0, 1e4) == 0.0


def test_sigma_infinite_shots():
    assert shot_sigma(0.1, math.inf) == 0.0


# --- fragment depth ---------------------------------------------------------


def test_fragment_depth_examples():
    lo = chain_layout()
    depths = lo.prefix_depths()
    assert depths[max(0, 0)] == 1
    assert depths[max(0, 1)] == 2
    assert depths[max(2, 2)] == lo.depth == 2
    assert depths[max(0, 2)] == 2
    with pytest.raises(IndexError):
        depths[max(0, 7)]


def test_fragment_depth_on_six_layer_circuit():
    gens = tuple(g(lbl) for lbl in ("ZZII", "IIZZ", "IZZI", "ZIIZ", "XIII", "IXII"))
    depths = layout(gens, 4).prefix_depths()
    # first two unitaries fill layer one; element (0,1) sees only that layer
    assert depths[max(0, 1)] == 1
    assert depths[max(1, 3)] == 2
    assert depths[max(0, 5)] == 3


# --- noisy_system ---------------------------------------------------------


def test_high_threshold_returns_input_unchanged():
    s = small_system()
    rng = np.random.default_rng(0)
    out = noisy_system(s, chain_layout(), NoiseConfig(n_shots=100, d_c=5), rng)
    assert out is s
    # the random stream was not consumed
    assert np.random.default_rng(0).normal() == rng.normal()


def test_infinite_shots_identity_any_threshold():
    s = small_system()
    out = noisy_system(s, chain_layout(), NoiseConfig(n_shots=math.inf, d_c=0), np.random.default_rng(1))
    assert out is s


def test_all_elements_jittered_at_zero_threshold():
    s = small_system()
    out = noisy_system(s, chain_layout(), NoiseConfig(n_shots=100, d_c=0), np.random.default_rng(7))
    assert np.all(out.m != s.m)
    np.testing.assert_array_equal(out.v, s.v)  # exact V by default
    assert out.var_h == s.var_h


def test_partial_threshold_keeps_shallow_block_exact():
    s = small_system()
    out = noisy_system(s, chain_layout(), NoiseConfig(n_shots=100, d_c=1), np.random.default_rng(7))
    # only unitary 0 has fragment depth <= 1, so only (0,0) stays exact
    assert out.m[0, 0] == s.m[0, 0]
    assert np.all(out.m[:, 1:] != s.m[:, 1:])


def test_symmetry_preserved_exactly():
    s = small_system()
    out = noisy_system(s, chain_layout(), NoiseConfig(n_shots=50, d_c=0), np.random.default_rng(3))
    np.testing.assert_array_equal(out.m, out.m.T)


def test_noisy_count_monotone_in_threshold():
    s = small_system()
    counts = []
    for d_c in range(0, 4):
        out = noisy_system(s, chain_layout(), NoiseConfig(n_shots=10, d_c=d_c), np.random.default_rng(5))
        counts.append(int(np.sum(out.m != s.m)))
    assert counts == sorted(counts, reverse=True)


def test_fixed_seed_reproducible():
    s = small_system()
    cfg = NoiseConfig(n_shots=100, d_c=0)
    a = noisy_system(s, chain_layout(), cfg, np.random.default_rng(11))
    b = noisy_system(s, chain_layout(), cfg, np.random.default_rng(11))
    np.testing.assert_array_equal(a.m, b.m)


def test_noisy_v_option():
    s = small_system()
    cfg = NoiseConfig(n_shots=100, d_c=0, noisy_v=True)
    out = noisy_system(s, chain_layout(), cfg, np.random.default_rng(2))
    assert np.all(out.v != s.v)


def test_monte_carlo_std_matches_shot_sigma():
    s = small_system()
    lo = chain_layout()
    for n_shots in (1e3, 1e4):
        cfg = NoiseConfig(n_shots=n_shots, d_c=0)
        rng = np.random.default_rng(42)
        draws = np.array([noisy_system(s, lo, cfg, rng).m for _ in range(10_000)])
        for i in range(3):
            for j in range(3):
                expected = shot_sigma(s.m[i, j], n_shots)
                observed = draws[:, i, j].std()
                assert observed == pytest.approx(expected, rel=0.05)


def test_truncation_clips_outliers():
    s = small_system()
    lo = chain_layout()
    cfg = NoiseConfig(n_shots=10, d_c=0, truncate_sigmas=1.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        out = noisy_system(s, lo, cfg, rng)
        dev = np.abs(out.m - s.m)
        for i in range(3):
            for j in range(3):
                assert dev[i, j] <= 1.0 * shot_sigma(s.m[i, j], 10) + 1e-15


def hva_case(n_qubits=4, layers=3, seed=0):
    spec = default_model("tfim", n_qubits)
    _, h, psi0 = build_model(spec)
    hva = build_hva(h, psi0, layers, model_sublayers(spec))
    angles = np.random.default_rng(seed).uniform(-0.4, 0.4, size=hva.n_params)
    return hva.with_angles(angles), h


def test_noise_plan_is_read_only_and_shared():
    a, h = hva_case()
    lo = ansatz_layout(a)
    system = assemble_frame(a, h).system
    cfg = NoiseConfig(n_shots=1e4, d_c=1)
    plan = _noise_plan(lo, cfg.d_c)
    for arr in plan:
        with pytest.raises(ValueError):
            arr[0] = 1
    hits = _noise_plan.cache_info().hits
    rng = np.random.default_rng(0)
    for _ in range(3):  # three steps on one layout
        noisy_system(system, ansatz_layout(a.with_angles(a.angles)), cfg, rng)
    assert _noise_plan.cache_info().hits == hits + 3
    assert _noise_plan(lo, cfg.d_c) is plan
    # the plan is the mask it replaced: deep unitaries and the flat indices of (mu <= nu, nu deep)
    deep = lo.prefix_depths() > cfg.d_c
    rows, cols = np.triu_indices(a.n_params)
    keep = deep[cols]
    assert np.array_equal(plan.deep, np.flatnonzero(deep))
    assert np.array_equal(plan.upper, np.ravel_multi_index((rows[keep], cols[keep]), system.m.shape))
    assert np.array_equal(plan.lower, np.ravel_multi_index((cols[keep], rows[keep]), system.m.shape))


def _assert_same_as_reference(system, lo, cfg, rngs):
    rng, expected_rng = rngs
    out = noisy_system(system, lo, cfg, rng)
    expected = reference_noisy_system(system, lo, cfg, expected_rng)
    assert np.array_equal(out.m, expected.m) and np.array_equal(out.v, expected.v)
    assert out.var_h == expected.var_h
    assert rng.bit_generator.state == expected_rng.bit_generator.state


def _rng_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("n_shots", [10, 1e4, math.inf])
@pytest.mark.parametrize("truncate_sigmas", [None, 5.0])
@pytest.mark.parametrize("noisy_v", [False, True])
def test_noisy_system_matches_reference_bitwise(n_shots, truncate_sigmas, noisy_v):
    """Draws from one standard-normal stream with flat gathers and scatters
    equal ``rng.normal(means, sigmas)`` with 2-D fancy indexing bit for bit,
    and leave the generator in the same state."""
    a, h = hva_case(4, 3)
    system = assemble_frame(a, h).system
    lo = ansatz_layout(a)
    for d_c in (0, 1, lo.depth // 2, lo.depth, lo.depth + 3):
        cfg = NoiseConfig(n_shots=n_shots, d_c=d_c, noisy_v=noisy_v, truncate_sigmas=truncate_sigmas)
        _assert_same_as_reference(system, lo, cfg, _rng_pair(d_c))


@pytest.mark.parametrize("noisy_v", [False, True])
def test_noise_plan_follows_growth(noisy_v):
    """Steps before and after a growth, on one generator, draw as the
    reference does: the plan follows the grown layout."""
    full, h = hva_case(4, 3)
    n = full.n_params - 6
    a = Ansatz(full.reference, full.generators[:n], full.angles[:n])
    grown = a.extended(full.generators[n:]).with_angles(full.angles)
    depth = ansatz_layout(a).depth
    for d_c in (0, depth // 2, depth):  # at d_c = depth only the appended unitaries are noisy
        cfg = NoiseConfig(n_shots=1e3, d_c=d_c, noisy_v=noisy_v)
        rngs = _rng_pair(d_c)
        for ansatz in (a, a, grown, grown):
            _assert_same_as_reference(assemble_frame(ansatz, h).system, ansatz_layout(ansatz), cfg, rngs)
    assert _noise_plan(ansatz_layout(a), depth).deep.size == 0
    assert _noise_plan(ansatz_layout(grown), depth).deep.size > 0


def test_layout_dimension_mismatch_rejected():
    s = small_system()
    lo = layout((g("ZZII"),), 4)
    with pytest.raises(ValueError):
        noisy_system(s, lo, NoiseConfig(n_shots=10, d_c=0), np.random.default_rng(0))


def test_noiseless_prefix_in_adaptive_run():
    # identical seed: records match the noiseless run bit for bit while the
    # circuit stays at or below the exact-evaluation threshold
    from avqds.engine import GrowthConfig, StepConfig, run_avqds
    from avqds.models import ModelSpec, build_model, hamiltonian_term_pool
    from avqds.solvers import SolverConfig

    spec = ModelSpec("tfim", 3, j=1.0, h_x=-2.0)
    _, h, psi0 = build_model(spec)
    pool = hamiltonian_term_pool(spec)
    growth = GrowthConfig(l2_cut=1e-3, method=3)
    step = StepConfig(dtheta_max=0.01, t_final=0.6)
    solver = SolverConfig("truncation", epsilon=1e-6)
    clean = run_avqds(psi0, h, pool, growth, step, solver, seed=5)
    d_c = max(r.depth for r in clean if r.t <= 0.2)
    assert d_c < clean[-1].depth  # threshold must be crossed later
    noisy = run_avqds(
        psi0, h, pool, growth, step, solver,
        noise_cfg=NoiseConfig(n_shots=1e4, d_c=d_c), seed=5,
    )
    prefix = sum(1 for r in clean if r.depth <= d_c)
    assert clean[:prefix] == noisy[:prefix]
    overlap = min(len(clean), len(noisy))
    assert any(clean[i] != noisy[i] for i in range(prefix, overlap))


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(n_shots=0.5)
    with pytest.raises(ValueError):
        NoiseConfig(n_shots=100, d_c=-1)
    with pytest.raises(ValueError):
        NoiseConfig(truncate_sigmas=0.0)
