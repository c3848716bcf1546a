import concurrent.futures
import itertools
import math
import os

import numpy as np
import pytest

from avqds.config import parse_config, serialize_config
from avqds.engine import TrajectoryRecord
from avqds.experiment import PRESETS, _aggregate, run_experiment
from avqds.models import KINDS
from conftest import fresh_interpreter, reference_aggregate


def rec(t, infidelity, dt=0.1):
    return TrajectoryRecord(
        t=t,
        n_params=2,
        l2=0.0,
        depth=1,
        cnot_count=0,
        dt=dt,
        energy=-1.0,
        infidelity=infidelity,
    )


def test_all_presets_produce_valid_round_trippable_configs():
    for (name, factory), kind in itertools.product(PRESETS.items(), KINDS):
        labelled = factory(kind)
        assert labelled, name
        labels = [label for label, _ in labelled]
        assert len(labels) == len(set(labels))
        for label, cfg in labelled:
            assert cfg.model.kind == kind
            assert parse_config(serialize_config(cfg)) == cfg


def test_aggregate_on_shared_grid_is_rowwise():
    run_a = [rec(0.0, 0.0), rec(0.1, 0.2), rec(0.2, 0.4)]
    run_b = [rec(0.0, 0.0), rec(0.1, 0.4), rec(0.2, 0.8)]
    lines = _aggregate([run_a, run_b])
    header = lines[0].split(",")
    i_mean = header.index("infidelity_mean")
    i_std = header.index("infidelity_std")
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 3
    assert float(rows[1][i_mean]) == pytest.approx(0.3)
    assert float(rows[1][i_std]) == pytest.approx(np.std([0.2, 0.4], ddof=1))
    assert float(rows[2][i_mean]) == pytest.approx(0.6)


def test_aggregate_on_disjoint_grids_uses_last_record():
    run_a = [rec(0.0, 0.0), rec(0.15, 0.3)]
    run_b = [rec(0.0, 0.1), rec(0.1, 0.5)]
    lines = _aggregate([run_a, run_b])
    rows = [l.split(",") for l in lines[1:]]
    header = lines[0].split(",")
    i_mean = header.index("infidelity_mean")
    times = [float(r[0]) for r in rows]
    assert times == [0.0, 0.1, 0.15]
    # at t=0.1 run_a still sits on its t=0 record
    assert float(rows[1][i_mean]) == pytest.approx((0.0 + 0.5) / 2)
    assert float(rows[2][i_mean]) == pytest.approx((0.3 + 0.5) / 2)


def _ragged_runs(rng, n_runs):
    """Runs of different lengths on different time grids, some of whose times
    lie within 1e-15 of another run's, with NaN distances in some runs and
    one run whose first record comes after the grid starts."""
    runs = []
    for i in range(n_runs):
        times = np.cumsum(rng.uniform(0.001, 0.05, size=int(rng.integers(3, 60))))
        if i != 1:
            times[0] = 0.0
        if runs and i != 1:
            shared = runs[0][: len(times) // 2]
            times[: len(shared)] = [r.t + float(rng.choice([0.0, 4e-16, -4e-16, 9e-16, 2e-15])) for r in shared]
            times = np.maximum.accumulate(times)
        runs.append([
            TrajectoryRecord(
                t=float(t),
                n_params=int(rng.integers(0, 200)),
                l2=math.nan if i % 5 == 3 else float(rng.lognormal(-8, 3)),
                depth=int(rng.integers(0, 40)),
                cnot_count=int(rng.integers(0, 400)),
                dt=float(rng.uniform(1e-4, 1e-2)),
                energy=float(rng.normal(-5.0, 3.0)),
                infidelity=float(rng.uniform(0, 1) ** 6),
            )
            for t in times
        ])
    return runs


@pytest.mark.parametrize("n_runs", [2, 3, 7, 8, 9, 16, 20])
def test_aggregate_matches_the_per_point_loop(n_runs):
    """Eight runs is where numpy's pairwise sum starts to unroll, so the
    vectorised reduction must run over a contiguous runs axis to keep the
    1-D sums' order."""
    runs = _ragged_runs(np.random.default_rng(n_runs), n_runs)
    assert _aggregate(runs) == reference_aggregate(runs)


def test_run_experiment_with_workers_matches_sequential(tmp_path):
    text = """
model.kind = tfim
model.n_qubits = 3
model.h_x = -2.0
step.t_final = 0.03
step.dtheta_max = 0.01
run.runs = 2
"""
    seq = parse_config(text)
    par = parse_config(text + "run.workers = 2\n")
    out_seq = tmp_path / "seq"
    out_par = tmp_path / "par"
    run_experiment(seq, out_seq)
    run_experiment(par, out_par)
    for name in ("run_000.csv", "run_001.csv"):
        a = (out_seq / name).read_text().splitlines()
        b = (out_par / name).read_text().splitlines()
        # identical apart from the run.workers line embedded in the header
        assert [l for l in a if "workers" not in l] == [l for l in b if "workers" not in l]


def test_workers_are_spawned_with_one_blas_thread(tmp_path, monkeypatch):
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS")
    seen = {}

    class RecordingExecutor:
        def __init__(self, max_workers, mp_context):
            seen["start_method"] = mp_context.get_start_method()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            seen["env"] = {k: os.environ.get(k) for k in blas_vars}
            return map(fn, jobs)

    # the name the pool branch of run_experiment imports when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    parent = {"OPENBLAS_NUM_THREADS": "4", "GOTO_NUM_THREADS": "4", "MKL_NUM_THREADS": "4"}
    for k, v in parent.items():
        monkeypatch.setenv(k, v)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cfg = parse_config("model.kind = tfim\nmodel.n_qubits = 3\nstep.t_final = 0.01\nrun.runs = 2\nrun.workers = 2\n")
    paths = run_experiment(cfg, tmp_path)
    assert len(paths) == 3
    assert seen == {"start_method": "spawn", "env": dict.fromkeys(blas_vars, "1")}
    assert {k: os.environ.get(k) for k in blas_vars} == {**parent, "OMP_NUM_THREADS": None}


# Run in a fresh interpreter: this test process has imported scipy already.
_SCIPY_FREE_RUNS = r"""
import sys

import avqds
from avqds.config import parse_config
from avqds.experiment import run_experiment

noisy_hva = parse_config(
    "model.kind = tfim\nmodel.n_qubits = 6\nrun.algorithm = hva\nhva.layers = 2\n"
    "step.dt_fixed = 0.005\nstep.t_final = 0.02\nsolver.method = truncation\n"
    "solver.epsilon = 1e-3\nnoise.enabled = true\nnoise.n_shots = 1e4\n"
)
growing = parse_config(
    "model.kind = tfim\nmodel.n_qubits = 8\npool.kind = hamiltonian\ngrowth.method = 3\n"
    "step.t_final = 0.02\n"
)
run_experiment(noisy_hva, sys.argv[1] + "/hva")
run_experiment(growing, sys.argv[1] + "/grow")
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.optimize")))
print(" ".join(loaded))
"""


def test_runs_up_to_ten_qubits_load_no_scipy_sparse_or_optimize(tmp_path):
    proc = fresh_interpreter(_SCIPY_FREE_RUNS, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
    assert (tmp_path / "hva" / "run_000.csv").exists() and (tmp_path / "grow" / "run_000.csv").exists()


# What a run loads beyond numpy: the process pool, and the generator that only
# shot noise draws from
_LEAN_START = r"""
import sys

from avqds.config import parse_config
from avqds.experiment import run_experiment

base = "model.kind = tfim\nmodel.n_qubits = 4\nstep.t_final = 0.02\n"
growing = parse_config(base + "pool.kind = hamiltonian\ngrowth.method = 3\n")
hva = parse_config(base + "run.algorithm = hva\nhva.layers = 2\nstep.dt_fixed = 0.005\n")
one_run = parse_config(base + "run.workers = 2\nrun.runs = 1\n")
noisy = parse_config(
    base + "run.algorithm = hva\nhva.layers = 2\nstep.dt_fixed = 0.005\nsolver.method = truncation\n"
    "solver.epsilon = 1e-3\nnoise.enabled = true\nnoise.n_shots = 1e4\nnoise.d_c = 0\n"
)
watched = ("multiprocessing", "concurrent.futures", "numpy.random")
for name, cfg in (("grow", growing), ("hva", hva), ("one_run", one_run)):
    run_experiment(cfg, sys.argv[1] + "/" + name)
print(" ".join(m for m in watched if m in sys.modules))
run_experiment(noisy, sys.argv[1] + "/noisy")
print(" ".join(m for m in watched if m in sys.modules))
"""


def test_noiseless_single_process_runs_load_no_process_pool_or_random_generator(tmp_path):
    proc = fresh_interpreter(_LEAN_START, tmp_path)
    assert proc.returncode == 0, proc.stderr
    noiseless, noisy = proc.stdout.splitlines()
    assert noiseless == ""
    assert noisy == "numpy.random"
    for name in ("grow", "hva", "one_run", "noisy"):
        assert (tmp_path / name / "run_000.csv").exists(), name


_SCIPY_FREE_ORACLE = r"""
import sys

from avqds.models import ModelSpec, build_model
from avqds.statevector import ExactPropagator, exact_evolve

_, h, psi0 = build_model(ModelSpec("tfim", 12, j=1.0, h_x=-2.0))
oracle = ExactPropagator(h, psi0)
assert not oracle._dense
for k in range(1, 11):
    oracle.state_at(0.005 * k)
exact_evolve(h, 0.05, psi0)
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy.sparse"))))
"""


def test_twelve_qubit_oracle_loads_no_scipy_sparse():
    proc = fresh_interpreter(_SCIPY_FREE_ORACLE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def _parse_records(path):
    """Trajectory records read back from a per-run CSV."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,n_params,l2,depth,cnots,dt,energy,infidelity"
    records = []
    for line in lines[1:]:
        t, n_params, l2, depth, cnots, dt, energy, infidelity = line.split(",")
        records.append(
            TrajectoryRecord(
                t=float(t),
                n_params=int(n_params),
                l2=float(l2),
                depth=int(depth),
                cnot_count=int(cnots),
                dt=float(dt),
                energy=float(energy),
                infidelity=float(infidelity),
            )
        )
    return records


@pytest.mark.parametrize("workers", [1, 2])
def test_aggregate_is_recomputable_from_per_run_files(tmp_path, workers):
    cfg = parse_config(
        "model.kind = tfim\nmodel.n_qubits = 4\nstep.t_final = 0.02\n"
        "noise.enabled = true\nnoise.n_shots = 1e4\nrun.runs = 3\n"
        f"run.workers = {workers}\n"
    )
    paths = run_experiment(cfg, tmp_path / "agg")
    assert [p.name for p in paths] == ["run_000.csv", "run_001.csv", "run_002.csv", "aggregate.csv"]
    per_run = [_parse_records(p) for p in paths[:3]]
    assert all(records and not any(math.isnan(r.infidelity) for r in records) for records in per_run)
    assert paths[3].read_text() == "\n".join(_aggregate(per_run)) + "\n"


def test_a_run_shorter_than_its_first_step_records_its_start(tmp_path):
    """``AvqdsRun.run`` stepped only while t < t_final - 1e-12, so t_final
    = 1e-13 wrote CSVs with no record and the aggregate failed to broadcast."""
    cfg = parse_config("model.kind = tfim\nmodel.n_qubits = 4\nstep.t_final = 1e-13\nrun.runs = 2\n")
    paths = run_experiment(cfg, tmp_path / "short")
    assert [p.name for p in paths] == ["run_000.csv", "run_001.csv", "aggregate.csv"]
    for path in paths[:2]:
        assert [r.t for r in _parse_records(path)] == [0.0]
    aggregate = paths[2].read_text().splitlines()
    assert len(aggregate) == 2 and aggregate[1].startswith("0,2,")
