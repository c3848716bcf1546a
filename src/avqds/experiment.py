"""Experiment harness: drive runs from a config and emit trajectory CSVs.

Every run writes one CSV whose header embeds the full configuration and the
run seed, so files are self-describing and reruns are byte-comparable. With
multiple runs an aggregate file carries across-run mean and sample standard
deviation on the union time grid (each run contributing its latest record
at or before the grid time).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .ansatz import Ansatz
from .baselines import build_hva, trotter_run
from .config import ConfigError, ExperimentConfig, serialize_config
from .engine import AvqdsRun, GrowthConfig, StepConfig, TrajectoryRecord
from .models import build_model, default_model, hamiltonian_term_pool, model_pool, model_sublayers
from .noise import NoiseConfig
from .solvers import SolverConfig
from .statevector import ExactPropagator, expectation, fidelity


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


# (CSV column, TrajectoryRecord field, format) of a trajectory CSV, in order;
# the aggregate has a mean and a std column for each after t
TRAJECTORY_COLUMNS = (
    ("t", "t", _fmt_float),
    ("n_params", "n_params", str),
    ("l2", "l2", _fmt_float),
    ("depth", "depth", str),
    ("cnots", "cnot_count", str),
    ("dt", "dt", _fmt_float),
    ("energy", "energy", _fmt_float),
    ("infidelity", "infidelity", _fmt_float),
)


def write_trajectory_csv(
    path: Path, cfg: ExperimentConfig, seed: int, records: list[TrajectoryRecord]
) -> None:
    lines = ["# avqds trajectory v1", f"# seed = {seed}"]
    lines += [f"# {line}" for line in serialize_config(cfg).strip().splitlines()]
    lines.append(",".join(column for column, _, _ in TRAJECTORY_COLUMNS))
    lines += [",".join(fmt(getattr(r, field)) for _, field, fmt in TRAJECTORY_COLUMNS) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _trotter_records(cfg: ExperimentConfig) -> list[TrajectoryRecord]:
    _, h, psi0 = build_model(cfg.model)
    sublayers = model_sublayers(cfg.model)
    result = trotter_run(h, psi0, cfg.trotter_dt, cfg.step.t_final, sublayers)
    oracle = ExactPropagator(h, psi0) if cfg.oracle else None
    records = []
    for k, t in enumerate(result.times):
        state = result.states[k]
        infidelity = 1.0 - fidelity(state, oracle.state_at(float(t))) if oracle is not None else math.nan
        records.append(
            TrajectoryRecord(
                t=float(t),
                n_params=0,
                l2=math.nan,
                depth=int(result.depths[k]),
                cnot_count=int(result.cnot_counts[k]),
                dt=cfg.trotter_dt,
                energy=expectation(h, state),
                infidelity=infidelity,
            )
        )
    return records


def run_single(cfg: ExperimentConfig, run_index: int) -> list[TrajectoryRecord]:
    """One seeded run of the configured algorithm: a Trotter run, or one
    ``AvqdsRun`` that grows an empty ansatz from the pool (avqds) or steps
    the fixed HVA ansatz (hva)."""
    if cfg.algorithm == "trotter":
        return _trotter_records(cfg)
    _, h, psi0 = build_model(cfg.model)
    if cfg.algorithm == "avqds":
        pool = hamiltonian_term_pool(cfg.model) if cfg.pool == "hamiltonian" else model_pool(cfg.model)
        initial, growth = Ansatz(psi0), cfg.growth
    else:
        initial, pool, growth = build_hva(h, psi0, cfg.hva_layers, model_sublayers(cfg.model)), None, None
    run = AvqdsRun(
        h, initial, cfg.step, cfg.solver, pool, growth,
        noise_cfg=cfg.noise if cfg.noise_enabled else None,
        seed=cfg.seed + run_index,
        compute_infidelity=cfg.oracle,
    )
    return run.run()


def _run_and_write(args: tuple[ExperimentConfig, int, str]) -> tuple[str, list[TrajectoryRecord]]:
    cfg, run_index, out_dir = args
    records = run_single(cfg, run_index)
    path = Path(out_dir) / f"run_{run_index:03d}.csv"
    write_trajectory_csv(path, cfg, cfg.seed + run_index, records)
    return str(path), records


def _aggregate(per_run: list[list[TrajectoryRecord]]) -> list[str]:
    grid = sorted({r.t for records in per_run for r in records})
    columns = TRAJECTORY_COLUMNS[1:]  # t is the grid
    fields = [field for _, field, _ in columns]
    header = ["t", "n_runs"] + [f"{column}_{stat}" for column, _, _ in columns for stat in ("mean", "std")]
    # (grid, field, run), runs contiguous: each point reduces its runs as a 1-D mean would
    table = np.empty((len(grid), len(fields), len(per_run)))
    after = np.array(grid) + 1e-15
    for i, records in enumerate(per_run):
        ts = np.array([r.t for r in records])
        latest = np.maximum(np.searchsorted(ts, after, "right") - 1, 0)
        values = np.array([[getattr(r, f) for f in fields] for r in records], dtype=float)
        table[:, :, i] = values[latest]
    stds = table.std(axis=2, ddof=1) if len(per_run) > 1 else np.zeros(table.shape[:2])
    lines = [",".join(header)]
    n_runs = str(len(per_run))
    for t, mean, std in zip(grid, table.mean(axis=2).tolist(), stds.tolist()):
        row = [_fmt_float(t), n_runs]
        for mu, sd in zip(mean, std):
            row += [_fmt_float(mu), _fmt_float(sd)]
        lines.append(",".join(row))
    return lines


# The variables OpenBLAS and MKL read their thread count from
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_env():
    """BLAS pinned to one thread in the environment that spawned workers
    inherit, every variable of ``_BLAS_THREAD_VARS`` set to 1, then the
    parent's values back. Workers that each kept the parent's thread count
    would oversubscribe the cores; two-way contention made ``eigh`` six
    times slower."""
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> list[Path]:
    """Execute all runs of a config; returns the written CSV paths."""
    out = Path(out_dir) if out_dir is not None else Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(cfg, i, str(out)) for i in range(cfg.runs)]
    if cfg.workers > 1 and cfg.runs > 1:
        # imported here, so a run with one worker or one run loads no process pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked, so each worker loads BLAS under the pinned environment
        spawn = multiprocessing.get_context("spawn")
        with _one_blas_thread_env(), ProcessPoolExecutor(max_workers=cfg.workers, mp_context=spawn) as pool:
            results = list(pool.map(_run_and_write, jobs))
    else:
        results = [_run_and_write(job) for job in jobs]
    paths = [Path(p) for p, _ in results]
    if cfg.runs > 1:
        # the CSVs print every float with 17 significant digits, so the
        # aggregate equals one recomputed from the files
        agg_path = out / "aggregate.csv"
        agg_path.write_text("\n".join(_aggregate([r for _, r in results])) + "\n", encoding="utf-8")
        paths.append(agg_path)
    return paths


# --- presets ---------------------------------------------------------------
# Each factory builds its preset for a model kind, at the preset's own size;
# the command line selects the kind and rescales the runs (``preset_runs``).

TROTTER_DT = {"tfim": 0.04, "mfim": 0.03, "hm": 0.01}
HVA_LAYERS = {"tfim": 10, "mfim": 30, "hm": 20}


def preset_solver_comparison(kind: str) -> list[tuple[str, ExperimentConfig]]:
    """Adaptive layer-packed runs under the four equation-of-motion solvers,
    8 qubits to t = 5."""
    base = ExperimentConfig(
        model=default_model(kind, 8), algorithm="avqds", pool="hamiltonian", step=StepConfig(t_final=5.0)
    )
    return [
        (f"solver-{method}", replace(base, solver=SolverConfig(method, epsilon=1e-6, bound=5.0)))
        for method in ("lsq_unbounded", "lsq_bounded", "tikhonov", "truncation")
    ]


# a growth method as preset labels name it; AVQDS(T) is the layer-packed method 3
_GROWTH_TAGS = {1: "m1", 2: "m2", 3: "t"}


def preset_benchmark(kind: str) -> list[tuple[str, ExperimentConfig]]:
    """Adaptive (methods 1 and 3), product-formula and fixed-layer baselines,
    8 qubits to t = 4; the baselines take the kind's ``TROTTER_DT`` and
    ``HVA_LAYERS``."""
    base = ExperimentConfig(model=default_model(kind, 8), step=StepConfig(t_final=4.0))
    adaptive = replace(base, algorithm="avqds", pool="hamiltonian")
    return [
        (f"avqds-{_GROWTH_TAGS[1]}", replace(adaptive, growth=GrowthConfig(method=1))),
        (f"avqds-{_GROWTH_TAGS[3]}", replace(adaptive, growth=GrowthConfig(method=3))),
        ("trotter", replace(base, algorithm="trotter", trotter_dt=TROTTER_DT[kind])),
        ("hva", replace(base, algorithm="hva", hva_layers=HVA_LAYERS[kind])),
    ]


def _noise_label(noise: NoiseConfig) -> str:
    """The grid point of a hybrid-noise run, e.g. ``dc21-ns1e4``."""
    if math.isinf(noise.n_shots):
        return f"dc{noise.d_c}-nsinf"
    mantissa, exponent = f"{noise.n_shots:.15e}".split("e")
    return f"dc{noise.d_c}-ns{mantissa.rstrip('0').rstrip('.')}e{int(exponent)}"


def preset_hybrid_noise(kind: str) -> list[tuple[str, ExperimentConfig]]:
    """Partially-exact metric: threshold depths {21, 27}, shots {1e4, 1e5},
    10 qubits to t = 4, 20 runs each.

    Compares the adaptive layer-packed run (depth-capped at 30) against the
    fixed 10-layer ansatz of equal final depth; V stays exact.
    """
    base = ExperimentConfig(
        model=default_model(kind, 10),
        solver=SolverConfig("truncation", epsilon=1e-3),
        step=StepConfig(t_final=4.0),
        noise_enabled=True,
        runs=20,
    )
    adaptive = replace(base, algorithm="avqds", pool="hamiltonian", growth=GrowthConfig(method=3, max_depth=30))
    hva = replace(base, algorithm="hva", hva_layers=10, step=replace(base.step, dt_fixed=0.005))
    out = []
    for d_c in (21, 27):
        for n_shots in (1e4, 1e5):
            noise = NoiseConfig(n_shots=n_shots, d_c=d_c)
            label = _noise_label(noise)
            out.append((f"avqds-{_GROWTH_TAGS[3]}-{label}", replace(adaptive, noise=noise)))
            out.append((f"hva-{label}", replace(hva, noise=noise)))
    return out


def preset_noisy_regularization(kind: str) -> list[tuple[str, ExperimentConfig]]:
    """Shot-noisy fixed-ansatz runs, eigenvalue truncation vs ridge shift:
    the 8-layer ansatz on 6 qubits to t = 2, 1e4 shots, 20 runs each."""
    base = ExperimentConfig(
        model=default_model(kind, 6),
        algorithm="hva",
        hva_layers=8,
        step=StepConfig(dt_fixed=0.005, t_final=2.0),
        noise_enabled=True,
        noise=NoiseConfig(n_shots=1e4, d_c=0),
        runs=20,
    )
    return [
        ("truncation", replace(base, solver=SolverConfig("truncation", epsilon=1e-3))),
        ("tikhonov", replace(base, solver=SolverConfig("tikhonov", epsilon=1e-2))),
    ]


PRESETS = {
    "solver-comparison": preset_solver_comparison,
    "benchmark": preset_benchmark,
    "hybrid-noise": preset_hybrid_noise,
    "noisy-regularization": preset_noisy_regularization,
}


def _named(cfg: ExperimentConfig) -> tuple[str, ...]:
    """What a preset label may name of its config: the noise grid point, the
    growth method's tag and the solver."""
    return _noise_label(cfg.noise), _GROWTH_TAGS[cfg.growth.method], cfg.solver.method


def preset_runs(
    name: str, kind: str, adjust: Callable[[ExperimentConfig], ExperimentConfig]
) -> list[tuple[str, ExperimentConfig]]:
    """The runs of preset ``name``, built for model ``kind``, once ``adjust``
    (the command line's overrides) has changed each config; an unknown kind
    raises ``ConfigError``. Each dash-separated part of a label that names a
    fact of its config (``_named``) is renamed to the fact of the adjusted
    config, so no label names a threshold, shot count, growth method or
    solver its run did not use; configs that ``adjust`` made equal then
    share a label and run once. Two different configs that would share one
    raise ``ConfigError``."""
    try:
        labelled = PRESETS[name](kind)
    except ValueError as exc:  # ModelSpec's message names model.kind
        raise ConfigError("model.kind", str(exc)) from None
    runs: dict[str, ExperimentConfig] = {}
    for label, cfg in labelled:
        adjusted = adjust(cfg)
        label = f"-{label}-"
        for old, new in zip(_named(cfg), _named(adjusted)):
            label = label.replace(f"-{old}-", f"-{new}-")
        label = label[1:-1]
        if runs.setdefault(label, adjusted) != adjusted:
            raise ConfigError("preset", f"the overrides give two different runs of {name} the label {label}")
    return list(runs.items())
