"""The four benchmark workloads: ``WORKLOADS`` maps each name to a function
of the benchmark seed that returns the workload's experiment configs.

One *solution* of a workload is one ``run_experiment`` call per config, in
order. The benchmark seed becomes ``run.seed`` of ``hybrid_tfim10``; it only
feeds the shot-noise generator, so the noiseless workloads are the same for
every seed. ``noisy_hva_batch`` keeps one noise realization for every seed:
its behavioural metrics are medians of two trajectories per solver, and over
16 seeds single trajectories left the band anywhere from t = 0.005 to 0.3
(Tikhonov) and peaked between 7e-4 and 1.5e-3 infidelity (truncation), far
wider than any regression bound.
"""

from __future__ import annotations

from dataclasses import replace

from avqds.config import ExperimentConfig
from avqds.engine import GrowthConfig, StepConfig
from avqds.models import ModelSpec
from avqds.noise import NoiseConfig
from avqds.solvers import SolverConfig

BAND_INFIDELITY = 0.1  # criterion 9: fidelity drops to 0.9
NOISELESS_MAX_INFIDELITY = 1e-2  # criterion 5 threshold

# Behavioural reference for desk_tfim8 (the criterion-5 run), recorded when
# the benchmark was defined: steps, final n_params, final depth, final
# CNOTs and max infidelity to three significant digits.
DESK_REFERENCE = {"steps": 1073, "n_params": 128, "depth": 23, "cnots": 112, "max_infidelity": 1.41e-3}


def _tfim(n_qubits: int) -> ModelSpec:
    return ModelSpec("tfim", n_qubits, j=1.0, h_x=-2.0)


def _desk(seed: int) -> tuple[ExperimentConfig, ...]:
    return (
        ExperimentConfig(
            model=_tfim(8),
            algorithm="avqds",
            pool="hamiltonian",
            growth=GrowthConfig(l2_cut=1e-3, method=3),
            step=StepConfig(dtheta_max=0.005, t_final=4.0),
            solver=SolverConfig("truncation", epsilon=1e-6),
            seed=seed,
        ),
    )


def _wide_pool(seed: int) -> tuple[ExperimentConfig, ...]:
    return (
        ExperimentConfig(
            model=_tfim(8),
            algorithm="avqds",
            pool="model",
            growth=GrowthConfig(l2_cut=1e-3, method=1),
            step=StepConfig(dtheta_max=0.005, t_final=0.5),
            solver=SolverConfig("truncation", epsilon=1e-6),
            seed=seed,
        ),
    )


NOISY_BATCH_RUNS = 2


def _noisy_hva_batch(seed: int) -> tuple[ExperimentConfig, ...]:
    del seed  # one fixed noise realization, see the module docstring
    base = ExperimentConfig(
        model=_tfim(6),
        algorithm="hva",
        hva_layers=8,
        step=StepConfig(dtheta_max=0.005, dt_fixed=0.005, t_final=1.0),
        noise_enabled=True,
        noise=NoiseConfig(n_shots=1e4, d_c=0),
        runs=NOISY_BATCH_RUNS,
    )
    return (
        replace(base, solver=SolverConfig("truncation", epsilon=1e-3)),
        replace(base, solver=SolverConfig("tikhonov", epsilon=1e-2)),
    )


def _hybrid(seed: int) -> tuple[ExperimentConfig, ...]:
    return (
        ExperimentConfig(
            model=_tfim(10),
            algorithm="avqds",
            pool="hamiltonian",
            growth=GrowthConfig(l2_cut=1e-3, method=3, max_depth=30),
            step=StepConfig(dtheta_max=0.005, t_final=0.65),
            solver=SolverConfig("truncation", epsilon=1e-3),
            noise_enabled=True,
            noise=NoiseConfig(n_shots=1e4, d_c=20),
            seed=seed,
        ),
    )


WORKLOADS = {
    "desk_tfim8": _desk,
    "wide_pool_m1": _wide_pool,
    "noisy_hva_batch": _noisy_hva_batch,
    "hybrid_tfim10": _hybrid,
}
