"""The adaptive time-evolution loop.

Each step solves the equations of motion for the current ansatz; whenever
the McLachlan distance is above the cutoff, candidates from an operator pool
are scored by how much appending them (at angle zero) would reduce it, and
the ansatz grows by one of three selection rules:

  1. append the single best-scoring unitary,
  2. prefer the best unitary fitting entirely on the idle qubits of the
     current last layer, opening a new layer only when none helps,
  3. greedily append a whole layer of disjoint-support unitaries in score
     order.

The time step follows the largest parameter velocity so that no angle moves
by more than ``dtheta_max`` per Euler update.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .ansatz import Ansatz, ansatz_layout, prepare_state
from .mclachlan import (
    TangentFrame,
    assemble_frame,
    augment_block,
    extend_system,
    mclachlan_distance,
)
from .models import OperatorPool
from .noise import NoiseConfig, noisy_system
from .pauli import WeightedPauliSum
from .solvers import SolverConfig, solve
from .statevector import ExactPropagator, StateVector

log = logging.getLogger(__name__)

STALL_RATE_FLOOR = 1e-12  # below this max |theta_dot| the adaptive step has no scale


@dataclass(frozen=True)
class GrowthConfig:
    l2_cut: float = 1e-3
    method: int = 3
    score_cut: float = 1e-6
    max_depth: int | None = None
    max_grow_iters: int = 50

    def __post_init__(self) -> None:
        if self.method not in (1, 2, 3):
            raise ValueError(f"growth.method must be 1, 2 or 3, got {self.method}")
        if not self.l2_cut > 0:
            raise ValueError(f"growth.l2_cut must be positive, got {self.l2_cut}")
        if not 0 <= self.score_cut < self.l2_cut:
            raise ValueError("growth config requires l2_cut > score_cut >= 0")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("growth.max_depth must be positive when set")
        if self.max_grow_iters < 1:
            raise ValueError("growth.max_grow_iters must be positive")


@dataclass(frozen=True)
class StepConfig:
    dtheta_max: float = 0.005
    dt_fixed: float | None = None
    t_final: float = 1.0

    def __post_init__(self) -> None:
        if not self.dtheta_max > 0:
            raise ValueError("step.dtheta_max must be positive")
        if self.dt_fixed is not None and not self.dt_fixed > 0:
            raise ValueError("step.dt_fixed must be positive when set")
        if not self.t_final > 0:
            raise ValueError("step.t_final must be positive")


@dataclass(frozen=True)
class TrajectoryRecord:
    t: float
    n_params: int
    l2: float
    depth: int
    cnot_count: int
    dt: float
    energy: float
    infidelity: float  # nan when no oracle is attached
    seed: int
    growth_stalled: bool = False
    growth_suppressed: bool = False


def score_candidates(
    frame: TangentFrame,
    pool: OperatorPool,
    solver_cfg: SolverConfig,
    l2_before: float | None = None,
) -> list[tuple[int, float]]:
    """Reduction of the McLachlan distance for each pool operator.

    Every candidate is appended (conceptually, at angle zero) by bordering
    the current system with its new column, re-solving, and differencing the
    distances. On a noiseless system the reduction is non-negative up to
    numerical floor.
    """
    if l2_before is None:
        td, _ = solve(frame.system, solver_cfg)
        l2_before = mclachlan_distance(frame.system, td)
    cols, diags, v_news = augment_block(frame, list(pool.operators))
    scores: list[tuple[int, float]] = []
    for idx in range(len(pool)):
        extended = extend_system(frame.system, cols[idx], float(diags[idx]), float(v_news[idx]))
        td, _ = solve(extended, solver_cfg)
        l2_after = mclachlan_distance(extended, td)
        scores.append((idx, l2_before - l2_after))
    return scores


@dataclass(frozen=True)
class GrowthResult:
    ansatz: Ansatz
    added: tuple[int, ...]  # pool indices, in append order
    stalled: bool
    suppressed: bool


def select_additions(
    method: int,
    scores: list[tuple[int, float]],
    pool: OperatorPool,
    ansatz: Ansatz,
    score_cut: float,
    max_depth: int | None,
) -> tuple[list[int], bool]:
    """Pool indices to append under the given growth method.

    Pure selection logic on precomputed scores; ties break toward the lower
    pool index. Returns (indices, depth_suppressed).
    """
    ranked = [i for i, s in sorted(scores, key=lambda item: (-item[1], item[0])) if s > score_cut]
    layout = ansatz_layout(ansatz)
    if method == 2:
        idle = layout.idle_qubits_in_last_layer()
        for idx in ranked:
            if not pool.operators[idx].support_mask & ~idle:
                return [idx], False  # fits in the last layer, depth unchanged
    # method 3 fills a layer with disjoint supports in score order; methods 1
    # and 2 (nothing helpful fits on idle qubits) open one with the best
    chosen: list[int] = []
    occupied = 0
    suppressed = False
    for idx in ranked:
        mask = pool.operators[idx].support_mask
        if mask & occupied:
            continue
        if max_depth is not None and layout.placement_level(mask) >= max_depth:
            suppressed = True
            continue
        chosen.append(idx)
        occupied |= mask
        if method != 3:
            break
    return chosen, suppressed


def grow_once(
    frame: TangentFrame,
    pool: OperatorPool,
    growth_cfg: GrowthConfig,
    solver_cfg: SolverConfig,
    l2_before: float | None = None,
) -> GrowthResult:
    """One growth iteration; appended angles are zero so the state is kept."""
    scores = score_candidates(frame, pool, solver_cfg, l2_before)
    chosen, suppressed = select_additions(
        growth_cfg.method,
        scores,
        pool,
        frame.ansatz,
        growth_cfg.score_cut,
        growth_cfg.max_depth,
    )
    if not chosen:
        return GrowthResult(frame.ansatz, (), stalled=not suppressed, suppressed=suppressed)
    new_ansatz = frame.ansatz.extended(pool.operators[i] for i in chosen)
    return GrowthResult(new_ansatz, tuple(chosen), stalled=False, suppressed=suppressed)


class AvqdsRun:
    """Driver holding the evolving ansatz and emitting per-step records.

    ``step()`` performs one adaptive Euler update: solve, grow while the
    distance is above the cutoff, pick the time increment, advance. Records
    describe the state at the start of each step together with the increment
    taken from there.
    """

    def __init__(
        self,
        hamiltonian: WeightedPauliSum,
        initial: Ansatz,
        step_cfg: StepConfig,
        solver_cfg: SolverConfig,
        pool: OperatorPool | None = None,
        growth_cfg: GrowthConfig | None = None,
        noise_cfg: NoiseConfig | None = None,
        seed: int = 0,
        compute_infidelity: bool = True,
    ):
        if (pool is None) != (growth_cfg is None):
            raise ValueError("pool and growth_cfg must be provided together")
        self.h = hamiltonian
        self.ansatz = initial
        self.pool = pool
        self.growth = growth_cfg
        self.step_cfg = step_cfg
        self.solver = solver_cfg
        self.noise = noise_cfg
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.t = 0.0
        self.records: list[TrajectoryRecord] = []
        self._depth_cap_warned = False
        self._oracle = (
            ExactPropagator(hamiltonian, prepare_state(initial))
            if compute_infidelity
            else None
        )

    def _solve_current(self, frame: TangentFrame):
        system = frame.system
        if self.noise is not None:
            system = noisy_system(system, ansatz_layout(frame.ansatz), self.noise, self.rng)
        theta_dot, _ = solve(system, self.solver)
        return system, theta_dot, mclachlan_distance(system, theta_dot)

    def step(self) -> TrajectoryRecord:
        frame = assemble_frame(self.ansatz, self.h)
        system, theta_dot, l2 = self._solve_current(frame)
        stalled = suppressed = False

        if self.growth is not None:
            iters = 0
            while l2 >= self.growth.l2_cut and iters < self.growth.max_grow_iters:
                # scoring works on the exact frame; noise only enters the
                # per-step equations of motion
                if system is frame.system:  # no noise drawn: l2 is already exact
                    exact_l2 = l2
                else:
                    exact_td, _ = solve(frame.system, self.solver)
                    exact_l2 = mclachlan_distance(frame.system, exact_td)
                result = grow_once(frame, self.pool, self.growth, self.solver, exact_l2)
                stalled |= result.stalled
                suppressed |= result.suppressed
                if not result.added:
                    log.debug("growth stalled at t=%g (l2=%.3e)", self.t, l2)
                    break
                self.ansatz = result.ansatz
                frame = assemble_frame(self.ansatz, self.h)
                system, theta_dot, l2 = self._solve_current(frame)
                iters += 1
            if l2 >= self.growth.l2_cut and iters >= self.growth.max_grow_iters:
                log.warning(
                    "growth budget exhausted at t=%g with l2=%.3e", self.t, l2
                )
            if suppressed and l2 >= self.growth.l2_cut and not self._depth_cap_warned:
                self._depth_cap_warned = True
                log.warning(
                    "growth.max_depth=%d suppressed growth at t=%g with l2=%.3e "
                    ">= l2_cut=%.3e; the run continues above the cutoff "
                    "(warned once per run)",
                    self.growth.max_depth, self.t, l2, self.growth.l2_cut,
                )

        max_rate = float(np.max(np.abs(theta_dot))) if theta_dot.size else 0.0
        if self.step_cfg.dt_fixed is not None:
            dt = self.step_cfg.dt_fixed
        elif max_rate < STALL_RATE_FLOOR:
            dt = 10.0 * self.step_cfg.dtheta_max
        else:
            dt = self.step_cfg.dtheta_max / max_rate

        if self._oracle is not None:
            target = self._oracle.state_at(self.t).amplitudes
            infidelity = 1.0 - float(abs(np.vdot(frame.psi, target)) ** 2)
        else:
            infidelity = math.nan

        layout = ansatz_layout(self.ansatz)
        record = TrajectoryRecord(
            t=self.t,
            n_params=self.ansatz.n_params,
            l2=l2,
            depth=layout.depth,
            cnot_count=layout.cnot_count,
            dt=dt,
            energy=frame.energy,
            infidelity=infidelity,
            seed=self.seed,
            growth_stalled=stalled,
            growth_suppressed=suppressed,
        )
        self.records.append(record)
        self.ansatz = self.ansatz.with_angles(self.ansatz.angles + theta_dot * dt)
        self.t += dt
        return record

    def run(self) -> list[TrajectoryRecord]:
        while self.t < self.step_cfg.t_final - 1e-12:
            self.step()
        return self.records


def run_avqds(
    psi0: StateVector,
    hamiltonian: WeightedPauliSum,
    pool: OperatorPool,
    growth_cfg: GrowthConfig,
    step_cfg: StepConfig,
    solver_cfg: SolverConfig,
    noise_cfg: NoiseConfig | None = None,
    seed: int = 0,
    compute_infidelity: bool = True,
) -> list[TrajectoryRecord]:
    """Adaptive run from an empty ansatz on the reference state."""
    run = AvqdsRun(
        hamiltonian,
        Ansatz(psi0),
        step_cfg,
        solver_cfg,
        pool=pool,
        growth_cfg=growth_cfg,
        noise_cfg=noise_cfg,
        seed=seed,
        compute_infidelity=compute_infidelity,
    )
    return run.run()


def run_fixed_ansatz(
    initial: Ansatz,
    hamiltonian: WeightedPauliSum,
    step_cfg: StepConfig,
    solver_cfg: SolverConfig,
    noise_cfg: NoiseConfig | None = None,
    seed: int = 0,
    compute_infidelity: bool = True,
) -> list[TrajectoryRecord]:
    """Same stepping loop with growth disabled (fixed-ansatz dynamics)."""
    run = AvqdsRun(
        hamiltonian,
        initial,
        step_cfg,
        solver_cfg,
        noise_cfg=noise_cfg,
        seed=seed,
        compute_infidelity=compute_infidelity,
    )
    return run.run()
