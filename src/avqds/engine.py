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

import heapq
import logging
import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .ansatz import Ansatz, ansatz_layout, prepare_state
from .mclachlan import (
    TangentFrame,
    assemble_frame,
    augment_block,
    extend_frame,
    extend_system,
    mclachlan_distance,
)
from .models import OperatorPool
from .noise import NoiseConfig, noisy_system
from .pauli import WeightedPauliSum, anticommutes, masks
from .solvers import NonFiniteSystemError, SolverConfig, solve
from .statevector import ExactPropagator, StateVector, fidelity

log = logging.getLogger(__name__)

STALL_RATE_FLOOR = 1e-12  # below this max |theta_dot| the adaptive step has no scale

# Candidate bounds (see ``score_bounds``). Eigenvalues of M at or below
# _RANK_TOL·||M|| are taken as exact nulls and dropped. A dropped direction
# raises the least-squares minimum the bound rests on, so the threshold sits
# at rounding level: on the 4-qubit Heisenberg benchmark preset a direction
# at 2.3e-13·||M|| carried 8.6e-8 of L2, and dropping it broke the bound.
# Each kept direction's share carries a rounding estimate of N·eps·||M||/w_k
# of itself, which loosens the bound. A complement left at or below
# _COMPLEMENT_TOL·d_p after that is unresolved. The slack,
# _SCORE_SLACK·(1 + var_h), covers the rounding of the brute-force score
# itself. Since ``mclachlan_distance`` clamps a negative L2 within its
# rounding bound to zero, no score exceeds its slack-free bound over the 274
# growth events of the four benchmark workloads (seed 1) and the 4-qubit
# presets, so the slack is margin. Without that clamp a bordered L2 on the
# 4-qubit MFIM preset rounded to -1.05e-10 (var_h = 16), and its score
# exceeded the bound by as much.
_RANK_TOL = 1e-15
_COMPLEMENT_TOL = 1e-9
_SCORE_SLACK = 1e-9

# Growth ties (see ``CandidateRanking``): scores within _TIE_RTOL·|S| of the
# best score S tie with it, and the lower pool index wins. Measured over
# every growth event of the four benchmark workloads (seed 1) and the
# 4-qubit benchmark presets, scoring each frame as assembled now and by the
# per-generator sweep with the complex Gram: candidates whose scores differ
# by rounding alone (equal under one assembly, apart under the other) lie
# up to 1.3e-8·S apart, and the closest scores that both assemblies keep
# apart lie 9.8e-8·S apart. Gaps in absolute units of eps·(1 + var_h)
# overlap (ties up to 4,700, distinct scores from 2,600), so there is no
# absolute floor.
_TIE_RTOL = 3e-8


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
        if not 0 < self.l2_cut < math.inf:
            raise ValueError(f"growth.l2_cut must be finite and positive, got {self.l2_cut}")
        if not 0 <= self.score_cut < self.l2_cut:
            raise ValueError(f"growth.score_cut must be at least 0 and below growth.l2_cut, got {self.score_cut}")
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
        if not 0 < self.dtheta_max < math.inf:
            raise ValueError(f"step.dtheta_max must be finite and positive, got {self.dtheta_max}")
        if self.dt_fixed is not None and not 0 < self.dt_fixed < math.inf:
            raise ValueError(f"step.dt_fixed must be finite and positive when set, got {self.dt_fixed}")
        if not 0 < self.t_final < math.inf:
            raise ValueError(f"step.t_final must be finite and positive, got {self.t_final}")


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
    growth_stalled: bool = False
    growth_suppressed: bool = False
    growth_exhausted: bool = False  # max_grow_iters ran out with l2 >= l2_cut


class CandidateRanking:
    """Candidates in score order with near-ties broken by the lower index,
    each scored only when it could come next (lazy greedy; Minoux, LNCS 7,
    1978).

    ``bounds[i]`` must be at least ``score(i)``. A heap holds every
    candidate under its key: the exact score once scored, the bound before.
    The top entry is scored and pushed back if it has only a bound. Once the
    top has its score S, no other score is larger, since no other key is.
    Every candidate whose key is within ``_TIE_RTOL·|S|`` of S is then
    scored too, and the lowest index among those whose score is within it
    comes next. So the order does not depend on rounding that moves scores
    by less than the tolerance, and exact ties break as in a full sort.
    Scores are cached across ``ranked`` calls.
    """

    def __init__(self, bounds: Mapping[int, float], score: Callable[[int], float]):
        self._bounds = bounds
        self._score = score
        self._known: dict[int, float] = {}

    def ranked(self, cut: float, skip: Callable[[int], int | bool]) -> Iterator[tuple[int, float]]:
        """(index, score) with score > cut, best first up to near-ties.
        ``skip`` drops a candidate unscored when it comes up; it must stay
        true once true."""
        known = self._known
        heap = [(-known.get(i, b), i) for i, b in self._bounds.items()]
        heapq.heapify(heap)
        while heap:
            key, idx = heap[0]
            if -key <= cut:  # no later score can pass the cut either
                return
            if skip(idx):
                heapq.heappop(heap)
            elif idx not in known:
                known[idx] = self._score(idx)
                heapq.heapreplace(heap, (-known[idx], idx))
            else:
                near = -key - _TIE_RTOL * abs(key)
                tied = [i for k, i in heap if -k >= near and not skip(i)]
                for i in tied:
                    if i not in known:
                        known[i] = self._score(i)
                best = min(i for i in tied if known[i] >= near and known[i] > cut)
                heap = [(-known[i] if i in known else k, i) for k, i in heap if i != best]
                heapq.heapify(heap)
                yield best, known[best]


def _spanned(ansatz: Ansatz, candidates: Sequence) -> np.ndarray:
    """Candidates whose new tangent -i·P|psi> equals a current tangent.

    That holds for the tangent of generator j when P is that generator and
    every later one commutes with P or sits at angle zero (an identity
    rotation). Such a candidate adds nothing to the least-squares fit, but
    under truncation it can still lower the distance, by lifting an
    eigenvalue of M above epsilon, so it is scored and can be chosen.
    """
    gx, gz = masks(ansatz.generators)
    px, pz = (b[:, None] for b in masks(candidates))
    moves = anticommutes(px, pz, gx, gz) & (ansatz.angles != 0)
    blocked = np.zeros_like(moves)  # [p, j]: a generator after j moves P's tangent
    blocked[:, :-1] = np.logical_or.accumulate(moves[:, :0:-1], axis=1)[:, ::-1]
    return np.any((px == gx) & (pz == gz) & ~blocked, axis=1)


def score_bounds(
    frame: TangentFrame,
    pool: OperatorPool,
    border: tuple[np.ndarray, np.ndarray, np.ndarray],
    l2_before: float,
) -> tuple[np.ndarray, float]:
    """Upper bound B_p on every candidate's score, and the slack to add.

    With T the real-ified tangents (psi projected out) and b = -i(H-E)psi,
    M = T'T, V = T'b, var_h = |b|^2 and L2(x) = 2|Tx - b|^2. Whatever the
    solver, the bordered system's L2 is at least its least-squares minimum
    L2_min - R_p, with the Schur-complement reduction

        R_p = 2·(v_p - c_p'M+V)^2 / (d_p - c_p'M+c_p),

    so score_p <= B_p = min(L2_before, L2_before - L2_min + R_p). One
    ``eigh`` of M and one (P, N)·(N, N) product serve the whole pool; the
    ``eigh`` is the system's cached ``eig``, which a truncated solve has
    already computed and any other solver leaves to this call. Each
    eigen-direction's rounding estimate lowers L2_min and the complement and
    raises |v_p - c_p'M+V|. R_p is 0 for a candidate whose tangent is a
    current one (``_spanned``); if any other complement is at rounding
    level, B_p = L2_before, so the candidate is scored whenever it comes up.
    The module constants state the tolerances.
    """
    cols, diags, v_news = border
    s = frame.system
    if s.n_params:
        w, u = s.eig
        norm = max(-w[0], w[-1])
        keep = w > _RANK_TOL * norm
        w, u = w[keep], u[:, keep] / np.sqrt(w[keep])  # M+ = u·u' on the kept spectrum
        noise = s.n_params * np.finfo(float).eps * norm / w
        y = u.T @ s.v
        g = cols @ u
        l2_min = 2.0 * (s.var_h - (y * y) @ (1.0 + noise))
        complement = diags - (g * g) @ (1.0 + noise)
        defect = np.abs(v_news - g @ y) + np.abs(g) @ (np.abs(y) * noise)
    else:
        l2_min, complement, defect = 2.0 * s.var_h, diags, v_news
    spanned = _spanned(frame.ansatz, pool.operators)
    resolved = ~spanned & (complement > _COMPLEMENT_TOL * diags)
    reduction = np.where(spanned, 0.0, np.inf)
    reduction[resolved] = 2.0 * defect[resolved] ** 2 / complement[resolved]
    bounds = np.minimum(l2_before, l2_before - l2_min + reduction)
    return bounds, _SCORE_SLACK * (1.0 + s.var_h)


def score_candidates(
    frame: TangentFrame,
    pool: OperatorPool,
    growth_cfg: GrowthConfig,
    solver_cfg: SolverConfig,
    l2_before: float,
) -> tuple[list[int], bool]:
    """Score the pool by how much each operator, appended at angle zero,
    would lower the McLachlan distance, and select under ``growth_cfg``.

    A candidate's score is ``l2_before``, the distance of the current
    system at its solution, minus the distance of the bordered
    (N+1)-parameter system, solved by brute force. Only the candidates that
    can still be selected are solved: each gets an upper bound from
    ``score_bounds`` and the selection consumes a ``CandidateRanking`` that
    solves in bound order. On the 100 growth events of the wide-pool
    benchmark run that is about 7 % of the candidates. The solved scores
    are bit for bit those of brute force over the same border, and the
    ranking is exact, so the selection is the one the full ranking gives.
    The border is ``augment_block``'s: its births, carry, overlaps, forces
    and diagonals are made once per growth step, and each iteration forms
    only its columns against the current tangents, by a real product whose
    rounding differs from the complex Gram's; the selections equal those of
    brute force over the complex Gram's border on every growth event of
    ``tests/test_scoring.py``. Returns ``select_additions``'s (indices,
    depth_suppressed).
    """
    cols, diags, v_news = augment_block(frame, pool.operators)
    bounds, slack = score_bounds(frame, pool, (cols, diags, v_news), l2_before)

    def score(idx: int) -> float:
        extended = extend_system(frame.system, cols[idx], float(diags[idx]), float(v_news[idx]))
        td = solve(extended, solver_cfg)
        return l2_before - mclachlan_distance(extended, td)

    ranking = CandidateRanking(dict(enumerate((bounds + slack).tolist())), score)
    return select_additions(growth_cfg.method, ranking, pool, frame.ansatz, growth_cfg.score_cut, growth_cfg.max_depth)


@dataclass(frozen=True)
class GrowthResult:
    ansatz: Ansatz
    added: tuple[int, ...]  # pool indices, in append order
    suppressed: bool


def select_additions(
    method: int,
    scores: CandidateRanking,
    pool: OperatorPool,
    ansatz: Ansatz,
    score_cut: float,
    max_depth: int | None,
) -> tuple[list[int], bool]:
    """Pool indices to append under the given growth method.

    Walks the candidates with score > score_cut in ``CandidateRanking``
    order: best score first, with scores within ``_TIE_RTOL`` of the best
    one going to the lower pool index. A candidate the walk would pass over
    without effect is dropped before it is scored: one overlapping the
    qubits already taken, one not fitting the idle qubits in method 2's
    first pass, or one beyond ``max_depth`` once suppression is flagged.
    Returns (indices, depth_suppressed).
    """
    masks = [op.support_mask for op in pool.operators]
    layout = ansatz_layout(ansatz)
    if method == 2:
        idle = layout.idle_qubits_in_last_layer()
        for idx, _ in scores.ranked(score_cut, skip=lambda i: masks[i] & ~idle):
            return [idx], False  # fits in the last layer, depth unchanged
    # method 3 packs a layer with disjoint supports in score order; methods 1
    # and 2 (nothing helpful fits on idle qubits) open one with the best
    chosen: list[int] = []
    occupied = 0
    suppressed = False

    def too_deep(i: int) -> bool:
        return max_depth is not None and layout.placement_level(masks[i]) >= max_depth

    # once suppression is flagged, a candidate that could only flag it again
    # is passed over unscored as well
    for idx, _ in scores.ranked(score_cut, skip=lambda i: masks[i] & occupied or (suppressed and too_deep(i))):
        if too_deep(idx):
            suppressed = True
            continue
        chosen.append(idx)
        occupied |= masks[idx]
        if method != 3:
            break
    return chosen, suppressed


def grow_once(
    frame: TangentFrame,
    pool: OperatorPool,
    growth_cfg: GrowthConfig,
    solver_cfg: SolverConfig,
    l2_before: float,
) -> GrowthResult:
    """One growth iteration; appended angles are zero so the state is kept."""
    chosen, suppressed = score_candidates(frame, pool, growth_cfg, solver_cfg, l2_before)
    if not chosen:
        return GrowthResult(frame.ansatz, (), suppressed)
    return GrowthResult(frame.ansatz.extended(pool.operators[i] for i in chosen), tuple(chosen), suppressed)


class AvqdsRun:
    """Driver holding the evolving ansatz and emitting per-step records.

    It drives both variational arms: the adaptive one, given a pool and a
    growth config (``run_avqds`` starts it from an empty ansatz), and the
    fixed-ansatz one, given neither, whose ansatz only changes its angles.
    ``step()`` performs one Euler update: solve, grow while the distance is
    above the cutoff (adaptive arm only), pick the time increment, advance.
    Records describe the state at the start of each step together with the
    increment taken from there. Every step runs on the calling thread;
    ``run.workers > 1`` runs trajectories in processes. The generator
    ``rng``, seeded with ``seed``, exists only in a noisy run (``None``
    otherwise): shot noise is all that draws from it, so a noiseless run
    never loads ``numpy.random``, and a noisy run draws in the same order.
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
        self.rng = np.random.default_rng(seed) if noise_cfg is not None else None
        self.t = 0.0
        self.records: list[TrajectoryRecord] = []
        self._depth_cap_warned = False
        self._oracle = (
            ExactPropagator(hamiltonian, prepare_state(initial))
            if compute_infidelity
            else None
        )

    def _located(self, phase: str, fn, *args):
        """``fn(*args)``, with a non-finite system reported at this step."""
        try:
            return fn(*args)
        except NonFiniteSystemError as err:
            raise NonFiniteSystemError(err.n_params, phase, self.t, len(self.records)) from err

    def _solve(self, frame: TangentFrame):
        """(system, theta_dot, l2) of a step: the frame's system, with shot
        noise drawn on it in a noisy run, solved."""
        system = frame.system
        if self.noise is not None:
            system = noisy_system(system, ansatz_layout(frame.ansatz), self.noise, self.rng)
        theta_dot = self._located("step solve", solve, system, self.solver)
        return system, theta_dot, mclachlan_distance(system, theta_dot)

    def step(self) -> TrajectoryRecord:
        frame = assemble_frame(self.ansatz, self.h, len(self.pool) if self.growth is not None else 0)
        system, theta_dot, l2 = self._solve(frame)
        stalled = suppressed = exhausted = False

        if self.growth is not None:
            iters = 0
            while l2 >= self.growth.l2_cut and iters < self.growth.max_grow_iters:
                # scoring works on the exact frame; noise only enters the
                # per-step equations of motion
                if system is frame.system:  # no noise drawn: l2 is already exact
                    exact_l2 = l2
                else:
                    exact_td = self._located("exact solve", solve, frame.system, self.solver)
                    exact_l2 = mclachlan_distance(frame.system, exact_td)
                result = self._located(
                    "candidate score", grow_once, frame, self.pool, self.growth, self.solver, exact_l2
                )
                suppressed |= result.suppressed
                if not result.added:
                    stalled = not result.suppressed
                    log.debug("growth stalled at t=%g (l2=%.3e)", self.t, l2)
                    break
                self.ansatz = result.ansatz
                frame = extend_frame(frame, self.ansatz)
                system, theta_dot, l2 = self._solve(frame)
                iters += 1
            exhausted = l2 >= self.growth.l2_cut and iters >= self.growth.max_grow_iters
            if exhausted:
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
            state = StateVector(self.ansatz.n_qubits, frame.psi)
            infidelity = 1.0 - fidelity(state, self._oracle.state_at(self.t))
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
            growth_stalled=stalled,
            growth_suppressed=suppressed,
            growth_exhausted=exhausted,
        )
        self.records.append(record)
        self.ansatz = self.ansatz.with_angles(self.ansatz.angles + theta_dot * dt)
        self.t += dt
        return record

    def run(self) -> list[TrajectoryRecord]:
        self.step()  # whatever t_final, so every trajectory records its start
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
    return AvqdsRun(
        hamiltonian, Ansatz(psi0), step_cfg, solver_cfg, pool, growth_cfg,
        noise_cfg=noise_cfg, seed=seed, compute_infidelity=compute_infidelity,
    ).run()
