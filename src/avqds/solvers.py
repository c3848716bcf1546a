"""Solvers for M·theta_dot = V under singular or ill-conditioned M.

The metric is positive semi-definite with V orthogonal to its null space in
the noiseless case, so the system stays solvable; these strategies differ in
how they behave once noise breaks that structure. Truncation zeroes the
components on eigenvalues at or below the threshold, Tikhonov shifts the
whole spectrum, and the two least-squares variants minimize the residual
with and without a box constraint. Unbounded least squares is kept as a
deliberately fragile reference point on singular systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mclachlan import McLachlanSystem

METHODS = ("lsq_unbounded", "lsq_bounded", "tikhonov", "truncation")


@dataclass(frozen=True)
class SolverConfig:
    method: str = "truncation"
    epsilon: float = 1e-6
    bound: float = 5.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"solver.method must be one of {METHODS}, got {self.method!r}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"solver.epsilon must be finite and positive, got {self.epsilon}")
        if not self.bound > 0:
            raise ValueError(f"solver.bound must be positive, got {self.bound}")


@dataclass(frozen=True)
class SolveDiagnostics:
    """What a solve of ``system`` met (``diagnose``).

    ``n_null`` counts the eigenvalues of M at or below epsilon,
    ``min_eigenvalue`` and ``max_eigenvalue`` bound the spectrum (inf and
    -inf when M is empty), ``residual`` is |M·theta_dot - V| and
    ``null_defect`` the largest |u_k·V| over those null eigenvectors (0.0 if
    none).
    """

    n_null: int
    min_eigenvalue: float
    max_eigenvalue: float
    residual: float
    null_defect: float


def diagnose(system: McLachlanSystem, theta_dot: np.ndarray, epsilon: float) -> SolveDiagnostics:
    """The diagnostics of ``theta_dot``, a solve of ``system`` at ``epsilon``.
    The spectrum is the system's cached ``eig``: after a truncated solve
    they decompose nothing, after any other solve M once."""
    w, u = system.eig
    null = w <= epsilon
    y = u.T @ system.v
    return SolveDiagnostics(
        n_null=int(np.sum(null)),
        min_eigenvalue=float(w[0]) if w.size else np.inf,
        max_eigenvalue=float(w[-1]) if w.size else -np.inf,
        residual=float(np.linalg.norm(system.m @ theta_dot - system.v)),
        null_defect=float(np.max(np.abs(y[null]))) if null.any() else 0.0,
    )


class NonFiniteSystemError(ValueError):
    """A linear system with no finite solution, and where it arose: NaN or
    inf entries, or a singular ridge system M + epsilon·I.

    ``solve`` knows only the size; the run loop re-raises it with the phase
    ("step solve", "exact solve" or "candidate score"), t and the step index.
    """

    def __init__(self, n_params: int, phase: str = "solve", t: float | None = None, step: int | None = None):
        super().__init__(n_params, phase, t, step)  # args rebuild it after pickling
        self.n_params, self.phase, self.t, self.step = n_params, phase, t, step

    def __str__(self) -> str:
        where = "" if self.t is None else f" at t={self.t:g}, step {self.step}"
        return f"no finite solution of the linear system ({self.phase}{where}, {self.n_params} params)"


def _cgls(m: np.ndarray, v: np.ndarray, max_iters: int, tol: float) -> np.ndarray:
    """Conjugate-gradient least squares on ||M·x - V||^2, starting from 0."""
    x = np.zeros_like(v)
    r = v.copy()
    s = m.T @ r
    p = s.copy()
    gamma = float(s @ s)
    for _ in range(max_iters):
        if np.sqrt(gamma) < tol:
            break
        q = m @ p
        qq = float(q @ q)
        if qq == 0.0:
            break
        step = gamma / qq
        x += step * p
        r -= step * q
        s = m.T @ r
        gamma_new = float(s @ s)
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    return x


def solve(s: McLachlanSystem, cfg: SolverConfig) -> np.ndarray:
    """theta_dot solving the equations of motion with the configured strategy.

    Only truncation decomposes M (through the system's cached ``eig``, which
    candidate scoring shares); Tikhonov solves (M + epsilon·I)·theta_dot = V
    by one LU factorisation, and the least-squares solvers work on M itself.
    ``diagnose`` reports the null-space defect, the worst overlap of V with
    an eigenvector at or below epsilon. It is never enforced: noiseless
    assembly keeps it at the numerical floor, noise does not.
    """
    m, v = s.m, s.v
    n = s.n_params
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v)) and np.isfinite(s.var_h)):
        raise NonFiniteSystemError(n)
    if n == 0:
        theta_dot = np.zeros(0)
    elif cfg.method == "tikhonov":
        shifted = m.copy()
        shifted.flat[:: n + 1] += cfg.epsilon
        try:
            theta_dot = np.linalg.solve(shifted, v)
        except np.linalg.LinAlgError as err:  # an eigenvalue of M at exactly -epsilon
            raise NonFiniteSystemError(n) from err
    elif cfg.method == "truncation":
        w, u = s.eig
        scale = np.zeros(n)
        np.divide(u.T @ v, w, out=scale, where=w > cfg.epsilon)
        theta_dot = u @ scale
    elif cfg.method == "lsq_unbounded":
        theta_dot = _cgls(m, v, max_iters=10 * n, tol=1e-12)
    else:  # lsq_bounded; scipy.optimize loads only for this method
        from scipy.optimize import lsq_linear

        result = lsq_linear(m, v, bounds=(-cfg.bound, cfg.bound), method="bvls", tol=1e-14)
        theta_dot = np.clip(result.x, -cfg.bound, cfg.bound)
    return theta_dot
