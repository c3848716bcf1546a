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

from dataclasses import dataclass

import numpy as np

from .mclachlan import McLachlanSystem, symmetric_eig  # noqa: F401  re-exported

METHODS = ("lsq_unbounded", "lsq_bounded", "tikhonov", "truncation")


@dataclass(frozen=True)
class SolverConfig:
    method: str = "truncation"
    epsilon: float = 1e-6
    bound: float = 5.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"solver.method must be one of {METHODS}, got {self.method!r}")
        if not self.epsilon > 0:
            raise ValueError(f"solver.epsilon must be positive, got {self.epsilon}")
        if not self.bound > 0:
            raise ValueError(f"solver.bound must be positive, got {self.bound}")


@dataclass(frozen=True)
class SolveDiagnostics:
    n_null: int
    min_eigenvalue: float
    max_eigenvalue: float
    residual: float
    null_defect: float  # max |u_k·V| over eigenvalues <= epsilon; 0.0 if none


class NonFiniteSystemError(ValueError):
    """A linear system with NaN or inf entries, and where it arose.

    ``solve`` knows only the size; the run loop re-raises it with the phase
    ("step solve", "exact solve" or "candidate score"), t and the step index.
    """

    def __init__(self, n_params: int, phase: str = "solve", t: float | None = None, step: int | None = None):
        super().__init__(n_params, phase, t, step)  # args rebuild it after pickling
        self.n_params, self.phase, self.t, self.step = n_params, phase, t, step

    def __str__(self) -> str:
        where = "" if self.t is None else f" at t={self.t:g}, step {self.step}"
        return f"non-finite entries in the linear system ({self.phase}{where}, {self.n_params} params)"


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


def solve(s: McLachlanSystem, cfg: SolverConfig) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve the equations of motion with the configured strategy.

    The diagnostics report the null-space defect, the worst overlap of V with
    an eigenvector at or below epsilon. It is never enforced: noiseless
    assembly keeps it at the numerical floor, noise does not.
    """
    m, v = s.m, s.v
    n = s.n_params
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v)) and np.isfinite(s.var_h)):
        raise NonFiniteSystemError(n)
    if n == 0:
        return np.zeros(0), SolveDiagnostics(0, np.inf, -np.inf, 0.0, 0.0)

    w, u = s.eig
    null = w <= cfg.epsilon
    y = u.T @ v

    if cfg.method == "tikhonov":
        theta_dot = u @ (y / (w + cfg.epsilon))
    elif cfg.method == "truncation":
        scale = np.zeros(n)
        np.divide(y, w, out=scale, where=~null)
        theta_dot = u @ scale
    elif cfg.method == "lsq_unbounded":
        theta_dot = _cgls(m, v, max_iters=10 * n, tol=1e-12)
    else:  # lsq_bounded; scipy.optimize loads only for this method
        from scipy.optimize import lsq_linear

        result = lsq_linear(m, v, bounds=(-cfg.bound, cfg.bound), method="bvls", tol=1e-14)
        theta_dot = np.clip(result.x, -cfg.bound, cfg.bound)

    residual = float(np.linalg.norm(m @ theta_dot - v))
    diag = SolveDiagnostics(
        n_null=int(np.sum(null)),
        min_eigenvalue=float(w[0]),
        max_eigenvalue=float(w[-1]),
        residual=residual,
        null_defect=float(np.max(np.abs(y[null]))) if null.any() else 0.0,
    )
    return theta_dot, diag
