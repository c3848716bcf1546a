"""Shot noise on the metric, gated by circuit-fragment depth.

An element (mu, nu) of the metric only involves the ansatz circuit up to the
later of the two unitaries, so elements whose fragment depth stays at or
below the threshold ``d_c`` are kept exact (classically evaluated); the rest
are replaced by Gaussian draws whose standard deviation follows from the
ancilla-measurement convention m = (2p-1)/4 at a finite shot count.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .ansatz import CircuitLayout
from .mclachlan import McLachlanSystem


@dataclass(frozen=True)
class NoiseConfig:
    n_shots: float = math.inf
    d_c: int = 0
    noisy_v: bool = False
    truncate_sigmas: float | None = 5.0

    def __post_init__(self) -> None:
        if not (self.n_shots >= 1):
            raise ValueError(f"noise.n_shots must be >= 1 (or inf), got {self.n_shots}")
        if self.d_c < 0:
            raise ValueError(f"noise.d_c must be non-negative, got {self.d_c}")
        if self.truncate_sigmas is not None and not 0 < self.truncate_sigmas < math.inf:
            raise ValueError(f"noise.truncate_sigmas must be finite and positive or None, got {self.truncate_sigmas}")


def shot_sigma(m_elements, n_shots: float):
    """Standard deviation of metric elements measured with n_shots samples each.

    Takes a scalar or an array. The ancilla probability is clamped to
    [0, 1]; elements at or beyond the representable range therefore come
    back noiseless, and every element is noiseless at ``n_shots = inf``.
    """
    p = np.clip((4.0 * m_elements + 1.0) / 2.0, 0.0, 1.0)
    return np.sqrt(p * (1.0 - p) / (4.0 * n_shots))


def _shot_draws(means: np.ndarray, cfg: NoiseConfig, rng: np.random.Generator) -> np.ndarray:
    """One Gaussian shot estimate per element, in order, clipped to the
    configured width. ``means + sigmas·z`` on one standard-normal stream is
    what ``rng.normal(means, sigmas)`` computes, draw for draw."""
    sigmas = shot_sigma(means, cfg.n_shots)
    draws = means + sigmas * rng.standard_normal(means.shape[0])
    if cfg.truncate_sigmas is not None:
        half_width = cfg.truncate_sigmas * sigmas
        draws = np.clip(draws, means - half_width, means + half_width)
    return draws


_NoisePlan = namedtuple("_NoisePlan", "deep upper lower")


@functools.lru_cache(maxsize=4)
def _noise_plan(layout: CircuitLayout, d_c: int) -> _NoisePlan:
    """The noisy elements of a system on ``layout`` at threshold ``d_c``.

    ``deep`` lists the unitaries whose fragment depth exceeds d_c; ``upper``
    holds the flat indices of the M elements (mu, nu) with mu <= nu and nu
    deep, in row-major order, and ``lower`` those of their mirrors (nu, mu).
    A layout changes only on growth, so a run builds one plan per growth;
    the cache hands the same arrays to every step, so they are read-only.
    """
    n = len(layout.layer_of)
    is_deep = layout.prefix_depths() > d_c  # fragment depth of (mu, nu) depends on max index only
    rows, cols = np.triu_indices(n)
    noisy = is_deep[cols]
    rows, cols = rows[noisy], cols[noisy]
    plan = _NoisePlan(np.flatnonzero(is_deep), rows * n + cols, cols * n + rows)
    for arr in plan:
        arr.setflags(write=False)
    return plan


def noisy_system(
    s: McLachlanSystem,
    layout: CircuitLayout,
    cfg: NoiseConfig,
    rng: np.random.Generator,
) -> McLachlanSystem:
    """Replace deep-fragment elements of M (and optionally V) by shot draws.

    Draw order is fixed (row-major upper triangle, then V), one Gaussian per
    noisy element, so a given seed always produces the same perturbation.
    Which elements are noisy comes from ``_noise_plan``, built once per
    layout and threshold. When nothing qualifies as noisy the input system
    is returned untouched and the random stream is not consumed.
    """
    n = s.n_params
    if len(layout.layer_of) != n:
        raise ValueError(
            f"layout has {len(layout.layer_of)} unitaries, system has {n} parameters"
        )
    if math.isinf(cfg.n_shots) or n == 0:
        return s
    plan = _noise_plan(layout, cfg.d_c)
    if not plan.deep.size:
        return s
    m = s.m.copy()
    draws = _shot_draws(m.take(plan.upper), cfg, rng)
    m.put(plan.upper, draws)
    m.put(plan.lower, draws)
    v = s.v
    if cfg.noisy_v:
        v = v.copy()
        v.put(plan.deep, _shot_draws(v.take(plan.deep), cfg, rng))
    return McLachlanSystem(m=m, v=v, var_h=s.var_h)
