"""Flat ``key = value`` experiment configuration.

The grammar is one assignment per line with dotted section prefixes
(``model.kind = tfim``), full-line ``#`` comments, and blank lines ignored.
Every key has a declared parser so malformed input fails loudly with the
offending key named. ``parse_config(serialize_config(cfg))`` round-trips
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .engine import GrowthConfig, StepConfig
from .models import DEFAULT_KIND, ModelSpec, default_model
from .noise import NoiseConfig
from .solvers import SolverConfig

ALGORITHMS = ("avqds", "hva", "trotter")
POOL_KINDS = ("model", "hamiltonian")


class ConfigError(ValueError):
    def __init__(self, key: str, reason: str):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_optional_float(text: str):
    return None if text.lower() == "none" else float(text)


def _parse_optional_int(text: str):
    return None if text.lower() == "none" else int(text)


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    return str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec = field(default_factory=default_model)
    algorithm: str = "avqds"
    pool: str = "model"
    growth: GrowthConfig = field(default_factory=GrowthConfig)
    step: StepConfig = field(default_factory=lambda: StepConfig(t_final=4.0))
    solver: SolverConfig = field(default_factory=SolverConfig)
    noise_enabled: bool = False
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    hva_layers: int = 8
    trotter_dt: float = 0.04
    oracle: bool = True
    seed: int = 0
    runs: int = 1
    workers: int = 1
    out: str = "runs"

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError("run.algorithm", f"must be one of {ALGORITHMS}")
        if self.pool not in POOL_KINDS:
            raise ConfigError("pool.kind", f"must be one of {POOL_KINDS}")
        if self.algorithm in ("hva", "trotter") and self.model.n_qubits % 2:
            message = f"run.algorithm = {self.algorithm} groups terms in brick-wall layers, which need an even chain"
            raise ConfigError("model.n_qubits", f"{message}, got {self.model.n_qubits}")
        if self.noise_enabled and self.algorithm == "trotter":
            raise ConfigError("noise.enabled", "run.algorithm = trotter applies its product formula to the exact "
                              "state and draws no shot noise; set noise.enabled = false")
        if self.hva_layers < 1:
            raise ConfigError("hva.layers", "must be a positive integer")
        if not 0 < self.trotter_dt < math.inf:
            raise ConfigError("trotter.dt", f"must be finite and positive, got {self.trotter_dt}")
        if self.seed < 0:
            raise ConfigError("run.seed", f"must be a non-negative integer, got {self.seed}")
        if self.runs < 1:
            raise ConfigError("run.runs", "must be a positive integer")
        if self.workers < 1:
            raise ConfigError("run.workers", "must be a positive integer")


# key -> (section attribute on ExperimentConfig, field name, parser)
_SCHEMA = {
    "model.kind": ("model", "kind", str),
    "model.n_qubits": ("model", "n_qubits", int),
    "model.j": ("model", "j", float),
    "model.h_x": ("model", "h_x", float),
    "model.h_z": ("model", "h_z", float),
    "growth.method": ("growth", "method", int),
    "growth.l2_cut": ("growth", "l2_cut", float),
    "growth.score_cut": ("growth", "score_cut", float),
    "growth.max_depth": ("growth", "max_depth", _parse_optional_int),
    "growth.max_grow_iters": ("growth", "max_grow_iters", int),
    "step.dtheta_max": ("step", "dtheta_max", float),
    "step.dt_fixed": ("step", "dt_fixed", _parse_optional_float),
    "step.t_final": ("step", "t_final", float),
    "solver.method": ("solver", "method", str),
    "solver.epsilon": ("solver", "epsilon", float),
    "solver.bound": ("solver", "bound", float),
    "noise.enabled": (None, "noise_enabled", _parse_bool),
    "noise.n_shots": ("noise", "n_shots", float),
    "noise.d_c": ("noise", "d_c", int),
    "noise.noisy_v": ("noise", "noisy_v", _parse_bool),
    "noise.truncate_sigmas": ("noise", "truncate_sigmas", _parse_optional_float),
    "pool.kind": (None, "pool", str),
    "hva.layers": (None, "hva_layers", int),
    "trotter.dt": (None, "trotter_dt", float),
    "run.algorithm": (None, "algorithm", str),
    "run.oracle": (None, "oracle", _parse_bool),
    "run.seed": (None, "seed", int),
    "run.runs": (None, "runs", int),
    "run.workers": (None, "workers", int),
    "run.out": (None, "out", str),
}


def parse_assignments(text: str) -> dict[str, str]:
    """Raw key -> value strings, validating grammar but not values."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(key, "unknown configuration key")
        if key in out:
            raise ConfigError(key, "duplicate assignment")
        out[key] = value
    return out


def config_from_mapping(assignments: dict[str, str]) -> ExperimentConfig:
    sections: dict[str, dict] = {name: {} for name, _, _ in _SCHEMA.values() if name}
    top: dict = {}
    for key, raw in assignments.items():
        section, fieldname, parser = _SCHEMA[key]
        try:
            value = parser(raw)
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None
        if section is None:
            top[fieldname] = value
        else:
            sections[section][fieldname] = value

    kwargs = dict(top)
    for name, fields in sections.items():
        if not fields:
            continue
        try:
            if name == "model":  # unset couplings take the kind's values
                base = default_model(fields.get("kind", DEFAULT_KIND))
            else:
                base = ExperimentConfig.__dataclass_fields__[name].default_factory()
            kwargs[name] = replace(base, **fields)
        except ValueError as exc:  # a section's validator starts its message with the key at fault
            key = str(exc).split(" ", 1)[0]
            raise ConfigError(key if key in _SCHEMA else f"{name}.*", str(exc)) from None
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("config", str(exc)) from None


def parse_config(text: str) -> ExperimentConfig:
    return config_from_mapping(parse_assignments(text))


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; includes every key so files are self-contained."""
    lines = []
    for key, (section, fieldname, _) in _SCHEMA.items():
        holder = cfg if section is None else getattr(cfg, section)
        lines.append(f"{key} = {_fmt(getattr(holder, fieldname))}")
    return "\n".join(lines) + "\n"
