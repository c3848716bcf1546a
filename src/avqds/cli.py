"""Command-line entry points: run, preset, validate, oracle."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    ALGORITHMS, POOL_KINDS, ConfigError, config_from_mapping, merge_overrides, parse_assignments, serialize_config,
)
from .models import COUPLINGS, DEFAULT_KIND, KINDS
from .solvers import METHODS

# flag, configuration key it sets, help; each value reaches the config schema
# as the text given, so the schema alone parses and checks it
_OVERRIDE_FLAGS = (
    ("--seed", "run.seed", None),
    ("--runs", "run.runs", None),
    ("--out", "run.out", None),
    ("--workers", "run.workers", None),
    ("--t-final", "step.t_final", None),
    ("--method", "growth.method", "growth method 1, 2 or 3"),
    ("--solver", "solver.method", " | ".join(METHODS)),
    ("--epsilon", "solver.epsilon", None),
    ("--ns", "noise.n_shots", "shots per matrix element (number or 'inf')"),
    ("--dc", "noise.d_c", "exact-evaluation depth threshold"),
    ("--l2-cut", "growth.l2_cut", None),
    ("--model", "model.kind", " | ".join(KINDS)),
    ("--nq", "model.n_qubits", None),
    ("--pool", "pool.kind", " | ".join(POOL_KINDS)),
    ("--algorithm", "run.algorithm", " | ".join(ALGORITHMS)),
    ("--oracle", "run.oracle", "true | false"),
)
# the model's flags, and one per coupling: --j, --hx, --hz
_ORACLE_FLAGS = tuple(flag for flag in _OVERRIDE_FLAGS if flag[1].startswith("model.")) + tuple(
    (f"--{name.replace('_', '')}", f"model.{name}", "defaults per model kind") for name in COUPLINGS
)


def _add_flags(parser: argparse.ArgumentParser, flags) -> None:
    for flag, key, help_text in flags:
        parser.add_argument(flag, dest=key, help=help_text)


def _given(args: argparse.Namespace, flags) -> dict[str, str]:
    """The flags given, mapped onto their dotted configuration keys."""
    return {key: getattr(args, key) for _, key, _ in flags if getattr(args, key) is not None}


def _fail(key: str, message: str) -> int:
    print(f"error key={key} message={message}", file=sys.stderr)
    return 2


def _config_text(path: str) -> str:
    """The text of a config file, ``ConfigError`` keyed ``config`` if it
    cannot be read or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"{path} is not UTF-8: {exc}") from exc


def _make_dirs(key: str, *dirs: Path) -> None:
    """Create output directories, ``ConfigError`` naming ``key`` if one
    cannot be made (a path that is a file, say)."""
    try:
        for d in dirs:
            d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(key, str(exc)) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        assignments = parse_assignments(_config_text(args.config))
        cfg = config_from_mapping(merge_overrides(assignments, _given(args, _OVERRIDE_FLAGS)))
        _make_dirs("run.out", Path(cfg.out))
    except ConfigError as exc:
        return _fail(exc.key, exc.reason)
    from .experiment import run_experiment

    for path in run_experiment(cfg):
        print(path)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        cfg = config_from_mapping(parse_assignments(_config_text(args.config)))
    except ConfigError as exc:
        return _fail(exc.key, exc.reason)
    sys.stdout.write(serialize_config(cfg))
    return 0


def _cmd_preset(args: argparse.Namespace) -> int:
    from .experiment import PRESETS, preset_runs, run_experiment

    if args.list:
        for name in PRESETS:
            print(name)
        return 0
    if args.name not in PRESETS:
        return _fail("preset", f"unknown preset {args.name!r}; try --list")
    overrides = _given(args, _OVERRIDE_FLAGS)
    base_out = Path(overrides.pop("run.out", args.name))
    try:
        configs = preset_runs(
            args.name,
            overrides.get("model.kind", DEFAULT_KIND),
            lambda cfg: config_from_mapping(merge_overrides(parse_assignments(serialize_config(cfg)), overrides)),
        )
        _make_dirs("run.out", *(base_out / label for label, _ in configs))
    except ConfigError as exc:
        return _fail(exc.key, exc.reason)
    for label, cfg in configs:
        for path in run_experiment(cfg, base_out / label):
            print(path)
    return 0


def _time(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:  # --dt and --t-final are not configuration keys
        raise ConfigError(key, str(exc)) from None


def _cmd_oracle(args: argparse.Namespace) -> int:
    import numpy as np

    from .experiment import _fmt_float
    from .models import build_model
    from .statevector import ExactPropagator, expectation, fidelity

    try:
        dt, t_final = _time("dt", args.dt), _time("t_final", args.t_final)
        if not dt > 0:
            raise ConfigError("dt", f"must be positive, got {dt}")
        if not 0 <= t_final < np.inf:
            raise ConfigError("t_final", f"must be finite and non-negative, got {t_final}")
        try:
            times = np.arange(0.0, t_final + 1e-12, dt)
        except (ValueError, MemoryError) as exc:
            raise ConfigError("dt", f"too small for a time grid up to {t_final}: {exc}") from None
        spec = config_from_mapping(_given(args, _ORACLE_FLAGS)).model
    except ConfigError as exc:
        return _fail(exc.key, exc.reason)
    _, h, psi0 = build_model(spec)
    prop = ExactPropagator(h, psi0)
    lines = ["t,energy,return_probability"]
    for t in times:
        state = prop.state_at(float(t))
        lines.append(",".join(map(_fmt_float, (t, expectation(h, state), fidelity(psi0, state)))))
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            return _fail("out", str(exc))
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avqds",
        description="Adaptive variational quantum dynamics simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a config file")
    p_run.add_argument("config", help="path to a key = value config file")
    _add_flags(p_run, _OVERRIDE_FLAGS)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config file and echo its canonical form")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_pre = sub.add_parser("preset", help="run a named preset")
    p_pre.add_argument("name", nargs="?", default="")
    p_pre.add_argument("--list", action="store_true", help="list preset names")
    _add_flags(p_pre, _OVERRIDE_FLAGS)
    p_pre.set_defaults(func=_cmd_preset)

    p_or = sub.add_parser("oracle", help="dump exact-evolution observables for a model")
    _add_flags(p_or, _ORACLE_FLAGS)
    p_or.add_argument("--t-final", dest="t_final", default="2.0")
    p_or.add_argument("--dt", default="0.05")
    p_or.add_argument("--out")
    p_or.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
