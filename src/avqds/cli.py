"""Command-line entry points: run, preset, validate, oracle."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ALGORITHMS, POOL_KINDS, ConfigError, config_from_mapping, parse_assignments, serialize_config
from .models import COUPLINGS, DEFAULT_KIND, KINDS
from .solvers import METHODS


# flag, configuration key it overrides, add_argument keywords
_OVERRIDE_FLAGS = (
    ("--seed", "run.seed", {"type": int}),
    ("--runs", "run.runs", {"type": int}),
    ("--out", "run.out", {}),
    ("--workers", "run.workers", {"type": int}),
    ("--t-final", "step.t_final", {"type": float}),
    ("--method", "growth.method", {"type": int, "help": "growth method 1, 2 or 3"}),
    ("--solver", "solver.method", {"help": " | ".join(METHODS)}),
    ("--epsilon", "solver.epsilon", {"type": float}),
    ("--ns", "noise.n_shots", {"help": "shots per matrix element (number or 'inf')"}),
    ("--dc", "noise.d_c", {"type": int, "help": "exact-evaluation depth threshold"}),
    ("--l2-cut", "growth.l2_cut", {"type": float}),
    ("--model", "model.kind", {"help": " | ".join(KINDS)}),
    ("--nq", "model.n_qubits", {"type": int}),
    ("--pool", "pool.kind", {"help": " | ".join(POOL_KINDS)}),
    ("--algorithm", "run.algorithm", {"help": " | ".join(ALGORITHMS)}),
    ("--oracle", "run.oracle", {"help": "true | false"}),
)


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    for flag, key, kwargs in _OVERRIDE_FLAGS:
        parser.add_argument(flag, dest=key, **kwargs)


def _override_pairs(args: argparse.Namespace) -> dict[str, str]:
    """CLI flags mapped onto their dotted configuration keys."""
    values = ((key, getattr(args, key, None)) for _, key, _ in _OVERRIDE_FLAGS)
    return {key: str(value) for key, value in values if value is not None}


def _merge_overrides(assignments: dict[str, str], overrides: dict[str, str]) -> dict[str, str]:
    """Apply overrides; switching the model kind away from the one the
    assignments give, set or by default, resets its couplings to the new
    kind's unless those are overridden too."""
    merged = dict(assignments)
    if overrides.get("model.kind") not in (None, merged.get("model.kind", DEFAULT_KIND)):
        for name in COUPLINGS:
            merged.pop(f"model.{name}", None)
    merged.update(overrides)
    return merged


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
        cfg = config_from_mapping(_merge_overrides(assignments, _override_pairs(args)))
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
    overrides = _override_pairs(args)
    base_out = Path(overrides.pop("run.out", args.name))
    try:
        configs = preset_runs(
            args.name,
            overrides.get("model.kind", DEFAULT_KIND),
            lambda cfg: config_from_mapping(_merge_overrides(parse_assignments(serialize_config(cfg)), overrides)),
        )
        _make_dirs("run.out", *(base_out / label for label, _ in configs))
    except ConfigError as exc:
        return _fail(exc.key, exc.reason)
    for label, cfg in configs:
        for path in run_experiment(cfg, base_out / label):
            print(path)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    import numpy as np

    from .experiment import _fmt_float
    from .models import build_model, default_model
    from .statevector import ExactPropagator, expectation, fidelity

    if not args.dt > 0:
        return _fail("dt", f"must be positive, got {args.dt}")
    if not 0 <= args.t_final < np.inf:
        return _fail("t_final", f"must be finite and non-negative, got {args.t_final}")
    try:
        times = np.arange(0.0, args.t_final + 1e-12, args.dt)
    except (ValueError, MemoryError) as exc:
        return _fail("dt", f"too small for a time grid up to {args.t_final}: {exc}")
    couplings = {name: getattr(args, name) for name in COUPLINGS if getattr(args, name) is not None}
    try:
        spec = replace(default_model(args.model, args.nq), **couplings)
        _, h, psi0 = build_model(spec)
    except ValueError as exc:
        return _fail("model", str(exc))
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
    _add_override_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config file and echo its canonical form")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_pre = sub.add_parser("preset", help="run a named preset")
    p_pre.add_argument("name", nargs="?", default="")
    p_pre.add_argument("--list", action="store_true", help="list preset names")
    _add_override_flags(p_pre)
    p_pre.set_defaults(func=_cmd_preset)

    p_or = sub.add_parser("oracle", help="dump exact-evolution observables for a model")
    p_or.add_argument("--model", default=DEFAULT_KIND)
    p_or.add_argument("--nq", type=int, default=8)
    for name in COUPLINGS:  # --j, --hx, --hz
        p_or.add_argument(f"--{name.replace('_', '')}", dest=name, type=float, help="defaults per model kind")
    p_or.add_argument("--t-final", dest="t_final", type=float, default=2.0)
    p_or.add_argument("--dt", type=float, default=0.05)
    p_or.add_argument("--out")
    p_or.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
