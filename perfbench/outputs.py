"""Reading back the CSVs a solution wrote, checking them, and fingerprinting.

The checks here decide whether a trajectory counts as failed. A failed
trajectory is one whose ``run_experiment`` call raised, or whose records are
non-finite, stop short of ``t_final``, shrink ``n_params``, exceed the depth
cap, or (noiseless adaptive workloads only) leave the criterion-5 band.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from workloads import BAND_INFIDELITY, NOISELESS_MAX_INFIDELITY


def read_rows(text: str) -> list[tuple[float, ...]]:
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        rows.append(tuple(float(x) for x in line.split(",")))
    return rows


def trajectory_problems(rows, cfg) -> list[str]:
    if not rows:
        return ["no records"]
    problems = []
    if not all(math.isfinite(x) for row in rows for x in row):
        problems.append("non-finite record")
    t_end = rows[-1][0] + rows[-1][5]
    if not t_end >= cfg.step.t_final - 1e-12:
        problems.append(f"stopped at t={t_end!r} before t_final={cfg.step.t_final}")
    if any(b[1] < a[1] for a, b in zip(rows, rows[1:])):
        problems.append("n_params decreased")
    max_depth = cfg.growth.max_depth
    if max_depth is not None and max(r[3] for r in rows) > max_depth:
        problems.append(f"depth above max_depth={max_depth}")
    noiseless_adaptive = cfg.algorithm == "avqds" and not cfg.noise_enabled
    if noiseless_adaptive and not max(r[7] for r in rows) < NOISELESS_MAX_INFIDELITY:
        problems.append(f"max infidelity not below {NOISELESS_MAX_INFIDELITY}")
    return problems


def trajectory_summary(rows, t_final: float) -> dict:
    band_exit = next((r[0] for r in rows if r[7] >= BAND_INFIDELITY), t_final)
    last = rows[-1]
    return {
        "steps": len(rows),
        "n_params": int(last[1]),
        "depth": int(last[3]),
        "cnots": int(last[4]),
        "max_infidelity": max(r[7] for r in rows),
        "band_exit_t": band_exit,
    }


def aggregate_problems(text: str, per_run: list[list[tuple[float, ...]]]) -> list[str]:
    """The aggregate has one row per distinct record time, over every run."""
    rows = read_rows(text)
    grid = sorted({r[0] for run in per_run for r in run})
    if [r[0] for r in rows] != grid:
        return ["aggregate time grid differs from the union of run times"]
    if any(r[1] != len(per_run) for r in rows):
        return ["aggregate n_runs differs from the number of runs"]
    return []


@dataclass
class CallResult:
    """What one ``run_experiment`` call produced and how it checked out."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    summaries: list[dict] = field(default_factory=list)
    bytes_written: int = 0
    digest: str = ""


def check_call(cfg, out_dir: Path, error: str | None) -> CallResult:
    result = CallResult(attempted=cfg.runs)
    if error is not None:
        result.failed = cfg.runs
        result.problems.append(f"run_experiment raised {error}")
        return result
    sha = hashlib.sha256()
    per_run = []
    for i in range(cfg.runs):
        path = out_dir / f"run_{i:03d}.csv"
        if not path.is_file():
            result.failed += 1
            result.problems.append(f"{path.name} missing")
            continue
        data = path.read_bytes()
        sha.update(data)
        result.bytes_written += len(data)
        rows = read_rows(data.decode())
        problems = trajectory_problems(rows, cfg)
        if problems:
            result.failed += 1
            result.problems += [f"{path.name}: {p}" for p in problems]
        if rows:
            per_run.append(rows)
            result.summaries.append(trajectory_summary(rows, cfg.step.t_final))
    if cfg.runs > 1:
        agg = out_dir / "aggregate.csv"
        if not agg.is_file():
            result.problems.append("aggregate.csv missing")
        else:
            data = agg.read_bytes()
            sha.update(data)
            result.bytes_written += len(data)
            result.problems += aggregate_problems(data.decode(), per_run)
    result.digest = sha.hexdigest()
    return result


def solution_outcomes(calls: list[CallResult]) -> dict:
    """Behavioural end-to-end values of one solution.

    Each config contributes its median trajectory; across configs the worst
    one counts (highest infidelity, depth and CNOTs; earliest band exit).
    """
    per_cfg = [
        {k: statistics.median(s[k] for s in c.summaries) for k in c.summaries[0]}
        for c in calls
        if c.summaries
    ]
    if not per_cfg:
        return {}
    return {
        "max_infidelity": max(c["max_infidelity"] for c in per_cfg),
        "band_exit_t": min(c["band_exit_t"] for c in per_cfg),
        "final_depth": max(c["depth"] for c in per_cfg),
        "final_cnots": max(c["cnots"] for c in per_cfg),
    }


def fingerprint(calls: list[CallResult]) -> dict:
    """Steps, final n_params, depth, CNOTs and max infidelity of every
    trajectory, plus a digest of the bytes of every CSV written."""
    sha = hashlib.sha256()
    for c in calls:
        sha.update(c.digest.encode())
    return {
        "trajectories": [
            [s["steps"], s["n_params"], s["depth"], s["cnots"], repr(s["max_infidelity"])]
            for c in calls
            for s in c.summaries
        ],
        "csv_sha256": sha.hexdigest(),
    }
