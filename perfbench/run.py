#!/usr/bin/env python3
"""avqds benchmark: time to solution, step latency and circuit cost.

    python3 perfbench/run.py --workload desk_tfim8 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload desk_tfim8 --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

One *solution* runs every experiment config of a workload through
``avqds.experiment.run_experiment`` with ``workers = 1``. Each solution and
each set-up probe runs in a fresh child process, one at a time (closed loop,
never two at once), so every time to solution pays import and cold caches
as a user's ``avqds run`` does. BLAS and OpenMP are pinned to one thread in
the environment before numpy is imported, here and in every child.

Timings are reported at a reference host speed, measured by short bursts of
fixed work between steps (``speed.py``), so that a shared host's drifting
speed moves them less.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a traced
solution between two untraced ones, checks that all wrote the same bytes,
and reports the per-layer metrics. The last line of standard output is one JSON object.
"""

import os
import sys
import time

_T0 = time.perf_counter()

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBES = 3  # set-up-only children per run, besides each solution's own set-up
SOLUTION_KEYS = ("import_s", "wall_s", "wall_raw_s", "slowdown", "bursts", "setup_s", "setup_raw_s", "peak_rss_mb")
DEADLINE_S = 175.0  # every child is killed if the run would pass this


# --- child side -------------------------------------------------------------


class _SetupDone(Exception):
    pass


def _stop_at_step(self):
    raise _SetupDone(time.perf_counter())


def _blas_info() -> dict:
    """Thread count and build string of every OpenBLAS loaded in this process."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {"pinned": None, "libs": {}}
    paths = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln})
    libs = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    libs[Path(path).name] = {"threads": threads(), "config": config().decode()}
    pinned = bool(libs) and all(v["threads"] == 1 for v in libs.values())
    return {"pinned": pinned and all(os.environ[v] == "1" for v in THREAD_VARS), "libs": libs}


def child(args) -> dict:
    """One probe or one solution in this process; returns its report."""
    import numpy
    import scipy

    import avqds.experiment as experiment
    from avqds.engine import AvqdsRun
    from avqds.statevector import EvolveError

    import_s = time.perf_counter() - _T0
    import outputs
    import speed
    import tracing
    from workloads import WORKLOADS

    cfgs = WORKLOADS[args.workload](args.seed)
    scratch = OUT / "tmp" / str(os.getpid())
    sampler = speed.SpeedSampler()
    try:
        if args.role == "probe":
            AvqdsRun.step = _stop_at_step
            try:
                experiment.run_experiment(cfgs[0], scratch)
            except _SetupDone as done:
                setup_raw_s = done.args[0] - _T0
            else:
                raise RuntimeError("the workload never reached AvqdsRun.step")
            slowdown = sampler.after_setup()
            return {"setup_s": setup_raw_s / slowdown, "setup_raw_s": setup_raw_s, "slowdown": slowdown}

        table = tracing.layer_table() if args.trace else tracing.step_table()
        calls = []
        with tracing.Tracer(table) as tracer:
            traced_step = AvqdsRun.step
            AvqdsRun.step = sampler.wrap(traced_step)
            try:
                for j, cfg in enumerate(cfgs):
                    error = None
                    try:
                        experiment.run_experiment(cfg, scratch / f"cfg{j}")
                    except (EvolveError, ValueError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                    calls.append((cfg, scratch / f"cfg{j}", error))
            finally:
                AvqdsRun.step = traced_step
        wall_raw_s = time.perf_counter() - _T0 - sampler.spent
        if not sampler.durations:
            sampler.sample()
        results = [outputs.check_call(cfg, d, err) for cfg, d, err in calls]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # every step at the host speed around it, the rest of the run at the
    # steps' overall speed, and set-up at the speed just after it
    steps = tracer.of(tracing.STEP)
    step_raw_s = [s[2] - s[1] for s in steps]
    step_s = [d / sampler.slowdown_at((s[1] + s[2]) / 2) for d, s in zip(step_raw_s, steps)]
    slowdown = sum(step_raw_s) / sum(step_s) if steps else sampler.slowdown_at(time.perf_counter())
    setup_raw_s = sampler.setup_end - _T0 if steps else None
    report = {
        "import_s": import_s,
        "wall_s": wall_raw_s / slowdown,
        "wall_raw_s": wall_raw_s,
        "slowdown": slowdown,
        "bursts": len(sampler.durations),
        "setup_s": setup_raw_s / sampler.setup_slowdown if steps else None,
        "setup_raw_s": setup_raw_s,
        "step_s": step_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "problems": [p for r in results for p in r.problems],
        "outcomes": outputs.solution_outcomes(results),
        "fingerprint": outputs.fingerprint(results),
        "env": {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": _blas_info()},
    }
    if args.trace:
        # the traced spans around the steps also hold the bursts
        layers = tracing.layer_metrics(tracer, wall_raw_s + sampler.spent)
        layers["engine.final_n_params"] = max((s["n_params"] for r in results for s in r.summaries), default=0)
        layers["experiment.bytes_written"] = sum(r.bytes_written for r in results)
        report["layers"] = layers
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    return report


# --- parent side ------------------------------------------------------------


class BenchmarkFailed(RuntimeError):
    pass


def _command(workload: str, args, trace: int) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace)]


def run_child(args, role: str, trace: int) -> dict:
    cmd = _command(args.workload, args, trace) + ["--role", role]
    remaining = DEADLINE_S - (time.perf_counter() - _T0)
    if remaining <= 0:
        raise BenchmarkFailed("run deadline reached")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkFailed(f"{role} child passed the {DEADLINE_S:.0f} s run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkFailed(f"{role} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_info() -> dict:
    model = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{index}/size")
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "caches": caches,
        "load_1min_at_start": os.getloadavg()[0],
        "python": sys.version.split()[0],
    }


def code_digest(configs) -> str:
    """Digest of the avqds sources and of the workload's configs."""
    from avqds.config import serialize_config

    sha = hashlib.sha256()
    for path in sorted((SRC / "avqds").rglob("*.py")):
        sha.update(path.relative_to(SRC).as_posix().encode())
        sha.update(path.read_bytes())
    for cfg in configs(0):
        sha.update(serialize_config(cfg).encode())
    return sha.hexdigest()


def check_fingerprint_store(key: str, fp: dict) -> list[str]:
    """Fingerprints must repeat across every run of one source tree."""
    store_path = OUT / "fingerprints.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    if key in store:
        return [] if store[key] == fp else [f"fingerprint differs from an earlier run ({key})"]
    store[key] = fp
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return []


def desk_reference_match(fp: dict) -> bool:
    from workloads import DESK_REFERENCE as ref

    if not fp["trajectories"]:
        return False
    steps, n_params, depth, cnots, max_inf = fp["trajectories"][0]
    return (steps, n_params, depth, cnots) == (ref["steps"], ref["n_params"], ref["depth"], ref["cnots"]) and (
        f"{float(max_inf):.2e}" == f"{ref['max_infidelity']:.2e}"
    )


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean of
    every order statistic instead of the two next to rank ``q * n``. Step
    times are bunched by how many growth iterations a step ran, and on
    ``wide_pool_m1`` the 90th-percentile rank sits in the gap between two
    bunches, where the two-point estimate jumps with the noise of two steps."""
    import numpy as np
    from scipy.stats import beta

    x = np.sort(np.asarray(values))
    n = len(x)
    edges = beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1 - q))
    return float(np.diff(edges) @ x)


def end_to_end(probes: list[dict], solutions: list[dict]) -> dict:
    """Timings are medians over the run's solutions, so one slow stretch of a
    shared machine moves them less; each solution has >=100 steps, so its
    90th percentile has >=10 samples beyond it."""
    outcomes = solutions[0]["outcomes"]
    if not outcomes:
        raise BenchmarkFailed("no trajectory completed, so there is nothing to report")
    setups = [p["setup_s"] for p in probes] + [s["setup_s"] for s in solutions if s["setup_s"] is not None]
    n_steps = sum(len(s["step_s"]) for s in solutions)
    p50 = statistics.median(statistics.median(s["step_s"]) for s in solutions)
    p90 = statistics.median(harrell_davis(s["step_s"], 0.9) for s in solutions)
    n_traj = solutions[0]["attempted"]
    metrics = {
        "wall_s": (statistics.median(s["wall_s"] for s in solutions), "s", len(solutions)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "step_ms_p50": (1e3 * p50, "ms", n_steps),
        "step_ms_p90": (1e3 * p90, "ms", n_steps),
        "max_infidelity": (outcomes["max_infidelity"], "1", n_traj),
        "band_exit_t": (outcomes["band_exit_t"], "1/J", n_traj),
        "final_depth": (outcomes["final_depth"], "layers", n_traj),
        "final_cnots": (outcomes["final_cnots"], "gates", n_traj),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in solutions), "MiB", len(solutions)),
    }
    return metrics


def measure(args) -> tuple[dict, list[dict], list[dict]]:
    """Probes and solutions until ``--seconds`` would be exceeded."""
    start = time.perf_counter()
    probes = [run_child(args, "probe", 0) for _ in range(PROBES)]
    solutions, durations = [], []
    while True:
        began = time.perf_counter()
        solutions.append(run_child(args, "solve", 0))
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > args.seconds:
            break
    return end_to_end(probes, solutions), solutions, probes


def measure_traced(args) -> tuple[dict, list[dict], list[str]]:
    from tracing import LAYER_UNITS

    # untraced runs on both sides of the traced one, so a machine whose speed
    # drifts during the run biases the overhead less
    before = run_child(args, "solve", 0)
    traced = run_child(args, "solve", 1)
    after = run_child(args, "solve", 0)
    problems = []
    if traced["fingerprint"] != before["fingerprint"]:
        problems.append("traced solution wrote different records from the untraced one")
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = 2 * traced["wall_s"] / (before["wall_s"] + after["wall_s"]) - 1.0
    metrics = {name: (layers[name], unit, 1) for name, unit in LAYER_UNITS.items()}
    return metrics, [before, traced, after], problems


def single(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    machine = machine_info()
    try:
        if args.trace:
            metrics, solutions, problems = measure_traced(args)
            probes = []
        else:
            metrics, solutions, probes = measure(args)
            problems = []
    except BenchmarkFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    fps = [s["fingerprint"] for s in solutions]
    if any(fp != fps[0] for fp in fps):
        problems.append("fingerprint differs between solutions of this run")
    env = solutions[0]["env"]
    code = code_digest(WORKLOADS[args.workload])[:16]
    key = f"{args.workload}/seed={args.seed}/code={code}/numpy={env['numpy']}/scipy={env['scipy']}"
    problems += check_fingerprint_store(key, fps[0])
    problems += [p for s in solutions for p in s["problems"]]
    attempted = sum(s["attempted"] for s in solutions)
    failed = sum(s["failed"] for s in solutions)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "fingerprint": fps[0],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "probes": probes,
        "solutions": [{k: s[k] for k in SOLUTION_KEYS} for s in solutions],
    }
    if args.workload == "desk_tfim8":
        result["desk_reference_match"] = desk_reference_match(fps[0])
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    blas = env["blas"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} blas_pinned={blas['pinned']} "
          f"load_1min={machine['load_1min_at_start']:.2f} cpu={machine['cpu_model']!r} nproc={machine['nproc']}")
    for name, (value, unit, n) in metrics.items():
        print(f"{args.workload:<16} {name:<32} {value:>14.6g} {unit:<7} n={n}")
    print(f"{args.workload:<16} {'error_rate':<32} {failed / attempted:>14.6g} {'1':<7} n={attempted}")
    if "desk_reference_match" in result:
        print(f"# desk_tfim8 fingerprint matches the recorded reference: {result['desk_reference_match']}")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own benchmark process."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(_command(name, args, args.trace), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"benchmark failed on {name}", file=sys.stderr)
            return 1
        out = json.loads(lines[-1])
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        for metric, entry in out["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("probe", "solve"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "avqds" / "__init__.py").is_file():
        print(f"no avqds sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.role:
        print(json.dumps(child(args)))
        return 0
    if args.workload == "all":
        return run_all(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
