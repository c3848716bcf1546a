"""Outside-in spans around the layer functions of avqds, and the per-layer
metrics derived from them.

The tracer rebinds module and class attributes at the names the engine and
the experiment harness look them up under, so no source file is edited and
the wrapped functions compute exactly what they did before. Spans are kept
in memory as ``[name, start, end, parent, note]`` and written out at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import avqds.engine as engine
import avqds.experiment as experiment
import avqds.mclachlan as mclachlan

STEP = "engine.step"
SCORE = "engine.score"


def _tangent_note(args, result):
    return [int(result.shape[0]), args[0].n_qubits]


def _score_note(args, result):
    return len(args[1])


def _grow_note(args, result):
    return len(result.added)


def _noise_note(args, result):
    return result is not args[0]


def _layout_note(args, result):
    return hash(args[0].generators)  # PauliStrings hash their integer fields


def layer_table():
    """(owner, attribute, span name, note) for every traced boundary."""
    return [
        (experiment, "run_experiment", "experiment.run", None),
        (experiment, "run_single", "experiment.trajectory", None),
        (experiment, "build_model", "models.build", None),
        (experiment, "hamiltonian_term_pool", "models.build", None),
        (experiment, "model_pool", "models.build", None),
        (experiment, "model_sublayers", "models.build", None),
        (experiment, "build_hva", "models.build", None),
        (engine.AvqdsRun, "step", STEP, None),
        (engine, "assemble_frame", "mclachlan.assemble", None),
        (mclachlan, "tangent_states", "ansatz.tangent_sweep", _tangent_note),
        (mclachlan, "prepare_state", "ansatz.prepare", None),
        (engine, "solve", "solvers.solve", None),
        (engine, "grow_once", "engine.grow", _grow_note),
        (engine, "score_candidates", SCORE, _score_note),
        (engine, "augment_block", "mclachlan.augment", None),
        (engine, "noisy_system", "noise.noisy_system", _noise_note),
        (engine, "ansatz_layout", "ansatz.layout", _layout_note),
        (engine.ExactPropagator, "__init__", "statevector.oracle_init", None),
        (engine.ExactPropagator, "state_at", "statevector.oracle_call", None),
    ]


def step_table():
    """Only the Euler-step timer, for the end-to-end runs."""
    return [(engine.AvqdsRun, "step", STEP, None)]


class Tracer:
    """Context manager that installs span-recording wrappers and removes them."""

    def __init__(self, table):
        self.table = table
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, note in self.table:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def of(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "note": note}) + "\n")


def _dur(span) -> float:
    return span[2] - span[1]


def _total(spans) -> float:
    return sum(_dur(s) for s in spans)


def _p50_ms(spans) -> float:
    return 1e3 * statistics.median(_dur(s) for s in spans) if spans else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit, in the order the metrics are reported
LAYER_UNITS = {
    "ansatz.tangent_sweep_s": "s",
    "ansatz.row_rotations": "count",
    "ansatz.rotation_gbps_computed": "GB/s",
    "ansatz.layout_s": "s",
    "ansatz.layout_calls": "count",
    "ansatz.layout_useful_ratio": "1",
    "mclachlan.assemble_self_s": "s",
    "mclachlan.assembles_per_step": "1/step",
    "mclachlan.augment_s": "s",
    "solvers.step_solve_s": "s",
    "solvers.score_solves": "count",
    "solvers.solves_per_step": "1/step",
    "solvers.solve_ms_p50": "ms",
    "engine.score_s": "s",
    "engine.candidates_scored": "count",
    "engine.growth_iters": "count",
    "engine.growth_useful_ratio": "1",
    "engine.final_n_params": "count",
    "engine.steps": "count",
    "engine.growth_step_ms_p50": "ms",
    "engine.plain_step_ms_p50": "ms",
    "engine.step_self_s": "s",
    "noise.noisy_system_s": "s",
    "noise.perturbed_frac": "1",
    "statevector.oracle_init_s": "s",
    "statevector.oracle_call_ms_p50": "ms",
    "statevector.oracle_calls": "count",
    "experiment.overhead_s": "s",
    "experiment.bytes_written": "B",
    "models.build_s": "s",
    "trace.overhead_frac": "1",
    "trace.coverage": "1",
}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced solution; ``trace.overhead_frac``,
    ``engine.final_n_params`` and ``experiment.bytes_written`` come from
    outside the trace and are filled in by the caller."""
    spans = tracer.spans
    child_time: dict[int, float] = defaultdict(float)
    grew: set[int] = set()  # steps that ran at least one growth iteration
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += _dur(s)
            if s[0] == "engine.grow":
                grew.add(s[3])

    def self_time(name: str) -> float:
        return sum(_dur(s) - child_time[i] for i, s in enumerate(spans) if s[0] == name)

    n_steps = len(tracer.of(STEP))
    sweeps = tracer.of("ansatz.tangent_sweep")
    rotations = sum(rows * (rows + 1) // 2 for rows, _ in (s[4] for s in sweeps))
    # one read and one write of a complex128 row per row rotation
    computed_bytes = sum(rows * (rows + 1) // 2 * 32 * (1 << nq) for rows, nq in (s[4] for s in sweeps))
    sweep_s = _total(sweeps)
    layouts = tracer.of("ansatz.layout")
    solves = tracer.of("solvers.solve")
    score_ids = {i for i, s in enumerate(spans) if s[0] == SCORE}
    score_solves = [s for s in solves if s[3] in score_ids]
    grows = tracer.of("engine.grow")
    noise = tracer.of("noise.noisy_system")
    oracle_calls = tracer.of("statevector.oracle_call")
    runs = tracer.of("experiment.run")
    roots = [s for s in spans if s[3] < 0]
    return {
        "ansatz.tangent_sweep_s": sweep_s,
        "ansatz.row_rotations": rotations,
        "ansatz.rotation_gbps_computed": _ratio(computed_bytes / 1e9, sweep_s),
        "ansatz.layout_s": _total(layouts),
        "ansatz.layout_calls": len(layouts),
        "ansatz.layout_useful_ratio": _ratio(len({s[4] for s in layouts}), len(layouts)),
        "mclachlan.assemble_self_s": self_time("mclachlan.assemble"),
        "mclachlan.assembles_per_step": _ratio(len(tracer.of("mclachlan.assemble")), n_steps),
        "mclachlan.augment_s": _total(tracer.of("mclachlan.augment")),
        "solvers.step_solve_s": _total(solves) - _total(score_solves),
        "solvers.score_solves": len(score_solves),
        "solvers.solves_per_step": _ratio(len(solves), n_steps),
        "solvers.solve_ms_p50": _p50_ms(solves),
        "engine.score_s": _total(tracer.of(SCORE)),
        "engine.candidates_scored": sum(s[4] for s in tracer.of(SCORE)),
        "engine.growth_iters": len(grows),
        "engine.growth_useful_ratio": _ratio(sum(1 for s in grows if s[4]), len(grows)),
        "engine.steps": n_steps,
        "engine.growth_step_ms_p50": _p50_ms([s for i, s in enumerate(spans) if s[0] == STEP and i in grew]),
        "engine.plain_step_ms_p50": _p50_ms([s for i, s in enumerate(spans) if s[0] == STEP and i not in grew]),
        "engine.step_self_s": self_time(STEP),
        "noise.noisy_system_s": _total(noise),
        "noise.perturbed_frac": _ratio(sum(1 for s in noise if s[4]), len(noise)),
        "statevector.oracle_init_s": _total(tracer.of("statevector.oracle_init")),
        "statevector.oracle_call_ms_p50": _p50_ms(oracle_calls),
        "statevector.oracle_calls": len(oracle_calls),
        "experiment.overhead_s": _total(runs) - _total(tracer.of("experiment.trajectory")),
        "models.build_s": _total(tracer.of("models.build")),
        "trace.coverage": _ratio(_total(roots), wall_s),
    }
