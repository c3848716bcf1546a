"""Full tiles flushed, the stepped exact oracle advanced, and growth-step
candidate scores run on the flush thread: bit for bit the one-thread path,
used only where it cannot oversubscribe the cores, and never left running.

The one-thread path (one usable core, so every tile is flushed inline and
every oracle call and solve is made by the step) is the oracle. The
cases are TFIM HVAs at 10 and 12 qubits, where a tile holds 32 and 8 rows,
so the sweeps of every split flush tiles, and adaptive TFIM runs at 10
qubits, the smallest size whose oracle is the Taylor stepper. Each side
patches the one function that decides, ``ansatz._thread_jobs``: the
threaded side to give the thread every job, whatever the machine and the
shell have, the one-thread side to give it none. The threaded side counts
what it hands to the thread through a spy on the executor. The policy's
own tests read the real cores, process and BLAS environment.
"""

import dataclasses
import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import avqds.ansatz
import avqds.engine
from avqds.ansatz import (_BLAS_THREAD_CHAINS, Ansatz, ThreadJobs, _drain, _flush, _flush_executor, _thread_jobs,
                          tangent_states)
from avqds.config import parse_config
from avqds.engine import AvqdsRun, CandidateRanking
from avqds.experiment import run_experiment, run_single
from avqds.mclachlan import _split_frame, _split_point, assemble_frame, augment_block, extend_frame, extend_system
from avqds.models import build_model, default_model, hamiltonian_term_pool
from avqds.solvers import NonFiniteSystemError, solve
from avqds.statevector import _DENSE_MAX_QUBITS, EvolveError, ExactPropagator
from conftest import step_bounds
from test_circuit import FRAME_ARRAYS, hva
from test_scoring import planted_tie_cases

# 6 HVA layers at 10 qubits are 120 generators, so each split of the fixed
# ansatz fills a 32-row tile in at least one sweep
HVA10 = """
model.kind = tfim
model.n_qubits = 10
run.algorithm = hva
hva.layers = 6
step.dt_fixed = 0.005
step.t_final = 0.01
run.oracle = false
"""

# a short noisy adaptive run whose oracle is the Taylor stepper
ADAPTIVE10 = """
model.kind = tfim
model.n_qubits = 10
run.algorithm = avqds
pool.kind = hamiltonian
solver.method = truncation
solver.epsilon = 1e-3
noise.enabled = true
noise.n_shots = 1e4
noise.d_c = 4
step.t_final = 0.03
"""


# the same run without noise, so its growth scores the exact frame it steps on
NOISELESS10 = "\n".join(line for line in ADAPTIVE10.splitlines() if not line.startswith("noise."))


class SpyExecutor:
    """The flush executor, keeping the futures of the jobs handed to it and
    counting the oracle calls and candidate scores among them."""

    def __init__(self):
        self.futures = []
        self.oracle_calls = self.scores = 0

    @property
    def submitted(self):
        return len(self.futures)

    def submit(self, fn, *args):
        self.oracle_calls += getattr(fn, "__func__", None) is ExactPropagator.state_at
        self.scores += getattr(fn, "__name__", None) == "score"
        self.futures.append(_flush_executor().submit(fn, *args))
        return self.futures[-1]


def blas_threads(monkeypatch, **env):
    """The BLAS thread variables set to ``env`` alone."""
    for name in {k for chain in _BLAS_THREAD_CHAINS for k in chain}:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)


def thread_jobs(patch, jobs):
    """The policy patched to answer ``jobs``."""
    patch.setattr(avqds.ansatz, "_thread_jobs", lambda: jobs)


@pytest.fixture
def threaded(monkeypatch):
    spy = SpyExecutor()
    monkeypatch.setattr(avqds.ansatz, "_flush_executor", lambda: spy)
    thread_jobs(monkeypatch, ThreadJobs(tiles=True, beside=True))
    return spy


def no_thread_jobs(patch):
    """Take the one-thread path: the policy gives the flush thread no job."""
    thread_jobs(patch, ThreadJobs(tiles=False, beside=False))


def flushes(p):
    """The ``_flush`` calls of a compiled pass."""
    return [args for fn, args in p.calls if fn is _flush]


def boundaries(a):
    return [first for first, _ in step_bounds(a.generators)] + [a.n_params]


def one_thread(monkeypatch, a):
    """``a`` on a new circuit whose workspaces, built here at every step
    boundary, flush every tile inline."""
    with monkeypatch.context() as patch:
        no_thread_jobs(patch)
        inline = Ansatz(a.reference, a.generators, a.angles)
        for m in boundaries(a):
            inline.circuit.workspace(m)
    return inline


def flush_threads():
    return [t for t in threading.enumerate() if t.name.startswith("avqds-flush")]


@pytest.mark.parametrize("n_qubits, layers", [(10, 6), (12, 2)])
def test_split_frames_match_the_one_thread_path_at_every_step_boundary(rng, monkeypatch, threaded, n_qubits, layers):
    a, h = hva("tfim", n_qubits, layers, rng)
    inline = one_thread(monkeypatch, a)
    for m in boundaries(a):
        ws, ws_inline = a.circuit.workspace(m), inline.circuit.workspace(m)
        sweeps = flushes(ws.prefix) + flushes(ws.inverse)
        assert sweeps and all(worker_calls is not None for _, worker_calls, _ in sweeps)
        assert not flushes(ws.suffix)
        assert all(worker_calls is None for _, worker_calls, _ in flushes(ws_inline.prefix) + flushes(ws_inline.inverse))
        for angles in (a.angles, rng.uniform(-1.5, 1.5, size=a.n_params)):
            got, want = _split_frame(a.with_angles(angles), h, m), _split_frame(inline.with_angles(angles), h, m)
            assert np.array_equal(got.system.m, want.system.m) and np.array_equal(got.system.v, want.system.v)
            for name in FRAME_ARRAYS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert ws.pending == []
    assert threaded.submitted > 0


@pytest.mark.parametrize("n_qubits, layers", [(10, 6), (12, 3)])
def test_augment_and_extend_match_the_one_thread_path(rng, monkeypatch, threaded, n_qubits, layers):
    a, h = hva("tfim", n_qubits, layers, rng)
    inline = one_thread(monkeypatch, a)
    pool = hamiltonian_term_pool(default_model("tfim", n_qubits)).operators
    m = _split_point(a, len(pool))
    ws = a.circuit.workspace(m)
    assert flushes(ws.prefix) and flushes(ws.inverse)
    got, want = assemble_frame(a, h, len(pool)), assemble_frame(inline, h, len(pool))
    for new, old in zip(augment_block(got, pool), augment_block(want, pool)):
        assert np.array_equal(new, old)
    grown, grown_inline = a.extended(pool[:3]), inline.extended(pool[:3])
    got, want = extend_frame(got, grown), extend_frame(want, grown_inline)
    assert np.array_equal(got.system.m, want.system.m) and np.array_equal(got.system.v, want.system.v)
    for name in FRAME_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert threaded.submitted > 0


def test_one_row_tiles_under_fast_thread_switching_match_the_one_thread_path(rng, monkeypatch, threaded):
    """Tiles of one row at 6 qubits make a flush of every row, and a short
    switch interval interleaves the two threads finely; a row that both
    threads touched, or one read before its flush ended, would change bits."""
    monkeypatch.setattr(avqds.ansatz, "_TILE_BYTES", 16 << 6)
    a, h = hva("tfim", 6, 6, rng)
    inline = one_thread(monkeypatch, a)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for m in boundaries(a):
            got, want = _split_frame(a, h, m), _split_frame(inline, h, m)
            for name in FRAME_ARRAYS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(tangent_states(a), tangent_states(inline))
    finally:
        sys.setswitchinterval(interval)
    assert threaded.submitted > a.n_params


def test_a_failing_flush_is_raised_once_every_flush_has_ended(rng, monkeypatch, threaded):
    """The first flush of an assembly goes to the idle thread; when it
    raises, the assembly still waits for every flush before raising, and
    the workspace assembles correctly afterwards."""
    a, h = hva("tfim", 10, 6, rng)
    inline = one_thread(monkeypatch, a)
    ws = a.circuit.workspace(a.n_params)
    _, worker_calls, _ = flushes(ws.prefix)[0]

    def boom():
        raise RuntimeError("flush failed")

    worker_calls.append((boom, ()))
    with pytest.raises(RuntimeError, match="flush failed"):
        _split_frame(a, h, a.n_params)
    assert ws.pending == [] and threaded.submitted > 0 and all(f.done() for f in threaded.futures)
    worker_calls.pop()
    got, want = _split_frame(a, h, a.n_params), _split_frame(inline, h, a.n_params)
    assert np.array_equal(got.system.m, want.system.m)


def test_drain_waits_for_every_flush_before_raising():
    release, order = threading.Event(), []

    def fail():
        order.append("fail")
        raise ValueError("first")

    def slow():
        release.wait(10)
        order.append("slow")

    timer = threading.Timer(0.05, release.set)
    with ThreadPoolExecutor(2) as pool:
        pending = [pool.submit(fail), pool.submit(slow)]
        timer.start()
        with pytest.raises(ValueError, match="first"):
            _drain(pending)
        assert pending == [] and order == ["fail", "slow"]
    timer.join(10)
    assert not timer.is_alive()


def test_one_usable_core_starts_no_flush_thread(rng, monkeypatch):
    def no_thread():
        raise AssertionError("the flush executor was asked for")

    monkeypatch.setattr(avqds.ansatz, "_flush_executor", no_thread)
    no_thread_jobs(monkeypatch)
    a, h = hva("tfim", 10, 6, rng)
    frame = assemble_frame(a, h)
    ws = a.circuit.workspace(_split_point(a))
    assert flushes(ws.prefix) + flushes(ws.inverse)
    assert all(worker_calls is None for _, worker_calls, _ in flushes(ws.prefix) + flushes(ws.inverse))
    assert np.array_equal(frame.system.m, assemble_frame(one_thread(monkeypatch, a), h).system.m)


def adaptive_run(n_qubits=10, text=ADAPTIVE10, method=3):
    """An adaptive TFIM run of ``n_qubits`` with its exact oracle, noisy
    unless ``text`` is ``NOISELESS10``."""
    cfg = parse_config(text.replace("n_qubits = 10", f"n_qubits = {n_qubits}"))
    _, h, psi0 = build_model(cfg.model)
    return AvqdsRun(h, Ansatz(psi0), cfg.step, cfg.solver, hamiltonian_term_pool(cfg.model),
                    replace(cfg.growth, method=method), cfg.noise if cfg.noise_enabled else None, seed=3)


def records(run):
    """repr of each record, which writes each float with the digits that
    give back its bits."""
    return [repr(dataclasses.astuple(r)) for r in run.records]


def test_oracle_on_the_thread_writes_the_records_of_the_one_thread_path(monkeypatch, threaded):
    with monkeypatch.context() as patch:
        no_thread_jobs(patch)
        want = adaptive_run().run()
    assert threaded.submitted == 0  # every oracle call and flush ran inline
    got = adaptive_run().run()
    assert len(got) > 1 and threaded.oracle_calls == len(got)
    # repr writes each float with the digits that give back its bits
    assert [repr(dataclasses.astuple(r)) for r in got] == [repr(dataclasses.astuple(r)) for r in want]


@pytest.mark.parametrize("text", [ADAPTIVE10, NOISELESS10], ids=["noisy", "noiseless"])
def test_growth_solves_on_the_thread_write_the_records_of_the_one_thread_path(monkeypatch, threaded, text):
    with monkeypatch.context() as patch:
        no_thread_jobs(patch)
        want = adaptive_run(text=text)
        want.run()
    assert threaded.submitted == 0
    got = adaptive_run(text=text)
    done = []
    while got.t < got.step_cfg.t_final - 1e-12:
        got.step()
        done.append(all(f.done() for f in threaded.futures))
    assert len(got.records) > 1 and records(got) == records(want)
    assert threaded.scores > 0 and all(done)


def test_single_op_growth_hands_no_score_to_the_thread(monkeypatch, threaded):
    with monkeypatch.context() as patch:
        no_thread_jobs(patch)
        want = adaptive_run(text=NOISELESS10, method=1)
        want.run()
    got = adaptive_run(text=NOISELESS10, method=1)
    got.run()
    assert records(got) == records(want) and got.ansatz.n_params > 0
    assert threaded.scores == 0 and threaded.oracle_calls > 0


def test_every_job_is_done_when_a_growth_step_raises(monkeypatch, threaded):
    """A score is on the thread while the one scored here raises."""
    run = adaptive_run(text=NOISELESS10)

    def fail(*args):
        if threaded.scores and threading.current_thread() is threading.main_thread():
            raise RuntimeError("score failed")
        return extend_system(*args)

    monkeypatch.setattr(avqds.engine, "extend_system", fail)
    with pytest.raises(RuntimeError, match="score failed"):
        run.step()
    assert threaded.scores > 0 and all(f.done() for f in threaded.futures)


def failing_solve(fails):
    """``solve`` raising ``NonFiniteSystemError`` for the systems ``fails``
    picks."""
    def solve_or_fail(s, cfg):
        if fails(s):
            raise NonFiniteSystemError(s.n_params)
        return solve(s, cfg)

    return solve_or_fail


def test_a_handed_score_that_raises_is_raised_where_the_inline_score_would_be(monkeypatch, threaded):
    """Every score the thread runs fails; the walk comes to one of them and
    raises as the inline walk does when every score fails."""
    with monkeypatch.context() as patch:
        no_thread_jobs(patch)
        inline = adaptive_run(text=NOISELESS10)
        patch.setattr(avqds.engine, "solve", failing_solve(lambda s: s.n_params > inline.ansatz.n_params))
        with pytest.raises(NonFiniteSystemError) as want:
            inline.step()
    monkeypatch.setattr(avqds.engine, "solve",
                        failing_solve(lambda s: threading.current_thread().name.startswith("avqds-flush")))
    run = adaptive_run(text=NOISELESS10)
    with pytest.raises(NonFiniteSystemError) as got:
        run.step()
    assert (got.value.phase, got.value.t, got.value.step) == ("candidate score", 0.0, 0)
    assert str(got.value) == str(want.value)
    assert threaded.scores > 0 and all(f.done() for f in threaded.futures)


@pytest.mark.parametrize("comes_to_it", [False, True])
def test_a_handed_score_that_raises_is_raised_only_if_the_walk_comes_to_it(comes_to_it):
    scores = {0: 2.5, 2: 0.5}
    yielded = []

    def score(i):
        if i not in scores:
            raise NonFiniteSystemError(1)
        return scores[i]

    with ThreadPoolExecutor(1) as pool:
        # candidate 1 is handed to the pool while 0 is scored; once 0 is
        # taken, 1 is skipped unless the walk is to come to it
        ranking = CandidateRanking({0: 3.0, 1: 2.0, 2: 1.0}, score, pool.submit)
        walk = ranking.ranked(0.0, skip=lambda i: i == 1 and bool(yielded) and not comes_to_it)
        try:
            if comes_to_it:
                with pytest.raises(NonFiniteSystemError):
                    for pick in walk:
                        yielded.append(pick)
            else:
                yielded.extend(walk)
        finally:
            ranking.wait()
        assert yielded == ([(0, 2.5)] if comes_to_it else [(0, 2.5), (2, 0.5)])


def test_a_ranking_with_submit_yields_the_sequence_of_one_without(rng):
    with ThreadPoolExecutor(1) as pool:
        for scores, bounds, cut in planted_tie_cases(rng):
            inline = CandidateRanking(bounds, scores.__getitem__)
            handed = CandidateRanking(bounds, scores.__getitem__, pool.submit)
            assert list(handed.ranked(cut, skip=lambda i: False)) == list(inline.ranked(cut, skip=lambda i: False))
            handed.wait()


def test_an_evolve_error_on_the_thread_leaves_the_step_unchanged(monkeypatch, threaded):
    raised_on = []

    def fail(self, tau):
        raised_on.append(threading.current_thread().name)
        raise EvolveError(f"norm went from 1.0 to nan over t={tau:g}")

    run = adaptive_run()
    run.step()  # the oracle is at t = 0 already and does not step
    monkeypatch.setattr(ExactPropagator, "_advance", fail)
    with pytest.raises(EvolveError) as err:
        run.step()
    assert type(err.value) is EvolveError
    assert str(err.value) == f"norm went from 1.0 to nan over t={run.t:g}"
    assert len(raised_on) == 1 and raised_on[0].startswith("avqds-flush")  # raised once, on the thread
    assert threaded.oracle_calls == 2 and all(f.done() for f in threaded.futures)


@pytest.mark.parametrize("env, pinned", [
    ({}, False),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
    ({"GOTO_NUM_THREADS": " 1 ", "MKL_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "1"}, False),  # MKL would take every core
    ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, False),
    ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, False),
    ({"OMP_NUM_THREADS": "2"}, False),
])
def test_blas_on_one_thread_follows_the_order_the_blas_libraries_read(monkeypatch, env, pinned):
    monkeypatch.setattr(avqds.ansatz.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    blas_threads(monkeypatch, **env)
    assert _thread_jobs() == ThreadJobs(tiles=True, beside=pinned)


@pytest.mark.parametrize("cores, pool_worker, env, jobs", [
    ({0}, False, {"OMP_NUM_THREADS": "1"}, ThreadJobs(False, False)),
    (None, False, {"OMP_NUM_THREADS": "1"}, ThreadJobs(False, False)),  # no sched_getaffinity
    ({0, 1}, True, {"OMP_NUM_THREADS": "1"}, ThreadJobs(False, False)),
    ({0, 1}, False, {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, ThreadJobs(True, False)),
    ({0, 1, 2, 3}, False, {}, ThreadJobs(True, False)),
    ({0, 1}, False, {"OMP_NUM_THREADS": "1"}, ThreadJobs(True, True)),
], ids=["one core", "no affinity", "pool worker", "blas on every core", "four cores unpinned", "pinned"])
def test_thread_jobs_follow_the_cores_the_process_and_blas(monkeypatch, cores, pool_worker, env, jobs):
    if cores is None:
        monkeypatch.delattr(avqds.ansatz.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(avqds.ansatz.os, "sched_getaffinity", lambda pid: cores, raising=False)
    parent = multiprocessing.current_process() if pool_worker else None
    monkeypatch.setattr(avqds.ansatz.multiprocessing, "parent_process", lambda: parent)
    blas_threads(monkeypatch, **env)
    assert _thread_jobs() == jobs


@pytest.mark.parametrize("jobs", [ThreadJobs(False, False), ThreadJobs(True, False), ThreadJobs(True, True)],
                         ids=["none", "tiles", "all"])
def test_the_workspace_and_the_run_follow_the_policy(rng, monkeypatch, threaded, jobs):
    """Tile flushes follow ``tiles``; the stepped oracle and method 3's
    scores follow ``beside``, while the dense oracle and methods 1 and 2
    stay inline whatever it answers."""
    thread_jobs(monkeypatch, jobs)
    a, h = hva("tfim", 10, 6, rng)
    assemble_frame(a, h)
    ws = a.circuit.workspace(_split_point(a))
    sweeps = flushes(ws.prefix) + flushes(ws.inverse)
    assert sweeps and all((worker_calls is not None) == jobs.tiles for _, worker_calls, _ in sweeps)
    assert (threaded.submitted > 0) == jobs.tiles
    assert adaptive_run(_DENSE_MAX_QUBITS)._oracle_submit is None
    assert adaptive_run(method=1)._score_submit is None
    run = adaptive_run()
    assert (run._oracle_submit is not None) == (run._score_submit is not None) == jobs.beside
    run.step()
    run.step()
    assert threaded.oracle_calls == (2 if jobs.beside else 0)
    assert (threaded.scores > 0) == jobs.beside


def _oracle_in_a_pool_worker():
    """Two steps of the 10-qubit adaptive run in a process that
    multiprocessing started, the policy's answer there, whether its oracle
    could use the thread, and the flush threads it left."""
    run = adaptive_run()
    run.step()
    run.step()
    return _thread_jobs(), run._oracle_submit is not None, [t.name for t in flush_threads()]


def test_a_pool_worker_submits_no_oracle_call(monkeypatch):
    blas_threads(monkeypatch, OMP_NUM_THREADS="1")  # the spawned worker inherits it
    assert (adaptive_run()._oracle_submit is not None) == _thread_jobs().beside
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(_oracle_in_a_pool_worker).result(timeout=120) == (ThreadJobs(False, False), False, [])


def _flush_threads_in_a_pool_worker(cfg):
    """One trajectory in a process that multiprocessing started, as a
    ``run.workers > 1`` pool worker runs it, and the flush threads it left."""
    run_single(cfg, 0)
    return [t.name for t in flush_threads()], _thread_jobs()


def test_pool_workers_start_no_flush_thread_and_write_the_same_csvs(tmp_path, threaded):
    cfg = parse_config(HVA10 + "run.runs = 2\n")
    run_single(cfg, 0)
    assert threaded.submitted > 0  # the config flushes tiles on the thread outside a pool
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(_flush_threads_in_a_pool_worker, cfg).result(timeout=120) == ([], ThreadJobs(False, False))
    sequential, parallel = tmp_path / "w1", tmp_path / "w2"
    run_experiment(cfg, sequential)
    run_experiment(parse_config(HVA10 + "run.runs = 2\nrun.workers = 2\n"), parallel)
    for name in ("run_000.csv", "run_001.csv", "aggregate.csv"):
        a, b = ((d / name).read_bytes().splitlines() for d in (sequential, parallel))
        # identical apart from the run.workers line embedded in the header
        assert [l for l in a if b"workers" not in l] == [l for l in b if b"workers" not in l]


def test_at_most_one_flush_thread_is_alive_after_runs(tmp_path, threaded):
    before = {t.ident for t in threading.enumerate()}
    for k, text in enumerate((HVA10, ADAPTIVE10, HVA10)):
        run_experiment(parse_config(text), tmp_path / str(k))
        assert threaded.submitted > 0
        started = [t for t in threading.enumerate() if t.ident not in before]
        assert len(flush_threads()) <= 1 and set(started) <= set(flush_threads())
    assert threaded.oracle_calls > 0
