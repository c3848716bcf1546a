import math

import pytest

from avqds.cli import main
from avqds.config import parse_config, serialize_config
from avqds.experiment import PRESETS, preset_runs, run_single
from avqds.models import default_model
from avqds.solvers import METHODS
from conftest import fresh_interpreter

TINY_CONFIG = """
model.kind = tfim
model.n_qubits = 4
model.h_x = -2.0
run.seed = 11
step.t_final = 0.05
step.dtheta_max = 0.01
"""


def write_cfg(tmp_path, text=TINY_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- validate ---------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", str(write_cfg(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert "model.kind = tfim" in out


def test_validate_names_offending_key(tmp_path, capsys):
    path = write_cfg(tmp_path, "model.kind = tfim\nmodel.n_qubits = banana\n")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error key=model.n_qubits message=invalid literal for int() with base 10: 'banana'\n"


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/x.cfg"]) == 2
    assert "error key=config" in capsys.readouterr().err


ODD_CONFIG = TINY_CONFIG.replace("model.n_qubits = 4", "model.n_qubits = 5")


def odd_chain_error(algorithm):
    return (f"error key=model.n_qubits message=run.algorithm = {algorithm} groups terms in brick-wall layers, "
            "which need an even chain, got 5\n")


@pytest.mark.parametrize("algorithm", ["hva", "trotter"])
def test_odd_chain_brick_wall_algorithms_fail_on_one_line(tmp_path, capsys, algorithm):
    # HVA and Trotter group terms in brick-wall layers, which an odd chain lacks
    path = write_cfg(tmp_path, ODD_CONFIG + f"run.algorithm = {algorithm}\n")
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == odd_chain_error(algorithm)
    assert not (tmp_path / "out").exists()


def test_odd_chain_avqds_validates(tmp_path):
    assert main(["validate", str(write_cfg(tmp_path, ODD_CONFIG))]) == 0


@pytest.mark.parametrize("key, value", [
    ("model.j", "nan"),
    ("model.h_x", "inf"),
    ("model.h_z", "-inf"),
    ("step.dtheta_max", "inf"),
    ("step.dt_fixed", "inf"),
    ("step.t_final", "inf"),
    ("trotter.dt", "inf"),
    ("solver.epsilon", "inf"),
    ("growth.l2_cut", "inf"),
    ("noise.truncate_sigmas", "inf"),
    ("noise.n_shots", "nan"),
    ("noise.n_shots", "-inf"),
])
def test_non_finite_values_fail_naming_their_key(tmp_path, capsys, key, value):
    """Before the check, a NaN coupling raised from the exact oracle's
    eigensolver, t_final = inf never returned, dtheta_max or trotter.dt
    = inf wrote an inf step or NaN rows and exited 0, epsilon = inf zeroed
    every velocity and l2_cut = inf stopped all growth, so the circuit never
    grew, and truncate_sigmas = inf made inf·0 = NaN half-widths wherever a
    shot sigma is 0, so a noisy run raised at its first step."""
    lines = [line for line in TINY_CONFIG.splitlines() if not line.startswith(key)]
    path = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error key={key} message=")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, value", [("inf", math.inf), ("Infinity", math.inf), ("INF", math.inf), ("1e4", 1e4)])
def test_shot_count_spellings_round_trip(text, value):
    """``noise.n_shots`` parses with ``float``, which takes every spelling
    of infinity; nan and -inf are refused by ``NoiseConfig``."""
    cfg = parse_config(f"noise.n_shots = {text}\n")
    assert cfg.noise.n_shots == value
    assert parse_config(serialize_config(cfg)) == cfg


def test_negative_seed_fails_naming_its_key(tmp_path, capsys):
    """``validate`` accepted run.seed = -1, and ``run`` then failed inside
    ``np.random.default_rng`` with numpy's traceback."""
    path = write_cfg(tmp_path, TINY_CONFIG.replace("run.seed = 11", "run.seed = -1"))
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error key=run.seed message=")
    assert not (tmp_path / "out").exists()


NOISY_TROTTER_ERROR = ("error key=noise.enabled message=run.algorithm = trotter applies its product formula to the "
                       "exact state and draws no shot noise; set noise.enabled = false\n")


def test_noisy_trotter_fails_naming_noise_enabled(tmp_path, capsys):
    """``validate`` exited 0, and ``run`` wrote a noiseless product-formula
    CSV whose header said noise.enabled = true."""
    path = write_cfg(tmp_path, TINY_CONFIG + "run.algorithm = trotter\nnoise.enabled = true\nnoise.n_shots = 100\n")
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == NOISY_TROTTER_ERROR
    assert not (tmp_path / "out").exists()


def test_noisy_preset_with_trotter_fails_naming_noise_enabled(tmp_path, capsys):
    """``--algorithm trotter`` on the hybrid-noise preset dropped the noise."""
    out = tmp_path / "hybrid"
    argv = ["preset", "hybrid-noise", "--nq", "4", "--t-final", "0.02", "--algorithm", "trotter", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == NOISY_TROTTER_ERROR
    assert not out.exists()


def test_noiseless_trotter_validates(tmp_path):
    path = write_cfg(tmp_path, TINY_CONFIG + "run.algorithm = trotter\nnoise.enabled = false\nnoise.n_shots = 100\n")
    assert main(["validate", str(path)]) == 0


@pytest.mark.parametrize("key, lines", [
    ("growth.score_cut", ["model.kind = tfim", "growth.l2_cut = 1e-8", "growth.score_cut = 1e-6"]),
    ("model.h_z", ["model.kind = tfim", "model.h_z = 0.5"]),
    ("model.h_x", ["model.kind = hm", "model.h_x = 0.5"]),
    ("model.h_z", ["model.kind = hm", "model.h_z = 0.5"]),
], ids=["growth", "tfim", "hm-h_x", "hm-h_z"])
def test_cross_field_errors_name_their_key(tmp_path, capsys, key, lines):
    """Each of these printed the section, ``growth.*`` or ``model.*``, as
    its key."""
    kept = [line for line in TINY_CONFIG.splitlines() if not line.startswith(("model.kind", "model.h_x"))]
    path = write_cfg(tmp_path, "\n".join(kept + lines) + "\n")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error key={key} message={key} must be ")


# --- run ----------------------------------------------------------------------


def test_run_writes_csv_and_is_deterministic(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "a"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    first = (out / "run_000.csv").read_bytes()
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "run_000.csv").read_bytes() == first


def test_model_flag_resets_couplings_only_when_it_changes_the_files_kind(tmp_path):
    """A file that sets ``model.h_x`` but leaves ``model.kind`` at its
    default is a tfim file: ``--model tfim`` keeps its h_x, while ``--model
    mfim`` gives mfim's couplings."""
    text = TINY_CONFIG.replace("model.kind = tfim\n", "").replace("model.h_x = -2.0", "model.h_x = -1.0")
    path = write_cfg(tmp_path, text)
    for kind, couplings in (("tfim", (-1.0, 0.0)), ("mfim", (-2.0, 0.5))):
        out = tmp_path / kind
        assert main(["run", str(path), "--model", kind, "--out", str(out)]) == 0
        header = (out / "run_000.csv").read_text()
        assert f"# model.kind = {kind}" in header
        assert "# model.h_x = {!r}\n# model.h_z = {!r}\n".format(*couplings) in header


def test_run_override_changes_seed_header(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "--out", str(out), "--seed", "99"]) == 0
    text = (out / "run_000.csv").read_text()
    assert "# seed = 99" in text


def test_csv_structure(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "o"
    main(["run", str(cfg_path), "--out", str(out)])
    lines = (out / "run_000.csv").read_text().splitlines()
    assert lines[0] == "# avqds trajectory v1"
    assert lines[1] == "# seed = 11"
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "t,n_params,l2,depth,cnots,dt,energy,infidelity"
    rows = [l.split(",") for l in lines[header_idx + 1 :]]
    times = [float(r[0]) for r in rows]
    assert times == sorted(times)
    assert times[0] == 0.0


def test_multi_run_aggregate(tmp_path):
    text = TINY_CONFIG + "run.runs = 3\nnoise.enabled = true\nnoise.n_shots = 1000\n"
    cfg_path = write_cfg(tmp_path, text)
    out = tmp_path / "agg"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    for i in range(3):
        assert (out / f"run_{i:03d}.csv").exists()
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[0].startswith("t,n_runs,n_params_mean,n_params_std")
    assert all(row.split(",")[1] == "3" for row in agg[1:])


def test_seeds_differ_across_runs(tmp_path):
    text = TINY_CONFIG + "run.runs = 2\n"
    cfg_path = write_cfg(tmp_path, text)
    out = tmp_path / "seeds"
    main(["run", str(cfg_path), "--out", str(out)])
    assert "# seed = 11" in (out / "run_000.csv").read_text()
    assert "# seed = 12" in (out / "run_001.csv").read_text()


# --- algorithms through the harness ------------------------------------------


def test_run_single_trotter_records():
    cfg = parse_config(TINY_CONFIG + "run.algorithm = trotter\ntrotter.dt = 0.01\n")
    records = run_single(cfg, 0)
    assert len(records) == 6  # t = 0 .. 0.05
    assert records[0].depth == 0
    assert records[-1].depth == 5 * 3
    assert records[-1].cnot_count == 5 * 8
    assert all(r.dt == 0.01 for r in records)
    assert all(math.isnan(r.l2) for r in records)
    assert records[-1].infidelity < 1e-4


def test_run_single_hva_records():
    cfg = parse_config(TINY_CONFIG + "run.algorithm = hva\nhva.layers = 2\n")
    records = run_single(cfg, 0)
    assert all(r.n_params == 16 for r in records)
    assert records[0].infidelity == pytest.approx(0.0, abs=1e-12)


# --- presets ------------------------------------------------------------------


def test_preset_list(capsys):
    assert main(["preset", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(PRESETS)


def test_unknown_preset(capsys):
    assert main(["preset", "not-a-preset"]) == 2
    assert "error key=preset" in capsys.readouterr().err


def test_preset_model_override_resets_kind_fields(tmp_path):
    # switching a tfim preset to the Heisenberg chain must drop the field
    # terms instead of carrying the serialized h_x over
    code = main(
        [
            "preset",
            "benchmark",
            "--model",
            "hm",
            "--nq",
            "4",
            "--t-final",
            "0.02",
            "--out",
            str(tmp_path / "hm"),
        ]
    )
    assert code == 0
    header = (tmp_path / "hm" / "avqds-t" / "run_000.csv").read_text()
    assert "# model.kind = hm" in header
    assert "# model.h_x = 0.0" in header


# the README's per-model baselines: Trotter step and HVA layers
BASELINES = {"tfim": (0.04, 10), "mfim": (0.03, 30), "hm": (0.01, 20)}


@pytest.mark.parametrize("kind", list(BASELINES))
def test_benchmark_preset_builds_the_baselines_of_its_kind(kind):
    runs = dict(preset_runs("benchmark", kind, lambda cfg: cfg))
    assert {cfg.model for cfg in runs.values()} == {default_model(kind, 8)}
    assert (runs["trotter"].trotter_dt, runs["hva"].hva_layers) == BASELINES[kind]


def test_preset_with_unknown_model_names_model_kind(tmp_path, capsys):
    assert main(["preset", "benchmark", "--model", "ising", "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err.startswith("error key=model.kind message=model.kind must be one of ")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("kind", ["mfim", "hm"])
def test_model_flag_selects_the_benchmark_baselines(tmp_path, kind):
    out = tmp_path / kind
    assert main(["preset", "benchmark", "--model", kind, "--nq", "4", "--t-final", "0.02", "--out", str(out)]) == 0
    dt, layers = BASELINES[kind]
    assert f"# trotter.dt = {dt}\n" in (out / "trotter" / "run_000.csv").read_text()
    assert f"# hva.layers = {layers}\n" in (out / "hva" / "run_000.csv").read_text()


def test_benchmark_preset_tiny(tmp_path, capsys):
    code = main(
        [
            "preset",
            "benchmark",
            "--nq",
            "4",
            "--t-final",
            "0.1",
            "--out",
            str(tmp_path / "bench"),
        ]
    )
    assert code == 0
    for label in ("avqds-m1", "avqds-t", "trotter", "hva"):
        assert (tmp_path / "bench" / label / "run_000.csv").exists()


def test_odd_chain_preset_writes_nothing(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["preset", "benchmark", "--nq", "5", "--t-final", "0.05", "--out", str(out)]) == 2
    assert capsys.readouterr().err == odd_chain_error("trotter")
    assert not out.exists()


def test_hybrid_noise_dc_override_runs_each_config_once_under_its_threshold(tmp_path, capsys):
    out = tmp_path / "hybrid"
    argv = ["preset", "hybrid-noise", "--nq", "4", "--t-final", "0.02", "--runs", "1", "--dc", "2", "--out", str(out)]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "avqds-t-dc2-ns1e4", "avqds-t-dc2-ns1e5", "hva-dc2-ns1e4", "hva-dc2-ns1e5",
    ]
    for run in out.iterdir():
        assert "# noise.d_c = 2" in (run / "run_000.csv").read_text()
    assert len(capsys.readouterr().out.splitlines()) == 4  # one path per run written


def run_dirs(out):
    """Each run directory under ``out`` and the header of its one CSV."""
    return {run.name: (run / "run_000.csv").read_text() for run in out.iterdir()}


@pytest.mark.parametrize("method, label", [(1, "avqds-m1"), (2, "avqds-m2"), (3, "avqds-t")])
def test_benchmark_method_override_runs_each_config_once_under_its_method(tmp_path, capsys, method, label):
    out = tmp_path / "bench"
    argv = ["preset", "benchmark", "--nq", "4", "--t-final", "0.05", "--method", str(method), "--out", str(out)]
    assert main(argv) == 0
    runs = run_dirs(out)
    assert sorted(runs) == sorted([label, "trotter", "hva"])
    assert f"# growth.method = {method}" in runs[label]
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_solver_comparison_solver_override_runs_once_under_its_solver(tmp_path, capsys):
    out = tmp_path / "solvers"
    argv = ["preset", "solver-comparison", "--nq", "4", "--t-final", "0.05", "--solver", "tikhonov", "--out", str(out)]
    assert main(argv) == 0
    runs = run_dirs(out)
    assert list(runs) == ["solver-tikhonov"] and "# solver.method = tikhonov" in runs["solver-tikhonov"]
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_an_override_that_gives_two_runs_one_label_writes_nothing(tmp_path, capsys):
    # truncation at epsilon 1e-3 and tikhonov at 1e-2 would both be "tikhonov"
    out = tmp_path / "noisy"
    argv = ["preset", "noisy-regularization", "--nq", "4", "--solver", "tikhonov", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error key=preset message=the overrides give two different runs")
    assert not out.exists()


# --- oracle -------------------------------------------------------------------


def test_oracle_dump(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(
        ["oracle", "--model", "tfim", "--nq", "4", "--t-final", "1.0", "--dt", "0.25", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,energy,return_probability"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 5
    energies = [float(r[1]) for r in rows]
    assert max(energies) - min(energies) < 1e-8  # energy conserved
    assert float(rows[0][2]) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--dt", "0"], "dt"),
        (["--dt", "-0.1"], "dt"),
        (["--dt", "nan"], "dt"),
        (["--t-final", "-1"], "t_final"),
        (["--t-final", "inf"], "t_final"),
        (["--dt", "1e-300"], "dt"),
    ],
    ids=["dt-zero", "dt-negative", "dt-nan", "t-final-negative", "t-final-inf", "dt-tiny"],
)
def test_oracle_rejects_bad_time_grid(tmp_path, capsys, flags, key):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--nq", "4", "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith(f"error key={key} message=")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--j", "nan"], ["--hx", "inf"], ["--model", "mfim", "--hz", "nan"]])
def test_oracle_rejects_non_finite_couplings(tmp_path, capsys, flags):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--nq", "4", "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith("error key=model message=model.")
    assert not out.exists()


def one_error_line(capsys, key):
    err = capsys.readouterr().err
    assert err.startswith(f"error key={key} message=") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_config_that_is_not_utf8_fails_on_one_line(tmp_path, capsys, command):
    path = tmp_path / "bad.cfg"
    path.write_bytes(TINY_CONFIG.encode() + b"\xff\n")
    assert main([command, str(path)]) == 2
    assert "is not UTF-8" in one_error_line(capsys, "config")


_CLI = r"""
import sys

from avqds.cli import main

sys.exit(main(sys.argv[1:]))
"""


def test_a_utf8_config_reads_and_runs_under_an_ascii_locale(tmp_path):
    # the C locale, neither coerced nor overridden by UTF-8 mode, decodes text as ASCII
    ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    path = tmp_path / "exp.cfg"
    path.write_bytes(f"# \u03b5 = 1e-6 is solver.epsilon\n{TINY_CONFIG}run.out = {tmp_path / 'out'}\n".encode())
    validated = fresh_interpreter(_CLI, "validate", path, **ascii_locale)
    assert validated.returncode == 0, validated.stderr
    assert "model.kind = tfim" in validated.stdout
    ran = fresh_interpreter(_CLI, "run", path, **ascii_locale)
    assert ran.returncode == 0, ran.stderr
    assert (tmp_path / "out" / "run_000.csv").exists()


def test_an_output_path_that_is_a_file_fails_on_one_line(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    path = write_cfg(tmp_path, TINY_CONFIG + f"run.out = {blocker}\n")
    runs = [
        (["run", str(path)], "run.out"),
        (["preset", "benchmark", "--nq", "4", "--t-final", "0.01", "--out", str(blocker)], "run.out"),
        (["oracle", "--nq", "4", "--t-final", "0.1", "--out", str(blocker / "x.csv")], "out"),
    ]
    for argv, key in runs:
        assert main(argv) == 2, argv
        one_error_line(capsys, key)
    assert blocker.read_text() == "" and sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "exp.cfg"]


def test_run_help_names_every_solver_method(capsys):
    with pytest.raises(SystemExit) as done:
        main(["run", "--help"])
    assert done.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())  # argparse wraps lines
    assert all(method in help_text for method in METHODS)
