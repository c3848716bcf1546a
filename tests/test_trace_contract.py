"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` rebinds module and class attributes by name and
reads the shape of what ``tangent_states`` returns. A refactor that renames
one of those attributes or changes that return type breaks ``--trace 1``;
so does an assembly that sweeps rows without going through
``mclachlan.tangent_states``, which leaves ``ansatz.tangent_sweep_s`` and
``ansatz.row_rotations`` at 0; and so does a traced boundary that the run
stops calling. These tests make it fail here first. The tracer is read as
source and executed into a fresh module, so nothing is written next to it.
"""

import types
from pathlib import Path

import numpy as np
import pytest

from avqds.ansatz import Ansatz
from avqds.baselines import build_hva
from avqds.config import ExperimentConfig
from avqds.engine import GrowthConfig, StepConfig
from avqds.mclachlan import _split_point
from avqds.models import build_model, default_model, model_sublayers
from avqds.noise import NoiseConfig
from avqds.pauli import PauliString
from avqds.solvers import SolverConfig
from avqds.statevector import StateVector

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_attribute_exists():
    tracing = load_tracing()
    table = tracing.layer_table() + tracing.step_table()
    for owner, attr, _, _ in table:
        assert callable(getattr(owner, attr, None)), (owner, attr)


def test_traced_tangent_sweep_returns_row_block():
    tracing = load_tracing()
    gens = (PauliString.from_label("XZI"), PauliString.from_label("IYY"))
    a = Ansatz(StateVector.basis_state(3), gens, [0.3, -0.8])
    result = tracing.mclachlan.tangent_states(a)
    assert isinstance(result, np.ndarray)
    assert result.shape == (a.n_params, 1 << a.n_qubits)
    assert tracing._tangent_note((a,), result) == [a.n_params, a.n_qubits]


def test_traced_split_assembly_sweeps_every_row():
    """Both halves of a split assembly are traced sweeps whose row notes sum
    to n_params, and the pass over the suffix is a traced ``prepare``."""
    tracing = load_tracing()
    spec = default_model("tfim", 8)
    _, h, psi0 = build_model(spec)
    hva = build_hva(h, psi0, 4, model_sublayers(spec))
    a = hva.with_angles(np.linspace(-1.0, 1.0, hva.n_params))
    assert _split_point(a) < a.n_params
    with tracing.Tracer(tracing.layer_table()) as tracer:
        tracing.engine.assemble_frame(a, h)
    sweeps = tracer.of("ansatz.tangent_sweep")
    assert len(sweeps) == 2
    assert sum(span[4][0] for span in sweeps) == a.n_params
    assert len(tracer.of("ansatz.prepare")) == 1


NOISY_TFIM4 = ExperimentConfig(
    model=default_model("tfim", 4),
    pool="hamiltonian",
    growth=GrowthConfig(method=3, max_depth=30),
    step=StepConfig(t_final=1.0),
    solver=SolverConfig("truncation", epsilon=1e-3),
    noise_enabled=True,
    noise=NoiseConfig(n_shots=1e4, d_c=2),
)
NOISY_HVA4_BATCH = ExperimentConfig(
    model=default_model("tfim", 4),
    algorithm="hva",
    step=StepConfig(dt_fixed=0.005, t_final=0.1),
    solver=SolverConfig("truncation", epsilon=1e-3),
    noise_enabled=True,
    noise=NoiseConfig(n_shots=1e4, d_c=0),
    runs=2,
)


@pytest.mark.parametrize("cfg, unreached", [
    (NOISY_TFIM4, set()),
    (NOISY_HVA4_BATCH, {"engine.grow", "engine.score", "mclachlan.augment"}),
], ids=["adaptive", "fixed_ansatz"])
def test_every_traced_boundary_is_reached(tmp_path, cfg, unreached):
    """A run of each variational arm opens a span under every name of
    ``layer_table()`` that its arm calls: a noisy adaptive run all of them,
    a noisy fixed-ansatz batch all but the growth boundaries."""
    tracing = load_tracing()
    table = tracing.layer_table()
    with tracing.Tracer(table) as tracer:
        tracing.experiment.run_experiment(cfg, tmp_path)
    names = {name for _, _, name, _ in table}
    assert {span[0] for span in tracer.spans} == names - unreached
