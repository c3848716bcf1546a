"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` rebinds module and class attributes by name and
reads the shape of what ``tangent_states`` returns. A refactor that renames
one of those attributes or changes that return type breaks ``--trace 1``;
these tests make it fail here first. The tracer is read as source and
executed into a fresh module, so nothing is written next to it.
"""

import types
from pathlib import Path

import numpy as np

from avqds.ansatz import Ansatz
from avqds.pauli import PauliString
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
