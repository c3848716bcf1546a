"""Adaptive variational quantum dynamics on a statevector simulator."""

from types import ModuleType as _ModuleType

from .ansatz import Ansatz, CircuitLayout, ansatz_layout, layout, prepare_state, tangent_states
from .baselines import TrotterResult, build_hva, trotter_run
from .engine import (
    AvqdsRun,
    GrowthConfig,
    StepConfig,
    TrajectoryRecord,
    grow_once,
    run_avqds,
    score_candidates,
)
from .mclachlan import McLachlanSystem, TangentFrame, assemble_frame, mclachlan_distance
from .models import (
    ModelSpec,
    OperatorPool,
    build_model,
    default_model,
    greedy_sublayers,
    hamiltonian_term_pool,
    model_pool,
    model_sublayers,
    nearest_neighbour_pool,
)
from .noise import NoiseConfig, noisy_system, shot_sigma
from .pauli import PauliString, WeightedPauliSum
from .solvers import NonFiniteSystemError, SolverConfig, solve
from .statevector import (
    EvolveError,
    ExactPropagator,
    StateVector,
    apply_hamiltonian,
    apply_pauli,
    apply_rotation,
    exact_evolve,
    expectation,
    fidelity,
    inner,
    variance,
)

__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
