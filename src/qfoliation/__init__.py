"""Quantum dynamics on Minkowski hyperplane foliations.

Evolves finite-dimensional quantum states along two directions of a
hyperplane family: deterministic or stochastically unraveled open-system
evolution in the offset, and unitary boost transport in the normal. Ships
a two-observer scenario driver that quantifies when the combination breaks
observer consistency, plus a CLI emitting plot-ready reports.
"""

from .dynamics import (
    GeneratorSet,
    TrajectoryConfig,
    boost_transport,
    decohering_coupling,
    ensemble_density,
    lindblad_exact_twolevel,
    lindblad_propagate,
    liouvillian,
    qsd_trajectory,
)
from .foliation import (
    FourVector,
    Hyperplane,
    coincidence_event,
    coincidence_offset,
    frame_normal,
)
from .linalg import (
    density_from_state,
    expectation,
    expm_generator,
    normalize_state,
    trace_distance,
    validate_density,
    validate_state,
)
from .scenarios import (
    ConsistencyReport,
    CounterexampleParams,
    CounterexampleReport,
    QsdSettings,
    check_unitary_consistency,
    dissipative_consistency,
    initial_state,
    initial_state_vector,
    run_counterexample,
    spin_observable,
    sweep_velocity,
)

__version__ = "0.1.0"

__all__ = [
    "GeneratorSet",
    "TrajectoryConfig",
    "boost_transport",
    "decohering_coupling",
    "ensemble_density",
    "lindblad_exact_twolevel",
    "lindblad_propagate",
    "liouvillian",
    "qsd_trajectory",
    "FourVector",
    "Hyperplane",
    "coincidence_event",
    "coincidence_offset",
    "frame_normal",
    "density_from_state",
    "expectation",
    "expm_generator",
    "normalize_state",
    "trace_distance",
    "validate_density",
    "validate_state",
    "ConsistencyReport",
    "CounterexampleParams",
    "CounterexampleReport",
    "QsdSettings",
    "check_unitary_consistency",
    "dissipative_consistency",
    "initial_state",
    "initial_state_vector",
    "run_counterexample",
    "spin_observable",
    "sweep_velocity",
]
