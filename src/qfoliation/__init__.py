"""Quantum dynamics on Minkowski hyperplane foliations.

Evolves finite-dimensional quantum states along two directions of a
hyperplane family: deterministic or stochastically unraveled open-system
evolution in the offset, and unitary boost transport in the normal. Ships
a two-observer scenario driver that quantifies when the combination breaks
observer consistency, plus a CLI emitting plot-ready reports. Each public
name loads its submodule on first use, so `import qfoliation` loads no numpy.
"""

import sys

__version__ = "0.1.0"

# each public name, in `__all__` order, and the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("dynamics", "GeneratorSet TrajectoryConfig boost_transport decohering_coupling"
                 " ensemble_density lindblad_exact_twolevel lindblad_propagate liouvillian"
                 " qsd_trajectory"),
    ("foliation", "FourVector Hyperplane coincidence_event coincidence_offset frame_normal"),
    ("linalg", "density_from_state expectation expm_generator normalize_state trace_distance"
               " validate_density validate_state"),
    ("scenarios", "ConsistencyReport CounterexampleParams CounterexampleReport QsdSettings"
                  " run_consistency initial_state initial_state_vector run_counterexample"
                  " spin_observable sweep_velocity"),
) for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """A public name or a library submodule, imported on first use. Any other
    name is missing, so that `from qfoliation import cli` imports the module."""
    module = _EXPORTS.get(name, name)
    if module not in ("dynamics", "errors", "foliation", "linalg", "rng", "scenarios"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # the import statement's path, which -X importtime lists
    submodule = sys.modules[f"{__name__}.{module}"]
    return submodule if module == name else getattr(submodule, name)
