"""Entanglement dynamics of a double Jaynes-Cummings system.

Two identical (or deliberately different) atom-cavity pairs, each cavity
leaking into its own Lorentzian reservoir, evolve under a time-local
master equation that is solvable entry by entry in the dressed basis.
The package provides the closed-form propagation, reductions to all six
bipartite subsystems, Wootters concurrence, the quasi-steady entangled
states, and brute-force numerical validators for every closed form.
"""

from .entanglement import (
    STEADY_PURITY_THRESHOLD,
    concurrence,
    concurrence_x_state,
    steady_concurrence_nonlocal,
    steady_pair_local,
    steady_pair_nonlocal,
)
from .evolution import propagate_pair, propagate_pairs
from .integrate import (
    IntegratorConfig,
    integrate_pair,
    integrate_single,
    rate_from_spectral_density,
)
from .propagator import (
    JcmParams,
    coefficients,
    decay_rate_minus,
    decay_rate_plus,
    integrated_rate_minus,
    integrated_rate_plus,
)
from .scenarios import (
    ScenarioConfig,
    evolve_concurrences,
    preset_config,
    transient_entanglement_threshold,
    validation_report,
)
from .states import ReductionTarget, initial_state, reduce, reduce_all, reduce_stack

__version__ = "0.1.0"

__all__ = [
    "JcmParams",
    "coefficients",
    "decay_rate_minus",
    "decay_rate_plus",
    "integrated_rate_minus",
    "integrated_rate_plus",
    "propagate_pair",
    "propagate_pairs",
    "initial_state",
    "reduce",
    "reduce_all",
    "reduce_stack",
    "ReductionTarget",
    "concurrence",
    "concurrence_x_state",
    "steady_pair_local",
    "steady_pair_nonlocal",
    "steady_concurrence_nonlocal",
    "STEADY_PURITY_THRESHOLD",
    "IntegratorConfig",
    "integrate_single",
    "integrate_pair",
    "rate_from_spectral_density",
    "ScenarioConfig",
    "preset_config",
    "evolve_concurrences",
    "validation_report",
    "transient_entanglement_threshold",
    "__version__",
]
