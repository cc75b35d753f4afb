"""Strong simulation of linear-optics circuits on superpositions of pure
Gaussian states, with exact relative-phase tracking.

Each branch of a superposition is a pure Gaussian state described by its
covariance matrix, coherent center label, and reference overlap against
the coherent state at its own center; the reference overlap carries the
branch's global phase through gates and measurements.  Outcome densities
come either from the full Gram matrix of branch overlaps (exact, O(χ²)) or
from a randomized coherent-probe estimator (O(χ) per sample) with an
explicit accuracy guarantee.
"""

from .core import (
    Beamsplitter,
    BranchPathError,
    Displacement,
    GaussianDescription,
    Gate,
    NumericError,
    PhaseRecoveryError,
    PhaseShift,
    Squeeze,
    ValidationError,
    ValidityReport,
    coherent_description,
    energy_of_gaussian,
    gate_symplectic,
    hat_d,
    hat_d_inv,
    random_pure_description,
    reference_overlap_magnitude,
    symplectic_form,
    vacuum_description,
    validate_description,
)
from .overlaps import (
    branched_sqrt_det,
    coherent_overlap,
    gram,
    overlap,
    overlaptriple,
    pair_fidelity,
    triple_overlap_product,
)
from .evolution import (
    apply_beamsplitter,
    apply_displacement,
    apply_phaseshift,
    apply_squeeze,
    apply_unitary,
)
from .measurement import heterodyne_density, postmeasure
from .superposition import (
    FastNormParameters,
    GaussianSuperposition,
    TypicalParameters,
    circuit_energy_bound,
    exact_norm,
    fast_norm,
    fast_norm_parameters,
    measureprob_approx,
    measureprob_exact,
    post_measurement_superposition,
    superposition_energy_exact,
    typical_parameters,
)
from .states import appendix_d_state, cat_state, gkp_comb
from .circuit import (
    CircuitSpec,
    MeasureSpec,
    SimulationResult,
    emit_circuit,
    evolve,
    parse_circuit,
    simulate_approx,
    simulate_exact,
)

__all__ = [
    "Beamsplitter",
    "BranchPathError",
    "CircuitSpec",
    "Displacement",
    "FastNormParameters",
    "GaussianDescription",
    "GaussianSuperposition",
    "Gate",
    "MeasureSpec",
    "NumericError",
    "PhaseRecoveryError",
    "PhaseShift",
    "SimulationResult",
    "Squeeze",
    "TypicalParameters",
    "ValidationError",
    "ValidityReport",
    "appendix_d_state",
    "apply_beamsplitter",
    "apply_displacement",
    "apply_phaseshift",
    "apply_squeeze",
    "apply_unitary",
    "branched_sqrt_det",
    "cat_state",
    "circuit_energy_bound",
    "coherent_description",
    "coherent_overlap",
    "emit_circuit",
    "energy_of_gaussian",
    "evolve",
    "exact_norm",
    "fast_norm",
    "fast_norm_parameters",
    "gate_symplectic",
    "gkp_comb",
    "gram",
    "hat_d",
    "hat_d_inv",
    "heterodyne_density",
    "measureprob_approx",
    "measureprob_exact",
    "overlap",
    "overlaptriple",
    "pair_fidelity",
    "parse_circuit",
    "post_measurement_superposition",
    "postmeasure",
    "random_pure_description",
    "reference_overlap_magnitude",
    "simulate_approx",
    "simulate_exact",
    "superposition_energy_exact",
    "symplectic_form",
    "triple_overlap_product",
    "typical_parameters",
    "vacuum_description",
    "validate_description",
]

__version__ = "0.1.0"
