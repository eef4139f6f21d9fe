"""Finite-dimensional simulator of unitary premeasurement chains.

Builds measurement unitaries from the calibration condition, evolves
von Neumann chains, decomposes final states into branches, and computes
relative/conditional states and ensemble updates, with the defining
equivalences exposed as checkable conditions.
"""

from .branches import Branch, BranchDecomposition
from .chains import (
    EnsembleUpdateResult,
    MonteCarloUpdate,
    UpdatedMember,
    WeightedEnsemble,
    conditional_state,
    ensemble_update,
    extend_chain,
    improper_mixture,
    monte_carlo_update,
    offdiagonal_block_norm,
    proper_mixture,
    redecompose,
    relative_state,
    run_two_link_chain,
    tripartite_conditional_consistency,
    world_branches,
)
from .errors import (
    DegenerateLayoutError,
    DimensionMismatchError,
    DressingError,
    InvalidDecompositionError,
    LayoutConflictError,
    NonOrthonormalBasisError,
    NotAProjectorError,
    ObservableMismatchError,
    UndefinedConditionalError,
    ZeroSampleError,
)
from .hilbert import (
    DensityOperator,
    StateVector,
    SubsystemBasis,
    SubsystemLayout,
    apply_local,
    basis_state,
    complete_orthonormal,
    expand_in_basis,
    layout,
    partial_scalar_product,
    partial_trace,
    purity,
    random_density,
    random_state,
    random_unitary,
    tensor,
    trace_distance,
)
from .observables import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ComplementBranch,
    DecompositionOfIdentity,
    SpectralBranch,
    SpectralObservable,
    observable_from_matrix,
)
from .premeasurement import (
    ConditionReport,
    Premeasurement,
    branch_decomposition,
    build_exact,
    build_ideal,
    check_conditions,
    complete_unitary,
    evolve,
    luders_state,
    random_exact,
    random_ideal,
    random_observable,
    random_range_unitary,
)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"
