"""Effective Heisenberg dynamics of moments for quadratic fermionic
Hamiltonians: averaging projection onto resonant blocks of the free
dynamics, time-convolutionless perturbative generators, an exact
Fock-space oracle, and bosonic stability diagnostics.
"""

from .boson import (
    BosonHamiltonian,
    StabilityReport,
    divergence_demo,
    stability_check,
    symplectic_matrix,
    validate_boson,
)
from .dynamics import (
    PropagatorSeries,
    TimeGrid,
    compare,
    exact_series,
    integrate_time_local,
    order_estimate,
)
from .fermion import (
    FermionHamiltonian,
    SplitHamiltonian,
    diagonal_modes,
    exchange_matrix,
    heisenberg_matrix,
    hopping,
    moment_generator,
    tilde_conjugate,
    validate_fermion,
)
from .fock import (
    FockRep,
    averaged_unitary_moments,
    check_heisenberg_reduction,
    jordan_wigner,
    project_superoperator,
    quadratize,
)
from .linalg import (
    HermitianEigenDecomposition,
    hermitian_eigendecompose,
    kron_sum,
    matrix_exponential,
)
from .perturbation import (
    TimeLocalGenerator,
    general_kappa,
    kappa12,
    mu1,
    mu2_closed,
    mu_k_quadrature,
)
from .projector import (
    ResonancePartition,
    effective_propagator,
    numeric_time_average,
    project,
    resonance_partition,
)

__version__ = "0.1.0"
