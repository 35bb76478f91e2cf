"""Oracle cross-checks between the matrix-level reduction and the exact
Fock-space computation, packaged for both the test suite and the CLI
`verify` command.  Every check returns its worst residual; thresholds are
applied by the caller.  Every averaging check clusters at the run's
resonance tolerance.  ``resonance_frame`` is the checks' dense moment frame,
the d x d hI that ``perturbation.kappa12`` never builds.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .dynamics import TimeGrid, exact_series
from .errors import TooManyModes
from .fermion import (
    FermionHamiltonian,
    SplitHamiltonian,
    tilde_conjugate,
    validate_fermion,
)
from .fock import (
    MAX_SUPEROP_MODES,
    averaged_unitary_moments,
    check_heisenberg_reduction,
    jordan_wigner,
    project_superoperator,
    quadratize,
    unitary_conjugation_superoperator,
)
from .projector import (
    DEFAULT_RESONANCE_TOL,
    ResonancePartition,
    free_moment_partition,
    project_with,
    resonance_partition,
)

HEISENBERG_TIMES = (0.3, 1.0, 2.5)
STATIONARITY_PAIRS = ((0.2, 0.9), (1.3, 0.4))


def random_complex(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_valid_fermion(n: int, rng: np.random.Generator) -> FermionHamiltonian:
    """Random coefficient matrix made valid by antisymmetrize-then-tilde-project."""
    A = random_complex(2 * n, rng)
    A = (A - A.T) / 2
    A = (A - tilde_conjugate(A, n)) / 2
    return validate_fermion(A, n)


def heisenberg_reduction_residual(split: SplitHamiltonian, rng: np.random.Generator,
                                  samples: int = 5) -> float:
    """Heisenberg-matrix reduction against the Fock oracle, random valid H,
    each checked at all HEISENBERG_TIMES in one call."""
    rep = jordan_wigner(split.n)
    return max(
        (check_heisenberg_reduction(random_valid_fermion(split.n, rng), rep, HEISENBERG_TIMES)
         for _ in range(samples)),
        default=0.0,
    )


def _free_evolutions(part: ResonancePartition) -> np.ndarray:
    """The law checks' free evolutions exp(i t M) at t = 0.3 and 1.7, M the
    Hermitian generator that ``part`` partitions, read off the
    eigendecomposition it already holds: V diag(e^{i t lam}) V^dag."""
    phases = np.exp(1j * np.multiply.outer((0.3, 1.7), part.eigenvalues))
    return part.decomposition.from_eigenbasis(phases[:, :, None] * np.eye(phases.shape[1]))


def matrix_projector_law_residuals(
    split: SplitHamiltonian, m: int, rng: np.random.Generator,
    samples: int = 20, tol: float = DEFAULT_RESONANCE_TOL,
) -> dict:
    """Idempotency, commutation with free evolution, pulling, linearity, in
    the Kronecker-factored frame of the moment path
    (``free_moment_partition``).  Each sample projects the stack
    [PX, U_1 X, U_2 X, alpha X + beta Y, Y] in one call; stacking all
    samples would hold them all at once."""
    part = free_moment_partition(split, m, tol)
    dim = part.decomposition.dim
    res = {"idempotency": 0.0, "commutation": 0.0, "pulling": 0.0, "linearity": 0.0}
    Us = _free_evolutions(part)  # exp(-h0 t)
    alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
    for _ in range(samples):
        X = random_complex(dim, rng)
        Y = random_complex(dim, rng)
        PX = project_with(X, part)
        P = project_with(np.stack([PX, *(Us @ X), alpha * X + beta * Y, Y]), part)
        U_PX = Us @ PX
        for name, r in (
            ("idempotency", P[0] - PX),
            ("commutation", PX @ Us - U_PX),
            ("pulling", P[1:3] - U_PX),
            ("linearity", P[3] - alpha * PX - beta * P[4]),
        ):
            res[name] = max(res[name], linalg.max_abs(r))
    return res


def superoperator_law_residuals(
    split: SplitHamiltonian, rng: np.random.Generator, samples: int = 10,
    tol: float = DEFAULT_RESONANCE_TOL,
) -> dict:
    """Fock-level projection laws on random superoperators.  H0hat is
    partitioned once, at ``tol``, and U(t) = exp(i t H0hat) is read off that
    partition; each sample takes two projections, P(Phi) and then
    P([P Phi, F_1 Phi, F_2 Phi]) as one stack."""
    rep = jordan_wigner(split.n)
    H0hat = quadratize(split.base, rep)
    part = resonance_partition(H0hat, tol)
    d = rep.dim
    res = {"idempotency": 0.0, "commutation": 0.0, "pulling": 0.0}
    Fs = np.array([unitary_conjugation_superoperator(U) for U in _free_evolutions(part)])
    for _ in range(samples):
        Phi = random_complex(d * d, rng)
        PPhi = project_superoperator(Phi, part)
        P = project_superoperator(np.stack([PPhi, *(Fs @ Phi)]), part)
        F_PPhi = Fs @ PPhi
        for name, r in (
            ("idempotency", P[0] - PPhi),
            ("commutation", PPhi @ Fs - F_PPhi),
            ("pulling", P[1:] - F_PPhi),
        ):
            res[name] = max(res[name], linalg.max_abs(r))
    return res


def operator_products(rep, m: int) -> np.ndarray:
    """Stack of the Fock matrices of c_{j1} ... c_{jm} for every
    multi-index, kron order: each factor multiplies the whole stack at once."""
    products = rep.operator_stack
    for _ in range(m - 1):
        products = (products[:, None] @ rep.operator_stack).reshape(-1, rep.dim, rep.dim)
    return products


def moment_equivalence_residual(
    split: SplitHamiltonian, m: int, t: float, tol: float = DEFAULT_RESONANCE_TOL
) -> float:
    """Core equivalence: ``exact_series``'s averaged moment propagator applied
    to the operator tensor versus the Fock-oracle averaged conjugation."""
    # exact_series first: it refuses (Overflow) a Hamiltonian too large to
    # eigendecompose, before quadratize overflows on it
    W = exact_series(split, m, TimeGrid(t, 1), tol).value(-1)
    rep = jordan_wigner(split.n)
    Hhat = quadratize(split.total(), rep)
    H0hat = quadratize(split.base, rep)
    products = operator_products(rep, m)
    oracle = averaged_unitary_moments(Hhat, H0hat, products, t, tol)
    approx = np.tensordot(W, products, axes=1)
    return linalg.max_abs(oracle - approx)


def resonance_frame(
    split: SplitHamiltonian, m: int, tol: float = DEFAULT_RESONANCE_TOL
) -> tuple[ResonancePartition, np.ndarray]:
    """Resonance partition of the free moment generator M0, and the
    interaction moment generator hI = -i kron_sum(E HI, m) in M0's
    eigenbasis V0 = V1^{(x)m} (columns sorted): that is
    -i kron_sum(V1^dag E HI V1, m), rows and columns gathered in sort order."""
    partition = free_moment_partition(split, m, tol)
    frame = partition.decomposition
    G = frame.factor_to_eigenbasis(split.interaction.single_particle_generator())
    return partition, -1j * linalg.kron_sum(G, m)[np.ix_(frame.order, frame.order)]


def stationarity_residual(
    split: SplitHamiltonian, m: int, tol: float = DEFAULT_RESONANCE_TOL
) -> float:
    """P(hI(t2) hI(t1)) = P(hI hI(t1 - t2)) at every (t1, t2) of
    STATIONARITY_PAIRS."""
    partition, hI = resonance_frame(split, m, tol)

    def hI_at(t: float) -> np.ndarray:
        return hI * np.exp(-t * partition.delta)

    worst = 0.0
    for t1, t2 in STATIONARITY_PAIRS:
        lhs = partition.project_eig(hI_at(t2) @ hI_at(t1))
        rhs = partition.project_eig(hI @ hI_at(t1 - t2))
        worst = max(worst, linalg.max_abs(lhs - rhs))
    return worst


DEFAULT_THRESHOLDS = {
    "heisenberg_reduction": 1e-10,
    "matrix_laws": 1e-10,
    "superoperator_laws": 1e-10,
    "moment_equivalence": 1e-8,
    "stationarity": 1e-10,
}


def run_verification(split: SplitHamiltonian, m: int, seed: int = 0,
                     resonance_tol: float = DEFAULT_RESONANCE_TOL,
                     report_tol: float | None = None) -> dict:
    """Full oracle cross-check suite; returns per-check residuals and verdicts.
    Each check passes at its DEFAULT_THRESHOLDS entry, or at ``report_tol``
    for every check when that is given."""
    if split.n > MAX_SUPEROP_MODES:
        raise TooManyModes(f"verification requires n <= {MAX_SUPEROP_MODES}")
    thr = DEFAULT_THRESHOLDS if report_tol is None else dict.fromkeys(DEFAULT_THRESHOLDS, report_tol)
    rng = np.random.default_rng(seed)
    # the 4^n-dimensional superoperator checks get expensive from n=3 on
    superop_samples = 10 if split.n <= 2 else 2
    residuals = {
        "heisenberg_reduction": heisenberg_reduction_residual(split, rng),
        "matrix_laws": max(
            matrix_projector_law_residuals(split, m, rng, tol=resonance_tol).values()
        ),
        "superoperator_laws": max(
            superoperator_law_residuals(
                split, rng, samples=superop_samples, tol=resonance_tol
            ).values()
        ),
        "moment_equivalence": max(
            moment_equivalence_residual(split, m, t, resonance_tol) for t in (0.5, 1.0)
        ),
        "stationarity": stationarity_residual(split, m, tol=resonance_tol),
    }
    checks = {
        name: {"residual": residuals[name], "threshold": thr[name],
               "pass": bool(residuals[name] <= thr[name])}
        for name in residuals
    }
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks.values())}
