"""Oracle cross-checks between the matrix-level reduction and the exact
Fock-space computation, packaged for both the test suite and the CLI
`verify` command.  Every check returns its worst residual; thresholds are
applied by the caller.  ``run_verification`` frames the model once, at the
run's resonance tolerance: the moment frame of M0 with the ``exact_series``
that moment equivalence checks, and H0hat's partition.  Each check takes the
frame it tests and builds none.  The three sampled checks draw and check
their random samples as stacks: the Heisenberg check all its Hamiltonians
in one ``check_heisenberg_reduction`` call, the two law checks at most
``STACK_ENTRIES`` entries' worth of samples per stack, so that their memory
does not grow with the sample count.  Each draws from ``rng`` in the order
of one sample at a time, and each residual is the largest over the samples,
so the results do not depend on the stacking.  ``resonance_frame`` is the
checks' dense moment frame, the d x d hI that ``perturbation.kappa12`` never
builds.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .dynamics import PropagatorSeries, TimeGrid, exact_series
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
    operator_products,
    project_superoperator,
    quadratize,
    unitary_conjugation_superoperator,
)
from .projector import (
    DEFAULT_RESONANCE_TOL,
    ResonancePartition,
    project_with,
    resonance_partition,
)

HEISENBERG_TIMES = (0.3, 1.0, 2.5)
MOMENT_EQUIVALENCE_GRID = TimeGrid(1.0, 2)
STATIONARITY_PAIRS = ((0.2, 0.9), (1.3, 0.4))


# matrix entries per stack of law-check samples: bounds the checks' memory
# whatever the sample count
STACK_ENTRIES = 2**11


def random_complex(dim: int, rng: np.random.Generator, batch: tuple = ()) -> np.ndarray:
    """Random complex dim x dim matrix, real part then imaginary part; for a
    ``batch`` shape, a stack (*batch, dim, dim) of them, the same arrays as
    one call per matrix in C order."""
    z = rng.standard_normal((*batch, 2, dim, dim))
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _sample_stacks(dim: int, k: int, samples: int, rng: np.random.Generator):
    """``samples`` samples of k random complex dim x dim matrices each, as
    stacks (k, c, dim, dim) of c <= max(1, STACK_ENTRIES // dim**2) samples,
    drawn in the order of one ``random_complex`` call per matrix."""
    c = max(1, STACK_ENTRIES // dim**2)
    for start in range(0, samples, c):
        yield random_complex(dim, rng, (min(c, samples - start), k)).swapaxes(0, 1)


def random_valid_fermion(n: int, rng: np.random.Generator) -> FermionHamiltonian:
    """Random coefficient matrix made valid by antisymmetrize-then-tilde-project."""
    A = random_complex(2 * n, rng)
    A = (A - A.T) / 2
    A = (A - tilde_conjugate(A, n)) / 2
    return validate_fermion(A, n)


def heisenberg_reduction_residual(n: int, rng: np.random.Generator, samples: int = 5) -> float:
    """Heisenberg-matrix reduction against the Fock oracle on n modes, random
    valid H, all checked at all HEISENBERG_TIMES in one call."""
    Hs = [random_valid_fermion(n, rng) for _ in range(samples)]
    return check_heisenberg_reduction(Hs, jordan_wigner(n), HEISENBERG_TIMES)


def _free_evolutions(part: ResonancePartition) -> np.ndarray:
    """The law checks' free evolutions exp(i t M) at t = 0.3 and 1.7, M the
    Hermitian generator that ``part`` partitions, read off the
    eigendecomposition it already holds: V diag(e^{i t lam}) V^dag."""
    phases = np.exp(1j * np.multiply.outer((0.3, 1.7), part.eigenvalues))
    return part.decomposition.from_eigenbasis(phases[:, :, None] * np.eye(phases.shape[1]))


def matrix_projector_law_residuals(
    moment_partition: ResonancePartition, rng: np.random.Generator, samples: int = 20
) -> dict:
    """Idempotency, commutation with free evolution, pulling, linearity, in
    the Kronecker-factored moment frame ``moment_partition``
    (``free_moment_partition``), each the largest over ``samples`` random
    pairs X, Y.  Each stack of samples (``STACK_ENTRIES``) is projected
    twice: PX, then [PX, U_1 X, U_2 X, alpha X + beta Y, Y] in one call."""
    dim = moment_partition.decomposition.dim
    res = {"idempotency": 0.0, "commutation": 0.0, "pulling": 0.0, "linearity": 0.0}
    Us = _free_evolutions(moment_partition)[:, None]  # exp(-h0 t)
    alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
    for X, Y in _sample_stacks(dim, 2, samples, rng):
        PX = project_with(X, moment_partition)
        P = project_with(np.stack([PX, *(Us @ X), alpha * X + beta * Y, Y]), moment_partition)
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
    fock_partition: ResonancePartition, rng: np.random.Generator, samples: int = 10
) -> dict:
    """Fock-level projection laws on ``samples`` random superoperators Phi,
    with ``fock_partition`` the resonance partition of H0hat and
    U(t) = exp(i t H0hat) read off it.  Each stack of samples
    (``STACK_ENTRIES``) takes two projections, P(Phi) and then
    P([P Phi, F_1 Phi, F_2 Phi]) as one stack."""
    d = len(fock_partition.labels)
    res = {"idempotency": 0.0, "commutation": 0.0, "pulling": 0.0}
    Fs = unitary_conjugation_superoperator(_free_evolutions(fock_partition))[:, None]
    for (Phi,) in _sample_stacks(d * d, 1, samples, rng):
        PPhi = project_superoperator(Phi, fock_partition)
        P = project_superoperator(np.stack([PPhi, *(Fs @ Phi)]), fock_partition)
        F_PPhi = Fs @ PPhi
        for name, r in (
            ("idempotency", P[0] - PPhi),
            ("commutation", PPhi @ Fs - F_PPhi),
            ("pulling", P[1:] - F_PPhi),
        ):
            res[name] = max(res[name], linalg.max_abs(r))
    return res


def moment_equivalence_residual(
    series: PropagatorSeries, split: SplitHamiltonian, fock_partition: ResonancePartition
) -> float:
    """Core equivalence at every grid point of ``series`` after t = 0: the
    ``exact_series`` averaged moment propagator of ``split`` applied to the
    operator tensor versus the Fock-oracle averaged conjugation, from one
    eigendecomposition of Hhat and one operator-product stack, with
    ``fock_partition`` the resonance partition of H0hat."""
    rep = jordan_wigner(split.n)
    Hhat = quadratize(split.total(), rep)
    products = operator_products(rep, series.partition.decomposition.m)
    oracle = averaged_unitary_moments(Hhat, fock_partition, products, series.grid.times[1:])
    return linalg.max_abs(oracle - np.tensordot(series.values[1:], products, axes=1))


def resonance_frame(split: SplitHamiltonian, moment_partition: ResonancePartition) -> np.ndarray:
    """The interaction moment generator hI = -i kron_sum(E HI, m) in the
    eigenbasis V0 = V1^{(x)m} (columns sorted) of ``moment_partition``, the
    partition of M0: that is -i kron_sum(V1^dag E HI V1, m), rows and
    columns gathered in sort order."""
    frame = moment_partition.decomposition
    G = frame.factor_to_eigenbasis(split.interaction.single_particle_generator())
    return -1j * linalg.kron_sum(G, frame.m)[np.ix_(frame.order, frame.order)]


def stationarity_residual(split: SplitHamiltonian, moment_partition: ResonancePartition) -> float:
    """P(hI(t2) hI(t1)) = P(hI hI(t1 - t2)) at every (t1, t2) of
    STATIONARITY_PAIRS, in the moment frame ``moment_partition``."""
    hI = resonance_frame(split, moment_partition)

    def hI_at(t: float) -> np.ndarray:
        return hI * np.exp(-t * moment_partition.delta)

    worst = 0.0
    for t1, t2 in STATIONARITY_PAIRS:
        lhs = moment_partition.project_eig(hI_at(t2) @ hI_at(t1))
        rhs = moment_partition.project_eig(hI @ hI_at(t1 - t2))
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
    # exact_series first: it refuses (Overflow) a Hamiltonian too large to
    # eigendecompose, before quadratize overflows on it
    series = exact_series(split, m, MOMENT_EQUIVALENCE_GRID, resonance_tol)
    fock_partition = resonance_partition(
        quadratize(split.base, jordan_wigner(split.n)), resonance_tol
    )
    rng = np.random.default_rng(seed)
    # the 4^n-dimensional superoperator checks get expensive from n=3 on
    superop_samples = 10 if split.n <= 2 else 2
    residuals = {
        "heisenberg_reduction": heisenberg_reduction_residual(split.n, rng),
        "matrix_laws": max(matrix_projector_law_residuals(series.partition, rng).values()),
        "superoperator_laws": max(
            superoperator_law_residuals(fock_partition, rng, samples=superop_samples).values()
        ),
        "moment_equivalence": moment_equivalence_residual(series, split, fock_partition),
        "stationarity": stationarity_residual(split, series.partition),
    }
    checks = {
        name: {"residual": residuals[name], "threshold": thr[name],
               "pass": bool(residuals[name] <= thr[name])}
        for name in residuals
    }
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks.values())}
