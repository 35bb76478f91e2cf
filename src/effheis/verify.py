"""Oracle cross-checks between the matrix-level reduction and the exact
Fock-space computation, packaged for both the test suite and the CLI
`verify` command.  Every check returns its worst residual; thresholds are
applied by the caller.
"""

from __future__ import annotations

import itertools

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
from .perturbation import resonance_frame
from .projector import (
    DEFAULT_RESONANCE_TOL,
    free_moment_generator_hermitian,
    project_with,
    resonance_partition,
)

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
                    samples: int = 5, times=(0.3, 1.0, 2.5)) -> float:
    """Heisenberg-matrix reduction against the Fock oracle, random valid H."""
    rep = jordan_wigner(split.n)
    worst = 0.0
    for _ in range(samples):
        H = random_valid_fermion(split.n, rng)
        for t in times:
            worst = max(worst, check_heisenberg_reduction(H, rep, t))
    return worst


def matrix_projector_law_residuals(
    split: SplitHamiltonian, m: int, rng: np.random.Generator,
    samples: int = 20, tol: float = DEFAULT_RESONANCE_TOL,
) -> dict:
    """Idempotency, commutation with free evolution, pulling, linearity."""
    M0 = free_moment_generator_hermitian(split, m)
    part = resonance_partition(M0, tol)
    dim = M0.shape[0]
    res = {"idempotency": 0.0, "commutation": 0.0, "pulling": 0.0, "linearity": 0.0}
    Us = [linalg.matrix_exponential(1j * t * M0) for t in (0.3, 1.7)]  # exp(-h0 t)
    for _ in range(samples):
        X = random_complex(dim, rng)
        PX = project_with(X, part)
        res["idempotency"] = max(res["idempotency"], linalg.max_abs(project_with(PX, part) - PX))
        for U in Us:
            res["commutation"] = max(res["commutation"], linalg.max_abs(PX @ U - U @ PX))
            res["pulling"] = max(
                res["pulling"], linalg.max_abs(project_with(U @ X, part) - U @ PX)
            )
        Y = random_complex(dim, rng)
        alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
        res["linearity"] = max(
            res["linearity"],
            linalg.max_abs(
                project_with(alpha * X + beta * Y, part)
                - alpha * PX - beta * project_with(Y, part)
            ),
        )
    return res


def superoperator_law_residuals(
    split: SplitHamiltonian, rng: np.random.Generator, samples: int = 10
) -> dict:
    """Fock-level projection laws on random superoperators."""
    rep = jordan_wigner(split.n)
    H0hat = quadratize(split.base, rep)
    d = rep.dim
    res = {"idempotency": 0.0, "commutation": 0.0, "pulling": 0.0}
    Fs = [
        unitary_conjugation_superoperator(linalg.matrix_exponential(1j * t * H0hat))
        for t in (0.3, 1.7)
    ]
    for _ in range(samples):
        Phi = random_complex(d * d, rng)
        PPhi = project_superoperator(Phi, H0hat)
        res["idempotency"] = max(
            res["idempotency"], linalg.max_abs(project_superoperator(PPhi, H0hat) - PPhi)
        )
        for F in Fs:
            res["commutation"] = max(res["commutation"], linalg.max_abs(PPhi @ F - F @ PPhi))
            res["pulling"] = max(
                res["pulling"],
                linalg.max_abs(project_superoperator(F @ Phi, H0hat) - F @ PPhi),
            )
    return res


def operator_products(rep, m: int) -> list:
    """Fock matrices of c_{j1} ... c_{jm} for every multi-index, kron order."""
    ops = rep.operator_vector
    products = []
    for multi in itertools.product(range(len(ops)), repeat=m):
        prod = np.eye(rep.dim, dtype=complex)
        for j in multi:
            prod = prod @ ops[j]
        products.append(prod)
    return products


def moment_equivalence_residual(
    split: SplitHamiltonian, m: int, t: float, tol: float = DEFAULT_RESONANCE_TOL
) -> float:
    """Core equivalence: ``exact_series``'s averaged moment propagator applied
    to the operator tensor versus the Fock-oracle averaged conjugation."""
    rep = jordan_wigner(split.n)
    Hhat = quadratize(split.total(), rep)
    H0hat = quadratize(split.base, rep)
    W = exact_series(split, m, TimeGrid(t, 1), tol).values[-1]
    products = np.array(operator_products(rep, m))
    oracle = averaged_unitary_moments(Hhat, H0hat, products, t, tol)
    approx = np.tensordot(W, products, axes=1)
    return linalg.max_abs(oracle - approx)


def stationarity_residual(
    split: SplitHamiltonian, m: int, pairs=STATIONARITY_PAIRS, tol: float = DEFAULT_RESONANCE_TOL
) -> float:
    """P(hI(t2) hI(t1)) = P(hI hI(t1 - t2))."""
    partition, hI = resonance_frame(split, m, tol)

    def hI_at(t: float) -> np.ndarray:
        return hI * np.exp(-t * partition.delta)

    worst = 0.0
    for t1, t2 in pairs:
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
                     thresholds: dict | None = None) -> dict:
    """Full oracle cross-check suite; returns per-check residuals and verdicts."""
    if split.n > MAX_SUPEROP_MODES:
        raise TooManyModes(f"verification requires n <= {MAX_SUPEROP_MODES}")
    thr = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        thr.update(thresholds)
    rng = np.random.default_rng(seed)
    # the 4^n-dimensional superoperator checks get expensive from n=3 on
    superop_samples = 10 if split.n <= 2 else 2
    residuals = {
        "heisenberg_reduction": heisenberg_reduction_residual(split, rng),
        "matrix_laws": max(
            matrix_projector_law_residuals(split, m, rng, tol=resonance_tol).values()
        ),
        "superoperator_laws": max(
            superoperator_law_residuals(split, rng, samples=superop_samples).values()
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
