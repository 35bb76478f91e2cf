"""Bosonic quadratic forms at matrix level: validation, the symplectic
generator H J, stability classification of its spectrum, and a finite-time
demonstration that the naive long-time average diverges when the generator
has non-real eigenvalues.  Deliberately diagnostic-only: no bosonic
effective propagator is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotSymmetric, NotTildeSymmetric
from .fermion import check_worst_entry, tilde_conjugate
from .projector import resonance_partition

VALIDATION_TOL = 1e-12
STABILITY_TOL = 1e-9
# a bounded average has norms that level off (log-log slope about 0 or
# below); a defective generator grows them at least like T, an unstable one
# exponentially
GROWTH_EXPONENT = 0.5


def symplectic_matrix(n: int) -> np.ndarray:
    """J = [[0, -I_n], [I_n, 0]]; J @ J = -I."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    return np.block([[zero, -eye], [eye, zero]])


@dataclass(frozen=True)
class BosonHamiltonian:
    """Coefficient matrix of (1/2) a^T H a with H = H^T = tilde(H)."""

    n: int
    H: np.ndarray


def validate_boson(H: np.ndarray, n: int) -> BosonHamiltonian:
    H = linalg.as_matrix(H)
    if H.shape[0] != 2 * n:
        raise DimensionMismatch(f"expected dim {2 * n}, got {H.shape[0]}")
    check_worst_entry(H - H.T, "(H - H^T)", VALIDATION_TOL, NotSymmetric)
    check_worst_entry(H - tilde_conjugate(H, n), "(H - tilde(H))", VALIDATION_TOL, NotTildeSymmetric)
    return BosonHamiltonian(n=n, H=H)


@dataclass(frozen=True)
class StabilityReport:
    """Spectrum of H0 @ J and whether it stays on the real axis."""

    eigenvalues: np.ndarray
    max_imag: float
    classification: str


def stability_check(H0: BosonHamiltonian) -> StabilityReport:
    """Classify the symplectic generator H0 @ J as stable or unstable.

    Non-real eigenvalues make the free evolution hyperbolic, and a real but
    defective (non-diagonalizable) generator makes it grow polynomially; in
    both cases the long-time average underlying the fermionic construction
    does not exist.  A real spectrum counts as diagonalizable when the
    minimal-polynomial residual prod_k (G - mu_k I) / scale, over the
    distinct eigenvalues mu_k (clustered by ``resonance_partition`` at
    STABILITY_TOL), is at most STABILITY_TOL in max-abs.
    """
    gen = H0.H @ symplectic_matrix(H0.n)
    eigs = np.linalg.eigvals(gen)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    max_imag = float(np.max(np.abs(eigs.imag))) if len(eigs) else 0.0
    scale = 1.0 + (float(np.max(np.abs(eigs))) if len(eigs) else 0.0)
    stable = max_imag <= STABILITY_TOL * scale
    if stable:
        residual = np.eye(len(gen))
        for mu in resonance_partition(np.diag(eigs.real), STABILITY_TOL).cluster_values:
            residual = residual @ (gen - mu * np.eye(len(gen))) / scale
        stable = linalg.max_abs(residual) <= STABILITY_TOL
    return StabilityReport(
        eigenvalues=eigs, max_imag=max_imag, classification="stable" if stable else "unstable"
    )


def divergence_demo(H0: BosonHamiltonian, X: np.ndarray, T_list) -> dict:
    """Exact finite-T averages (1/T) int_0^T exp(G s) X exp(-G s) ds, G = -i H0 J.

    With L = I (x) G - G^T (x) I acting on column-stacked X, the integral is
    the top-right block of exp(B T), B = [[L, I], [0, 0]] (Van Loan 1978);
    a T with max_abs(B T) at or above the exponential's cap takes the k-th
    power of exp(B T / k), k the smallest count that keeps B T / k below it.
    Norms that overflow, or whose least-squares slope of log(norm) against
    log(T) is at least GROWTH_EXPONENT (polynomial or exponential growth),
    classify the generator as "divergent".
    """
    X = linalg.as_matrix(X)
    gen = -1j * (H0.H @ symplectic_matrix(H0.n))
    d2 = X.size
    eye = np.eye(X.shape[0])
    L = np.kron(eye, gen) - np.kron(gen.T, eye)
    B = np.block([[L, np.eye(d2)], [np.zeros((d2, 2 * d2))]])
    vec_X = X.reshape(-1, order="F")
    T_list = sorted(float(T) for T in T_list)
    norms = []
    for T in T_list:
        k = int(linalg.max_abs(B) * T // linalg.EXP_NORM_CAP) + 1
        with np.errstate(over="ignore", invalid="ignore"):
            block = np.linalg.matrix_power(linalg.matrix_exponential(B * (T / k)), k)
            avg = block[:d2, d2:] @ vec_X / T
        norms.append(linalg.max_abs(avg) if np.all(np.isfinite(avg)) else float("inf"))
    overflowed = not np.all(np.isfinite(norms))
    log_T = np.log(T_list)
    divergent = overflowed or (
        min(norms, default=0.0) > 0
        and np.ptp(log_T) > 0
        and np.polyfit(log_T, np.log(norms), 1)[0] >= GROWTH_EXPONENT
    )
    return {
        "T": T_list,
        "norms": norms,
        "overflow": overflowed,
        "classification": "divergent" if divergent else "bounded",
    }
