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

VALIDATION_TOL = 1e-12
STABILITY_TOL = 1e-9


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


def validate_boson(H: np.ndarray, n: int, tol: float = VALIDATION_TOL) -> BosonHamiltonian:
    H = linalg.as_matrix(H)
    if H.shape[0] != 2 * n:
        raise DimensionMismatch(f"expected dim {2 * n}, got {H.shape[0]}")
    check_worst_entry(H - H.T, "(H - H^T)", tol, NotSymmetric)
    check_worst_entry(H - tilde_conjugate(H, n), "(H - tilde(H))", tol, NotTildeSymmetric)
    return BosonHamiltonian(n=n, H=H)


@dataclass(frozen=True)
class StabilityReport:
    """Spectrum of H0 @ J and whether it stays on the real axis."""

    eigenvalues: np.ndarray
    max_imag: float
    classification: str
    tolerance: float


def stability_check(H0: BosonHamiltonian, tol: float = STABILITY_TOL) -> StabilityReport:
    """Classify the symplectic generator H0 @ J as stable or unstable.

    Non-real eigenvalues make the free evolution hyperbolic, so the
    long-time average underlying the fermionic construction does not exist.
    """
    gen = H0.H @ symplectic_matrix(H0.n)
    eigs = np.linalg.eigvals(gen)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    max_imag = float(np.max(np.abs(eigs.imag))) if len(eigs) else 0.0
    scale = 1.0 + (float(np.max(np.abs(eigs))) if len(eigs) else 0.0)
    classification = "stable" if max_imag <= tol * scale else "unstable"
    return StabilityReport(
        eigenvalues=eigs, max_imag=max_imag, classification=classification, tolerance=tol
    )


def divergence_demo(H0: BosonHamiltonian, X: np.ndarray, T_list, steps_per_unit: int = 200) -> dict:
    """Finite-T trapezoidal averages of exp(-i H0 J s) X exp(i H0 J s).

    For an unstable generator the norms grow without bound (classification
    "divergent" when the largest-T norm exceeds 1e3 times the smallest);
    a stable generator keeps them bounded.  Overflow at large T is caught
    and reported as confirmation of the divergence.
    """
    X = linalg.as_matrix(X)
    gen = -1j * (H0.H @ symplectic_matrix(H0.n))
    T_list = sorted(float(T) for T in T_list)
    norms = []
    overflowed = False
    for T in T_list:
        steps = max(500, int(steps_per_unit * T))
        ds = T / steps
        U_step = linalg.matrix_exponential(gen * ds)
        V_step = linalg.matrix_exponential(-gen * ds)
        U = np.eye(X.shape[0], dtype=complex)
        V = np.eye(X.shape[0], dtype=complex)
        acc = 0.5 * X.astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, steps + 1):
                U = U @ U_step
                V = V @ V_step
                weight = 0.5 if i == steps else 1.0
                acc = acc + weight * (U @ X @ V)
        avg = acc / steps
        if not (np.all(np.isfinite(avg.real)) and np.all(np.isfinite(avg.imag))):
            overflowed = True
            norms.append(float("inf"))
        else:
            norms.append(linalg.max_abs(avg))
    finite = [v for v in norms if np.isfinite(v)]
    smallest = min(finite) if finite else 0.0
    divergent = overflowed or (smallest > 0 and norms[-1] > 1e3 * smallest)
    return {
        "T": T_list,
        "norms": norms,
        "overflow": overflowed,
        "classification": "divergent" if divergent else "bounded",
    }
