"""Dense complex linear algebra: Hermitian eigendecomposition with a fixed
phase convention, matrix exponentials, Kronecker products and sums.

All matrices are square ``numpy.ndarray`` of dtype complex128.  Tolerances
are expressed in the max-abs entry norm throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionOverflow, NotHermitian, Overflow

# dimension cap for Kronecker constructions
DIM_CAP = 4096
EXP_NORM_CAP = 1e4


def max_abs(A: np.ndarray) -> float:
    """Max-abs entry norm, the default norm for all tolerance checks."""
    A = np.asarray(A)
    return float(np.max(np.abs(A))) if A.size else 0.0


def as_matrix(A) -> np.ndarray:
    """Coerce to a square finite complex matrix."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise ValueError("matrix contains non-finite entries")
    return M


def hermiticity_residual(M: np.ndarray) -> float:
    return max_abs(M - M.conj().T)


def is_hermitian(M: np.ndarray, rtol: float = 1e-10) -> bool:
    return hermiticity_residual(M) <= rtol * (1.0 + max_abs(M))


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Eigenvalues (ascending) and a unitary eigenvector basis."""

    eigenvalues: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def to_eigenbasis(self, X: np.ndarray) -> np.ndarray:
        """V† X V."""
        return self.basis.conj().T @ X @ self.basis

    def from_eigenbasis(self, Y: np.ndarray) -> np.ndarray:
        """V Y V†."""
        return self.basis @ Y @ self.basis.conj().T


def hermitian_eigendecompose(M: np.ndarray) -> HermitianEigenDecomposition:
    """Eigendecompose a Hermitian matrix with a deterministic phase.

    Eigenvalues come out ascending; each eigenvector is rephased so that its
    largest-magnitude component is real and positive, which makes repeated
    runs on identical input bit-reproducible.

    Raises
    ------
    NotHermitian
        If ``max_abs(M - M†) > 1e-10 * (1 + max_abs(M))``.
    """
    M = as_matrix(M)
    if not is_hermitian(M):
        raise NotHermitian(
            f"hermiticity residual {hermiticity_residual(M):.3e} exceeds tolerance"
        )
    w, V = np.linalg.eigh((M + M.conj().T) / 2)
    for j in range(V.shape[1]):
        k = int(np.argmax(np.abs(V[:, j])))
        phase = V[k, j] / abs(V[k, j])
        V[:, j] /= phase
    return HermitianEigenDecomposition(eigenvalues=w.real, basis=V)


def matrix_exponential(A: np.ndarray) -> np.ndarray:
    """exp(A) for a square complex matrix.

    Anti-Hermitian inputs (A = -iM, M Hermitian) take an eigenbasis fast
    path which keeps the result unitary to round-off; everything else goes
    through scaling-and-squaring Pade.

    Raises
    ------
    Overflow
        If ``max_abs(A) > EXP_NORM_CAP``.
    """
    A = as_matrix(A)
    if max_abs(A) > EXP_NORM_CAP:
        raise Overflow(f"max_abs(A)={max_abs(A):.3e} exceeds cap {EXP_NORM_CAP:.3e}")
    if max_abs(A + A.conj().T) < 1e-10 * (1.0 + max_abs(A)):
        eig = hermitian_eigendecompose(1j * A)
        phases = np.exp(-1j * eig.eigenvalues)
        return (eig.basis * phases) @ eig.basis.conj().T
    return scipy.linalg.expm(A)


def kron_sum(K: np.ndarray, m: int) -> np.ndarray:
    """Sum of one-slot embeddings of K into m tensor factors.

    Returns sum_{j=1..m} I x ... x K x ... x I (K in slot j).
    """
    K = as_matrix(K)
    if m < 1:
        raise ValueError("m must be >= 1")
    d = K.shape[0]
    if d**m > DIM_CAP:
        raise DimensionOverflow(f"dimension {d**m} exceeds cap {DIM_CAP}")
    eye = np.eye(d, dtype=complex)
    total = np.zeros((d**m, d**m), dtype=complex)
    for j in range(m):
        term = np.eye(1, dtype=complex)
        for slot in range(m):
            term = np.kron(term, K if slot == j else eye)
        total += term
    return total
