"""Brute-force ground truth on the full 2^n-dimensional Fock space:
Jordan-Wigner fermion operators, quadratic-form Hamiltonians, the
superoperator-level averaging projection, and the exactly averaged unitary
conjugation of operator products.  Both averages are one resonance mask on a
four-index tensor in the eigenbasis of the free Fock Hamiltonian H0hat.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import DimensionMismatch, TooManyModes
from .fermion import FermionHamiltonian, heisenberg_matrix
from .projector import DEFAULT_RESONANCE_TOL, ResonancePartition, resonance_partition

MAX_MODES = 6
MAX_SUPEROP_MODES = 4

_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class FockRep:
    """Jordan-Wigner representation of n fermionic modes on dim 2^n."""

    n: int
    annihilators: tuple

    @property
    def dim(self) -> int:
        return 2**self.n

    @property
    def creators(self) -> tuple:
        return tuple(c.conj().T for c in self.annihilators)

    @property
    def operator_vector(self) -> tuple:
        """The 2n-component vector (c_1..c_n, c_1^dag..c_n^dag)."""
        return self.annihilators + self.creators


@lru_cache(maxsize=None)
def jordan_wigner(n: int) -> FockRep:
    """Build fermion operators with the string on modes 1..j-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_MODES:
        raise TooManyModes(f"n={n} exceeds Fock-space cap {MAX_MODES}")
    ops = []
    for j in range(n):
        factors = [_SIGMA_Z] * j + [_SIGMA_MINUS] + [np.eye(2, dtype=complex)] * (n - j - 1)
        c = factors[0]
        for f in factors[1:]:
            c = np.kron(c, f)
        ops.append(c)
    return FockRep(n=n, annihilators=tuple(ops))


def quadratize(K: FermionHamiltonian, rep: FockRep) -> np.ndarray:
    """Fock-space Hamiltonian (1/2) c^T K c; Hermitian for valid K."""
    if K.n != rep.n:
        raise DimensionMismatch("mode counts differ")
    ops = rep.operator_vector
    H = np.zeros((rep.dim, rep.dim), dtype=complex)
    for a in range(2 * K.n):
        for b in range(2 * K.n):
            if K.H[a, b] != 0:
                H += 0.5 * K.H[a, b] * (ops[a] @ ops[b])
    return H


def _check_superop_modes(dim: int):
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise DimensionMismatch(f"dimension {dim} is not a power of two")
    if n > MAX_SUPEROP_MODES:
        raise TooManyModes(f"n={n} exceeds superoperator cap {MAX_SUPEROP_MODES}")


def _resonant_quadruples(part: ResonancePartition) -> np.ndarray:
    """Boolean keep[a, b, c, d] = |e_a - e_b + e_c - e_d| <= gap over the
    eigenvectors of the partition, e being each eigenvector's cluster mean."""
    e = part.cluster_values[part.labels]
    combo = (e[:, None, None, None] - e[None, :, None, None]
             + e[None, None, :, None] - e[None, None, None, :])
    return np.abs(combo) <= part.gap


def project_superoperator(
    Phi: np.ndarray, H0hat: np.ndarray, tol: float = DEFAULT_RESONANCE_TOL
) -> np.ndarray:
    """Averaging projection of a superoperator given as a dim-4^n matrix.

    Uses column-stacking vec so that the map Z -> A Z B is (B^T kron A).
    The projection is sum Pi_1 Phi(Pi_2 . Pi_3) Pi_4 over the cluster
    projectors of H0hat with e1 - e2 + e3 - e4 = 0 within the clustering
    tolerance.  In the eigenbasis V of H0hat that sum is a mask: with
    W = V^* kron V (so vec(V Z V^dag) = W vec Z), Y = W^dag Phi W keeps its
    entry from input (k, l) to output (i, j) iff e_i - e_k + e_l - e_j = 0.
    """
    H0hat = linalg.as_matrix(H0hat)
    d = H0hat.shape[0]
    _check_superop_modes(d)
    Phi = linalg.as_matrix(Phi)
    if Phi.shape[0] != d * d:
        raise DimensionMismatch(f"superoperator dim {Phi.shape[0]} != {d * d}")
    part = resonance_partition(H0hat, tol)
    V = part.decomposition.basis
    W = np.kron(V.conj(), V)
    # Y[i + d j, k + d l] is Y4[i, j, k, l] in Fortran order
    Y4 = (W.conj().T @ Phi @ W).reshape((d, d, d, d), order="F")
    keep = _resonant_quadruples(part).transpose(0, 3, 1, 2)
    Y = np.where(keep, Y4, 0.0).reshape((d * d, d * d), order="F")
    return W @ Y @ W.conj().T


def unitary_conjugation_superoperator(U: np.ndarray) -> np.ndarray:
    """Matrix (column-stacking vec) of Z -> U Z U^dag."""
    return np.kron(U.conj(), U)


def averaged_unitary_moments(
    Hhat: np.ndarray,
    H0hat: np.ndarray,
    products,
    t: float,
    tol: float = DEFAULT_RESONANCE_TOL,
) -> np.ndarray:
    """Long-time average of M(s) X M(s)^dag over the free-frame shift s, for
    each operator product X = X_1 ... X_m in ``products``, where
    M(s) = exp(i Hhat(s) t) is exp(i Hhat t) in the frame shifted by s.

    Evaluated exactly by Bohr-frequency decomposition: with M = exp(i Hhat t),
    the average equals the sum over cluster projectors a, b, c, d of H0hat
    with (e_a - e_b) + (e_c - e_d) = 0 of  Pi_a M Pi_b X Pi_c M^dag Pi_d.
    In the eigenbasis of H0hat (M' = V^dag M V, X' = V^dag X V) that is one
    masked contraction: entry (a, d) sums M'_ab X'_bc (M'^dag)_cd over the
    eigenvector pairs (b, c) whose cluster means satisfy the same condition.
    Returns the stack of averages, one per product.
    """
    H0hat = linalg.as_matrix(H0hat)
    Hhat = linalg.as_matrix(Hhat)
    _check_superop_modes(H0hat.shape[0])
    X = np.array([linalg.as_matrix(x) for x in products])
    M = linalg.matrix_exponential(1j * t * Hhat)
    part = resonance_partition(H0hat, tol)
    eig = part.decomposition
    Mp = eig.to_eigenbasis(M)
    # kernel[a, b, c, d] = M'_ab (M'^dag)_cd on the resonant quadruples
    kernel = np.where(_resonant_quadruples(part),
                      Mp[:, :, None, None] * Mp.conj().T[None, None, :, :], 0.0)
    return eig.from_eigenbasis(np.tensordot(eig.to_eigenbasis(X), kernel, axes=([1, 2], [1, 2])))


def check_heisenberg_reduction(H: FermionHamiltonian, rep: FockRep, t: float) -> float:
    """Max residual of exp(iHhat t) c_a exp(-iHhat t) = sum_b O(t)_ab c_b."""
    if H.n != rep.n:
        raise DimensionMismatch("mode counts differ")
    Hhat = quadratize(H, rep)
    U = linalg.matrix_exponential(1j * t * Hhat)
    O = heisenberg_matrix(H, t)
    ops = rep.operator_vector
    worst = 0.0
    for a in range(2 * H.n):
        lhs = U @ ops[a] @ U.conj().T
        rhs = sum(O[a, b] * ops[b] for b in range(2 * H.n))
        worst = max(worst, linalg.max_abs(lhs - rhs))
    return worst
