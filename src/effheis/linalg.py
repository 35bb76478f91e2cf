"""Dense complex linear algebra: Hermitian eigendecomposition with a fixed
phase convention, matrix exponentials, Kronecker products and sums, and the
eigendecomposition of a Kronecker sum read off that of its one-slot term.

All matrices are square ``numpy.ndarray`` of dtype complex128.  Tolerances
are expressed in the max-abs entry norm throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionOverflow, NotHermitian, Overflow

# dimension cap for Kronecker constructions
DIM_CAP = 4096
EXP_NORM_CAP = 1e4
# M counts as Hermitian when max_abs(M - M^dag) <= HERMITIAN_RTOL * (1 + max_abs(M))
HERMITIAN_RTOL = 1e-10


def max_abs(A: np.ndarray) -> float:
    """Max-abs entry norm, the default norm for all tolerance checks."""
    A = np.asarray(A)
    return float(np.max(np.abs(A))) if A.size else 0.0


def as_matrix(A, stack: bool = False) -> np.ndarray:
    """Coerce to a square finite complex matrix, or with ``stack`` to a
    stack (..., s, s) of them."""
    M = np.asarray(A, dtype=complex)
    if (M.ndim < 2 if stack else M.ndim != 2) or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise ValueError("matrix contains non-finite entries")
    return M


def hermiticity_residual(M: np.ndarray) -> float:
    return max_abs(M - M.conj().T)


def is_hermitian(M: np.ndarray) -> bool:
    return hermiticity_residual(M) <= HERMITIAN_RTOL * (1.0 + max_abs(M))


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Eigenvalues (ascending) and a unitary eigenvector basis, of one
    matrix or of each matrix in a stack."""

    eigenvalues: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def to_eigenbasis(self, X: np.ndarray) -> np.ndarray:
        """V† X V."""
        return self.basis.conj().swapaxes(-1, -2) @ X @ self.basis

    def from_eigenbasis(self, Y: np.ndarray) -> np.ndarray:
        """V Y V†."""
        return self.basis @ Y @ self.basis.conj().swapaxes(-1, -2)

    def from_entries(self, rows: np.ndarray, cols: np.ndarray, entries: np.ndarray) -> np.ndarray:
        """V Y V† for the eigenbasis matrix Y whose (rows, cols) entries are
        ``entries`` and whose other entries are 0."""
        Y = np.zeros((self.dim, self.dim), dtype=complex)
        Y[rows, cols] = entries
        return self.from_eigenbasis(Y)


def hermitian_eigendecompose(M: np.ndarray) -> HermitianEigenDecomposition:
    """Eigendecompose a Hermitian matrix, or each matrix of a stack
    (..., s, s) in one call, with a deterministic phase.

    Eigenvalues come out ascending; each eigenvector is rephased so that its
    largest-magnitude component is real and positive, which makes repeated
    runs on identical input bit-reproducible.  A stack gives, matrix by
    matrix, bit for bit what one call per matrix gives.

    Raises
    ------
    NotHermitian
        If ``max_abs(M - M†) > HERMITIAN_RTOL * (1 + max_abs(M))`` for some
        matrix of the stack.
    Overflow
        If ``M + M†`` overflows, as it does on entries near the float range.
    """
    M = as_matrix(M, stack=True)
    M_dag = M.conj().swapaxes(-1, -2)
    residual = np.abs(M - M_dag).max(axis=(-2, -1), initial=0.0)
    bad = residual > HERMITIAN_RTOL * (1.0 + np.abs(M).max(axis=(-2, -1), initial=0.0))
    if bad.any():
        raise NotHermitian(f"hermiticity residual {residual[bad].max():.3e} exceeds tolerance")
    # entries near the float range overflow M + M^dag, on which eigh fails
    # or returns NaN
    with np.errstate(over="ignore", invalid="ignore"):
        M_sym = (M + M_dag) / 2
    if not np.isfinite(M_sym).all():
        raise Overflow(f"M + M^dag overflows at max_abs(M) = {max_abs(M):.3e}")
    w, V = np.linalg.eigh(M_sym)
    # the largest-magnitude component of each column (the first on ties)
    top = np.take_along_axis(V, np.argmax(np.abs(V), axis=-2)[..., None, :], axis=-2)
    V /= top / np.abs(top)
    return HermitianEigenDecomposition(eigenvalues=w, basis=V)


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
    if max_abs(A + A.conj().T) < HERMITIAN_RTOL * (1.0 + max_abs(A)):
        return unitary_propagators(1j * A, -1.0)[0]
    import scipy.linalg  # only this branch needs it, and it takes longer to import than numpy

    return scipy.linalg.expm(A)


def unitary_propagators(M: np.ndarray, times) -> np.ndarray:
    """exp(i t M) for Hermitian M at every t of ``times``: a stack
    (len(times), d, d) read off one eigendecomposition of M.  For a stack M
    (..., d, d) it is (..., len(times), d, d), read off one stacked
    eigendecomposition, and matrix by matrix bit for bit what one call per
    matrix gives.

    Raises
    ------
    NotHermitian
        As ``hermitian_eigendecompose``, if some matrix of M is not Hermitian.
    Overflow
        If ``|t| * max_abs(M) > EXP_NORM_CAP`` for some t, the cap
        ``matrix_exponential`` puts on ``max_abs(i t M)``, with max_abs(M)
        taken over the whole stack.
    """
    M = as_matrix(M, stack=True)
    times = np.asarray(times, dtype=float).reshape(-1)
    norm = float(np.max(np.abs(times), initial=0.0)) * max_abs(M)
    if norm > EXP_NORM_CAP:
        raise Overflow(f"max |t| * max_abs(M)={norm:.3e} exceeds cap {EXP_NORM_CAP:.3e}")
    eig = hermitian_eigendecompose(M)
    V = eig.basis[..., None, :, :]
    phases = np.exp(1j * times[:, None] * eig.eigenvalues[..., None, :])
    return (V * phases[..., None, :]) @ V.conj().swapaxes(-1, -2)


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


def kron_sandwich(Z: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """V Z V^dag for V = A (x) B (numpy's ``kron`` order), Z a matrix or a
    stack (..., D, D) with D = len(A) len(B); V is never formed.  Each side
    is two GEMM-shaped mode products, one by A and one by B:
    (len(A) + len(B)) D^2 multiply-adds per matrix instead of D^3."""
    na, nb = len(A), len(B)
    D, batch = na * nb, Z.shape[:-2]
    Z = (B @ Z.reshape(*batch, na, nb, D)).reshape(*batch, na, nb * D)
    Z = (A @ Z).reshape(-1, nb)
    Z = (Z @ B.conj().T).reshape(*batch, D, na, nb)
    return (A.conj() @ Z).reshape(*batch, D, D)


@dataclass(frozen=True)
class KroneckerEigenDecomposition:
    """Eigendecomposition of kron_sum(K, m) for a k x k Hermitian
    K = V1 diag(l) V1^dag, held as V1, l, m and a sort order instead of a
    dense d x d basis, d = k^m.

    Column a of the basis V0 is column ``order[a]`` of V1^{(x)m}, and its
    eigenvalue is l_{i_1} + ... + l_{i_m} over the slot indices
    (i_1, ..., i_m) = ``digits(a)`` of that column (slot 1 most
    significant, numpy's ``kron`` order).  ``order`` sorts these sums
    stably, so the eigenvalues ascend, as ``hermitian_eigendecompose``'s do.
    ``factor`` is V1, or None when K is diagonal (V1 = I): V0 is then a
    permutation, and going to or from it is a scatter.  ``slot_eigenvalues``
    is l, in the column order of V1.
    """

    factor: np.ndarray | None
    k: int
    m: int
    order: np.ndarray
    eigenvalues: np.ndarray
    slot_eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def digits(self, index: np.ndarray) -> tuple:
        """Slot indices (i_1, ..., i_m) of the basis columns ``index``, one
        array per slot."""
        return np.unravel_index(self.order[index], (self.k,) * self.m)

    def factor_to_eigenbasis(self, X: np.ndarray) -> np.ndarray:
        """V1^dag X V1 for k x k matrices X (or a stack of them)."""
        return X if self.factor is None else self.factor.conj().T @ X @ self.factor

    @cached_property
    def _halves(self) -> tuple[np.ndarray, np.ndarray]:
        """V1^{(x)p} and V1^{(x)(m - p)}, p = m // 2."""
        def power(p: int) -> np.ndarray:
            out = np.eye(1, dtype=complex)
            for _ in range(p):
                out = np.kron(out, self.factor)
            return out

        return power(self.m // 2), power(self.m - self.m // 2)

    def _sandwich(self, Z: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """V Z V^dag for V = V1^{(x)m} = A (x) B, or V^dag Z V if ``adjoint``,
        with Z in Kronecker order (``kron_sandwich``)."""
        A, B = self._halves
        if adjoint:
            A, B = A.conj().T, B.conj().T
        return kron_sandwich(Z, A, B)

    def to_eigenbasis(self, X: np.ndarray) -> np.ndarray:
        """V0^dag X V0."""
        if self.factor is not None:
            X = self._sandwich(X, adjoint=True)
        return X[..., self.order[:, None], self.order]

    def from_eigenbasis(self, Y: np.ndarray) -> np.ndarray:
        """V0 Y V0^dag: Y scattered into Kronecker order, then the mode
        products by V1 when V1 is not the identity."""
        Z = np.empty_like(Y)
        Z[..., self.order[:, None], self.order] = Y
        return Z if self.factor is None else self._sandwich(Z)

    def from_entries(self, rows: np.ndarray, cols: np.ndarray, entries: np.ndarray) -> np.ndarray:
        """V0 Y V0^dag for the eigenbasis matrix Y whose (rows, cols) entries
        are ``entries`` and whose other entries are 0: the entries are
        scattered straight into Kronecker order, followed by the mode
        products by V1 when V1 is not the identity."""
        Z = np.zeros((self.dim, self.dim), dtype=complex)
        Z[self.order[rows], self.order[cols]] = entries
        return Z if self.factor is None else self._sandwich(Z)


def kron_sum_eigendecompose(K: np.ndarray, m: int) -> KroneckerEigenDecomposition:
    """Eigendecompose kron_sum(K, m), K Hermitian, from one k x k
    eigendecomposition of K, or none when K is diagonal.  No d x d array is
    made, and the dimension cap is checked before anything of size d.

    Raises
    ------
    DimensionOverflow
        If ``k**m > DIM_CAP``.
    NotHermitian
        As ``hermitian_eigendecompose``.
    """
    K = as_matrix(K)
    if m < 1:
        raise ValueError("m must be >= 1")
    k = K.shape[0]
    if k**m > DIM_CAP:
        raise DimensionOverflow(f"dimension {k**m} exceeds cap {DIM_CAP}")
    if is_hermitian(K) and not K[~np.eye(k, dtype=bool)].any():
        factor, w = None, np.diag(K).real.copy()
    else:
        eig = hermitian_eigendecompose(K)
        factor, w = eig.basis, eig.eigenvalues
    # added slot by slot, in kron_sum's order, so that a diagonal K gives
    # exactly the diagonal of kron_sum(K, m)
    sums = w
    for _ in range(m - 1):
        sums = np.add.outer(sums, w).ravel()
    order = np.argsort(sums, kind="stable")
    return KroneckerEigenDecomposition(
        factor=factor, k=k, m=m, order=order, eigenvalues=sums[order], slot_eigenvalues=w
    )
