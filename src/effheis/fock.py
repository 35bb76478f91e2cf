"""Brute-force ground truth on the full 2^n-dimensional Fock space:
Jordan-Wigner fermion operators, quadratic-form Hamiltonians, the
superoperator-level averaging projection, and the exactly averaged unitary
conjugation of operator products.  There is one Fock-side average,
``project_superoperator``: a resonance mask on the four-index tensor of a
superoperator in the eigenbasis of the free Fock Hamiltonian H0hat, which
compares the resonance classes (``projector.resonance_labels`` at H0hat's
gap) of Bohr frequencies e_i - e_j, the spectrum of L0 = [H0hat, .].  It
reaches that eigenbasis by mode products with H0hat's eigenvectors V on each
index of the (d, d, d, d) view, so the dense d^2 x d^2 basis V^* kron V of
L0 is never formed.  ``averaged_unitary_moments`` applies that average to
the conjugation superoperator of exp(i Hhat t); both take H0hat's partition.
``check_heisenberg_reduction`` checks the Heisenberg matrix of each
Hamiltonian of a sequence against the conjugation by exp(i Hhat t), with
the Hhat of the whole sequence eigendecomposed in one stacked call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .errors import DimensionMismatch, TooManyModes
from .fermion import FermionHamiltonian, heisenberg_matrix
from .projector import ResonancePartition, resonance_labels

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

    @cached_property
    def operator_stack(self) -> np.ndarray:
        """``operator_vector`` as one read-only (2n, d, d) array."""
        ops = np.array(self.operator_vector)
        ops.setflags(write=False)
        return ops

    @cached_property
    def pair_products(self) -> np.ndarray:
        """Read-only (2n, 2n, d, d) stack of the products c_a c_b,
        ``operator_products`` at m = 2."""
        pairs = operator_products(self, 2).reshape(2 * self.n, 2 * self.n, self.dim, self.dim)
        pairs.setflags(write=False)
        return pairs


def operator_products(rep: FockRep, m: int) -> np.ndarray:
    """Stack of the Fock matrices of c_{j1} ... c_{jm} for every
    multi-index, kron order: each factor multiplies the whole stack at once."""
    products = rep.operator_stack
    for _ in range(m - 1):
        products = (products[:, None] @ rep.operator_stack).reshape(-1, rep.dim, rep.dim)
    return products


@lru_cache(maxsize=None)
def jordan_wigner(n: int) -> FockRep:
    """Build fermion operators with the string on modes 1..j-1.  Cached per
    n, and with it the rep's operator and pair-product stacks."""
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
    return 0.5 * np.tensordot(K.H, rep.pair_products, axes=2)


def _check_superop_modes(dim: int):
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise DimensionMismatch(f"dimension {dim} is not a power of two")
    if n > MAX_SUPEROP_MODES:
        raise TooManyModes(f"n={n} exceeds superoperator cap {MAX_SUPEROP_MODES}")


def project_superoperator(Phi: np.ndarray, part: ResonancePartition) -> np.ndarray:
    """Averaging projection of a superoperator given as a dim-4^n matrix, or
    of each one of a stack (..., 4^n, 4^n), with ``part`` the resonance
    partition of the free Fock Hamiltonian H0hat.

    Uses column-stacking vec so that the map Z -> A Z B is (B^T kron A).
    The projection is the long-time average under the Liouvillian
    L0 = I kron H0hat - H0hat^T kron I, which W = V^* kron V diagonalizes
    (V the eigenbasis of H0hat, vec(V Z V^dag) = W vec Z) with eigenvalue
    e_i - e_j at index i + d j.  So Y = W^dag Phi W keeps its entry from
    input (k, l) to output (i, j) iff the Bohr frequencies e_i - e_j and
    e_k - e_l share a resonance class.  W^dag Phi W and W Y W^dag are each
    four GEMM-shaped mode products by V on the (d, d, d, d) view of the
    matrix (``linalg.kron_sandwich``), about 4 d^5 multiply-adds per side
    against the 2 d^6 of the dense W, which is never formed.
    """
    d = len(part.labels)
    _check_superop_modes(d)
    Phi = linalg.as_matrix(Phi, stack=True)
    if Phi.shape[-1] != d * d:
        raise DimensionMismatch(f"superoperator dim {Phi.shape[-1]} != {d * d}")
    V = part.decomposition.basis
    # W^dag = V^T kron V^dag
    Y = linalg.kron_sandwich(Phi, V.T, V.conj().T)
    # the class of vec index i + d j is that of the Bohr frequency e_i - e_j,
    # read off part.delta = -i(e_i - e_j) at the gap of H0hat's own partition
    label = resonance_labels(part.delta.imag.T.ravel(), part.gap)
    Y *= label[:, None] == label[None, :]
    return linalg.kron_sandwich(Y, V.conj(), V)


def unitary_conjugation_superoperator(U: np.ndarray) -> np.ndarray:
    """Matrix (column-stacking vec) of Z -> U Z U^dag, U^* kron U, or the
    stack of them for a stack (..., d, d) of U."""
    *batch, d, _ = U.shape
    return (U.conj()[..., :, None, :, None] * U[..., None, :, None, :]).reshape(*batch, d * d, d * d)


def averaged_unitary_moments(Hhat: np.ndarray, part: ResonancePartition, products, t) -> np.ndarray:
    """Long-time average of M(s) X M(s)^dag over the free-frame shift s, for
    each operator product X = X_1 ... X_m in ``products``, where
    M(s) = exp(i Hhat(s) t) is exp(i Hhat t) in the frame shifted by s and
    ``part`` is the resonance partition of the free Fock Hamiltonian H0hat.

    X -> M X M^dag with M = exp(i Hhat t) is the superoperator M^* kron M,
    so its average is ``project_superoperator``'s, applied to the
    column-stacked products, one average per product; for a sequence of
    times t, one such stack per time, all read off one eigendecomposition
    of Hhat (``linalg.unitary_propagators``).
    """
    _check_superop_modes(len(part.labels))
    X = np.array([linalg.as_matrix(x) for x in products])
    M = linalg.unitary_propagators(Hhat, t)
    PPhi = project_superoperator(unitary_conjugation_superoperator(M), part)
    # column-stacking vec: vec X is X^T raveled, and vec Y = PPhi vec X
    vecX = X.swapaxes(-1, -2).reshape(len(X), -1)
    averages = (vecX @ PPhi.swapaxes(-1, -2)).reshape(len(M), *X.shape).swapaxes(-1, -2)
    return averages if np.ndim(t) else averages[0]


def check_heisenberg_reduction(Hs: Sequence[FermionHamiltonian], rep: FockRep, t) -> float:
    """Max residual of exp(iHhat t) c_a exp(-iHhat t) = sum_b O(t)_ab c_b
    over all 2n operators c_a, every time t (a number or a sequence) and
    every Hamiltonian H of the sequence ``Hs``, all on the modes of ``rep``.

    U(t) = exp(iHhat t) for all of ``Hs`` comes from one stacked
    eigendecomposition of their Hhat, and O(t) = ``heisenberg_matrix`` from
    one of each E H, both with ``linalg.unitary_propagators``' hermiticity
    check and ``Overflow`` cap.  The result is the largest of the calls for
    one H each, bit for bit.
    """
    if any(H.n != rep.n for H in Hs):
        raise DimensionMismatch("mode counts differ")
    times = np.asarray(t, dtype=float).reshape(-1)
    # shaped explicitly, so that an empty Hs gives empty stacks and residual 0
    Hhat = np.reshape([quadratize(H, rep) for H in Hs], (-1, rep.dim, rep.dim))
    U = linalg.unitary_propagators(Hhat, times)[:, :, None]
    n2 = 2 * rep.n
    O = np.reshape([heisenberg_matrix(H, times) for H in Hs], (-1, len(times), n2, n2))
    ops = rep.operator_stack
    lhs = U @ ops @ U.conj().swapaxes(-1, -2)
    return linalg.max_abs(lhs - np.tensordot(O, ops, axes=1))
