"""Quadratic fermionic form bookkeeping.

A quadratic Hamiltonian (1/2) c^T H c over the operator vector
c = (c_1..c_n, c_1^dag..c_n^dag) is self-adjoint iff its coefficient matrix
satisfies H = -H^T and H = -tilde(H), where tilde(K) = E conj(K) E and E is
the block exchange matrix [[0, I], [I, 0]].  Under these conditions E @ H is
Hermitian and generates the single-quasiparticle (Heisenberg) dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotAntisymmetric,
    NotHermitian,
    NotTildeAntisymmetric,
)

VALIDATION_TOL = 1e-12


@lru_cache(maxsize=None)
def exchange_matrix(n: int) -> np.ndarray:
    """Block exchange matrix E = [[0, I_n], [I_n, 0]]; E @ E = I.  Cached
    per n and read-only."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    E = np.block([[zero, eye], [eye, zero]])
    E.setflags(write=False)
    return E


def tilde_conjugate(K: np.ndarray, n: int) -> np.ndarray:
    """Particle-hole conjugation tilde(K) = E conj(K) E."""
    K = linalg.as_matrix(K)
    if K.shape[0] != 2 * n:
        raise DimensionMismatch(f"expected dim {2 * n}, got {K.shape[0]}")
    E = exchange_matrix(n)
    return E @ K.conj() @ E


def check_worst_entry(R: np.ndarray, label: str, tol: float, error: type) -> None:
    """Raise ``error`` naming the worst entry of the residual R if it exceeds tol."""
    idx = np.unravel_index(np.argmax(np.abs(R)), R.shape)
    worst = float(np.abs(R[idx]))
    if worst > tol:
        raise error(f"{label}[{(int(idx[0]), int(idx[1]))}] = {worst:.3e} exceeds {tol:.1e}")


@dataclass(frozen=True)
class FermionHamiltonian:
    """Validated coefficient matrix of a quadratic fermionic Hamiltonian."""

    n: int
    H: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.n

    def single_particle_generator(self) -> np.ndarray:
        """E @ H, the Hermitian single-quasiparticle generator."""
        return exchange_matrix(self.n) @ self.H


@dataclass(frozen=True)
class SplitHamiltonian:
    """H = H0 + coupling * HI with individually valid components."""

    base: FermionHamiltonian
    interaction: FermionHamiltonian
    coupling: float

    def __post_init__(self):
        if self.base.n != self.interaction.n:
            raise DimensionMismatch("base and interaction mode counts differ")

    @property
    def n(self) -> int:
        return self.base.n

    def total(self) -> FermionHamiltonian:
        return FermionHamiltonian(
            n=self.n, H=self.base.H + self.coupling * self.interaction.H
        )


def validate_fermion(H: np.ndarray, n: int) -> FermionHamiltonian:
    """Validate H = -H^T = -tilde(H) and wrap it as a FermionHamiltonian.

    Raises NotAntisymmetric / NotTildeAntisymmetric with the worst-violating
    entry, or NotHermitian if E @ H fails the (implied) Hermiticity check.
    """
    H = linalg.as_matrix(H)
    if H.shape[0] != 2 * n:
        raise DimensionMismatch(f"expected dim {2 * n}, got {H.shape[0]}")
    check_worst_entry(H + H.T, "(H + H^T)", VALIDATION_TOL, NotAntisymmetric)
    check_worst_entry(H + tilde_conjugate(H, n), "(H + tilde(H))", VALIDATION_TOL, NotTildeAntisymmetric)
    EH = exchange_matrix(n) @ H
    if linalg.hermiticity_residual(EH) > VALIDATION_TOL:
        raise NotHermitian("E @ H is not Hermitian within tolerance")
    return FermionHamiltonian(n=n, H=H)


def diagonal_modes(omega) -> FermionHamiltonian:
    """Free modes sum_j omega_j (c_j^dag c_j - 1/2), as H = [[0, -W], [W, 0]]."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 1 or not np.all(np.isfinite(omega)):
        raise ValueError("omega must be a finite 1-d real vector")
    n = len(omega)
    W = np.diag(omega).astype(complex)
    zero = np.zeros((n, n), dtype=complex)
    return validate_fermion(np.block([[zero, -W], [W, zero]]), n)


def hopping(n: int, j: int, k: int, g: float) -> FermionHamiltonian:
    """Hopping term g (c_j^dag c_k + c_k^dag c_j), 1-based mode indices j < k."""
    if not (1 <= j < k <= n):
        raise IndexOutOfRange(f"need 1 <= j < k <= n, got j={j}, k={k}, n={n}")
    C = np.zeros((n, n), dtype=complex)
    C[j - 1, k - 1] = C[k - 1, j - 1] = g
    zero = np.zeros((n, n), dtype=complex)
    return validate_fermion(np.block([[zero, -C], [C, zero]]), n)


def heisenberg_matrix(H: FermionHamiltonian, t) -> np.ndarray:
    """Single-particle propagator O(t) = exp(-i E H t); unitary.  For a
    sequence of times, the stack (len(t), 2n, 2n) of O(t), read off one
    eigendecomposition of E H (``linalg.unitary_propagators``)."""
    O = linalg.unitary_propagators(H.single_particle_generator(), -np.asarray(t, dtype=float))
    return O if np.ndim(t) else O[0]


def moment_generator(K: FermionHamiltonian, m: int) -> np.ndarray:
    """Generator -i * kron_sum(E K, m) of the m-fold tensor (moment)
    dynamics; anti-Hermitian."""
    return -1j * linalg.kron_sum(K.single_particle_generator(), m)
