"""Matrix-level averaging map: the long-time average of
exp(h0 s) X exp(-h0 s) with h0 = -iM, M Hermitian, evaluated exactly as a
spectral (resonant-block) projection, and the resonance frame the moment
path works in.  ``free_moment_generator_hermitian`` and
``effective_propagator`` are dense references of the factored frame and of
``exact_series``; only the tests and the benchmark call them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatch
from .fermion import SplitHamiltonian, moment_generator

DEFAULT_RESONANCE_TOL = 1e-9


@dataclass(frozen=True)
class ResonancePartition:
    """The averaging frame of a Hermitian generator M (h0 = -iM).

    Eigenvalues within ``gap`` = tol * (1 + spread) of each other (single
    linkage, ``resonance_labels``) share a cluster label; the eigenbasis
    entry (a, b) is resonant iff a and b share a cluster.  The long-time
    average keeps exactly the resonant entries.

    ``decomposition`` is M's eigendecomposition: a dense one, or the
    Kronecker-factored one of a moment generator (``free_moment_partition``);
    both go to and from the eigenbasis through ``to_eigenbasis`` and
    ``from_eigenbasis``, and from resonant entries through ``from_entries``.
    """

    decomposition: linalg.HermitianEigenDecomposition | linalg.KroneckerEigenDecomposition
    labels: np.ndarray
    gap: float

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.decomposition.eigenvalues

    @cached_property
    def mask(self) -> np.ndarray:
        """Boolean resonance mask R with R[a, b] = (same cluster)."""
        return self.labels[:, None] == self.labels[None, :]

    @cached_property
    def delta(self) -> np.ndarray:
        """Eigenvalues -i(lam_a - lam_b) of the commutator [h0, . ]."""
        w = self.eigenvalues
        return -1j * (w[:, None] - w[None, :])

    @cached_property
    def resonant(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the resonant entries, the row-major
        nonzeros of ``mask``; clusters are contiguous, so this runs cluster
        by cluster, row-major inside each."""
        return np.nonzero(self.mask)

    @cached_property
    def bounds(self) -> np.ndarray:
        """Start offset of each cluster.  The spectrum is sorted and the
        linkage single, so every cluster is a contiguous index range."""
        return np.flatnonzero(np.diff(self.labels, prepend=-1))

    @cached_property
    def sizes(self) -> np.ndarray:
        """Number of eigenvalues in each cluster, in label order."""
        return np.diff(self.bounds, append=len(self.labels))

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each cluster's s^2 entries start in ``resonant`` order."""
        return np.cumsum(self.sizes**2) - self.sizes**2

    def to_original(self, entries: np.ndarray) -> np.ndarray:
        """The original-basis matrix whose eigenbasis entries are ``entries``,
        in ``resonant`` order, on the resonant positions and 0 elsewhere."""
        return self.decomposition.from_entries(*self.resonant, entries)

    def same_frame(self, other: ResonancePartition) -> bool:
        """Whether ``other`` has this partition's entry layout and
        ``to_original``: the same clusters of the same eigendecomposition."""
        if self is other:
            return True
        a, b = self.decomposition, other.decomposition
        return (
            type(a) is type(b)
            and np.array_equal(self.labels, other.labels)
            and all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
        )

    @property
    def cluster_values(self) -> np.ndarray:
        """Mean eigenvalue of each cluster, in label order."""
        return np.add.reduceat(self.eigenvalues, self.bounds) / self.sizes

    def project_eig(self, Y: np.ndarray) -> np.ndarray:
        """Average of a matrix given in the eigenbasis, in the original basis."""
        return self.decomposition.from_eigenbasis(np.where(self.mask, Y, 0.0))


def resonance_labels(w: np.ndarray, gap: float) -> np.ndarray:
    """The resonance rule: single linkage on the sorted real frequencies w,
    where neighbours at most ``gap`` apart share a class.  Classes are
    numbered in ascending order of frequency; labels come in input order."""
    order = np.argsort(w, kind="stable")
    sorted_labels = np.cumsum(np.diff(w[order], prepend=w[order[:1]]) > gap)
    return sorted_labels[np.argsort(order)]


def resonance_partition(M, tol: float = DEFAULT_RESONANCE_TOL) -> ResonancePartition:
    """Cluster the spectrum of Hermitian M into resonance classes.  M is a
    matrix, or an eigendecomposition of one with ascending eigenvalues."""
    eig = M if hasattr(M, "eigenvalues") else linalg.hermitian_eigendecompose(M)
    w = eig.eigenvalues
    spread = float(w[-1] - w[0]) if len(w) > 1 else 0.0
    gap = tol * (1.0 + spread)
    return ResonancePartition(decomposition=eig, labels=resonance_labels(w, gap), gap=gap)


def project_with(X: np.ndarray, partition: ResonancePartition) -> np.ndarray:
    """Apply a precomputed resonance partition to X, or to each matrix of a
    stack (..., d, d)."""
    X = linalg.as_matrix(X, stack=True)
    eig = partition.decomposition
    if X.shape[-1] != eig.dim:
        raise DimensionMismatch(f"X dim {X.shape[-1]} != generator dim {eig.dim}")
    return partition.project_eig(eig.to_eigenbasis(X))


def project(X: np.ndarray, M: np.ndarray, tol: float = DEFAULT_RESONANCE_TOL) -> np.ndarray:
    """Long-time average of exp(-iMs) X exp(iMs): keep resonant entries only."""
    return project_with(X, resonance_partition(M, tol))


def free_moment_generator_hermitian(split: SplitHamiltonian, m: int) -> np.ndarray:
    """Hermitian matrix M0 with h0^(m) = -i M0 (the free moment generator),
    dense: the reference that ``free_moment_partition`` factors."""
    return linalg.kron_sum(split.base.single_particle_generator(), m)


def free_moment_partition(
    split: SplitHamiltonian, m: int, tol: float = DEFAULT_RESONANCE_TOL
) -> ResonancePartition:
    """Resonance partition of M0 = kron_sum(E H0, m) from the 2n x 2n E H0
    alone: its eigenbasis is V1^{(x)m} with sorted columns
    (``linalg.kron_sum_eigendecompose``), and M0 itself is never formed."""
    return resonance_partition(
        linalg.kron_sum_eigendecompose(split.base.single_particle_generator(), m), tol
    )


def effective_propagator(
    split: SplitHamiltonian, m: int, t: float, tol: float = DEFAULT_RESONANCE_TOL
) -> np.ndarray:
    """Averaged m-th moment propagator: project exp(h t) onto resonant blocks
    of the free generator, h = -i kron_sum(E(H0 + lambda HI), m)."""
    h = moment_generator(split.total(), m)
    M0 = free_moment_generator_hermitian(split, m)
    return project(linalg.matrix_exponential(h * t), M0, tol)
