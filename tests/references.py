"""Literal references for the perturbative expansion and the averaging map,
used only by the tests: the Dyson moments mu_k by closed form and by nested
quadrature, the cumulants kappa_k assembled from quadrature moments, and the
finite-time trapezoidal average.  The library evaluates the same quantities
fast (``perturbation.kappa12``, ``projector.project``); these are the slow,
independent forms they are checked against.

All of them work on the dense d x d interaction hI of
``verify.resonance_frame``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from effheis import linalg
from effheis.errors import DimensionMismatch, UnsupportedOrder
from effheis.fermion import SplitHamiltonian
from effheis.perturbation import spectral_function
from effheis.projector import DEFAULT_RESONANCE_TOL, resonance_partition
from effheis.verify import resonance_frame


def mu1(
    split: SplitHamiltonian, m: int, tol: float = DEFAULT_RESONANCE_TOL
) -> Callable[[float], np.ndarray]:
    """First Dyson moment mu_1(t) = t * P(hI)."""
    partition, hI = resonance_frame(split, m, tol)
    p_hI = partition.project_eig(hI)
    return lambda t: t * p_hI


def mu2_closed(
    split: SplitHamiltonian, m: int, tol: float = DEFAULT_RESONANCE_TOL
) -> Callable[[float], np.ndarray]:
    """Second Dyson moment mu_2(t) = P(hI phi(t [h0, .]) hI), closed form."""
    partition, hI = resonance_frame(split, m, tol)

    def evaluate(t: float) -> np.ndarray:
        weighted = hI * spectral_function(partition.delta, t, "phi")
        return partition.project_eig(hI @ weighted)

    return evaluate


def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    # map from [-1, 1] to [0, 1]
    return (x + 1) / 2, w / 2


def mu_k_quadrature(
    split: SplitHamiltonian,
    m: int,
    k: int,
    t: float,
    tol: float = DEFAULT_RESONANCE_TOL,
    nodes: int = 64,
) -> np.ndarray:
    """Dyson moment mu_k(t) by nested Gauss-Legendre over the ordered simplex.

    Independent of the closed forms; supported for k in {1, 2, 3}.
    """
    if k not in (1, 2, 3):
        raise UnsupportedOrder(f"quadrature implemented for k <= 3, got {k}")
    if nodes < 16:
        raise ValueError("nodes must be >= 16")
    partition, hI = resonance_frame(split, m, tol)
    dim = len(hI)
    x01, w01 = _gauss_legendre(nodes)

    def nested(depth: int, upper: float) -> np.ndarray:
        # integral over 0 <= t_1 <= ... <= t_depth <= upper of
        # hI(t_depth) ... hI(t_1), in the eigenbasis
        if depth == 0:
            return np.eye(dim, dtype=complex)
        acc = np.zeros((dim, dim), dtype=complex)
        for xi, wi in zip(upper * x01, upper * w01):
            acc += wi * ((hI * np.exp(-xi * partition.delta)) @ nested(depth - 1, xi))
        return acc

    return partition.project_eig(nested(k, t))


def _compositions(k: int):
    """All tuples of positive integers summing to k, in lexicographic order."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first,) + rest


def general_kappa(
    split: SplitHamiltonian,
    m: int,
    k: int,
    t: float,
    tol: float = DEFAULT_RESONANCE_TOL,
    nodes: int = 32,
) -> np.ndarray:
    """Cumulant kappa_k(t) assembled from quadrature moments.

    kappa_k = sum over compositions (k0, .., kq) of k with positive parts of
    (-1)^q mudot_{k0} mu_{k1} ... mu_{kq}; the derivative mudot uses central
    finite differences on the quadrature moments.  Cross-check only; k <= 3.
    """
    if k not in (1, 2, 3):
        raise UnsupportedOrder(f"general_kappa implemented for k <= 3, got {k}")
    step = abs(t) * 1e-5 if t != 0 else 1e-5
    cache: dict[tuple[int, float], np.ndarray] = {}

    def mu(j: int, tau: float) -> np.ndarray:
        key = (j, tau)
        if key not in cache:
            cache[key] = mu_k_quadrature(split, m, j, tau, tol, nodes)
        return cache[key]

    def mudot(j: int, tau: float) -> np.ndarray:
        return (mu(j, tau + step) - mu(j, tau - step)) / (2 * step)

    dim = mu(1, t).shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for parts in _compositions(k):
        q = len(parts) - 1
        term = mudot(parts[0], t)
        for kj in parts[1:]:
            term = term @ mu(kj, t)
        total += (-1) ** q * term
    return total


def numeric_time_average(
    X: np.ndarray, M: np.ndarray, T: float, steps: int
) -> np.ndarray:
    """Trapezoidal (1/T) integral of exp(-iMs) X exp(iMs) over [0, T].

    Converges to project(X, M) at O(1/T) for generic spectra; kept as an
    independent cross-check of the exact spectral projection.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    partition = resonance_partition(M)
    eig = partition.decomposition
    X = linalg.as_matrix(X)
    if X.shape[0] != eig.dim:
        raise DimensionMismatch(f"X dim {X.shape[0]} != generator dim {eig.dim}")
    s_grid = np.linspace(0.0, T, steps)
    # one phase average per commutator eigenvalue, one at a time: a
    # (d, d, steps) array would hold every phase at once
    avg = np.array([np.trapezoid(np.exp(v * s_grid), s_grid) for v in partition.delta.ravel()]) / T
    return eig.from_eigenbasis(eig.to_eigenbasis(X) * avg.reshape(eig.dim, eig.dim))
