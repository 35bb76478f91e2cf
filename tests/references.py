"""Literal references for the perturbative expansion and the averaging map,
used only by the tests: the spectral function phi of the second Dyson
moment, the Dyson moments mu_k by closed form and by nested quadrature, the
cumulants kappa_k assembled from quadrature moments, and the finite-time
trapezoidal average, and the projector-law checks one random sample at a
time.  The library evaluates the same quantities fast
(``perturbation.kappa12``, ``projector.project``, the stacked law checks of
``verify``); these are the slow, independent forms they are checked
against.

The moments and cumulants work on the dense d x d interaction hI of
``verify.resonance_frame`` in the frame of ``projector.free_moment_partition``
(``dense_frame``); ``fock_frame`` is the partition of H0hat that the Fock
checks take.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from effheis import linalg
from effheis.errors import DimensionMismatch, UnsupportedOrder
from effheis.fermion import SplitHamiltonian
from effheis.fock import (
    jordan_wigner,
    project_superoperator,
    quadratize,
    unitary_conjugation_superoperator,
)
from effheis.perturbation import SERIES_SWITCH, SERIES_TERMS
from effheis.projector import (
    DEFAULT_RESONANCE_TOL,
    free_moment_partition,
    project_with,
    resonance_partition,
)
from effheis.verify import _free_evolutions, resonance_frame


def dense_frame(split: SplitHamiltonian, m: int, tol: float = DEFAULT_RESONANCE_TOL):
    """The moment partition of M0 at ``tol`` and hI in its eigenbasis."""
    partition = free_moment_partition(split, m, tol)
    return partition, resonance_frame(split, partition)


def fock_frame(split: SplitHamiltonian, tol: float = DEFAULT_RESONANCE_TOL):
    """The resonance partition of H0hat at ``tol``, as
    ``verify.run_verification`` builds it."""
    return resonance_partition(quadratize(split.base, jordan_wigner(split.n)), tol)


def mu1(
    split: SplitHamiltonian, m: int, tol: float = DEFAULT_RESONANCE_TOL
) -> Callable[[float], np.ndarray]:
    """First Dyson moment mu_1(t) = t * P(hI)."""
    partition, hI = dense_frame(split, m, tol)
    p_hI = partition.project_eig(hI)
    return lambda t: t * p_hI


def spectral_phi(delta: np.ndarray, t) -> np.ndarray:
    """phi(d, t) = (e^{td} - 1 - td)/d^2, entrywise as
    ``perturbation.spectral_function`` takes psi: an entry with |td| below
    SERIES_SWITCH uses the truncated power series, which also covers d = 0
    (phi(0, t) = t^2 / 2); above it the expm1 form loses at most
    ~eps / |z| of phi to cancellation."""
    delta = np.asarray(delta, dtype=complex)
    z = t * delta
    small = np.abs(z) < SERIES_SWITCH
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray((np.expm1(z) - z) / np.where(small, 1, delta) ** 2)
    # series on the small entries: t^2 * sum_{k=0}^{5} z^k / (k + 2)!
    zs = z[small]
    term = np.full_like(zs, 1.0 / 2)
    series = term.copy()
    for k in range(1, SERIES_TERMS):
        term = term * zs / (k + 2)
        series += term
    out[small] = series * np.broadcast_to(t, z.shape)[small] ** 2
    return out


def mu2_closed(
    split: SplitHamiltonian, m: int, tol: float = DEFAULT_RESONANCE_TOL
) -> Callable[[float], np.ndarray]:
    """Second Dyson moment mu_2(t) = P(hI phi(t [h0, .]) hI), closed form."""
    partition, hI = dense_frame(split, m, tol)

    def evaluate(t: float) -> np.ndarray:
        weighted = hI * spectral_phi(partition.delta, t)
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
    partition, hI = dense_frame(split, m, tol)
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


def _random_complex(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def matrix_law_residuals_by_sample(moment_partition, rng: np.random.Generator,
                                   samples: int) -> dict:
    """``verify.matrix_projector_law_residuals`` one sample at a time: each
    sample draws X then Y and projects the stack
    [PX, U_1 X, U_2 X, alpha X + beta Y, Y] on its own."""
    dim = moment_partition.decomposition.dim
    res = {"idempotency": 0.0, "commutation": 0.0, "pulling": 0.0, "linearity": 0.0}
    Us = _free_evolutions(moment_partition)
    alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
    for _ in range(samples):
        X = _random_complex(dim, rng)
        Y = _random_complex(dim, rng)
        PX = project_with(X, moment_partition)
        P = project_with(np.stack([PX, *(Us @ X), alpha * X + beta * Y, Y]), moment_partition)
        U_PX = Us @ PX
        for name, r in (
            ("idempotency", P[0] - PX),
            ("commutation", PX @ Us - U_PX),
            ("pulling", P[1:3] - U_PX),
            ("linearity", P[3] - alpha * PX - beta * P[4]),
        ):
            res[name] = max(res[name], linalg.max_abs(r))
    return res


def superoperator_law_residuals_by_sample(fock_partition, rng: np.random.Generator,
                                          samples: int) -> dict:
    """``verify.superoperator_law_residuals`` one sample at a time: each
    sample projects Phi, then the stack [P Phi, F_1 Phi, F_2 Phi]."""
    d = len(fock_partition.labels)
    res = {"idempotency": 0.0, "commutation": 0.0, "pulling": 0.0}
    Fs = unitary_conjugation_superoperator(_free_evolutions(fock_partition))
    for _ in range(samples):
        Phi = _random_complex(d * d, rng)
        PPhi = project_superoperator(Phi, fock_partition)
        P = project_superoperator(np.stack([PPhi, *(Fs @ Phi)]), fock_partition)
        F_PPhi = Fs @ PPhi
        for name, r in (
            ("idempotency", P[0] - PPhi),
            ("commutation", PPhi @ Fs - F_PPhi),
            ("pulling", P[1:] - F_PPhi),
        ):
            res[name] = max(res[name], linalg.max_abs(r))
    return res
