"""Time-convolutionless expansion of the projected interaction-picture
propagator: Dyson moments mu_k, their closed forms at orders 1-2, the
cumulant combinations kappa_k and the assembled time-local generator.

All spectral-function sandwiches are evaluated entrywise in the eigenbasis
of the Hermitian free generator M0 (h0 = -i M0), where the commutator
superoperator [h0, . ] acts diagonally with eigenvalue
delta_ab = -i (lam_a - lam_b) on the (a, b) entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import UnsupportedOrder
from .fermion import SplitHamiltonian
from .projector import DEFAULT_RESONANCE_TOL, ResonancePartition, free_moment_partition

# Below |z| = 1e-2 the six-term series is exact to round-off; above it the
# expm1 forms lose at most ~eps / |z| of phi to cancellation.
SERIES_SWITCH = 1e-2
SERIES_TERMS = 6


def spectral_function(delta: np.ndarray, t, kind: str) -> np.ndarray:
    """psi(d, t) = (e^{td} - 1)/d or phi(d, t) = (e^{td} - 1 - td)/d^2.

    Entrywise on an array of commutator eigenvalues, with ``t`` a scalar or
    an array that broadcasts against ``delta``; an entry with |td| below
    the switch threshold uses the truncated power series, which also covers
    d = 0 (psi(0, t) = t, phi(0, t) = t^2 / 2).
    """
    if kind not in ("psi", "phi"):
        raise ValueError(f"unknown spectral function kind {kind!r}")
    delta = np.asarray(delta, dtype=complex)
    z = t * delta
    small = np.abs(z) < SERIES_SWITCH
    shift = 1 if kind == "psi" else 2
    with np.errstate(divide="ignore", invalid="ignore"):
        numerator = np.expm1(z) if kind == "psi" else np.expm1(z) - z
        out = np.asarray(numerator / np.where(small, 1, delta) ** shift)
    # series on the small entries: t^shift * sum_{k=0}^{5} z^k / (k + shift)!
    zs = z[small]
    term = np.full_like(zs, 1.0 / shift)
    series = term.copy()
    for k in range(1, SERIES_TERMS):
        term = term * zs / (k + shift)
        series += term
    out[small] = series * np.broadcast_to(t, z.shape)[small] ** shift
    return out


def resonance_frame(
    split: SplitHamiltonian, m: int, tol: float = DEFAULT_RESONANCE_TOL
) -> tuple[ResonancePartition, np.ndarray]:
    """Resonance partition of the free moment generator M0, and the
    interaction moment generator hI = -i kron_sum(E HI, m) in M0's
    eigenbasis V0 = V1^{(x)m} (columns sorted): that is
    -i kron_sum(V1^dag E HI V1, m), rows and columns gathered in sort order."""
    partition = free_moment_partition(split, m, tol)
    frame = partition.decomposition
    G = frame.factor_to_eigenbasis(split.interaction.single_particle_generator())
    return partition, -1j * linalg.kron_sum(G, m)[np.ix_(frame.order, frame.order)]


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


@dataclass(frozen=True)
class TimeLocalGenerator:
    """Generator l(t) = h0 + coupling * kappa1 + coupling^2 * kappa2(t), held
    in the eigenbasis V0 of M0 (h0 = -i V0 diag(lam) V0^dag), where kappa1
    and kappa2(t) are block-diagonal over the clusters of ``partition``.

    Both are held as their resonant entries, in ``partition.resonant``
    order: ``kappa1`` has shape (nnz,), and ``kappa2_of_t(times)`` takes a
    scalar or an array of times and returns shape ``times.shape + (nnz,)``.
    ``partition.to_original`` takes such entries to the original basis.
    """

    partition: ResonancePartition
    kappa1: np.ndarray
    kappa2_of_t: Callable[[np.ndarray], np.ndarray]
    coupling: float

    def at(self, t: float, order: int) -> np.ndarray:
        """l(t) truncated at ``order``, in the original basis."""
        if order not in (1, 2):
            raise UnsupportedOrder(f"time-local generator truncation order {order}")
        rows, cols = self.partition.resonant
        l = -1j * np.where(rows == cols, self.partition.eigenvalues[rows], 0.0)
        l = l + self.coupling * self.kappa1
        if order == 2:
            l = l + self.coupling**2 * self.kappa2_of_t(t)
        return self.partition.to_original(l)


def kappa12(
    split: SplitHamiltonian, m: int, tol: float = DEFAULT_RESONANCE_TOL
) -> TimeLocalGenerator:
    """First two cumulants in M0's eigenbasis, where P keeps the resonant
    blocks: kappa1 = P(hI), kappa2(t) = P(hI psi(t [h0, .]) hI) - t kappa1^2.

    Entry (a, c) of kappa2(t) is sum_x hI[a, x] hI[x, c] psi(lam_x - lam_c, t)
    - t kappa1^2[a, c], a fixed combination of psi over the distinct
    frequency differences.  Its weights are gathered once, one cluster at a
    time; -t kappa1^2 goes to the zero difference, where psi(0, t) = t.
    kappa2 at any number of times is then one psi evaluation and one product.
    """
    partition, hI = resonance_frame(split, m, tol)
    kappa1 = hI[partition.resonant]
    values, inverse = partition.distinct_delta
    nf = len(values)
    weights = np.empty((len(kappa1), nf), dtype=complex)
    for lo, s, start in zip(partition.bounds, partition.sizes, partition.offsets):
        hi = lo + s
        rows = weights[start : start + s * s]
        # products hI[a, x] hI[x, c] for a, c in the cluster, binned by the
        # difference of (x, c) under the row-major entry number of (a, c)
        products = (hI[lo:hi, :, None] * hI[None, :, lo:hi]).ravel()
        bins = (np.arange(s * s).reshape(s, 1, s) * nf + inverse[None, :, lo:hi]).ravel()
        rows.real = np.bincount(bins, products.real, rows.size).reshape(rows.shape)
        rows.imag = np.bincount(bins, products.imag, rows.size).reshape(rows.shape)
        block = hI[lo:hi, lo:hi]
        rows[:, inverse[0, 0]] -= (block @ block).ravel()

    def kappa2(times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        psi = spectral_function(values, times[..., None], "psi")
        return psi @ weights.T

    return TimeLocalGenerator(
        partition=partition, kappa1=kappa1, kappa2_of_t=kappa2, coupling=split.coupling
    )


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
