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

    Both are read off the k x k G = V1^dag E HI V1 (k = 2n) and the slot
    indices (``digits``) of the resonant entries; no d x d array is made.
    In V0, hI = -i sum_s G_(s), G placed in slot s, so hI[a, c] is
    -i sum_s G[a_s, c_s] over the slots s off which a and c agree.  Where
    they differ in slot r alone, lam_a - lam_c = l_{a_r} - l_{c_r}, so
    psi(t [h0, .]) hI = -i sum_r (G o Psi(t))_(r) with
    Psi(t)_ij = psi(-i (l_i - l_j), t), and kappa2(t)[a, c] is

        sum_{s, r} sum_x G_(s)[a, x] G_(r)[x, c] (t [x in the cluster of c] - Psi_ij(t))

    where x is c with slot r set to some i, and j = c_r.  So kappa2(t) is a
    fixed combination of the k^2 values Psi(t)_ij, whose weights are
    gathered once: the t terms go to Psi_00 = t, and a term whose bracket is
    exactly 0 (x in the cluster of c and l_i = l_j) is left out, so that
    kappa2 cancels exactly where hI commutes with h0.  kappa2 at any number
    of times is then one psi evaluation and one product.
    """
    partition = free_moment_partition(split, m, tol)
    frame = partition.decomposition
    k, l = frame.k, frame.slot_eigenvalues
    G = frame.factor_to_eigenbasis(split.interaction.single_particle_generator())
    a, c = (np.array(frame.digits(index)) for index in partition.resonant)
    differ, g = a != c, G[a, c]
    # the cluster of every basis column by its Kronecker index, and the
    # Kronecker index of every column c
    cluster, column = partition.labels[np.argsort(frame.order)], frame.order[partition.resonant[1]]
    weights = np.zeros((len(column), k * k), dtype=complex)
    i = np.arange(k)
    for s, r in np.ndindex(m, m):
        # the entries with a term G_(s)[a, x] G_(r)[x, c]: a and c agree off
        # slots s and r; x is c with slot r set to i, and with s != r only
        # i = a_r gives G_(s)[a, x] != 0
        e = np.flatnonzero(~np.delete(differ, [r, s], axis=0).any(axis=0))
        j, home = c[r, e, None], column[e, None]
        product = (G[a[s, e]] if r == s else g[s, e, None] * np.eye(k)[a[r, e]]) * G.T[c[r, e]]
        resonant = cluster[home + (i - j) * k ** (m - 1 - r)] == cluster[home]
        weights[e, 0] += np.where(resonant & (l[i] != l[j]), product, 0).sum(axis=1)
        weights[e[:, None], i * k + j] -= np.where(resonant & (l[i] == l[j]), 0, product)
    kappa1 = -1j * sum(np.where(np.delete(differ, s, 0).any(0), 0, g[s]) for s in range(m))
    # only the entries and differences that some term reaches: kappa2 is 0
    # where a and c differ in three slots or more
    rows, cols = np.flatnonzero(weights.any(axis=1)), np.flatnonzero(weights.any(axis=0))
    weights, delta = weights[np.ix_(rows, cols)], -1j * np.subtract.outer(l, l).ravel()[cols]

    def kappa2(times) -> np.ndarray:
        psi = spectral_function(delta, np.asarray(times, dtype=float)[..., None], "psi")
        out = np.zeros(psi.shape[:-1] + kappa1.shape, dtype=complex)
        out[..., rows] = psi @ weights.T
        return out

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
