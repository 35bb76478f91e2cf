"""Time-convolutionless generator of the projected interaction-picture
propagator: the spectral functions psi and phi and the first two cumulants,
kappa1 and kappa2(t), read off the 2n x 2n single-particle interaction and
held as resonant entries in the eigenbasis of the free moment generator
(``kappa12``, ``TimeLocalGenerator``).  The literal Dyson-moment and
cumulant forms they are checked against are in ``tests/references.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
