"""Time evolution and comparison: the exact projected propagator sampled on
a grid, integration of the time-local equation dPsi/dt = l(t) Psi, and
error/convergence-order diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import DegenerateFit, GridMismatch, StepTooLarge, UnsupportedOrder
from .fermion import SplitHamiltonian, moment_generator
from .perturbation import TimeLocalGenerator, kappa12
from .projector import (
    DEFAULT_RESONANCE_TOL,
    ResonancePartition,
    free_moment_generator_hermitian,
    resonance_partition,
)

# an order study is degenerate when every error sits at round-off
ROUND_OFF = 1e-13


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_steps = t_end."""

    t_end: float
    steps: int

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.steps + 1)

    @property
    def dt(self) -> float:
        return self.t_end / self.steps


@dataclass(frozen=True)
class PropagatorSeries:
    grid: TimeGrid
    values: list
    label: str


def exact_series(
    split: SplitHamiltonian,
    m: int,
    grid: TimeGrid,
    tol: float = DEFAULT_RESONANCE_TOL,
) -> PropagatorSeries:
    """Averaged propagator P(exp(h t)) at every grid point.

    With h = -i V_h diag(w_h) V_h^dag and A = V0^dag V_h, exp(h t) is
    (A e^{-i w_h t}) A^dag in M0's eigenbasis V0, where P keeps its
    resonant blocks."""
    h = moment_generator(split.total(), m)
    M0 = free_moment_generator_hermitian(split, m)
    # h is anti-Hermitian: diagonalize once, exponentiate per grid point
    h_eig = linalg.hermitian_eigendecompose(1j * h)
    partition = resonance_partition(M0, tol)
    frame = partition.decomposition
    A = frame.basis.conj().T @ h_eig.basis
    A_dag = A.conj().T
    values = []
    for t in grid.times:
        phases = np.exp(-1j * h_eig.eigenvalues * t)
        values.append(frame.from_eigenbasis(np.where(partition.mask, (A * phases) @ A_dag, 0.0)))
    return PropagatorSeries(grid=grid, values=values, label="exact")


def _block_eigendecompose(partition: ResonancePartition, H: np.ndarray):
    """Eigendecomposition of a Hermitian H that is block-diagonal over the
    clusters of ``partition``, one cluster at a time: the basis W is
    block-diagonal too, with ascending eigenvalues inside each block."""
    W = np.zeros_like(H)
    w = np.empty(len(H))
    for lo, hi in zip(partition.bounds, [*partition.bounds[1:], len(H)]):
        block = linalg.hermitian_eigendecompose(H[lo:hi, lo:hi])
        W[lo:hi, lo:hi] = block.basis
        w[lo:hi] = block.eigenvalues
    return W, w


def integrate_time_local(
    gen: TimeLocalGenerator,
    order: int,
    grid: TimeGrid,
) -> PropagatorSeries:
    """Solve dPsi/dt = l(t) Psi, Psi(0) = I, for l(t) = l1 + coupling^2 kappa2(t)
    with the constant part l1 = h0 + coupling * kappa1.

    Writes Psi(t) = exp(l1 t) Phi(t), with exp(l1 t) exact from one
    eigendecomposition of l1.  At order 1 Phi = I.  At order 2 classic RK4,
    one step per grid interval, integrates
    dPhi/dt = exp(-l1 t) coupling^2 kappa2(t) exp(l1 t) Phi in l1's
    eigenbasis, reading kappa2 at every node (grid points and interval
    midpoints) in one call; raises StepTooLarge if
    max_abs(coupling^2 kappa2(t)) * dt > 1 at a node.

    Everything happens in M0's eigenbasis V0, where l1 = -i diag(lam) +
    coupling * kappa1 is block-diagonal over the resonance clusters and is
    eigendecomposed one block at a time, l1 = -i W diag(w) W^dag.  RK4 runs
    on the blocks, and the original basis is reached through U = V0 W at
    grid points only.
    """
    if order not in (1, 2):
        raise UnsupportedOrder(f"time-local generator truncation order {order}")
    part, c = gen.partition, gen.coupling
    d = len(gen.kappa1)
    W, w = _block_eigendecompose(part, np.diag(part.eigenvalues) + 1j * c * gen.kappa1)
    U = part.decomposition.basis @ W
    U_dag = U.conj().T
    times, dt = grid.times, grid.dt
    label = f"timelocal-order{order}"
    if order == 1:
        values = [(U * np.exp(-1j * w * t)) @ U_dag for t in times]
        return PropagatorSeries(grid=grid, values=values, label=label)

    # Phi and the rotated kappa2 are block-diagonal: RK4 runs on the blocks,
    # stacked and zero-padded to the largest one; the entries inside the
    # blocks, in stack order, are the resonant entries in partition order
    sizes = np.diff(part.bounds, append=d)
    offsets = np.arange(sizes.max())
    valid = offsets < sizes[:, None]
    index = np.where(valid, part.bounds[:, None] + offsets, 0)
    rows, cols = index[:, :, None], index[:, None, :]
    inside = valid[:, :, None] & valid[:, None, :]
    W_blocks = np.where(inside, W[rows, cols], 0.0)
    W_blocks_dag = W_blocks.conj().transpose(0, 2, 1)
    w_blocks = w[index]

    # every grid point and interval midpoint, in time order, in one call
    nodes = np.empty(2 * grid.steps + 1)
    nodes[0::2] = times
    nodes[1::2] = times[:-1] + dt / 2
    K = gen.kappa2_of_t(nodes)
    K *= c**2
    # max_abs <= Frobenius norm, which V0 leaves unchanged: the exact
    # original-basis test runs only at the nodes where the bound fails
    # (vecdot, unlike norm, makes no temporary the size of K)
    for j in np.flatnonzero(np.sqrt(np.vecdot(K, K).real) * dt > 1.0):
        worst = linalg.max_abs(part.decomposition.from_eigenbasis(part.dense(K[j])))
        if worst * dt > 1.0:
            raise StepTooLarge(
                f"max_abs(coupling^2 kappa2({nodes[j]:.3g})) * dt = {worst * dt:.3g} > 1"
            )

    def rotated_kappa2(j: int) -> np.ndarray:
        """exp(-l1 t) coupling^2 kappa2(t) exp(l1 t) at node j, in l1's
        eigenbasis, as padded blocks."""
        block = np.zeros(inside.shape, dtype=complex)
        block[inside] = K[j]
        phases = np.exp(1j * w_blocks * nodes[j])
        return (W_blocks_dag @ block @ W_blocks) * (phases[:, :, None] * phases.conj()[:, None, :])

    def psi(t: float, phi: np.ndarray) -> np.ndarray:
        """exp(l1 t) Phi in the original basis."""
        return (U * np.exp(-1j * w * t)) @ part.dense(phi[inside]) @ U_dag

    phi = (inside & (rows == cols)).astype(complex)
    values = [psi(times[0], phi)]
    k_end = rotated_kappa2(0)
    for j, t_next in enumerate(times[1:]):
        k_start, k_mid, k_end = k_end, rotated_kappa2(2 * j + 1), rotated_kappa2(2 * j + 2)
        s1 = k_start @ phi
        s2 = k_mid @ (phi + dt / 2 * s1)
        s3 = k_mid @ (phi + dt / 2 * s2)
        s4 = k_end @ (phi + dt * s3)
        phi = phi + dt / 6 * (s1 + 2 * s2 + 2 * s3 + s4)
        values.append(psi(t_next, phi))
    return PropagatorSeries(grid=grid, values=values, label=label)


def compare(a: PropagatorSeries, b: PropagatorSeries) -> dict:
    """Per-point and sup max-entry errors between two series on one grid."""
    if a.grid != b.grid:
        raise GridMismatch("series grids differ")
    per_point = [linalg.max_abs(x - y) for x, y in zip(a.values, b.values)]
    return {"sup_error": max(per_point), "per_point": per_point}


def order_estimate(
    split: SplitHamiltonian,
    m: int,
    grid: TimeGrid,
    lambdas,
    order: int = 2,
    tol: float = DEFAULT_RESONANCE_TOL,
) -> dict:
    """Least-squares slope of log(sup error) vs log(lambda).

    Errors are between the exact projected propagator and the order-truncated
    time-local integration.  The integration exponentiates h0 + lambda kappa1
    exactly, so on an exactly solvable model (kappa2 = 0) only round-off is
    left; raises DegenerateFit when every error is at most ROUND_OFF.
    """
    lambdas = list(lambdas)
    if len(lambdas) < 3:
        raise ValueError("need at least 3 coupling values")
    errors = []
    for lam in lambdas:
        split_lam = replace(split, coupling=float(lam))
        exact = exact_series(split_lam, m, grid, tol)
        approx = integrate_time_local(kappa12(split_lam, m, tol), order, grid)
        errors.append(compare(exact, approx)["sup_error"])
    if max(errors) <= ROUND_OFF:
        raise DegenerateFit(f"all errors at most {ROUND_OFF:.0e}; model is exactly solvable", errors)
    slope = float(np.polyfit(np.log(lambdas), np.log(errors), 1)[0])
    return {"slope": slope, "lambdas": lambdas, "errors": errors}
