"""Time evolution and comparison: the exact projected propagator sampled on
a grid, integration of the time-local equation dPsi/dt = l(t) Psi, and
error/convergence-order diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import DegenerateFit, GridMismatch, StepTooLarge, UnsupportedOrder
from .fermion import SplitHamiltonian
from .perturbation import TimeLocalGenerator, kappa12
from .projector import DEFAULT_RESONANCE_TOL, ResonancePartition, free_moment_partition

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

    exp(h t) = O(t)^{(x)m} with O(t) = exp(-i E H t), and M0's eigenbasis is
    V0 = V1^{(x)m} with sorted columns, so entry (a, c) of exp(h t) in V0 is
    the product over the slots k of B(t)[a_k, c_k], B(t) = V1^dag O(t) V1,
    with (a_1, ..., a_m) the slot indices of column a.  Only the resonant
    entries, which P keeps, are formed, from one 2n x 2n eigendecomposition
    of E H, and they go straight to the original basis."""
    partition = free_moment_partition(split, m, tol)
    frame = partition.decomposition
    times = grid.times
    K = linalg.hermitian_eigendecompose(split.total().single_particle_generator())
    phases = np.exp(-1j * np.multiply.outer(times, K.eigenvalues))
    B = frame.factor_to_eigenbasis((K.basis * phases[:, None, :]) @ K.basis.conj().T)
    rows, cols = partition.resonant
    entries = 1.0
    for a, c in zip(frame.digits(rows), frame.digits(cols)):
        entries = entries * B[:, a, c]
    values = [frame.from_entries(rows, cols, e) for e in entries]
    return PropagatorSeries(grid=grid, values=values, label="exact")


def _block_eigendecompose(partition: ResonancePartition, H: np.ndarray):
    """Eigendecomposition of a Hermitian H that is block-diagonal over the
    clusters of ``partition``, one cluster at a time, as stacks zero-padded
    to the largest cluster: block b of H is W[b] diag(w[b]) W[b]^dag on its
    leading rows and columns, with ascending eigenvalues."""
    bounds = [*partition.bounds, len(H)]
    sizes = np.diff(bounds)
    W = np.zeros((len(sizes), sizes.max(), sizes.max()), dtype=complex)
    w = np.zeros((len(sizes), sizes.max()))
    for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        block = linalg.hermitian_eigendecompose(H[lo:hi, lo:hi])
        W[b, : hi - lo, : hi - lo] = block.basis
        w[b, : hi - lo] = block.eigenvalues
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
    on the blocks, and exp(l1 t) Phi = W e^{-iwt} Phi W^dag, formed on the
    blocks at grid points only, goes to the original basis through
    ``from_entries``.
    """
    if order not in (1, 2):
        raise UnsupportedOrder(f"time-local generator truncation order {order}")
    part, c = gen.partition, gen.coupling
    frame = part.decomposition
    W, w = _block_eigendecompose(part, np.diag(part.eigenvalues) + 1j * c * gen.kappa1)
    W_dag = W.conj().transpose(0, 2, 1)
    times, dt = grid.times, grid.dt
    label = f"timelocal-order{order}"
    # the entries inside the padded blocks, in stack order, are the
    # resonant entries in partition order
    sizes = np.diff(part.bounds, append=len(part.eigenvalues))
    valid = np.arange(W.shape[1]) < sizes[:, None]
    inside = valid[:, :, None] & valid[:, None, :]

    def psi(t: float, phi: np.ndarray) -> np.ndarray:
        """exp(l1 t) Phi in the original basis, for Phi as padded blocks."""
        blocks = (W * np.exp(-1j * w * t)[:, None, :]) @ phi @ W_dag
        return frame.from_entries(*part.resonant, blocks[inside])

    phi = (inside & np.eye(W.shape[1], dtype=bool)).astype(complex)
    if order == 1:
        return PropagatorSeries(grid=grid, values=[psi(t, phi) for t in times], label=label)

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
        worst = linalg.max_abs(frame.from_entries(*part.resonant, K[j]))
        if worst * dt > 1.0:
            raise StepTooLarge(
                f"max_abs(coupling^2 kappa2({nodes[j]:.3g})) * dt = {worst * dt:.3g} > 1"
            )

    def rotated_kappa2(j: int) -> np.ndarray:
        """exp(-l1 t) coupling^2 kappa2(t) exp(l1 t) at node j, in l1's
        eigenbasis, as padded blocks."""
        block = np.zeros(inside.shape, dtype=complex)
        block[inside] = K[j]
        phases = np.exp(1j * w * nodes[j])
        return (W_dag @ block @ W) * (phases[:, :, None] * phases.conj()[:, None, :])

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
