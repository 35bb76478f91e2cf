"""Time evolution and comparison: the exact projected propagator sampled on
a grid, integration of the time-local equation dPsi/dt = l(t) Psi, and
error/convergence-order diagnostics.

Every averaged propagator is zero outside the resonant entries of M0's
eigenbasis V0, so a ``PropagatorSeries`` holds only those: a (grid points,
nnz) array in ``ResonancePartition.resonant`` order, the layout of kappa1
and kappa2(t).  ``compare`` and ``order_estimate`` work on the entries; the
d x d original-basis matrices are built on demand, by ``value(k)`` one grid
point at a time or by ``values`` for all of them, and never kept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import DegenerateFit, FrameMismatch, GridMismatch, Overflow, StepTooLarge, UnsupportedOrder
from .fermion import SplitHamiltonian
from .perturbation import TimeLocalGenerator, kappa12
from .projector import DEFAULT_RESONANCE_TOL, ResonancePartition, free_moment_partition

# an order study is degenerate when every error sits at round-off
ROUND_OFF = 1e-13
# past this, a phase t * w is known to eps * 1e15 ~ 0.2 rad: exp(-iwt) keeps no digit
PHASE_CAP = 1e15


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_steps = t_end."""

    t_end: float
    steps: int

    def __post_init__(self):
        if not 0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
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
    """A propagator on a grid, as the resonant entries of each grid point in
    the partition's eigenbasis: ``entries`` has shape (grid points, nnz), in
    ``partition.resonant`` order."""

    grid: TimeGrid
    partition: ResonancePartition
    entries: np.ndarray
    label: str

    def value(self, k: int) -> np.ndarray:
        """The d x d propagator at grid point k, in the original basis."""
        return self.partition.to_original(self.entries[k])

    @property
    def values(self) -> list:
        """The d x d propagator at every grid point, in the original basis,
        built anew on every access."""
        return [self.partition.to_original(e) for e in self.entries]


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
    of E H with eigenvalues w; raises Overflow if t_end * max|w| > PHASE_CAP."""
    partition = free_moment_partition(split, m, tol)
    frame = partition.decomposition
    K = linalg.hermitian_eigendecompose(split.total().single_particle_generator())
    phase = grid.t_end * float(np.max(np.abs(K.eigenvalues)))
    if not phase <= PHASE_CAP:
        raise Overflow(f"phase t_end * max|w| = {phase:.3e} exceeds cap {PHASE_CAP:.0e}")
    phases = np.exp(-1j * np.multiply.outer(grid.times, K.eigenvalues))
    B = frame.factor_to_eigenbasis((K.basis * phases[:, None, :]) @ K.basis.conj().T)
    rows, cols = partition.resonant
    entries = 1.0
    for a, c in zip(frame.digits(rows), frame.digits(cols)):
        entries = entries * B[:, a, c]
    return PropagatorSeries(grid=grid, partition=partition, entries=entries, label="exact")


def _sandwich_blocks(left: np.ndarray, X: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left[b] @ X_j[b] @ right[b] for every block b and node j, as
    (blocks, nodes, s, s), with X given as (blocks, s, nodes, s): the X_j
    side by side.  That is two GEMM-shaped products per block, the nodes'
    columns against ``left`` and then their rows against ``right``, where
    numpy's stacked matmul would make one small BLAS call per block and
    node."""
    blocks, s, nodes, _ = X.shape
    Y = (left @ X.reshape(blocks, s, nodes * s)).reshape(blocks, s, nodes, s)
    del X  # a temporary argument is freed before the next product
    Y = Y.transpose(0, 2, 1, 3).reshape(blocks, nodes * s, s)
    return (Y @ right).reshape(blocks, nodes, s, s)


def _rk4_blocks(rotated: np.ndarray, dt: float) -> np.ndarray:
    """Phi at every grid point, laid out (blocks, s, steps + 1, s), from
    classic RK4 on dPhi/dt = k(t) Phi, Phi(0) = I, with k at the nodes (grid
    points and midpoints, in time order) given as (blocks, nodes, s, s).

    The equation is linear, so step n is Phi <- R_n Phi with
    R_n = I + dt/6 (s1 + 2 s2 + 2 s3 + s4), the RK4 stages taken on Phi = I;
    the R_n of all steps are formed in one batch."""
    start, mid, end = rotated[:, 0:-1:2], rotated[:, 1::2], rotated[:, 2::2]
    eye = np.eye(rotated.shape[-1])
    # stages s1 = start, s2, s3, s4 summed into ``step`` as they are made,
    # each stage's input I + c s_k formed in ``factor``
    factor = dt / 2 * start
    factor += eye
    stage = mid @ factor
    step = 2 * stage
    step += start
    np.multiply(stage, dt / 2, out=factor)
    factor += eye
    np.matmul(mid, factor, out=stage)
    np.multiply(stage, dt, out=factor)
    factor += eye
    stage *= 2
    step += stage
    np.matmul(end, factor, out=stage)
    step += stage
    del factor, stage
    step *= dt / 6
    step += eye
    blocks, steps, s, _ = step.shape
    phi = np.empty((blocks, s, steps + 1, s), dtype=complex)
    phi[:, :, 0] = eye
    for n in range(steps):
        np.matmul(step[:, n], phi[:, :, n], out=phi[:, :, n + 1])
    return phi


def integrate_time_local(
    gen: TimeLocalGenerator,
    order: int,
    grid: TimeGrid,
) -> PropagatorSeries:
    """Solve dPsi/dt = l(t) Psi, Psi(0) = I, for l(t) = l1 + coupling^2 kappa2(t)
    with the constant part l1 = h0 + coupling * kappa1.

    Writes Psi(t) = exp(l1 t) Phi(t), with exp(l1 t) exact from the
    eigendecomposition of l1.  At order 1 Phi = I.  At order 2 classic RK4,
    one step per grid interval, integrates
    dPhi/dt = exp(-l1 t) coupling^2 kappa2(t) exp(l1 t) Phi in l1's
    eigenbasis, reading kappa2 at every node (grid points and interval
    midpoints) in one call; raises StepTooLarge if coupling^2 overflows or
    if max_abs(coupling^2 kappa2(t)) * dt > 1 at a node.

    Everything happens in M0's eigenbasis V0, where l1 = -i diag(lam) +
    coupling * kappa1 is block-diagonal over the resonance clusters.  The
    clusters are taken in buckets of one size, with no padding, and each
    bucket is one stack of blocks: l1 = -i W diag(w) W^dag is one stacked
    eigendecomposition, the rotation of kappa2 into l1's eigenbasis covers
    all nodes at once, RK4 runs on the stack, and exp(l1 t) Phi =
    W e^{-iwt} Phi W^dag is formed at all grid points at once; those are the
    series' entries.
    """
    if order not in (1, 2):
        raise UnsupportedOrder(f"time-local generator truncation order {order}")
    part, c = gen.partition, gen.coupling
    times, dt = grid.times, grid.dt
    if order == 2:
        c2 = float(c) * float(c)  # a Python float product overflows to inf silently
        if not c2 < np.inf:
            raise StepTooLarge(f"coupling^2 overflows at coupling = {c:.3g}")
        # every grid point and interval midpoint, in time order, in one call
        nodes = np.empty(2 * grid.steps + 1)
        nodes[0::2] = times
        nodes[1::2] = times[:-1] + dt / 2
        K = gen.kappa2_of_t(nodes)
        # max_abs <= Frobenius norm, which V0 leaves unchanged: the exact
        # original-basis test runs only at the nodes where the bound fails
        # (vecdot, unlike norm, makes no temporary the size of K).  A huge
        # coupling overflows the bound or the test to inf or NaN, which
        # fails both comparisons
        with np.errstate(over="ignore", invalid="ignore"):
            K *= c2
            for j in np.flatnonzero(~(np.sqrt(np.vecdot(K, K).real) * dt <= 1.0)):
                worst = linalg.max_abs(part.to_original(K[j]))
                if not worst * dt <= 1.0:
                    raise StepTooLarge(
                        f"max_abs(coupling^2 kappa2({nodes[j]:.3g})) * dt = {worst * dt:.3g} > 1"
                    )

    # i l1 = diag(lam) + i coupling kappa1, as resonant entries; these run
    # cluster by cluster, row-major, so cluster b's block is the s_b^2
    # entries from offsets[b] on
    rows, cols = part.resonant
    hermitian = np.where(rows == cols, part.eigenvalues[rows], 0.0) + 1j * c * gen.kappa1
    entries = np.empty((len(times), len(hermitian)), dtype=complex)
    for s in np.unique(part.sizes):
        index = part.offsets[part.sizes == s][:, None, None] + np.arange(s * s).reshape(s, s)
        eig = linalg.hermitian_eigendecompose(hermitian[index])
        W, w = eig.basis, eig.eigenvalues
        W_dag = W.conj().transpose(0, 2, 1)
        # e^{-iwt} at the grid points; Phi there is laid out
        # (blocks, s, grid points, s)
        phases = np.exp(-1j * w[:, :, None] * times)[..., None]
        if order == 1:
            phi = np.eye(s)[:, None, :] * phases
        else:
            # exp(-l1 t) coupling^2 kappa2(t) exp(l1 t) in l1's eigenbasis
            # at every node, from kappa2 gathered as (blocks, s, nodes, s)
            rotated = _sandwich_blocks(
                W_dag, K[np.arange(len(nodes))[:, None], index[:, :, None, :]], W
            )
            turn = np.exp(1j * w[:, None, :] * nodes[:, None])
            rotated *= turn[..., :, None]
            rotated *= turn.conj()[..., None, :]
            phi = _rk4_blocks(rotated, dt)
            del rotated
            phi *= phases
        # exp(l1 t) Phi = W e^{-iwt} Phi W^dag at every grid point
        entries[:, index] = _sandwich_blocks(W, phi, W_dag).transpose(1, 0, 2, 3)
    return PropagatorSeries(
        grid=grid, partition=part, entries=entries, label=f"timelocal-order{order}"
    )


def compare(a: PropagatorSeries, b: PropagatorSeries) -> dict:
    """Per-point and sup max-entry errors, in the original basis, between two
    series on one grid and one frame.

    When V0 is a permutation (V1 = I, a diagonal E H0), ``to_original`` only
    scatters, so a point's error is the largest entry difference, bit for
    bit, and no d x d matrix is made.  Otherwise each point's entry
    difference goes to the original basis, one d x d matrix at a time."""
    if a.grid != b.grid:
        raise GridMismatch("series grids differ")
    part = a.partition
    if not part.same_frame(b.partition):
        raise FrameMismatch("series are held in different resonance frames")
    diff = a.entries - b.entries
    frame = part.decomposition
    if isinstance(frame, linalg.KroneckerEigenDecomposition) and frame.factor is None:
        per_point = np.abs(diff).max(axis=1).tolist()
    else:
        per_point = [linalg.max_abs(part.to_original(e)) for e in diff]
    # np.max, unlike max, propagates a NaN at any point
    return {"sup_error": float(np.max(per_point)), "per_point": per_point}


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
    left; raises DegenerateFit when every error is at most ROUND_OFF.  Here
    and in ``cli``'s evolve the truncated series is built before the exact
    one: a coupling too large for both meets the step guard (StepTooLarge).
    """
    lambdas = list(lambdas)
    if len(lambdas) < 3:
        raise ValueError("need at least 3 coupling values")
    if not all(0 < lam < np.inf for lam in lambdas):
        raise ValueError(f"lambdas must be positive finite couplings, got {lambdas}")
    # kappa1 and kappa2(t) do not depend on the coupling: built once
    gen = kappa12(split, m, tol)
    errors = []
    for lam in lambdas:
        approx = integrate_time_local(replace(gen, coupling=float(lam)), order, grid)
        exact = exact_series(replace(split, coupling=float(lam)), m, grid, tol)
        errors.append(compare(exact, approx)["sup_error"])
    if max(errors) <= ROUND_OFF:
        raise DegenerateFit(f"all errors at most {ROUND_OFF:.0e}; model is exactly solvable", errors)
    slope = float(np.polyfit(np.log(lambdas), np.log(errors), 1)[0])
    return {"slope": slope, "lambdas": lambdas, "errors": errors}
