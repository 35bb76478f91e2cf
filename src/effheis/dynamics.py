"""Time evolution and comparison: the exact projected propagator sampled on
a grid, RK4 integration of the time-local equation dPsi/dt = l(t) Psi, and
error/convergence-order diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import DegenerateFit, GridMismatch, StepTooLarge
from .fermion import SplitHamiltonian, moment_generator
from .perturbation import TimeLocalGenerator, kappa12
from .projector import (
    DEFAULT_RESONANCE_TOL,
    free_moment_generator_hermitian,
    project_with,
    resonance_partition,
)

DEFAULT_MAX_DT = 1e-2
# order studies need the RK4 floor far below the coupling-dependent errors
ORDER_STUDY_MAX_DT = 1e-3
# an order study is degenerate when every error sits below round-off or
# below this multiple of the RK4 floor of the free evolution
ROUND_OFF = 1e-13
FLOOR_MARGIN = 10.0


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
    """Averaged propagator P(exp(h t)) at every grid point."""
    h = moment_generator(split.total(), m)
    M0 = free_moment_generator_hermitian(split, m)
    # h is anti-Hermitian: diagonalize once, exponentiate per grid point
    h_eig = linalg.hermitian_eigendecompose(1j * h)
    partition = resonance_partition(M0, tol)
    values = []
    for t in grid.times:
        phases = np.exp(-1j * h_eig.eigenvalues * t)
        values.append(project_with((h_eig.basis * phases) @ h_eig.basis.conj().T, partition))
    return PropagatorSeries(grid=grid, values=values, label="exact")


def _substeps(grid: TimeGrid, max_dt: float) -> int:
    """RK4 substeps per grid interval that keep the step at or below max_dt."""
    return max(1, math.ceil(grid.dt / max_dt))


def integrate_time_local(
    gen: TimeLocalGenerator,
    order: int,
    grid: TimeGrid,
    max_dt: float = DEFAULT_MAX_DT,
) -> PropagatorSeries:
    """Solve dPsi/dt = l(t) Psi, Psi(0) = I, with classic fixed-step RK4.

    Each grid interval is subdivided so the internal step stays at or below
    max_dt; raises StepTooLarge if max_abs(l(t)) * dt > 1 at any node.
    """
    dim = gen.h0.shape[0]
    substeps = _substeps(grid, max_dt)
    dt = grid.dt / substeps

    def rhs(t: float, psi: np.ndarray) -> np.ndarray:
        l = gen.at(t, order)
        if linalg.max_abs(l) * grid.dt > 1.0:
            raise StepTooLarge(
                f"max_abs(l({t:.3g})) * dt = {linalg.max_abs(l) * grid.dt:.3g} > 1"
            )
        return l @ psi

    psi = np.eye(dim, dtype=complex)
    values = [psi]
    t = 0.0
    for _ in range(grid.steps):
        for _ in range(substeps):
            k1 = rhs(t, psi)
            k2 = rhs(t + dt / 2, psi + dt / 2 * k1)
            k3 = rhs(t + dt / 2, psi + dt / 2 * k2)
            k4 = rhs(t + dt, psi + dt * k3)
            psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        values.append(psi)
    return PropagatorSeries(grid=grid, values=values, label=f"timelocal-order{order}")


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
    time-local integration.  On an exactly solvable model they carry no
    coupling dependence, only the RK4 truncation of the free evolution,
    t_end * rho^5 * dt^4 / 120 with rho the spectral radius of M0 and dt the
    RK4 substep; raises DegenerateFit when every error sits below
    FLOOR_MARGIN times that floor (or below ROUND_OFF).
    """
    lambdas = list(lambdas)
    if len(lambdas) < 3:
        raise ValueError("need at least 3 coupling values")
    errors = []
    for lam in lambdas:
        split_lam = replace(split, coupling=float(lam))
        exact = exact_series(split_lam, m, grid, tol)
        approx = integrate_time_local(
            kappa12(split_lam, m, tol), order, grid, max_dt=ORDER_STUDY_MAX_DT
        )
        errors.append(compare(exact, approx)["sup_error"])
    # M0 = kron_sum(E H0, m): its spectral radius is m times that of E H0
    rho = m * float(np.max(np.abs(np.linalg.eigvalsh(split.base.single_particle_generator()))))
    dt = grid.dt / _substeps(grid, ORDER_STUDY_MAX_DT)
    cut = max(ROUND_OFF, FLOOR_MARGIN * grid.t_end * rho**5 * dt**4 / 120)
    if max(errors) < cut:
        raise DegenerateFit(f"all errors below {cut:.1e}; model is exactly solvable", errors)
    slope = float(np.polyfit(np.log(lambdas), np.log(errors), 1)[0])
    return {"slope": slope, "lambdas": lambdas, "errors": errors}
