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
    free_moment_generator_hermitian,
    project_with,
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
    eigenbasis; raises StepTooLarge if max_abs(coupling^2 kappa2(t)) * dt > 1
    at a node.
    """
    if order not in (1, 2):
        raise UnsupportedOrder(f"time-local generator truncation order {order}")
    l1 = gen.h0 + gen.coupling * gen.kappa1
    # l1 is anti-Hermitian: l1 = -i V diag(w) V^dag
    eig = linalg.hermitian_eigendecompose(1j * l1)
    V, w = eig.basis, eig.eigenvalues
    dt = grid.dt

    def rotated_kappa2(t: float) -> np.ndarray:
        """exp(-l1 t) coupling^2 kappa2(t) exp(l1 t) in l1's eigenbasis."""
        k = gen.at(t, 2) - l1
        if linalg.max_abs(k) * dt > 1.0:
            raise StepTooLarge(
                f"max_abs(coupling^2 kappa2({t:.3g})) * dt = {linalg.max_abs(k) * dt:.3g} > 1"
            )
        phases = np.exp(1j * w * t)
        return eig.to_eigenbasis(k) * np.outer(phases, phases.conj())

    def psi(t: float, phi: np.ndarray) -> np.ndarray:
        """exp(l1 t) Phi in the original basis."""
        return (V * np.exp(-1j * w * t)) @ phi @ V.conj().T

    times = grid.times
    phi = np.eye(len(w), dtype=complex)
    values = [psi(times[0], phi)]
    if order == 2:
        k_end = rotated_kappa2(times[0])
    for t, t_next in zip(times[:-1], times[1:]):
        if order == 2:
            # one generator evaluation per distinct node: an interval's end
            # is the next interval's start
            k_start, k_mid, k_end = k_end, rotated_kappa2(t + dt / 2), rotated_kappa2(t_next)
            s1 = k_start @ phi
            s2 = k_mid @ (phi + dt / 2 * s1)
            s3 = k_mid @ (phi + dt / 2 * s2)
            s4 = k_end @ (phi + dt * s3)
            phi = phi + dt / 6 * (s1 + 2 * s2 + 2 * s3 + s4)
        values.append(psi(t_next, phi))
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
