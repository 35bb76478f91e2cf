import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effheis as eh
from effheis import linalg
from effheis.dynamics import (
    PropagatorSeries,
    TimeGrid,
    compare,
    exact_series,
    integrate_time_local,
    order_estimate,
)
from effheis.errors import DegenerateFit, GridMismatch, StepTooLarge
from effheis.perturbation import kappa12
from effheis.projector import effective_propagator
from effheis.verify import random_valid_fermion


def dense_rk4(gen, order, grid, max_step=1e-3):
    """Reference: classic RK4 on dPsi/dt = l(t) Psi in the original basis,
    each grid interval cut into substeps of at most max_step."""
    substeps = max(1, math.ceil(grid.dt / max_step))
    dt = grid.dt / substeps
    psi = np.eye(gen.h0.shape[0], dtype=complex)
    values = [psi]
    t = 0.0
    for _ in range(grid.steps):
        for _ in range(substeps):
            k1 = gen.at(t, order) @ psi
            k2 = gen.at(t + dt / 2, order) @ (psi + dt / 2 * k1)
            k3 = gen.at(t + dt / 2, order) @ (psi + dt / 2 * k2)
            k4 = gen.at(t + dt, order) @ (psi + dt * k3)
            psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        values.append(psi)
    return values


@st.composite
def random_generators(draw):
    """kappa12 of a random valid split: n, m in {1, 2}, coupling <= 0.2."""
    n = draw(st.sampled_from([1, 2]))
    m = draw(st.sampled_from([1, 2]))
    lam = draw(st.floats(0.0, 0.2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    split = eh.SplitHamiltonian(
        base=random_valid_fermion(n, rng), interaction=random_valid_fermion(n, rng), coupling=lam
    )
    return kappa12(split, m)


class TestTimeGrid:
    def test_times_and_dt(self):
        grid = TimeGrid(1.0, 4)
        np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.dt == 0.25

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)


class TestExactSeries:
    def test_starts_at_identity(self, offres_split):
        series = exact_series(offres_split, 1, TimeGrid(1.0, 4))
        assert linalg.max_abs(series.values[0] - np.eye(4)) < 1e-14

    def test_matches_pointwise_propagator(self, detuned_split):
        grid = TimeGrid(1.0, 5)
        series = exact_series(detuned_split, 1, grid)
        for t, val in zip(grid.times, series.values):
            assert linalg.max_abs(val - effective_propagator(detuned_split, 1, t)) < 1e-11

    def test_free_case(self, offres_split):
        split = replace(offres_split, coupling=0.0)
        grid = TimeGrid(2.0, 8)
        h0 = eh.moment_generator(split.base, 1)
        series = exact_series(split, 1, grid)
        for t, val in zip(grid.times, series.values):
            assert linalg.max_abs(val - linalg.matrix_exponential(h0 * t)) < 1e-11


class TestIntegrateTimeLocal:
    def test_zero_coupling_reproduces_free(self, offres_split):
        split = replace(offres_split, coupling=0.0)
        grid = TimeGrid(1.0, 20)
        h0 = eh.moment_generator(split.base, 1)
        series = integrate_time_local(kappa12(split, 1), 2, grid)
        for t, val in zip(grid.times, series.values):
            assert linalg.max_abs(val - linalg.matrix_exponential(h0 * t)) < 1e-8

    def test_constant_generator_order1(self, resonant_split):
        # kappa1 is time independent, so order 1 integrates a constant
        # generator: Psi(t) = exp((h0 + lambda kappa1) t)
        grid = TimeGrid(1.0, 20)
        gen = kappa12(resonant_split, 1)
        lam = resonant_split.coupling
        series = integrate_time_local(gen, 1, grid)
        for t, val in zip(grid.times, series.values):
            want = linalg.matrix_exponential((gen.h0 + lam * gen.kappa1) * t)
            assert linalg.max_abs(val - want) < 1e-8

    def test_step_halving_self_consistency(self, detuned_split):
        gen = kappa12(detuned_split, 1)
        coarse = integrate_time_local(gen, 2, TimeGrid(1.0, 100))
        fine = integrate_time_local(gen, 2, TimeGrid(1.0, 200))
        diff = max(
            linalg.max_abs(a - b) for a, b in zip(coarse.values, fine.values[::2])
        )
        # diff is dominated by the coarse-step truncation error
        assert diff < 1e-8

    def test_order2_matches_dense_rk4_noncommuting(self, rng):
        # a degenerate pair next to a third mode: kappa2(t) does not commute
        # with h0 + lambda kappa1, so the frame rotation of kappa2 matters
        split = eh.SplitHamiltonian(
            base=eh.diagonal_modes([1.0, 1.0, 2.0]),
            interaction=random_valid_fermion(3, rng),
            coupling=0.2,
        )
        gen = kappa12(split, 1)
        l1 = gen.h0 + gen.coupling * gen.kappa1
        assert linalg.max_abs(l1 @ gen.kappa2_of_t(0.7) - gen.kappa2_of_t(0.7) @ l1) > 1e-2
        grid = TimeGrid(1.0, 20)
        series = integrate_time_local(gen, 2, grid)
        ref = dense_rk4(gen, 2, grid)
        assert max(linalg.max_abs(a - b) for a, b in zip(series.values, ref)) < 1e-8

    def test_step_too_large(self, detuned_split):
        gen = kappa12(replace(detuned_split, coupling=1.0), 1)
        with pytest.raises(StepTooLarge):
            integrate_time_local(gen, 2, TimeGrid(5.0, 1))


class TestIntegrateTimeLocalProperties:
    GRID = TimeGrid(1.0, 20)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(random_generators())
    def test_order1_is_exact_exponential(self, gen):
        l1 = gen.h0 + gen.coupling * gen.kappa1
        series = integrate_time_local(gen, 1, self.GRID)
        for t, val in zip(self.GRID.times, series.values):
            assert linalg.max_abs(val - linalg.matrix_exponential(l1 * t)) < 1e-12

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(random_generators())
    def test_order2_matches_dense_rk4(self, gen):
        series = integrate_time_local(gen, 2, self.GRID)
        ref = dense_rk4(gen, 2, self.GRID)
        assert max(linalg.max_abs(a - b) for a, b in zip(series.values, ref)) < 1e-8


class TestCompare:
    def test_identical_series(self, offres_split):
        grid = TimeGrid(1.0, 5)
        series = exact_series(offres_split, 1, grid)
        out = compare(series, series)
        assert out["sup_error"] == 0.0
        assert len(out["per_point"]) == grid.steps + 1

    def test_known_offset(self):
        grid = TimeGrid(1.0, 2)
        a = PropagatorSeries(grid, [np.eye(2)] * 3, "a")
        b = PropagatorSeries(grid, [np.eye(2), np.eye(2) + 0.5, np.eye(2)], "b")
        assert compare(a, b)["sup_error"] == pytest.approx(0.5)

    def test_grid_mismatch(self):
        a = PropagatorSeries(TimeGrid(1.0, 2), [np.eye(2)] * 3, "a")
        b = PropagatorSeries(TimeGrid(2.0, 2), [np.eye(2)] * 3, "b")
        with pytest.raises(GridMismatch):
            compare(a, b)

    def test_order2_beats_order1(self, detuned_split):
        grid = TimeGrid(1.0, 50)
        exact = exact_series(detuned_split, 1, grid)
        gen = kappa12(detuned_split, 1)
        e1 = compare(exact, integrate_time_local(gen, 1, grid))["sup_error"]
        e2 = compare(exact, integrate_time_local(gen, 2, grid))["sup_error"]
        assert e2 < e1 / 5


class TestOrderEstimate:
    LAMBDAS = (0.1, 0.05, 0.025)

    def test_order1_slope(self, detuned_split):
        out = order_estimate(detuned_split, 1, TimeGrid(1.0, 50), self.LAMBDAS, order=1)
        assert abs(out["slope"] - 2.0) < 0.3

    def test_order2_slope(self, detuned_split):
        out = order_estimate(detuned_split, 1, TimeGrid(1.0, 50), self.LAMBDAS, order=2)
        assert abs(out["slope"] - 3.0) < 0.3

    def test_degenerate_fit_on_commuting_model(self, resonant_split):
        # equal frequencies: kappa2 vanishes and h0 + lambda kappa1 is
        # exponentiated exactly, so every error is round-off, also at the
        # faster omega = 1.7, m = 2
        faster = replace(resonant_split, base=eh.diagonal_modes([1.7, 1.7]))
        for split, m in ((resonant_split, 1), (faster, 2)):
            with pytest.raises(DegenerateFit) as info:
                order_estimate(split, m, TimeGrid(1.0, 20), self.LAMBDAS, order=2)
            assert len(info.value.errors) == len(self.LAMBDAS)

    def test_requires_three_lambdas(self, detuned_split):
        with pytest.raises(ValueError):
            order_estimate(detuned_split, 1, TimeGrid(1.0, 20), (0.1, 0.05))
