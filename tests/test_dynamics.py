from dataclasses import replace

import numpy as np
import pytest

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
        coarse = integrate_time_local(gen, 2, TimeGrid(1.0, 10), max_dt=1e-2)
        fine = integrate_time_local(gen, 2, TimeGrid(1.0, 10), max_dt=5e-3)
        diff = max(
            linalg.max_abs(a - b) for a, b in zip(coarse.values, fine.values)
        )
        # diff is dominated by the coarse-step truncation error
        assert diff < 1e-8

    def test_step_too_large(self, detuned_split):
        gen = kappa12(replace(detuned_split, coupling=1.0), 1)
        with pytest.raises(StepTooLarge):
            integrate_time_local(gen, 2, TimeGrid(5.0, 1), max_dt=5.0)


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
        # equal frequencies: every error is the RK4 floor of the free
        # evolution, which reaches 3.8e-12 at omega = 1.7, m = 2
        faster = replace(resonant_split, base=eh.diagonal_modes([1.7, 1.7]))
        for split, m in ((resonant_split, 1), (faster, 2)):
            with pytest.raises(DegenerateFit) as info:
                order_estimate(split, m, TimeGrid(1.0, 20), self.LAMBDAS, order=2)
            assert len(info.value.errors) == len(self.LAMBDAS)

    def test_requires_three_lambdas(self, detuned_split):
        with pytest.raises(ValueError):
            order_estimate(detuned_split, 1, TimeGrid(1.0, 20), (0.1, 0.05))
