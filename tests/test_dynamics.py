import math
import tracemalloc
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
from effheis.errors import (
    DegenerateFit,
    DimensionOverflow,
    FrameMismatch,
    GridMismatch,
    StepTooLarge,
    UnsupportedOrder,
)
from effheis.fermion import moment_generator
from effheis.perturbation import kappa12
from effheis.projector import (
    DEFAULT_RESONANCE_TOL,
    effective_propagator,
    free_moment_generator_hermitian,
    project_with,
    resonance_partition,
)
from effheis.verify import random_valid_fermion


def dense_rk4(gen, order, grid, max_step=1e-3):
    """Reference: classic RK4 on dPsi/dt = l(t) Psi in the original basis,
    each grid interval cut into substeps of at most max_step."""
    substeps = max(1, math.ceil(grid.dt / max_step))
    dt = grid.dt / substeps
    psi = np.eye(gen.partition.decomposition.dim, dtype=complex)
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


def project_per_point_exact_series(split, m, grid, tol=DEFAULT_RESONANCE_TOL):
    """Reference: exact_series before the eigenbasis engine, exp(h t) built
    in the original basis and projected with project_with at every point,
    as a list of d x d matrices."""
    h = moment_generator(split.total(), m)
    M0 = free_moment_generator_hermitian(split, m)
    # h is anti-Hermitian: diagonalize once, exponentiate per grid point
    h_eig = linalg.hermitian_eigendecompose(1j * h)
    partition = resonance_partition(M0, tol)
    values = []
    for t in grid.times:
        phases = np.exp(-1j * h_eig.eigenvalues * t)
        values.append(project_with((h_eig.basis * phases) @ h_eig.basis.conj().T, partition))
    return values


def frame_rk4(gen, order, grid):
    """Reference: integrate_time_local before the eigenbasis engine, with a
    dense eigendecomposition of l1 and kappa2(t) from gen.at, taken from the
    original basis into l1's eigenbasis at every node; a list of d x d
    matrices."""
    if order not in (1, 2):
        raise UnsupportedOrder(f"time-local generator truncation order {order}")
    l1 = gen.at(0.0, 1)
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
    return values


def series_gap(series, reference):
    """Largest max-abs gap between a series and a list of d x d matrices."""
    return max(linalg.max_abs(x - y) for x, y in zip(series.values, reference))


def original_basis_kappa2s(gen, grid):
    """coupling^2 kappa2(t) in the original basis at every RK4 node, in time
    order: the grid points and the interval midpoints."""
    nodes = np.sort(np.concatenate([grid.times, grid.times[:-1] + grid.dt / 2]))
    return [gen.coupling**2 * gen.partition.to_original(gen.kappa2_of_t(t)) for t in nodes]


@st.composite
def engine_splits(draw):
    """n in {1, 2, 3}, m in {1, 2}, and m = 3 at n <= 2 (three Kronecker
    slots); H0 either a random valid fermion (non-diagonal, so M0's
    eigenbasis is not a permutation) or diagonal with frequencies drawn from
    {1, 2} (degenerate clusters).  At m = 1 and n <= 2 kappa2 commutes with
    l1, so n = 3 or m >= 2 exercises the frame rotation.  Couplings up to 1
    split the clusters far enough that l1's eigenvalues change order across
    them."""
    n = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.sampled_from([1, 2, 3] if n <= 2 else [1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = random_valid_fermion(n, rng)
    else:
        base = eh.diagonal_modes(draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n)))
    lam = draw(st.floats(0.05, 1.0))
    return eh.SplitHamiltonian(base=base, interaction=random_valid_fermion(n, rng), coupling=lam), m


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

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf"), 0.0])
    def test_rejects_non_finite_or_zero_t_end(self, t_end):
        with pytest.raises(ValueError, match="positive and finite"):
            TimeGrid(t_end, 4)


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
        series = integrate_time_local(gen, 1, grid)
        for t, val in zip(grid.times, series.values):
            want = linalg.matrix_exponential(gen.at(0.0, 1) * t)
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
        l1 = gen.at(0.0, 1)
        kappa2 = gen.partition.to_original(gen.kappa2_of_t(0.7))
        assert linalg.max_abs(l1 @ kappa2 - kappa2 @ l1) > 1e-2
        grid = TimeGrid(1.0, 20)
        series = integrate_time_local(gen, 2, grid)
        ref = dense_rk4(gen, 2, grid)
        assert max(linalg.max_abs(a - b) for a, b in zip(series.values, ref)) < 1e-8

    def test_step_too_large(self, detuned_split):
        gen = kappa12(replace(detuned_split, coupling=1.0), 1)
        with pytest.raises(StepTooLarge):
            integrate_time_local(gen, 2, TimeGrid(5.0, 1))

    @pytest.mark.parametrize("coupling", [1e150, 1e160])
    def test_step_too_large_where_the_guard_overflows(self, detuned_split, coupling):
        # at 1e150 the Frobenius bound overflows to NaN, at 1e160 the
        # coupling's square to inf; both must fail the guard
        gen = kappa12(replace(detuned_split, coupling=coupling), 1)
        with pytest.raises(StepTooLarge):
            integrate_time_local(gen, 2, TimeGrid(1.0, 100))

    @pytest.mark.parametrize("order, evaluations", [(1, 0), (2, 2 * 20 + 1)])
    def test_kappa2_evaluated_once_per_node(self, detuned_split, order, evaluations):
        # the integrator reads kappa2(t) through the generator's closure, once
        # at every grid point and interval midpoint, all in one call
        gen = kappa12(detuned_split, 1)
        nodes = []
        made = []

        def counted(t):
            made.append(t)
            nodes.extend(np.atleast_1d(t))
            return gen.kappa2_of_t(t)

        integrate_time_local(replace(gen, kappa2_of_t=counted), order, TimeGrid(1.0, 20))
        assert len(nodes) == len(set(nodes)) == evaluations
        # one call at order 2, none at order 1
        assert len(made) == order - 1


class TestIntegrateTimeLocalProperties:
    GRID = TimeGrid(1.0, 20)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(random_generators())
    def test_order1_is_exact_exponential(self, gen):
        l1 = gen.at(0.0, 1)
        series = integrate_time_local(gen, 1, self.GRID)
        for t, val in zip(self.GRID.times, series.values):
            assert linalg.max_abs(val - linalg.matrix_exponential(l1 * t)) < 1e-12

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(random_generators())
    def test_order2_matches_dense_rk4(self, gen):
        series = integrate_time_local(gen, 2, self.GRID)
        ref = dense_rk4(gen, 2, self.GRID)
        assert max(linalg.max_abs(a - b) for a, b in zip(series.values, ref)) < 1e-8


class TestEigenbasisEngine:
    """The eigenbasis engine against the dense references it replaced."""

    GRID = TimeGrid(1.0, 20)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(engine_splits())
    def test_exact_series_matches_reference(self, case):
        split, m = case
        got = exact_series(split, m, self.GRID)
        assert series_gap(got, project_per_point_exact_series(split, m, self.GRID)) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(engine_splits(), st.sampled_from([1, 2]))
    def test_time_local_matches_reference(self, case, order):
        split, m = case
        gen = kappa12(split, m)
        try:
            want = frame_rk4(gen, order, self.GRID)
        except StepTooLarge:
            with pytest.raises(StepTooLarge):
                integrate_time_local(gen, order, self.GRID)
            return
        assert series_gap(integrate_time_local(gen, order, self.GRID), want) <= 1e-12

    @pytest.mark.parametrize("order", [1, 2])
    def test_time_local_mixed_cluster_sizes(self, order):
        # equally spaced frequencies at m = 2 cluster into blocks of sizes
        # 1, 2, 3, 4, 6 and 8, integrated as one stack per size
        split = eh.SplitHamiltonian(
            base=eh.diagonal_modes(np.linspace(1.0, 2.3, 4)),
            interaction=random_valid_fermion(4, np.random.default_rng(5)),
            coupling=0.3,
        )
        gen = kappa12(split, 2)
        sizes = set(gen.partition.sizes.tolist())
        assert len(sizes) >= 3 and {1, 2, 8} <= sizes
        got = integrate_time_local(gen, order, self.GRID)
        assert series_gap(got, frame_rk4(gen, order, self.GRID)) <= 1e-12

    def test_time_local_peak_memory(self):
        # the degenerate (n, m) = (2, 3) shape of the moments benchmark, at
        # its 50-step grid: clusters of 8 and 24, the largest stacks there.
        # Each size's temporaries are freed before the next size, so the
        # peak stays within a few times the series itself
        split = eh.SplitHamiltonian(
            base=eh.diagonal_modes([1.0, 1.0]),
            interaction=random_valid_fermion(2, np.random.default_rng(3)),
            coupling=0.1,
        )
        gen = kappa12(split, 3)
        assert set(gen.partition.sizes.tolist()) == {8, 24}
        tracemalloc.start()
        try:
            series = integrate_time_local(gen, 2, TimeGrid(0.5, 50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * sum(v.nbytes for v in series.values)

    def test_lazy_guard_passes_when_only_the_bound_fails(self, detuned_split):
        # at coupling 1 on this grid the Frobenius bound fails at some node
        # while the max-abs test holds at every node: no StepTooLarge
        gen = kappa12(replace(detuned_split, coupling=1.0), 1)
        grid = TimeGrid(2.0, 4)
        kappa2s = original_basis_kappa2s(gen, grid)
        assert max(np.linalg.norm(k) for k in kappa2s) * grid.dt > 1.0
        assert max(linalg.max_abs(k) for k in kappa2s) * grid.dt <= 1.0
        assert series_gap(integrate_time_local(gen, 2, grid), frame_rk4(gen, 2, grid)) <= 1e-12

    @pytest.fixture
    def rotated_split(self):
        """A random valid H0, so M0's eigenbasis V0 is not a permutation and
        max_abs of kappa2 in V0 differs from max_abs in the original basis."""
        rng = np.random.default_rng(0)
        return eh.SplitHamiltonian(
            base=random_valid_fermion(3, rng), interaction=random_valid_fermion(3, rng), coupling=1.0
        )

    def test_lazy_guard_passes_in_a_rotated_basis(self, rotated_split):
        # the Frobenius bound fails and the max-abs test holds at every node
        # in the original basis, but not in V0: no StepTooLarge
        gen = kappa12(rotated_split, 1)
        grid = TimeGrid(2.5, 2)
        kappa2s = original_basis_kappa2s(gen, grid)
        assert max(np.linalg.norm(k) for k in kappa2s) * grid.dt > 1.0
        assert max(linalg.max_abs(k) for k in kappa2s) * grid.dt <= 1.0
        in_v0 = [gen.partition.decomposition.to_eigenbasis(k) for k in kappa2s]
        assert max(linalg.max_abs(k) for k in in_v0) * grid.dt > 1.0
        assert series_gap(integrate_time_local(gen, 2, grid), frame_rk4(gen, 2, grid)) <= 1e-12

    def test_lazy_guard_raises_in_a_rotated_basis(self, rotated_split):
        # the Frobenius bound fails from the first midpoint on; the max-abs
        # test passes at the nodes before the first one where it fails, and
        # the guard raises there with the reference's message
        gen = kappa12(rotated_split, 1)
        grid = TimeGrid(5.75, 4)
        kappa2s = original_basis_kappa2s(gen, grid)
        worst = np.array([linalg.max_abs(k) for k in kappa2s]) * grid.dt
        first = int(np.argmax(worst > 1.0))
        assert worst[first] > 1.0 and first > 1
        assert np.linalg.norm(kappa2s[1]) * grid.dt > 1.0
        with pytest.raises(StepTooLarge) as want:
            frame_rk4(gen, 2, grid)
        with pytest.raises(StepTooLarge) as got:
            integrate_time_local(gen, 2, grid)
        assert str(got.value) == str(want.value)


class TestKroneckerFrame:
    """The moment path never forms M0's d x d eigenbasis."""

    def test_no_moment_sized_eigendecomposition(self, monkeypatch):
        # diagonal H0 at (n, m) = (4, 2): only E H (8 x 8) and the cluster
        # blocks of l1 are eigendecomposed, never a 64 x 64 matrix
        split = eh.SplitHamiltonian(
            base=eh.diagonal_modes([1.0, 1.3, 1.7, 2.3]),
            interaction=random_valid_fermion(4, np.random.default_rng(4)),
            coupling=0.1,
        )
        dims = []
        eigendecompose = linalg.hermitian_eigendecompose

        def spy(M):
            dims.append(np.shape(M)[-1])
            return eigendecompose(M)

        monkeypatch.setattr(linalg, "hermitian_eigendecompose", spy)
        grid = TimeGrid(0.5, 10)
        exact_series(split, 2, grid)
        integrate_time_local(kappa12(split, 2), 2, grid)
        assert dims and max(dims) < 64

    @pytest.mark.parametrize(
        "base", [eh.diagonal_modes([1.0, 2.0]), random_valid_fermion(2, np.random.default_rng(2))]
    )
    def test_dimension_cap_before_allocation(self, base):
        # (2n)^m = 4^7 = 16384 > DIM_CAP: refused before one float per basis
        # vector is allocated
        split = eh.SplitHamiltonian(base=base, interaction=eh.hopping(2, 1, 2, 1.0), coupling=0.1)
        for call in (lambda: exact_series(split, 7, TimeGrid(1.0, 2)), lambda: kappa12(split, 7)):
            tracemalloc.start()
            try:
                with pytest.raises(DimensionOverflow):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4**7 * 8


class TestCompare:
    def test_identical_series(self, offres_split):
        grid = TimeGrid(1.0, 5)
        series = exact_series(offres_split, 1, grid)
        out = compare(series, series)
        assert out["sup_error"] == 0.0
        assert len(out["per_point"]) == grid.steps + 1

    # one 2 x 2 cluster, so every entry is resonant: entries are the
    # row-major 2 x 2 matrices in the eigenbasis
    SMALL = resonance_partition(np.zeros((2, 2)))
    EYE = np.eye(2).ravel()

    def test_known_offset(self):
        grid = TimeGrid(1.0, 2)
        a = PropagatorSeries(grid, self.SMALL, np.stack([self.EYE] * 3), "a")
        b = PropagatorSeries(grid, self.SMALL, np.stack([self.EYE, self.EYE + 0.5, self.EYE]), "b")
        assert compare(a, b)["sup_error"] == pytest.approx(0.5)

    def test_nan_point_propagates(self):
        # a NaN after the first point is the sup, not skipped
        grid = TimeGrid(1.0, 2)
        a = PropagatorSeries(grid, self.SMALL, np.stack([self.EYE] * 3), "a")
        b = PropagatorSeries(grid, self.SMALL, np.stack([self.EYE, self.EYE, self.EYE * np.nan]), "b")
        assert math.isnan(compare(a, b)["sup_error"])

    def test_grid_mismatch(self):
        a = PropagatorSeries(TimeGrid(1.0, 2), self.SMALL, np.stack([self.EYE] * 3), "a")
        b = PropagatorSeries(TimeGrid(2.0, 2), self.SMALL, np.stack([self.EYE] * 3), "b")
        with pytest.raises(GridMismatch):
            compare(a, b)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("frequencies", [[1.0, 1.37], [1.0, 1.0]], ids=["generic", "degenerate"])
    def test_entries_match_dense_path_bit_for_bit(self, m, frequencies):
        # diagonal H0: V0 is a permutation, so to_original only scatters
        split = eh.SplitHamiltonian(
            base=eh.diagonal_modes(frequencies),
            interaction=random_valid_fermion(2, np.random.default_rng(m)),
            coupling=0.2,
        )
        grid = TimeGrid(1.0, 10)
        exact = exact_series(split, m, grid)
        approx = integrate_time_local(kappa12(split, m), 2, grid)
        part = exact.partition
        assert part.decomposition.factor is None
        for series in (exact, approx):
            for k, value in enumerate(series.values):
                dense = np.zeros(part.mask.shape, dtype=complex)
                dense[part.resonant] = series.entries[k]
                np.testing.assert_array_equal(value, part.decomposition.from_eigenbasis(dense))
                np.testing.assert_array_equal(value, series.value(k))
        per_point = [linalg.max_abs(x - y) for x, y in zip(exact.values, approx.values)]
        out = compare(exact, approx)
        assert out["per_point"] == per_point
        assert out["sup_error"] == max(per_point) > 0

    @pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 3)])
    def test_rotated_frame_within_round_off(self, n, m):
        # V1 != I: one original-basis matrix of the entry difference per point
        # against the difference of the two matrices
        rng = np.random.default_rng(n + 10 * m)
        split = eh.SplitHamiltonian(
            base=random_valid_fermion(n, rng), interaction=random_valid_fermion(n, rng), coupling=0.1
        )
        grid = TimeGrid(1.0, 20)
        exact = exact_series(split, m, grid)
        approx = integrate_time_local(kappa12(split, m), 2, grid)
        assert exact.partition.decomposition.factor is not None
        got = compare(exact, approx)["per_point"]
        want = [linalg.max_abs(x - y) for x, y in zip(exact.values, approx.values)]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-15 * (1 + w)

    def test_frame_mismatch(self, offres_split):
        grid = TimeGrid(1.0, 4)
        series = exact_series(offres_split, 1, grid)
        detuned = replace(offres_split, base=eh.diagonal_modes([1.0, 1.5]))
        for other in (exact_series(detuned, 1, grid), exact_series(offres_split, 1, grid, tol=0.5)):
            with pytest.raises(FrameMismatch):
                compare(series, other)

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

    def test_peak_memory(self):
        # (3, 3) diag at 100 steps: the series are held as their 2,820
        # resonant entries per grid point, not as 216 x 216 matrices
        # (101 of them per series, 75 MB)
        split = eh.SplitHamiltonian(
            base=eh.diagonal_modes(np.linspace(1.0, 2.3, 3)),
            interaction=random_valid_fermion(3, np.random.default_rng(1)),
            coupling=0.1,
        )
        tracemalloc.start()
        try:
            order_estimate(split, 3, TimeGrid(1.0, 100), (0.05, 0.1, 0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20

    def test_requires_three_lambdas(self, detuned_split):
        with pytest.raises(ValueError):
            order_estimate(detuned_split, 1, TimeGrid(1.0, 20), (0.1, 0.05))

    @pytest.mark.parametrize("bad", [0.0, -0.05, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite_lambda(self, detuned_split, bad):
        # a lambda <= 0 would reach np.log and give a NaN slope
        with pytest.raises(ValueError, match="positive finite"):
            order_estimate(detuned_split, 1, TimeGrid(1.0, 20), (0.1, 0.05, bad))
