import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effheis as eh
from effheis import linalg
from effheis.errors import DimensionMismatch, NotHermitian
from effheis.fermion import SplitHamiltonian
from effheis.projector import (
    effective_propagator,
    free_moment_generator_hermitian,
    free_moment_partition,
    project,
    project_with,
    resonance_labels,
    resonance_partition,
)
from effheis.verify import moment_equivalence_residual, random_valid_fermion
from references import numeric_time_average

# at tol 2^-10 a spectrum spanning [0, 1] clusters at gap 2^-9, exactly
BOUNDARY_TOL = 2.0**-10
BOUNDARY_GAP = 2.0**-9


def loop_cluster_values(part):
    """Reference: the per-label loop cluster_values used before reduceat."""
    return np.array([float(np.mean(part.eigenvalues[part.labels == k]))
                     for k in range(part.labels[-1] + 1)])


class TestResonancePartition:
    def test_block_table_degenerate(self):
        part = resonance_partition(np.diag([0.0, 1.0, 1.0, 2.0]), 1e-9)
        np.testing.assert_array_equal(part.bounds, [0, 1, 3])
        np.testing.assert_array_equal(part.cluster_values, loop_cluster_values(part))
        np.testing.assert_array_equal(part.cluster_values, [0.0, 1.0, 2.0])

    def test_block_table_generic(self, rng):
        # near-degenerate clusters of sizes 1, 2, 3, 1 hidden by a random
        # unitary, so the eigenvalues carry round-off
        values = [-0.7, 0.1, 0.1 + 3e-11, 0.9, 0.9 - 2e-11, 0.9 + 5e-12, 2.4]
        Q, _ = np.linalg.qr(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
        part = resonance_partition(Q @ np.diag(values) @ Q.conj().T, 1e-9)
        np.testing.assert_array_equal(part.bounds, [0, 1, 3, 6])
        np.testing.assert_allclose(part.cluster_values, loop_cluster_values(part), rtol=0, atol=1e-15)

    def test_distinct(self):
        part = resonance_partition(np.diag([-1.0, 1.0]), 1e-9)
        np.testing.assert_array_equal(part.mask, np.eye(2, dtype=bool))

    def test_zero_generator(self):
        part = resonance_partition(np.zeros((3, 3)), 1e-9)
        assert part.mask.all()

    def test_near_degenerate_cluster(self):
        part = resonance_partition(np.diag([1.0, 1.0 + 1e-12, 2.0]), 1e-9)
        assert part.mask[0, 1]
        assert not part.mask[0, 2]

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            resonance_partition(np.array([[0, 1], [0, 0]]), 1e-9)


@st.composite
def boundary_spectra(draw):
    """Sorted dyadic spectra on [0, 1] whose inner neighbour steps are 0,
    half, exactly one, just past one or two clustering gaps; every value and
    every step is exact in floating point."""
    units = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2.0**-20, 2.0]), max_size=12))
    inner = 0.25 + np.cumsum([0.0, *units]) * BOUNDARY_GAP
    return np.concatenate([[0.0], inner, [1.0]])


def linked(w, gap):
    """Reference: same[i, j] iff a path of steps |w_a - w_b| <= gap joins
    w_i and w_j (connected components, no sorting)."""
    adjacency = (np.abs(w[:, None] - w[None, :]) <= gap).astype(np.int64)
    return np.linalg.matrix_power(adjacency, len(w)) > 0


def frame_split(n: int, kind: str, rng) -> SplitHamiltonian:
    """n <= 4 modes whose free moment frame is a permutation with distinct
    ("generic") or repeated ("degenerate") frequencies, or is rotated by a
    random H0 ("random")."""
    base = {
        "generic": lambda: eh.diagonal_modes(np.sqrt([2.0, 3.0, 5.0, 7.0][:n])),
        "degenerate": lambda: eh.diagonal_modes([1.0, 2.0, 2.0, 1.0][:n]),
        "random": lambda: random_valid_fermion(n, rng),
    }[kind]()
    return SplitHamiltonian(base=base, interaction=random_valid_fermion(n, rng), coupling=0.1)


class TestFreeMomentPartition:
    """The Kronecker-factored partition of M0 against the dense one."""

    @pytest.mark.parametrize("n, m", [(4, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("kind", ["generic", "degenerate", "random"])
    def test_matches_dense_partition(self, n, m, kind):
        split = frame_split(n, kind, np.random.default_rng(n + 10 * m))
        M0 = free_moment_generator_hermitian(split, m)
        got = free_moment_partition(split, m)
        want = resonance_partition(M0)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.bounds, want.bounds)
        assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) <= 1e-13
        if kind == "random":
            # the spreads, and so the gaps, carry the eigenvalues' round-off
            assert got.gap == pytest.approx(want.gap, rel=1e-14, abs=0)
        else:
            assert got.gap == want.gap
        # the factored basis diagonalizes M0 in the sorted order
        eig = got.decomposition
        assert linalg.max_abs(eig.to_eigenbasis(M0) - np.diag(eig.eigenvalues)) <= 1e-13
        assert (eig.factor is None) == (kind != "random")


class TestResonantEntries:
    """The (nnz,) layout of the resonant entries and its one way back to
    the original basis."""

    @pytest.mark.parametrize("n, m", [(3, 1), (2, 2), (2, 3)])
    @pytest.mark.parametrize("kind", ["generic", "degenerate", "random"])
    def test_to_original_matches_from_eigenbasis(self, n, m, kind):
        rng = np.random.default_rng(n + 10 * m)
        part = free_moment_partition(frame_split(n, kind, rng), m)
        assert (part.decomposition.factor is None) == (kind != "random")
        entries = rng.standard_normal(part.mask.sum()) + 1j * rng.standard_normal(part.mask.sum())
        dense = np.zeros(part.mask.shape, dtype=complex)
        dense[part.resonant] = entries
        np.testing.assert_array_equal(
            part.to_original(entries), part.decomposition.from_eigenbasis(dense)
        )

    @pytest.mark.parametrize("rotate", [False, True])
    def test_to_original_on_a_dense_frame(self, rng, rotate):
        # the partition of a dense matrix holds a HermitianEigenDecomposition;
        # the resonant entries of X in its eigenbasis go back to P(X)
        M = np.diag([1.0, 1.0, 2.0]).astype(complex)
        if rotate:
            U = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
            M = U @ M @ U.conj().T
        part = resonance_partition(M)
        np.testing.assert_array_equal(part.sizes, [2, 1])
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        entries = part.decomposition.to_eigenbasis(X)[part.resonant]
        np.testing.assert_array_equal(part.to_original(entries), project_with(X, part))

    @pytest.mark.parametrize("n, m", [(3, 1), (2, 2), (2, 3)])
    @pytest.mark.parametrize("kind", ["generic", "degenerate", "random"])
    def test_cluster_entries_start_at_offsets(self, n, m, kind):
        part = free_moment_partition(frame_split(n, kind, np.random.default_rng(n)), m)
        # each eigenbasis entry labelled by its row-major position
        d = len(part.labels)
        position = np.arange(d * d).reshape(d, d)
        flat = position[part.resonant]
        for lo, s, start in zip(part.bounds, part.sizes, part.offsets):
            block = position[lo : lo + s, lo : lo + s].ravel()
            np.testing.assert_array_equal(flat[start : start + s * s], block)
        assert part.offsets[-1] + part.sizes[-1] * part.sizes[-1] == len(flat)


class TestResonanceLabels:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(boundary_spectra(), st.randoms(use_true_random=False))
    def test_permuted_input_same_partition(self, w, random):
        order = list(range(len(w)))
        random.shuffle(order)
        lab = resonance_labels(w[order], BOUNDARY_GAP)
        want = resonance_labels(w, BOUNDARY_GAP)[order]
        np.testing.assert_array_equal(lab[:, None] == lab[None, :], want[:, None] == want[None, :])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(boundary_spectra())
    def test_sorted_input_matches_partition(self, w):
        part = resonance_partition(np.diag(w), BOUNDARY_TOL)
        # the boundary steps sit exactly at the partition's gap
        assert part.gap == BOUNDARY_GAP
        np.testing.assert_array_equal(part.eigenvalues, w)
        lab = resonance_labels(w, BOUNDARY_GAP)
        np.testing.assert_array_equal(lab, part.labels)
        np.testing.assert_array_equal(lab[:, None] == lab[None, :], linked(w, BOUNDARY_GAP))


class TestProject:
    def test_two_level(self, rng):
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out = project(X, np.diag([-1.0, 1.0]))
        np.testing.assert_allclose(out, np.diag(np.diag(X)), atol=1e-14)

    def test_trivial_free_hamiltonian(self, rng):
        X = rng.standard_normal((3, 3))
        out = project(X, np.zeros((3, 3)))
        np.testing.assert_allclose(out, X, atol=1e-14)

    def test_moment_generator_mask(self, rng):
        # M = diag(2, 0, 0, -2): diagonal plus the central 2x2 block survives
        M = np.diag([2.0, 0.0, 0.0, -2.0])
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = project(X, M)
        expected = np.zeros_like(X)
        for a, b in [(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)]:
            expected[a, b] = X[a, b]
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project(np.eye(3), np.diag([-1.0, 1.0]))

    @pytest.mark.parametrize("kind", ["dense", "diagonal kronecker", "kronecker"])
    def test_stack_matches_one_call_per_matrix(self, rng, kind):
        base = random_valid_fermion(2, rng) if kind == "kronecker" else eh.diagonal_modes([1.0, 2.0])
        split = SplitHamiltonian(base=base, interaction=random_valid_fermion(2, rng), coupling=0.1)
        if kind == "dense":
            part = resonance_partition(free_moment_generator_hermitian(split, 2))
        else:
            part = free_moment_partition(split, 2)
        Xs = rng.standard_normal((2, 3, 16, 16)) + 1j * rng.standard_normal((2, 3, 16, 16))
        want = np.array([[project_with(X, part) for X in row] for row in Xs])
        assert linalg.max_abs(project_with(Xs, part) - want) == 0.0
        with pytest.raises(DimensionMismatch):
            project_with(Xs[..., :8, :8], part)

    def test_projector_laws(self, rng):
        M = np.diag([1.0, 1.0, 2.0, 3.5])
        part = resonance_partition(M, 1e-9)
        for _ in range(100):
            X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            Y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            PX = project_with(X, part)
            # idempotency
            assert linalg.max_abs(project_with(PX, part) - PX) < 1e-12
            # commutation and pulling with exp(-h0 t) = exp(iMt)
            for t in (0.3, 1.7):
                U = linalg.matrix_exponential(1j * t * M)
                assert linalg.max_abs(PX @ U - U @ PX) < 1e-10
                assert linalg.max_abs(project_with(U @ X, part) - U @ PX) < 1e-10
            # linearity
            lin = project_with(0.3 * X + (1 - 2j) * Y, part)
            assert linalg.max_abs(lin - 0.3 * PX - (1 - 2j) * project_with(Y, part)) < 1e-12


class TestNumericTimeAverage:
    def test_zero_generator(self, rng):
        X = rng.standard_normal((3, 3))
        out = numeric_time_average(X, np.zeros((3, 3)), T=5.0, steps=100)
        np.testing.assert_allclose(out, X, atol=1e-12)

    def test_offdiagonal_decay(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        M = np.diag([-1.0, 1.0])
        for T, bound in [(2 * np.pi * 100, 5e-3), (2 * np.pi * 1000, 5e-4)]:
            out = numeric_time_average(X, M, T=T, steps=int(50 * T))
            assert abs(out[0, 1]) < bound

    def test_cesaro_convergence(self, rng):
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        M = np.diag([0.3, 1.1, 2.9])
        exact = project(X, M)
        errors = [
            linalg.max_abs(numeric_time_average(X, M, T, steps=int(100 * T)) - exact)
            for T in (1e2, 1e3, 1e4)
        ]
        assert errors[0] > errors[1] > errors[2]
        slope = np.polyfit(np.log([1e2, 1e3, 1e4]), np.log(errors), 1)[0]
        assert abs(slope + 1.0) < 0.2


class TestEffectivePropagator:
    def test_free_case(self, offres_split):
        from dataclasses import replace

        split = replace(offres_split, coupling=0.0)
        t = 1.3
        h0 = eh.moment_generator(split.base, 1)
        got = effective_propagator(split, 1, t)
        assert linalg.max_abs(got - linalg.matrix_exponential(h0 * t)) < 1e-12

    def test_commuting_case(self, resonant_split):
        t = 0.9
        h = eh.moment_generator(resonant_split.total(), 1)
        got = effective_propagator(resonant_split, 1, t)
        assert linalg.max_abs(got - linalg.matrix_exponential(h * t)) < 1e-10

    def test_commutes_with_free_evolution(self, offres_split):
        M0 = free_moment_generator_hermitian(offres_split, 1)
        W = effective_propagator(offres_split, 1, 1.0)
        for tp in (0.4, 2.3):
            U = linalg.matrix_exponential(-1j * tp * M0)
            assert linalg.max_abs(W @ U - U @ W) < 1e-10

    def test_matches_fock_oracle(self, offres_split):
        assert moment_equivalence_residual(offres_split, 1, 1.0) < 1e-8
