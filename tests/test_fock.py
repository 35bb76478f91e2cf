import tracemalloc

import numpy as np
import pytest

import effheis as eh
from effheis import fock, linalg
from effheis.dynamics import TimeGrid, exact_series
from effheis.errors import DimensionMismatch, Overflow, TooManyModes
from effheis.fock import (
    averaged_unitary_moments,
    check_heisenberg_reduction,
    jordan_wigner,
    operator_products,
    project_superoperator,
    quadratize,
    unitary_conjugation_superoperator,
)
from effheis.projector import (
    free_moment_partition,
    project,
    resonance_labels,
    resonance_partition,
)
from effheis.verify import (
    HEISENBERG_TIMES,
    STACK_ENTRIES,
    heisenberg_reduction_residual,
    matrix_projector_law_residuals,
    moment_equivalence_residual,
    random_complex,
    random_valid_fermion,
    run_verification,
    superoperator_law_residuals,
)
from references import (
    fock_frame,
    matrix_law_residuals_by_sample,
    superoperator_law_residuals_by_sample,
)


class TestJordanWigner:
    def test_single_mode(self):
        rep = jordan_wigner(1)
        np.testing.assert_array_equal(rep.annihilators[0], [[0, 1], [0, 0]])

    def test_string_on_second_mode(self):
        rep = jordan_wigner(2)
        sz = np.diag([1.0, -1.0])
        sm = np.array([[0, 1], [0, 0]])
        np.testing.assert_array_equal(rep.annihilators[1], np.kron(sz, sm))

    def test_car_relations(self):
        for n in (1, 2, 3):
            rep = jordan_wigner(n)
            cs, ds = rep.annihilators, rep.creators
            for j in range(n):
                for k in range(n):
                    anti = cs[j] @ ds[k] + ds[k] @ cs[j]
                    want = np.eye(rep.dim) if j == k else 0
                    assert linalg.max_abs(anti - want) < 1e-14
                    assert linalg.max_abs(cs[j] @ cs[k] + cs[k] @ cs[j]) < 1e-14

    def test_mode_cap(self):
        with pytest.raises(TooManyModes):
            jordan_wigner(7)

    def test_cached(self):
        assert jordan_wigner(2) is jordan_wigner(2)


def loop_quadratize(K, rep):
    """Reference: (1/2) sum_ab K_ab c_a c_b, one product per nonzero entry."""
    ops = rep.operator_vector
    H = np.zeros((rep.dim, rep.dim), dtype=complex)
    for a in range(2 * K.n):
        for b in range(2 * K.n):
            if K.H[a, b] != 0:
                H += 0.5 * K.H[a, b] * (ops[a] @ ops[b])
    return H


class TestQuadratize:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_pair_loop(self, rng, n):
        rep = jordan_wigner(n)
        for _ in range(3):
            K = random_valid_fermion(n, rng)
            Hhat = quadratize(K, rep)
            assert linalg.max_abs(Hhat - loop_quadratize(K, rep)) <= 1e-14
            assert linalg.hermiticity_residual(Hhat) <= 1e-14

    def test_pair_products_cached_read_only(self):
        rep = jordan_wigner(2)
        assert rep.pair_products is jordan_wigner(2).pair_products
        assert not rep.pair_products.flags.writeable

    def test_number_operator(self):
        Hhat = quadratize(eh.diagonal_modes([1.0]), jordan_wigner(1))
        np.testing.assert_allclose(Hhat, np.diag([-0.5, 0.5]), atol=1e-14)

    def test_hermitian_for_random_valid(self, rng):
        rep = jordan_wigner(2)
        for _ in range(5):
            Hhat = quadratize(random_valid_fermion(2, rng), rep)
            assert linalg.hermiticity_residual(Hhat) < 1e-12

    def test_mode_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quadratize(eh.diagonal_modes([1.0]), jordan_wigner(2))


def dense_project_superoperator(Phi, H0hat, tol=1e-9):
    """Reference: W^dag Phi W masked, then W Y W^dag, with the dense
    W = V^* kron V (V the eigenbasis of H0hat) and column-stacking vec."""
    part = resonance_partition(H0hat, tol)
    d = len(H0hat)
    V = part.decomposition.basis
    W = np.kron(V.conj(), V)
    # Y[i + d j, k + d l] is Y4[i, j, k, l] in Fortran order
    Y4 = (W.conj().T @ Phi @ W).reshape((d, d, d, d), order="F")
    label = resonance_labels(part.delta.imag.ravel(), part.gap).reshape(d, d)
    keep = label[:, :, None, None] == label[None, None, :, :]
    Y = np.where(keep, Y4, 0.0).reshape((d * d, d * d), order="F")
    return W @ Y @ W.conj().T


def cluster_projectors(part):
    """Spectral projector onto each cluster's eigenspace, in label order."""
    V = part.decomposition.basis
    blocks = (V[:, part.labels == k] for k in range(part.labels[-1] + 1))
    return [B @ B.conj().T for B in blocks]


def loop_project_superoperator(Phi, H0hat, tol=1e-9):
    """Reference: the cluster-quadruple sum of Pi_1 Phi(Pi_2 . Pi_3) Pi_4."""
    part = resonance_partition(H0hat, tol)
    e, projectors = part.cluster_values, cluster_projectors(part)
    out = np.zeros_like(Phi)
    for i1, P1 in enumerate(projectors):
        for i2, P2 in enumerate(projectors):
            for i3, P3 in enumerate(projectors):
                for i4, P4 in enumerate(projectors):
                    if abs(e[i1] - e[i2] + e[i3] - e[i4]) <= part.gap:
                        out += np.kron(P4.T, P1) @ Phi @ np.kron(P3.T, P2)
    return out


def loop_averaged_conjugation(Hhat, H0hat, X, t, tol=1e-9):
    """Reference: the cluster-quadruple sum of Pi_a M Pi_b X Pi_c M^dag Pi_d."""
    M = linalg.matrix_exponential(1j * t * Hhat)
    part = resonance_partition(H0hat, tol)
    e, projectors = part.cluster_values, cluster_projectors(part)
    out = np.zeros_like(X)
    for a, Pa in enumerate(projectors):
        for b, Pb in enumerate(projectors):
            left = Pa @ M @ Pb
            for c, Pc in enumerate(projectors):
                for d_, Pd in enumerate(projectors):
                    if abs((e[a] - e[b]) + (e[c] - e[d_])) <= part.gap:
                        out += left @ X @ (Pc @ M.conj().T @ Pd)
    return out


def kernel_averaged_unitary_moments(Hhat, H0hat, products, t, tol=1e-9):
    """Reference: one masked four-index contraction in the eigenbasis of
    H0hat.  Entry (a, d) of the average sums M'_ab X'_bc (M'^dag)_cd over the
    pairs (b, c) whose Bohr frequency e_b - e_c shares the resonance class of
    e_a - e_d, with M' = V^dag exp(i Hhat t) V and X' = V^dag X V."""
    M = linalg.matrix_exponential(1j * t * Hhat)
    part = resonance_partition(H0hat, tol)
    eig = part.decomposition
    Mp = eig.to_eigenbasis(M)
    label = resonance_labels(part.delta.imag.ravel(), part.gap).reshape(part.delta.shape)
    kernel = np.where(label[:, None, None, :] == label[None, :, :, None],
                      Mp[:, :, None, None] * Mp.conj().T[None, None, :, :], 0.0)
    X = np.array(products)
    return eig.from_eigenbasis(np.tensordot(eig.to_eigenbasis(X), kernel, axes=([1, 2], [1, 2])))


def finite_time_averaged_conjugation(Hhat, H0hat, X, t, T, steps):
    """Reference: trapezoidal average over s in [0, T] of M(s) X M(s)^dag,
    M(s) = U(s)^dag exp(i Hhat t) U(s) with U(s) = exp(i H0hat s); converges
    slowly, at O(1/T)."""
    M = linalg.matrix_exponential(1j * t * Hhat)
    eig0 = linalg.hermitian_eigendecompose(H0hat)
    acc = np.zeros_like(X)
    for idx, s in enumerate(np.linspace(0.0, T, steps)):
        Us = (eig0.basis * np.exp(1j * eig0.eigenvalues * s)) @ eig0.basis.conj().T
        Ms = Us.conj().T @ M @ Us
        weight = 0.5 if idx in (0, steps - 1) else 1.0
        acc += weight * (Ms @ X @ Ms.conj().T)
    return acc / (steps - 1)


def free_hamiltonians(n, rng):
    """A non-diagonal H0hat (eigenbasis not a permutation) and a degenerate
    diagonal one (frequencies 1, 1, 2, 2 truncated to n modes)."""
    rep = jordan_wigner(n)
    return [
        quadratize(random_valid_fermion(n, rng), rep),
        quadratize(eh.diagonal_modes([1.0, 1.0, 2.0, 2.0][:n]), rep),
    ]


class TestSpectralProjectors:
    def test_degenerate_middle_pair(self):
        part = resonance_partition(np.diag([0.0, 1.0, 1.0, 2.0]))
        np.testing.assert_allclose(part.cluster_values, [0.0, 1.0, 2.0])
        assert np.bincount(part.labels).tolist() == [1, 2, 1]


class TestMaskMatchesClusterLoops:
    @pytest.mark.parametrize("n", [2, 3])
    def test_project_superoperator(self, rng, n):
        d = 2**n
        for H0hat in free_hamiltonians(n, rng):
            Phi = random_complex(d * d, rng)
            want = loop_project_superoperator(Phi, H0hat)
            got = project_superoperator(Phi, resonance_partition(H0hat))
            assert linalg.max_abs(got - want) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_averaged_unitary_moments(self, rng, n):
        d = 2**n
        Hhat = quadratize(random_valid_fermion(n, rng), jordan_wigner(n))
        for H0hat in free_hamiltonians(n, rng):
            products = [random_complex(d, rng) for _ in range(3)]
            got = averaged_unitary_moments(Hhat, resonance_partition(H0hat), products, 0.7)
            for X, average in zip(products, got, strict=True):
                want = loop_averaged_conjugation(Hhat, H0hat, X, 0.7)
                assert linalg.max_abs(average - want) < 1e-12


def liouvillian(H0hat, tol):
    """L0 = I kron H0hat - H0hat^T kron I, the generator of Z -> [H0hat, Z]
    in column-stacking vec, with the tolerance tol (1 + s) / (1 + 2 s) at
    which its clustering gap (its spectrum spans 2 s) equals H0hat's."""
    d = len(H0hat)
    e = np.linalg.eigvalsh(H0hat)
    s = e[-1] - e[0]
    return np.kron(np.eye(d), H0hat) - np.kron(H0hat.T, np.eye(d)), tol * (1 + s) / (1 + 2 * s)


def reference_free_hamiltonians():
    """(H0hat, tol): random and degenerate n = 3 Fock Hamiltonians, and a
    chained spectrum whose Bohr frequencies 1, 1 + 0.7g, 1 + 1.4g link in
    one class at tol 1e-3 (gap 4.0e-3) although the outer two lie 5.6e-3
    apart."""
    rep, g = jordan_wigner(3), 4e-3
    return {
        "random": (quadratize(random_valid_fermion(3, np.random.default_rng(3)), rep), 1e-9),
        "degenerate": (quadratize(eh.diagonal_modes([1.0, 1.0, 2.0]), rep), 1e-9),
        "chain": (np.diag([0.0, 1.0, 2.0 + 0.7 * g, 3.0 + 2.1 * g]), 1e-3),
    }


class TestLiouvillianReference:
    """Both Fock averages are the matrix average of ``project`` with the
    Liouvillian as generator."""

    @pytest.mark.parametrize("case", ["random", "degenerate", "chain"])
    def test_project_superoperator(self, rng, case):
        H0hat, tol = reference_free_hamiltonians()[case]
        L0, tol_l = liouvillian(H0hat, tol)
        Phi = random_complex(len(L0), rng)
        want = project(Phi, L0, tol_l)
        got = project_superoperator(Phi, resonance_partition(H0hat, tol))
        assert linalg.max_abs(got - want) <= 1e-12

    @pytest.mark.parametrize("case", ["random", "degenerate", "chain"])
    def test_averaged_unitary_moments(self, rng, case):
        H0hat, tol = reference_free_hamiltonians()[case]
        L0, tol_l = liouvillian(H0hat, tol)
        d, t = len(H0hat), 0.7
        A = random_complex(d, rng)
        Hhat = (A + A.conj().T) / 2
        M = linalg.matrix_exponential(1j * t * Hhat)
        averaged = project(np.kron(M.conj(), M), L0, tol_l)
        products = [random_complex(d, rng) for _ in range(3)]
        got = averaged_unitary_moments(Hhat, resonance_partition(H0hat, tol), products, t)
        for X, average in zip(products, got, strict=True):
            want = (averaged @ X.flatten(order="F")).reshape((d, d), order="F")
            assert linalg.max_abs(average - want) <= 1e-12


class TestProjectSuperoperator:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_matches_dense_reference(self, rng, n):
        d = 2**n
        for H0hat in free_hamiltonians(n, rng):
            Phis = np.array([random_complex(d * d, rng) for _ in range(3)])
            part = resonance_partition(H0hat)
            got = project_superoperator(Phis, part)
            assert got.shape == Phis.shape
            for Phi, average in zip(Phis, got, strict=True):
                assert linalg.max_abs(average - dense_project_superoperator(Phi, H0hat)) <= 1e-12
                assert linalg.max_abs(average - project_superoperator(Phi, part)) <= 1e-12
                if n <= 3:
                    assert linalg.max_abs(average - loop_project_superoperator(Phi, H0hat)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project_superoperator(np.eye(9), resonance_partition(np.zeros((2, 2))))

    def test_trivial_free_hamiltonian(self, rng):
        Phi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = project_superoperator(Phi, resonance_partition(np.zeros((2, 2))))
        np.testing.assert_allclose(out, Phi, atol=1e-12)

    def test_identity_map_is_fixed(self):
        part = resonance_partition(np.diag([0.0, 1.0, 2.0, 3.0]))
        out = project_superoperator(np.eye(16), part)
        assert linalg.max_abs(out - np.eye(16)) < 1e-12

    def test_idempotent(self, rng):
        part = resonance_partition(np.diag([0.0, 1.0, 2.0, 3.0]))
        Phi = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        once = project_superoperator(Phi, part)
        twice = project_superoperator(once, part)
        assert linalg.max_abs(twice - once) < 1e-10

    def test_mode_cap(self):
        with pytest.raises(TooManyModes):
            project_superoperator(np.eye(32**2), resonance_partition(np.zeros((32, 32))))


class TestAveragedUnitaryMoments:
    def test_mode_cap(self, monkeypatch):
        # n = 5 is refused before any conjugation superoperator is formed
        def formed(U):
            raise AssertionError("conjugation superoperator formed past the mode cap")

        monkeypatch.setattr(fock, "unitary_conjugation_superoperator", formed)
        zero = np.zeros((32, 32))
        with pytest.raises(TooManyModes):
            averaged_unitary_moments(zero, resonance_partition(zero), [np.eye(32)], [0.5, 1.0])

    def test_commuting_case(self):
        # Hhat diagonal in the H0hat eigenbasis: averaging leaves the
        # conjugation untouched
        part = resonance_partition(np.diag([0.0, 1.0, 2.0, 3.0]))
        Hhat = np.diag([0.5, -0.3, 0.2, 0.9])
        X = np.diag([1.0, 2.0, 3.0, 4.0])
        t = 0.8
        M = linalg.matrix_exponential(1j * t * Hhat)
        want = M @ X @ M.conj().T
        got = averaged_unitary_moments(Hhat, part, [X], t)[0]
        assert linalg.max_abs(got - want) < 1e-12

    def test_t0_is_identity(self, rng):
        # at t=0 the conjugation is the identity for every frame shift s,
        # so the average returns X unchanged
        H0hat = np.diag([0.0, 1.0, 1.0, 2.0])
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        got = averaged_unitary_moments(H0hat, resonance_partition(H0hat), [X], 0.0)[0]
        assert linalg.max_abs(got - X) < 1e-12

    def test_matches_projected_superoperator(self, rng):
        H = random_valid_fermion(2, rng)
        H0 = eh.diagonal_modes([1.0, 2.0])
        rep = jordan_wigner(2)
        Hhat, H0hat = quadratize(H, rep), quadratize(H0, rep)
        t = 0.7
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        Phi = unitary_conjugation_superoperator(
            linalg.matrix_exponential(1j * t * Hhat)
        )
        part = resonance_partition(H0hat)
        PPhi = project_superoperator(Phi, part)
        want = (PPhi @ X.flatten(order="F")).reshape((4, 4), order="F")
        got = averaged_unitary_moments(Hhat, part, [X], t)[0]
        assert linalg.max_abs(got - want) < 1e-10

    def test_operator_product_tensor_reduction(self, offres_split):
        # tensor form of the moment average: for X = c_a c_b the average of
        # the conjugated product matches the projected kron-propagator row
        series = exact_series(offres_split, 2, TimeGrid(0.9, 1))
        assert moment_equivalence_residual(series, offres_split, fock_frame(offres_split)) < 1e-8

    @pytest.mark.parametrize("m", [1, 2])
    def test_moment_equivalence_grid_is_worst_time(self, m):
        # one setup for both grid points gives the larger of the residuals
        # that one setup per time gives
        rng = np.random.default_rng(m)
        split = eh.SplitHamiltonian(
            base=random_valid_fermion(3, rng), interaction=random_valid_fermion(3, rng),
            coupling=0.2,
        )
        part = fock_frame(split)

        def residual(grid):
            return moment_equivalence_residual(exact_series(split, m, grid), split, part)

        each = [residual(TimeGrid(t, 1)) for t in (0.5, 1.0)]
        # batched and one-time products may round differently in BLAS
        assert abs(residual(TimeGrid(1.0, 2)) - max(each)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_kernel_reference(self, rng, n):
        d = 2**n
        Hhat = quadratize(random_valid_fermion(n, rng), jordan_wigner(n))
        for H0hat in free_hamiltonians(n, rng):
            products = [random_complex(d, rng) for _ in range(3)]
            got = averaged_unitary_moments(Hhat, resonance_partition(H0hat), products, 0.7)
            want = kernel_averaged_unitary_moments(Hhat, H0hat, products, 0.7)
            assert linalg.max_abs(got - want) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_times_match_kernel_reference(self, rng, n):
        # every time read off one eigendecomposition of Hhat, each equal to
        # the reference at that time alone
        d, times = 2**n, (0.3, 0.7, 1.6)
        Hhat = quadratize(random_valid_fermion(n, rng), jordan_wigner(n))
        for H0hat in free_hamiltonians(n, rng):
            products = [random_complex(d, rng) for _ in range(3)]
            got = averaged_unitary_moments(Hhat, resonance_partition(H0hat), products, times)
            assert got.shape == (len(times), 3, d, d)
            for t, average in zip(times, got, strict=True):
                want = kernel_averaged_unitary_moments(Hhat, H0hat, products, t)
                assert linalg.max_abs(average - want) <= 1e-13

    def test_dimension_mismatch(self, rng):
        Hhat = quadratize(random_valid_fermion(2, rng), jordan_wigner(2))
        H0hat = quadratize(eh.diagonal_modes([1.0, 2.0, 3.0]), jordan_wigner(3))
        with pytest.raises(DimensionMismatch):
            averaged_unitary_moments(Hhat, resonance_partition(H0hat), [np.eye(4)], 0.5)

    def test_numeric_flag_agrees_roughly(self, rng):
        H = random_valid_fermion(2, rng)
        H0 = eh.diagonal_modes([1.0, 2.0])
        rep = jordan_wigner(2)
        Hhat, H0hat = quadratize(H, rep), quadratize(H0, rep)
        X = rep.annihilators[0]
        exact = averaged_unitary_moments(Hhat, resonance_partition(H0hat), [X], 0.6)[0]
        approx = finite_time_averaged_conjugation(Hhat, H0hat, X, 0.6, T=500.0, steps=50000)
        assert linalg.max_abs(exact - approx) < 5e-3


class TestRunVerification:
    def test_four_modes_all_pass(self):
        split = eh.SplitHamiltonian(
            base=eh.diagonal_modes([1.0, 1.7, 2.3, 3.1]),
            interaction=eh.hopping(4, 1, 2, 1.0),
            coupling=0.1,
        )
        result = run_verification(split, 1, seed=0)
        assert result["all_pass"], result["checks"]

    @pytest.mark.parametrize("m", [1, 2])
    def test_moment_equivalence_at_coarse_tolerance(self, m):
        # the two frequencies resonate at tol 1e-4 but not at 1e-9: the Fock
        # side must average at the same tolerance as the matrix side
        split = eh.SplitHamiltonian(
            base=eh.diagonal_modes([1.0, 1.0 + 1e-6]),
            interaction=eh.hopping(2, 1, 2, 0.1),
            coupling=1.0,
        )
        result = run_verification(split, m, resonance_tol=1e-4)
        assert result["checks"]["moment_equivalence"]["residual"] <= 1e-8

    def test_superoperator_laws_at_coarse_tolerance(self):
        # H0hat has 3 resonance clusters at tol 1e-4 and 4 at 1e-9; the
        # superoperator laws must run on the run's frame, as the matrix laws
        # do.  On the coarse frame both hold only to about the 1e-6 cluster
        # width (5.5e-6 and 7.5e-6), against round-off on the fine one
        split = eh.SplitHamiltonian(
            base=eh.diagonal_modes([1.0, 1.0 + 1e-6]),
            interaction=eh.hopping(2, 1, 2, 0.1),
            coupling=1.0,
        )
        coarse = run_verification(split, 1, resonance_tol=1e-4)["checks"]
        fine = run_verification(split, 1, resonance_tol=1e-9)["checks"]
        for name in ("matrix_laws", "superoperator_laws"):
            assert coarse[name]["residual"] > 1e-7, name
            assert fine[name]["residual"] <= 1e-10, name


class TestOperatorProducts:
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (2, 3)])
    def test_matches_loop(self, n, m):
        rep = jordan_wigner(n)
        ops = rep.operator_vector
        want = []
        for multi in np.ndindex(*(len(ops),) * m):
            prod = np.eye(rep.dim, dtype=complex)
            for j in multi:
                prod = prod @ ops[j]
            want.append(prod)
        np.testing.assert_array_equal(operator_products(rep, m), want)


def law_splits(n):
    """A split whose E H0 is not diagonal (hopping in H0, V1 != I) and one
    with degenerate diagonal H0 (frequencies 1, 1, 2, 2 truncated)."""
    rng = np.random.default_rng(n)
    rotated = eh.validate_fermion(
        eh.diagonal_modes([1.0, 1.3, 1.9, 2.6][:n]).H + eh.hopping(n, 1, 2, 0.3).H, n
    )
    degenerate = eh.diagonal_modes([1.0, 1.0, 2.0, 2.0][:n])
    return [eh.SplitHamiltonian(base=base, interaction=random_valid_fermion(n, rng), coupling=0.1)
            for base in (rotated, degenerate)]


class TestMatrixLawsOnFactoredFrame:
    @pytest.mark.parametrize("n, m", [(4, 2), (2, 3)])
    def test_no_dense_frame(self, monkeypatch, rng, n, m):
        # the laws run in the moment path's Kronecker-factored frame: its
        # only eigendecomposition is of the 2n x 2n E H0, the law check
        # itself eigendecomposes nothing, and the free evolutions come from
        # the frame's phases, not from matrix exponentials
        eigh_dims, expm_calls = [], []
        eigh = np.linalg.eigh
        expm = linalg.matrix_exponential

        def spy_eigh(A):
            eigh_dims.append(A.shape[-1])
            return eigh(A)

        def spy_expm(A):
            expm_calls.append(A.shape)
            return expm(A)

        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        monkeypatch.setattr(linalg, "matrix_exponential", spy_expm)
        for split, rotated in zip(law_splits(n), (True, False), strict=True):
            eigh_dims.clear()
            part = free_moment_partition(split, m)
            assert (part.decomposition.factor is not None) == rotated
            assert eigh_dims == ([2 * n] if rotated else [])
            eigh_dims.clear()
            res = matrix_projector_law_residuals(part, rng, samples=5)
            assert max(res.values()) <= 1e-12, res
            assert eigh_dims == []
            assert expm_calls == []


def diagonal_split(n):
    return eh.SplitHamiltonian(
        base=eh.diagonal_modes([1.0, 1.7, 2.3][:n]), interaction=eh.hopping(n, 1, 2, 0.1),
        coupling=0.1,
    )


# the frames the law checks are tested in: matrix laws on the moment frame of
# a diagonal H0 at d = 4, 16, 36 and of a rotated one (V1 != I) at d = 16,
# superoperator laws on H0hat's partition at n = 2 and 3
LAW_FRAMES = {
    "matrix-d4": lambda: free_moment_partition(diagonal_split(2), 1),
    "matrix-d16": lambda: free_moment_partition(diagonal_split(2), 2),
    "matrix-d36": lambda: free_moment_partition(diagonal_split(3), 2),
    "matrix-d16-rotated": lambda: free_moment_partition(law_splits(2)[0], 2),
    "fock-n2": lambda: fock_frame(diagonal_split(2)),
    "fock-n3": lambda: fock_frame(diagonal_split(3)),
}


def law_check(frame: str):
    """The law check that runs on ``frame``, its one-sample-at-a-time
    reference, the frame, and the dimension of one random sample."""
    part = LAW_FRAMES[frame]()
    if frame.startswith("fock"):
        return (superoperator_law_residuals, superoperator_law_residuals_by_sample, part,
                len(part.labels) ** 2)
    return (matrix_projector_law_residuals, matrix_law_residuals_by_sample, part,
            part.decomposition.dim)


class TestStackedLawChecks:
    @pytest.mark.parametrize("frame", LAW_FRAMES)
    def test_equal_to_one_sample_at_a_time(self, frame):
        # a stack holds c samples; sample counts around c cover an empty, a
        # partial, a full and a full-plus-partial run of stacks
        check, reference, part, dim = law_check(frame)
        c = max(1, STACK_ENTRIES // dim**2)
        for samples in (0, 1, c - 1, c, c + 1, 20):
            got = check(part, np.random.default_rng(samples), samples=samples)
            assert got == reference(part, np.random.default_rng(samples), samples=samples), samples

    @pytest.mark.parametrize("frame", ["matrix-d16", "fock-n2"])
    def test_peak_bounded_in_samples(self, frame):
        # one stack of samples is held at a time, so 200 samples peak where
        # 20 do; all 200 in one stack would peak about ten times higher
        check, _, part, _ = law_check(frame)
        check(part, np.random.default_rng(0), samples=20)
        peaks = []
        for samples in (20, 200):
            tracemalloc.start()
            try:
                check(part, np.random.default_rng(0), samples=samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestLargeFrequencies:
    """The law checks read their free evolutions off eigendecompositions, so
    only the moment-equivalence exponential exp(i Hhat t) at t = 1 caps
    max_abs(Hhat), which is about half the frequency sum."""

    @pytest.mark.parametrize("omega, m", [([3000.0, 3001.0], 2), ([6000.0, 6001.0], 1),
                                          ([6000.0, 6001.0], 2)])
    def test_verifies(self, omega, m):
        split = eh.SplitHamiltonian(
            base=eh.diagonal_modes(omega), interaction=eh.hopping(2, 1, 2, 0.1), coupling=0.1
        )
        result = run_verification(split, m)
        assert result["all_pass"], result["checks"]
        assert max(c["residual"] for c in result["checks"].values()) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2])
    def test_overflow_past_exponential_cap(self, m):
        split = eh.SplitHamiltonian(
            base=eh.diagonal_modes([25000.0]), interaction=eh.diagonal_modes([0.3]), coupling=0.1
        )
        with pytest.raises(Overflow):
            run_verification(split, m)


class TestMemory:
    def test_run_verification_peak(self):
        # the law checks project their samples in stacks of bounded size;
        # stacking every sample at once would raise this peak
        split = eh.SplitHamiltonian(
            base=eh.diagonal_modes([1.0, 1.7, 2.3]),
            interaction=random_valid_fermion(3, np.random.default_rng(5)),
            coupling=0.1,
        )
        run_verification(split, 2)
        tracemalloc.start()
        try:
            run_verification(split, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6


class TestCheckHeisenbergReduction:
    def test_diagonal_hamiltonian(self):
        res = check_heisenberg_reduction([eh.diagonal_modes([1.0, 2.0])], jordan_wigner(2), 0.9)
        assert res < 1e-12

    def test_random_hamiltonians(self, rng):
        rep = jordan_wigner(2)
        for _ in range(5):
            assert check_heisenberg_reduction([random_valid_fermion(2, rng)], rep, 0.7) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sequence_is_largest_single_call(self, n):
        rep, rng = jordan_wigner(n), np.random.default_rng(n)
        Hs = [random_valid_fermion(n, rng) for _ in range(5)]
        want = max(check_heisenberg_reduction([H], rep, HEISENBERG_TIMES) for H in Hs)
        assert check_heisenberg_reduction(Hs, rep, HEISENBERG_TIMES) == want
        assert heisenberg_reduction_residual(n, np.random.default_rng(n)) == want
        assert check_heisenberg_reduction([], rep, HEISENBERG_TIMES) == 0.0

    def test_mode_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_heisenberg_reduction([eh.diagonal_modes([1.0])], jordan_wigner(2), 0.5)
        with pytest.raises(DimensionMismatch):
            check_heisenberg_reduction([eh.diagonal_modes([1.0])], jordan_wigner(2), (0.5, 1.0))
        with pytest.raises(DimensionMismatch):
            check_heisenberg_reduction([eh.diagonal_modes([1.0, 2.0]), eh.diagonal_modes([1.0])],
                                       jordan_wigner(2), 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_times_match_scalar_calls(self, rng, n):
        rep, times = jordan_wigner(n), (0.3, 1.0, 2.5)
        for _ in range(3):
            H = random_valid_fermion(n, rng)
            want = max(check_heisenberg_reduction([H], rep, t) for t in times)
            assert abs(check_heisenberg_reduction([H], rep, times) - want) <= 1e-15

    def test_overflow_above_cap(self):
        # three equal modes: max_abs(Hhat) = 1.5 against max_abs(E H) = 1, so
        # only the Fock-space exponent passes the cap
        H, rep = eh.diagonal_modes([1.0, 1.0, 1.0]), jordan_wigner(3)
        t = 1.01 * linalg.EXP_NORM_CAP / linalg.max_abs(quadratize(H, rep))
        assert t * linalg.max_abs(H.single_particle_generator()) < linalg.EXP_NORM_CAP
        with pytest.raises(Overflow):
            check_heisenberg_reduction([H], rep, (0.3, t))
        with pytest.raises(Overflow):
            check_heisenberg_reduction([H], rep, -t)
