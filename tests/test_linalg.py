import os
import subprocess
import sys

import numpy as np
import pytest

import effheis
from effheis import linalg
from effheis.errors import DimensionOverflow, NotHermitian, Overflow


def random_hermitian(dim, rng, scale=1.0):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (A + A.conj().T) / 2


class TestEigendecompose:
    def test_already_diagonal(self):
        eig = linalg.hermitian_eigendecompose(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 3.0])
        assert linalg.max_abs(np.abs(eig.basis) - np.eye(2)[:, ::-1]) < 1e-14

    def test_pauli_x(self):
        eig = linalg.hermitian_eigendecompose(np.array([[0, 1], [1, 0]]))
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0])
        np.testing.assert_allclose(np.abs(eig.basis), np.full((2, 2), 1 / np.sqrt(2)))

    def test_random_8x8_reconstruction(self, rng):
        M = random_hermitian(8, rng)
        eig = linalg.hermitian_eigendecompose(M)
        rec = (eig.basis * eig.eigenvalues) @ eig.basis.conj().T
        assert linalg.max_abs(rec - M) < 1e-10

    def test_unitarity_and_reconstruction_sweep(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 17))
            M = random_hermitian(dim, rng)
            eig = linalg.hermitian_eigendecompose(M)
            assert linalg.max_abs(eig.basis.conj().T @ eig.basis - np.eye(dim)) < 1e-12
            rec = (eig.basis * eig.eigenvalues) @ eig.basis.conj().T
            assert linalg.max_abs(rec - M) < 1e-10 * (1 + linalg.max_abs(M))
            assert np.all(np.diff(eig.eigenvalues) >= 0)

    def test_deterministic(self, rng):
        M = random_hermitian(6, rng)
        a = linalg.hermitian_eigendecompose(M)
        b = linalg.hermitian_eigendecompose(M.copy())
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.hermitian_eigendecompose(np.array([[0, 1], [0, 0]]))

    def test_overflowing_input_is_overflow(self):
        # finite entries whose M + M^dag overflows, on which numpy's eigh
        # returns NaN or fails to converge
        with pytest.raises(Overflow):
            linalg.hermitian_eigendecompose(np.array([[1.0, 1e308], [1e308, 2.0]]))

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 24])
    def test_stack_matches_one_call_per_matrix(self, rng, dim):
        stack = np.array([random_hermitian(dim, rng, scale) for scale in (1e-3, 1.0, 50.0)])
        got = linalg.hermitian_eigendecompose(stack.reshape(3, 1, dim, dim))
        assert got.basis.shape == (3, 1, dim, dim) and got.dim == dim
        for b, M in enumerate(stack):
            want = linalg.hermitian_eigendecompose(M)
            assert np.array_equal(got.basis[b, 0], want.basis)
            assert np.array_equal(got.eigenvalues[b, 0], want.eigenvalues)

    def test_stack_hermiticity_checked_per_matrix(self, rng):
        # a residual of 1e-6 on a unit-size matrix fails its own tolerance,
        # though it is far below that of a large matrix in the same stack
        small = random_hermitian(3, rng)
        small[0, 1] += 1e-6
        with pytest.raises(NotHermitian):
            linalg.hermitian_eigendecompose(np.array([random_hermitian(3, rng, 1e6), small]))


class TestMatrixExponential:
    def test_zero(self):
        np.testing.assert_array_equal(
            linalg.matrix_exponential(np.zeros((3, 3))), np.eye(3)
        )

    def test_diagonal(self):
        out = linalg.matrix_exponential(np.diag([1.0 + 0j, -2.0]))
        np.testing.assert_allclose(out, np.diag(np.exp([1.0, -2.0])), atol=1e-13)

    def test_rotation(self):
        theta = np.pi / 2
        A = np.array([[0, theta], [-theta, 0]])
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert linalg.max_abs(linalg.matrix_exponential(A) - expected) < 1e-12

    def test_anti_hermitian_gives_unitary(self, rng):
        for _ in range(20):
            M = random_hermitian(5, rng)
            U = linalg.matrix_exponential(-1j * M)
            assert linalg.max_abs(U.conj().T @ U - np.eye(5)) < 1e-10

    def test_inverse_identity(self, rng):
        for _ in range(20):
            A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            A *= 5.0 / max(1.0, linalg.max_abs(A))
            out = linalg.matrix_exponential(A) @ linalg.matrix_exponential(-A)
            assert linalg.max_abs(out - np.eye(4)) < 1e-9

    def test_overflow_cap(self):
        with pytest.raises(Overflow):
            linalg.matrix_exponential(1e5 * np.eye(2))


class TestUnitaryPropagators:
    def test_matches_matrix_exponential(self, rng):
        M = random_hermitian(6, rng)
        times = (-1.3, 0.0, 0.4, 2.5)
        got = linalg.unitary_propagators(M, times)
        assert got.shape == (4, 6, 6)
        for t, U in zip(times, got, strict=True):
            assert linalg.max_abs(U - linalg.matrix_exponential(1j * t * M)) < 1e-13

    def test_overflow_cap(self):
        M = np.diag([2.0, -1.0])
        linalg.unitary_propagators(M, [0.99 * linalg.EXP_NORM_CAP / 2])
        with pytest.raises(Overflow):
            linalg.unitary_propagators(M, [0.1, -1.01 * linalg.EXP_NORM_CAP / 2])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.unitary_propagators(np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0])

    def test_stack_matches_per_matrix_calls(self, rng):
        Ms = np.array([[random_hermitian(5, rng) for _ in range(3)] for _ in range(2)])
        times = (-1.3, 0.0, 0.4, 2.5)
        got = linalg.unitary_propagators(Ms, times)
        assert got.shape == (2, 3, 4, 5, 5)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(got[idx], linalg.unitary_propagators(Ms[idx], times))

    def test_stack_checks_every_matrix(self, rng):
        Ms = np.array([random_hermitian(3, rng) for _ in range(3)])
        linalg.unitary_propagators(Ms, [1.0])
        bad = Ms.copy()
        bad[1, 0, 1] += 1.0
        with pytest.raises(NotHermitian):
            linalg.unitary_propagators(bad, [1.0])
        big = Ms.copy()
        big[2] *= 1.01 * linalg.EXP_NORM_CAP / linalg.max_abs(big[2])
        with pytest.raises(Overflow):
            linalg.unitary_propagators(big, [1.0])


class TestKronSandwich:
    @pytest.mark.parametrize("na, nb", [(1, 3), (2, 3), (4, 4)])
    def test_matches_dense_kron(self, rng, na, nb):
        A = rng.standard_normal((na, na)) + 1j * rng.standard_normal((na, na))
        B = rng.standard_normal((nb, nb)) + 1j * rng.standard_normal((nb, nb))
        V = np.kron(A, B)
        Z = rng.standard_normal((2, 3, na * nb, na * nb)) + 1j * rng.standard_normal((2, 3, na * nb, na * nb))
        got = linalg.kron_sandwich(Z, A, B)
        assert got.shape == Z.shape
        assert linalg.max_abs(got - V @ Z @ V.conj().T) < 1e-12
        assert linalg.max_abs(linalg.kron_sandwich(Z[1, 2], A, B) - got[1, 2]) < 1e-12


class TestKronSum:
    def test_single_slot(self, rng):
        K = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_array_equal(linalg.kron_sum(K, 1), K)

    def test_diagonal_sum(self):
        out = linalg.kron_sum(np.diag([-1.0 + 0j, 1.0]), 2)
        np.testing.assert_allclose(out, np.diag([-2.0, 0.0, 0.0, 2.0]))

    def test_exponential_identity(self, rng):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        K = (A - A.conj().T) / 2
        t = 0.7
        lhs = linalg.matrix_exponential(linalg.kron_sum(K, 2) * t)
        expKt = linalg.matrix_exponential(K * t)
        assert linalg.max_abs(lhs - np.kron(expKt, expKt)) < 1e-10

    def test_dimension_cap(self):
        with pytest.raises(DimensionOverflow):
            linalg.kron_sum(np.eye(17), 3)


class TestLazyScipy:
    # in a fresh interpreter: what this test process imported says nothing
    SCRIPT = """
import sys
import numpy as np
import effheis as eh
seen = ["scipy.linalg" in sys.modules]
split = eh.SplitHamiltonian(
    base=eh.diagonal_modes([1.0, 2.0]), interaction=eh.hopping(2, 1, 2, 1.0), coupling=0.1
)
grid = eh.TimeGrid(t_end=1.0, steps=10)
exact = eh.exact_series(split, 1, grid, 1e-9)
eh.compare(exact, eh.integrate_time_local(eh.kappa12(split, 1, 1e-9), 2, grid))
seen.append("scipy.linalg" in sys.modules)
H0 = eh.validate_boson(np.array([[1.0, 1.0], [1.0, 1.0]]), 1)
eh.divergence_demo(H0, np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0, 5.0])
seen.append("scipy.linalg" in sys.modules)
print(seen)
"""

    def test_loaded_only_by_non_unitary_exponential(self):
        src = os.path.dirname(os.path.dirname(effheis.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        ).stdout
        # import and the moment path: no; the defective boson generator's
        # block exponential is not anti-Hermitian, so it reaches expm
        assert out.strip() == "[False, False, True]"
