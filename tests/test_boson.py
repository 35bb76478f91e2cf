import numpy as np
import pytest

from effheis import linalg
from effheis.boson import (
    divergence_demo,
    stability_check,
    symplectic_matrix,
    validate_boson,
)
from effheis.errors import DimensionMismatch, NotSymmetric, NotTildeSymmetric


def trapezoid_divergence_norms(H0, X, T_list, steps_per_unit=200):
    """Reference: the stepping loop divergence_demo used before its closed
    form, trapezoidal finite-T averages of exp(-i H0 J s) X exp(i H0 J s)."""
    X = linalg.as_matrix(X)
    gen = -1j * (H0.H @ symplectic_matrix(H0.n))
    T_list = sorted(float(T) for T in T_list)
    norms = []
    for T in T_list:
        steps = max(500, int(steps_per_unit * T))
        ds = T / steps
        U_step = linalg.matrix_exponential(gen * ds)
        V_step = linalg.matrix_exponential(-gen * ds)
        U = np.eye(X.shape[0], dtype=complex)
        V = np.eye(X.shape[0], dtype=complex)
        acc = 0.5 * X.astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, steps + 1):
                U = U @ U_step
                V = V @ V_step
                weight = 0.5 if i == steps else 1.0
                acc = acc + weight * (U @ X @ V)
        avg = acc / steps
        if not (np.all(np.isfinite(avg.real)) and np.all(np.isfinite(avg.imag))):
            norms.append(float("inf"))
        else:
            norms.append(linalg.max_abs(avg))
    return norms


def harmonic(omega):
    """Coefficient matrix of sum_j omega_j (a_j^dag a_j + 1/2)."""
    n = len(omega)
    D = np.diag(np.asarray(omega, dtype=complex))
    Z = np.zeros((n, n), dtype=complex)
    return np.block([[Z, D], [D, Z]])


class TestSymplecticMatrix:
    def test_n1(self):
        np.testing.assert_array_equal(symplectic_matrix(1), [[0, -1], [1, 0]])

    def test_square_is_minus_identity(self):
        J = symplectic_matrix(3)
        assert linalg.max_abs(J @ J + np.eye(6)) == 0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            symplectic_matrix(0)


class TestValidateBoson:
    def test_harmonic_valid(self):
        H = validate_boson(harmonic([1.0, 2.0]), 2)
        assert H.n == 2

    def test_identity_valid(self):
        # H = I is symmetric and tilde-symmetric (the squeezing example)
        validate_boson(np.eye(2), 1)

    def test_rejects_antisymmetric(self):
        with pytest.raises(NotSymmetric, match=r"\(H - H\^T\)\[\(0, 1\)\] = 2\.000e\+00"):
            validate_boson([[0, -1], [1, 0]], 1)

    def test_rejects_tilde_violation(self):
        with pytest.raises(NotTildeSymmetric):
            validate_boson(np.diag([1.0, 2.0]), 1)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            validate_boson(np.eye(2), 2)


class TestStabilityCheck:
    def test_harmonic_stable(self):
        rep = stability_check(validate_boson(harmonic([1.0, 2.0]), 2))
        assert rep.classification == "stable"
        np.testing.assert_allclose(
            np.sort(rep.eigenvalues.real), [-2.0, -1.0, 1.0, 2.0], atol=1e-12
        )
        assert rep.max_imag < 1e-12

    def test_squeezing_unstable(self):
        # H0 = I: generator J has eigenvalues +/- i
        rep = stability_check(validate_boson(np.eye(2), 1))
        assert rep.classification == "unstable"
        assert rep.max_imag == pytest.approx(1.0, abs=1e-12)

    def test_zero_hamiltonian_stable(self):
        rep = stability_check(validate_boson(np.zeros((2, 2)), 1))
        assert rep.classification == "stable"

    def test_scale_invariance(self):
        # classification is invariant under H0 -> alpha H0 for alpha > 0
        base = harmonic([1.0])
        for alpha in (1e-6, 1.0, 1e6):
            assert stability_check(validate_boson(alpha * base, 1)).classification == "stable"
        for alpha in (1e-6, 1.0, 1e6):
            assert (
                stability_check(validate_boson(alpha * np.eye(2), 1)).classification
                == "unstable"
            )

    def test_jordan_block_unstable(self):
        # H0 J = [[1, -1], [1, -1]] is nilpotent: both eigenvalues are 0 and
        # real, but the evolution grows like s, so its average like T^2
        rep = stability_check(validate_boson([[1.0, 1.0], [1.0, 1.0]], 1))
        assert rep.max_imag == 0.0
        assert rep.classification == "unstable"

    def test_degenerate_diagonalizable_stable(self):
        # two copies of the one-mode oscillator [[0, 1], [1, 0]]: eigenvalues
        # +1 and -1 are each double, and the generator is diagonalizable
        rep = stability_check(validate_boson(harmonic([1.0, 1.0]), 2))
        assert rep.classification == "stable"
        np.testing.assert_allclose(rep.eigenvalues.real, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)

    def test_eigenvalues_deterministically_ordered(self):
        H0 = validate_boson(harmonic([2.0, 1.0]), 2)
        a = stability_check(H0).eigenvalues
        b = stability_check(H0).eigenvalues
        assert np.array_equal(a, b)
        assert np.all(np.diff(a.real) >= -1e-12)


class TestDivergenceDemo:
    def test_unstable_diverges(self):
        H0 = validate_boson(np.eye(2), 1)
        X = np.array([[0.0, 1.0], [0.0, 0.0]])
        out = divergence_demo(H0, X, [1.0, 5.0, 10.0, 20.0])
        assert out["classification"] == "divergent"
        finite = [v for v in out["norms"] if np.isfinite(v)]
        assert all(a <= b * (1 + 1e-9) for a, b in zip(finite, finite[1:]))

    def test_stable_bounded(self):
        H0 = validate_boson(harmonic([1.0]), 1)
        X = np.array([[0.0, 1.0], [0.0, 0.0]])
        out = divergence_demo(H0, X, [1.0, 5.0, 10.0, 20.0])
        assert out["classification"] == "bounded"
        assert not out["overflow"]
        assert max(out["norms"]) < 10.0

    def test_zero_operator(self):
        H0 = validate_boson(np.eye(2), 1)
        out = divergence_demo(H0, np.zeros((2, 2)), [1.0, 5.0])
        assert out["classification"] == "bounded"
        assert max(out["norms"]) == 0.0

    @pytest.mark.parametrize("H", [harmonic([1.0]), np.eye(2)], ids=["harmonic", "squeezing"])
    def test_matches_trapezoid_reference(self, H):
        H0 = validate_boson(H, 1)
        X = np.array([[0.0, 1.0], [0.0, 0.0]])
        T_list = [1.0, 5.0, 10.0, 20.0]
        got = divergence_demo(H0, X, T_list)["norms"]
        want = trapezoid_divergence_norms(H0, X, T_list)
        np.testing.assert_allclose(got, want, rtol=5e-5, atol=0)

    def test_defective_generator_closed_form(self):
        # H0 J = [[1, -1], [1, -1]] is a nilpotent Jordan block: G^2 = 0, so
        # exp(Gs) X exp(-Gs) = X + s[G, X] - s^2 GXG, averaged exactly below
        H0 = validate_boson([[1.0, 1.0], [1.0, 1.0]], 1)
        G = -1j * (H0.H @ symplectic_matrix(1))
        X = np.array([[0.3 - 0.2j, 1.0], [-0.7j, 0.5]])
        T_list = [1.0, 5.0, 10.0, 20.0]
        want = [
            linalg.max_abs(X + (T / 2) * (G @ X - X @ G) - (T**2 / 3) * (G @ X @ G))
            for T in T_list
        ]
        np.testing.assert_allclose(divergence_demo(H0, X, T_list)["norms"], want, rtol=1e-12)

    @pytest.mark.parametrize(
        "X", [[[0.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]], ids=["quadratic", "linear"]
    )
    def test_defective_generator_divergent(self, X):
        # on the nilpotent H0 J = [[1, -1], [1, -1]] the first X grows the
        # average like T^2; the second has GXG = 0 and grows it like T.  Both
        # stay under a 1e3 ratio over T = 1..20 and are still divergent
        H0 = validate_boson([[1.0, 1.0], [1.0, 1.0]], 1)
        out = divergence_demo(H0, np.array(X), [1.0, 5.0, 10.0, 20.0])
        assert not out["overflow"]
        assert out["norms"][-1] < 1e3 * min(out["norms"])
        assert out["classification"] == "divergent"

    def test_long_time_splits_instead_of_overflow(self):
        # max_abs(B T) = 1.2e4 exceeds linalg.EXP_NORM_CAP; G = diag(-i, i),
        # so the off-diagonal entries average to X_jk (e^{zT} - 1) / (zT)
        H0 = validate_boson(harmonic([1.0]), 1)
        X = np.array([[0.0, 1.0], [2.0j, 0.0]])
        T = 6000.0
        z = -2j * T
        want = linalg.max_abs(X * np.array([[1.0, np.expm1(z) / z], [np.expm1(-z) / -z, 1.0]]))
        out = divergence_demo(H0, X, [T])
        assert not out["overflow"]
        assert abs(out["norms"][0] - want) <= 1e-12 * want
