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
