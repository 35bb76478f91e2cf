import numpy as np
import pytest

import effheis as eh
from effheis import fock, linalg
from effheis.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotAntisymmetric,
    NotTildeAntisymmetric,
)
from effheis.fermion import exchange_matrix, tilde_conjugate
from effheis.fock import check_heisenberg_reduction, jordan_wigner, quadratize
from effheis.verify import random_valid_fermion


class TestExchangeMatrix:
    def test_n1(self):
        np.testing.assert_array_equal(exchange_matrix(1), [[0, 1], [1, 0]])

    def test_involution(self):
        E = exchange_matrix(3)
        assert linalg.max_abs(E @ E - np.eye(6)) == 0

    def test_symmetric(self):
        E = exchange_matrix(2)
        assert np.array_equal(E, E.T)

    def test_cached_read_only(self):
        E = exchange_matrix(3)
        assert exchange_matrix(3) is E
        assert not E.flags.writeable


class TestTildeConjugate:
    def test_identity(self):
        np.testing.assert_array_equal(tilde_conjugate(np.eye(4), 2), np.eye(4))

    def test_exchange_fixed(self):
        E = exchange_matrix(2)
        np.testing.assert_array_equal(tilde_conjugate(E, 2), E)

    def test_involution(self, rng):
        K = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert linalg.max_abs(tilde_conjugate(tilde_conjugate(K, 2), 2) - K) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tilde_conjugate(np.eye(4), 3)


class TestValidateFermion:
    def test_single_mode(self):
        H = eh.validate_fermion([[0, -1], [1, 0]], 1)
        # the single-mode number Hamiltonian: c^dag c - 1/2 in Fock space
        Hhat = quadratize(H, jordan_wigner(1))
        np.testing.assert_allclose(Hhat, np.diag([-0.5, 0.5]), atol=1e-14)

    def test_rejects_symmetric(self):
        with pytest.raises(NotAntisymmetric, match=r"\(H \+ H\^T\)\[\(0, 0\)\] = 2\.000e\+00"):
            eh.validate_fermion([[1, 0], [0, 0]], 1)

    def test_rejects_tilde_violation(self):
        # antisymmetric but not tilde-antisymmetric
        H = np.array([[0, 1j], [-1j, 0]])
        with pytest.raises(NotTildeAntisymmetric):
            eh.validate_fermion(H, 1)

    def test_random_builder_roundtrip(self, rng):
        for _ in range(10):
            H = random_valid_fermion(2, rng)
            assert linalg.max_abs(H.H + H.H.T) < 1e-12
            assert linalg.max_abs(H.H + tilde_conjugate(H.H, 2)) < 1e-12
            EH = H.single_particle_generator()
            assert linalg.hermiticity_residual(EH) < 1e-12


class TestBuilders:
    def test_diagonal_modes_matrix(self):
        H = eh.diagonal_modes([1.0])
        np.testing.assert_array_equal(H.H, [[0, -1], [1, 0]])

    def test_diagonal_modes_spectrum(self):
        H = eh.diagonal_modes([1.0, 2.0])
        eigs = np.sort(np.linalg.eigvalsh(H.single_particle_generator()))
        np.testing.assert_allclose(eigs, [-2, -1, 1, 2], atol=1e-12)

    def test_diagonal_modes_fock_spectrum(self):
        omega = np.array([1.0, 2.0])
        Hhat = quadratize(eh.diagonal_modes(omega), jordan_wigner(2))
        got = np.sort(np.linalg.eigvalsh(Hhat))
        want = np.sort(
            [sum(n * w for n, w in zip(occ, omega)) - omega.sum() / 2
             for occ in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_hopping_block_structure(self):
        H = eh.hopping(2, 1, 2, 1.0)
        C = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = np.block([[C, np.zeros((2, 2))], [np.zeros((2, 2)), -C]])
        np.testing.assert_allclose(H.single_particle_generator(), expected)

    def test_hopping_zero_coupling(self):
        assert linalg.max_abs(eh.hopping(3, 1, 3, 0.0).H) == 0

    def test_hopping_fock_expansion(self):
        rep = jordan_wigner(2)
        g = 0.7
        Hhat = quadratize(eh.hopping(2, 1, 2, g), rep)
        c1, c2 = rep.annihilators
        want = g * (c1.conj().T @ c2 + c2.conj().T @ c1)
        assert linalg.max_abs(Hhat - want) < 1e-14

    def test_hopping_index_check(self):
        with pytest.raises(IndexOutOfRange):
            eh.hopping(2, 2, 1, 1.0)


class TestHeisenbergMatrix:
    def test_t0(self):
        H = eh.diagonal_modes([1.0, 2.0])
        np.testing.assert_allclose(eh.heisenberg_matrix(H, 0.0), np.eye(4), atol=1e-14)

    def test_single_mode_closed_form(self):
        H = eh.diagonal_modes([1.0])
        t = 0.83
        got = eh.heisenberg_matrix(H, t)
        np.testing.assert_allclose(got, np.diag([np.exp(-1j * t), np.exp(1j * t)]), atol=1e-12)

    def test_group_property(self, rng):
        H = random_valid_fermion(2, rng)
        O = eh.heisenberg_matrix
        assert linalg.max_abs(O(H, 0.4) @ O(H, 1.1) - O(H, 1.5)) < 1e-9

    def test_unitary(self, rng):
        H = random_valid_fermion(2, rng)
        O = eh.heisenberg_matrix(H, 0.9)
        assert linalg.max_abs(O.conj().T @ O - np.eye(4)) < 1e-10

    def test_fock_oracle_conjugation(self, rng):
        rep = jordan_wigner(2)
        H = random_valid_fermion(2, rng)
        assert check_heisenberg_reduction([H], rep, 0.7) < 1e-10

    def test_times_sequence_is_stack_of_scalar_calls(self, rng):
        H = random_valid_fermion(2, rng)
        times = (0.0, 0.4, -1.1, 2.5)
        got = eh.heisenberg_matrix(H, times)
        assert got.shape == (len(times), 4, 4)
        for O, t in zip(got, times):
            assert linalg.max_abs(O - eh.heisenberg_matrix(H, t)) <= 1e-15

    def test_fock_oracle_sees_heisenberg_matrix(self, rng, monkeypatch):
        """The oracle checks the library's O(t): a sign slip in it shows."""
        rep = jordan_wigner(2)
        H = random_valid_fermion(2, rng)
        monkeypatch.setattr(fock, "heisenberg_matrix",
                            lambda H, t: eh.heisenberg_matrix(H, -np.asarray(t)))
        assert check_heisenberg_reduction([H], rep, (0.3, 0.7)) > 1e-3


class TestMomentGenerator:
    def test_m1_single_mode(self):
        gen = eh.moment_generator(eh.diagonal_modes([1.0]), 1)
        np.testing.assert_allclose(gen, -1j * np.diag([1.0, -1.0]), atol=1e-14)

    def test_m2_single_mode(self):
        gen = eh.moment_generator(eh.diagonal_modes([1.0]), 2)
        np.testing.assert_allclose(
            gen, -1j * np.diag([2.0, 0.0, 0.0, -2.0]), atol=1e-14
        )

    def test_m1_exact(self, rng):
        K = random_valid_fermion(2, rng)
        gen = eh.moment_generator(K, 1)
        np.testing.assert_array_equal(gen, -1j * K.single_particle_generator())

    def test_anti_hermitian(self, rng):
        K = random_valid_fermion(2, rng)
        h = eh.moment_generator(K, 2)
        assert linalg.max_abs(h + h.conj().T) < 1e-12
