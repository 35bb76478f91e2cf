import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effheis as eh
from effheis import linalg
from effheis.errors import UnsupportedOrder
from effheis.fermion import SplitHamiltonian
from effheis.perturbation import SERIES_SWITCH, kappa12, spectral_function
from effheis.projector import (
    free_moment_generator_hermitian,
    free_moment_partition,
    project,
    resonance_partition,
)
from effheis.verify import random_valid_fermion, stationarity_residual
from references import dense_frame, general_kappa, mu1, mu2_closed, mu_k_quadrature, spectral_phi

SPECTRAL = {"psi": spectral_function, "phi": spectral_phi}


class TestSpectralFunction:
    def test_zero_limits(self):
        t = 0.8
        assert spectral_function(np.array(0.0), t) == pytest.approx(t)
        assert spectral_phi(np.array(0.0), t) == pytest.approx(t**2 / 2)

    def test_scalar_value(self):
        d = -2j
        got = spectral_function(np.array(d), 1.0)
        assert abs(got - (np.exp(d) - 1) / d) < 1e-12

    def test_series_matches_closed_form(self):
        # just below the switch the Taylor branch is used; it must agree
        # with the closed-form expression up to the cancellation error of
        # the latter (~eps/|z|^2 for phi)
        t = 1.0
        z = SERIES_SWITCH * 0.5j
        tz = t * z
        assert abs(spectral_function(np.array(z), t) - (np.exp(tz) - 1) / z) < 1e-12
        assert abs(spectral_phi(np.array(z), t) - (np.exp(tz) - 1 - tz) / z**2) < 1e-7

    @pytest.mark.parametrize("kind", ["psi", "phi"])
    def test_matches_mpmath(self, kind):
        # 50-digit reference for |z| = |t d| in [1e-8, 30], on the imaginary
        # axis and two general complex rays, across the series switch
        import mpmath

        t = 0.7
        radii = np.geomspace(1e-8, 30.0, 301)
        delta = np.concatenate([radii * np.exp(1j * angle) / t for angle in (np.pi / 2, 0.3, 2.5)])
        got = SPECTRAL[kind](delta, t)
        worst = 0.0
        with mpmath.workdps(50):
            for d, value in zip(delta, got):
                d_mp, t_mp = mpmath.mpc(d.real, d.imag), mpmath.mpf(t)
                z = t_mp * d_mp
                if kind == "psi":
                    ref = mpmath.expm1(z) / d_mp
                else:
                    ref = (mpmath.expm1(z) - z) / d_mp**2
                worst = max(worst, float(abs(value - ref) / abs(ref)))
        assert worst <= 1e-13

    def test_psi_across_switch_to_round_off(self):
        # 50-digit reference at t = 1 for |d| from 1e-6 to 1e3, either side
        # of SERIES_SWITCH and at it, with d imaginary, complex (Re d < 0)
        # or negative real: both branches hold psi to 1e-15 relative
        import mpmath

        radii = np.geomspace(1e-6, 1e3, 181)
        radii = np.concatenate([radii, SERIES_SWITCH * np.array([1 - 1e-12, 1.0, 1 + 1e-12])])
        delta = np.concatenate([1j * radii, radii * np.exp(2.5j), -radii + 0j])
        got = spectral_function(delta, 1.0)
        worst = 0.0
        with mpmath.workdps(50):
            for d, value in zip(delta, got, strict=True):
                d_mp = mpmath.mpc(d.real, d.imag)
                ref = mpmath.expm1(d_mp) / d_mp
                worst = max(worst, float(abs(value - ref) / abs(ref)))
        assert worst <= 1e-15

    @pytest.mark.parametrize("kind", ["psi", "phi"])
    def test_array_t_bit_identical_to_scalar_calls(self, kind):
        # |t d| from 0 to 20, on both sides of the series switch
        delta = np.concatenate([[0.0], -1j * np.geomspace(1e-3, 20.0, 9), np.geomspace(1e-3, 5.0, 5) * np.exp(0.4j)])
        times = np.array([0.0, 1e-3, 0.05, 0.7, 1.0])
        small = np.abs(times[:, None] * delta) < SERIES_SWITCH
        assert small.any() and not small.all()
        got = SPECTRAL[kind](delta, times[:, None])
        want = np.array([SPECTRAL[kind](delta, float(t)) for t in times])
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def interaction_hI(hI, h0, t):
    """Dense reference for the interaction-picture generator exp(-h0 t) hI exp(h0 t)."""
    return linalg.matrix_exponential(-h0 * t) @ hI @ linalg.matrix_exponential(h0 * t)


class TestInteractionPicture:
    def test_t0(self, rng):
        hI = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h0 = -1j * np.diag([1.0, 2.0, 3.0])
        np.testing.assert_allclose(interaction_hI(hI, h0, 0.0), hI, atol=1e-14)

    def test_commuting(self):
        h0 = -1j * np.diag([1.0, 2.0])
        hI = -1j * np.diag([0.5, -0.5])
        np.testing.assert_allclose(interaction_hI(hI, h0, 2.3), hI, atol=1e-12)

    def test_generates_interaction_frame_derivative(self, offres_split):
        # d/dt [exp(-h0 t) exp(h t)] = lambda hI(t) exp(-h0 t) exp(h t)
        lam = offres_split.coupling
        h0 = eh.moment_generator(offres_split.base, 1)
        hI = eh.moment_generator(offres_split.interaction, 1)
        h = eh.moment_generator(offres_split.total(), 1)

        def v(t):
            return linalg.matrix_exponential(-h0 * t) @ linalg.matrix_exponential(h * t)

        t, step = 0.9, 1e-4
        dv = (v(t + step) - v(t - step)) / (2 * step)
        assert linalg.max_abs(dv - lam * interaction_hI(hI, h0, t) @ v(t)) < 1e-6


def apply_ad_function(hI, M, t, kind):
    """F(t [h0, .]) hI with h0 = -iM, entrywise in the partition's eigenbasis."""
    part = resonance_partition(M)
    eig = part.decomposition
    return eig.from_eigenbasis(eig.to_eigenbasis(hI) * SPECTRAL[kind](part.delta, t))


class TestApplyAdFunction:
    def test_zero_generator_psi(self, rng):
        hI = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = apply_ad_function(hI, np.zeros((3, 3)), 0.7, "psi")
        np.testing.assert_allclose(out, 0.7 * hI, atol=1e-12)

    def test_zero_generator_phi(self, rng):
        hI = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = apply_ad_function(hI, np.zeros((3, 3)), 0.7, "phi")
        np.testing.assert_allclose(out, 0.7**2 / 2 * hI, atol=1e-12)

    def test_matches_direct_conjugation_series(self, rng):
        # psi(t ad) hI equals the integral of hI(-s) over [0, t]
        M = np.diag([0.5, 1.7, 3.0])
        hI = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = 0.6
        s_grid = np.linspace(0, t, 4001)
        h0 = -1j * M
        samples = np.array([interaction_hI(hI, h0, -s) for s in s_grid])
        integral = np.trapezoid(samples, s_grid, axis=0)
        out = apply_ad_function(hI, M, t, "psi")
        assert linalg.max_abs(out - integral) < 1e-7


class TestDysonMoments:
    def test_mu1_offresonant_vanishes(self, offres_split):
        assert linalg.max_abs(mu1(offres_split, 1)(1.0)) < 1e-14

    def test_mu1_resonant(self, resonant_split):
        hI = eh.moment_generator(resonant_split.interaction, 1)
        np.testing.assert_allclose(mu1(resonant_split, 1)(0.7), 0.7 * hI, atol=1e-12)

    def test_mu1_t0(self, detuned_split):
        assert linalg.max_abs(mu1(detuned_split, 1)(0.0)) == 0

    def test_mu2_t0(self, offres_split):
        assert linalg.max_abs(mu2_closed(offres_split, 1)(0.0)) == 0

    def test_mu2_commuting(self, resonant_split):
        t = 1.1
        hI = eh.moment_generator(resonant_split.interaction, 1)
        M0 = free_moment_generator_hermitian(resonant_split, 1)
        want = t**2 / 2 * project(hI @ hI, M0)
        assert linalg.max_abs(mu2_closed(resonant_split, 1)(t) - want) < 1e-12

    def test_mu2_matches_quadrature(self, offres_split):
        for t in (0.5, 1.0):
            closed = mu2_closed(offres_split, 1)(t)
            quad = mu_k_quadrature(offres_split, 1, 2, t, nodes=64)
            assert linalg.max_abs(closed - quad) < 1e-6

    def test_quadrature_k1(self, detuned_split):
        t = 0.8
        want = mu1(detuned_split, 1)(t)
        got = mu_k_quadrature(detuned_split, 1, 1, t, nodes=32)
        assert linalg.max_abs(got - want) < 1e-10

    def test_quadrature_t0(self, detuned_split):
        for k in (1, 2, 3):
            assert linalg.max_abs(mu_k_quadrature(detuned_split, 1, k, 0.0, nodes=16)) < 1e-14

    def test_quadrature_rejects_high_order(self, detuned_split):
        with pytest.raises(UnsupportedOrder):
            mu_k_quadrature(detuned_split, 1, 4, 1.0)


class TestCumulants:
    def test_kappa1_offresonant_vanishes(self, offres_split):
        gen = kappa12(offres_split, 1)
        assert linalg.max_abs(gen.kappa1) < 1e-14

    def test_kappa1_is_resonant_entries(self, detuned_split):
        for m in (1, 2):
            gen = kappa12(detuned_split, m)
            partition, hI = dense_frame(detuned_split, m)
            assert gen.kappa1.shape == (len(partition.resonant[0]),)
            np.testing.assert_array_equal(gen.kappa1, hI[partition.resonant])
            assert linalg.max_abs(gen.kappa1) > 0.1

    @pytest.mark.parametrize("order", [1, 2])
    def test_at_matches_dense_formula(self, detuned_split, order):
        # V0 (-i diag(lam) + lambda kappa1 + lambda^2 kappa2(t)) V0^dag, with
        # kappa1 and kappa2(t) as dense eigenbasis matrices; a random H0 at
        # m = 2 rotates the frame and has clusters of size 2
        rng = np.random.default_rng(5)
        rotated = SplitHamiltonian(
            base=random_valid_fermion(2, rng), interaction=random_valid_fermion(2, rng), coupling=0.3
        )
        t = 0.6
        for split, m in ((detuned_split, 1), (detuned_split, 2), (rotated, 2)):
            gen = kappa12(split, m)
            partition, hI = dense_frame(split, m)
            l = -1j * np.diag(partition.eigenvalues) + split.coupling * np.where(partition.mask, hI, 0.0)
            if order == 2:
                kappa2 = np.zeros_like(l)
                kappa2[partition.resonant] = gen.kappa2_of_t(t)
                l = l + split.coupling**2 * kappa2
            want = partition.decomposition.from_eigenbasis(l)
            assert linalg.max_abs(gen.at(t, order) - want) <= 1e-15

    def test_kappa2_zero_at_t0(self, detuned_split):
        gen = kappa12(detuned_split, 1)
        assert linalg.max_abs(gen.kappa2_of_t(0.0)) < 1e-14

    def test_kappa2_commuting_closed_form(self, resonant_split):
        t = 0.9
        gen = kappa12(resonant_split, 1)
        hI = eh.moment_generator(resonant_split.interaction, 1)
        M0 = free_moment_generator_hermitian(resonant_split, 1)
        P = lambda X: project(X, M0)
        want = t * P(hI @ hI) - t * (P(hI) @ P(hI))
        got = gen.partition.to_original(gen.kappa2_of_t(t))
        assert linalg.max_abs(got - want) < 1e-12

    def test_cumulant_identity_order2(self, offres_split):
        t = 1.0
        gen = kappa12(offres_split, 1)
        closed = gen.partition.to_original(gen.kappa2_of_t(t))
        fd = general_kappa(offres_split, 1, 2, t, nodes=64)
        assert linalg.max_abs(closed - fd) < 1e-5

    def test_general_kappa_k1(self, detuned_split):
        partition, hI = dense_frame(detuned_split, 1)
        want = partition.project_eig(hI)
        got = general_kappa(detuned_split, 1, 1, 1.0, nodes=32)
        assert linalg.max_abs(got - want) < 1e-8

    def test_kappa3_commuting_symbolic(self, resonant_split):
        # with [h0, hI] = 0: kappa3 = t^2 (B3/2 - B1 B2/2 - B2 B1 + B1^3),
        # B_j = P(hI^j); here hI sits inside resonant blocks so B_j = hI^j
        # and the polynomial cancels to zero
        t = 0.7
        hI = eh.moment_generator(resonant_split.interaction, 1)
        M0 = free_moment_generator_hermitian(resonant_split, 1)
        P = lambda X: project(X, M0)
        B1, B2, B3 = P(hI), P(hI @ hI), P(hI @ hI @ hI)
        want = t**2 * (B3 / 2 - B1 @ B2 / 2 - B2 @ B1 + B1 @ B1 @ B1)
        got = general_kappa(resonant_split, 1, 3, t, nodes=16)
        assert linalg.max_abs(want) < 1e-12
        assert linalg.max_abs(got - want) < 1e-5

    def test_kappa3_hopping_only_vanishes(self, offres_split):
        # purely off-resonant hopping: odd projected moments vanish by
        # bipartite block structure
        assert linalg.max_abs(general_kappa(offres_split, 1, 3, 1.0, nodes=16)) < 1e-6

    def test_kappa3_detuned_nonzero(self, detuned_split):
        assert linalg.max_abs(general_kappa(detuned_split, 1, 3, 1.0, nodes=16)) > 0.1


def dense_kappa2(partition, hI, kappa1, t):
    """Reference: kappa2(t) in M0's eigenbasis as the dense product it was
    before the weights, hI @ (hI * psi) restricted to the resonant blocks."""
    psi = spectral_function(partition.delta, t)
    return np.where(partition.mask, hI @ (hI * psi), 0) - t * kappa1 @ kappa1


@st.composite
def kappa2_cases(draw):
    """n in {1, 2, 3}, m in {1, 2}, and m = 3 at n <= 2; H0 a random valid
    fermion (M0's eigenbasis is not a permutation) or diagonal with
    frequencies from {1, 2} (degenerate clusters); the nodes of an RK4 grid
    on [0, t_end]."""
    n = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.sampled_from([1, 2, 3] if n <= 2 else [1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = random_valid_fermion(n, rng)
    else:
        base = eh.diagonal_modes(draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n)))
    split = SplitHamiltonian(base=base, interaction=random_valid_fermion(n, rng), coupling=0.1)
    steps = draw(st.integers(1, 20))
    return split, m, np.linspace(0.0, draw(st.floats(0.1, 2.0)), 2 * steps + 1)


class TestBatchedKappa2:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kappa2_cases())
    def test_matches_dense_formula(self, case):
        split, m, nodes = case
        gen = kappa12(split, m)
        partition, hI = dense_frame(split, m)
        kappa1 = np.where(partition.mask, hI, 0.0)
        got = gen.kappa2_of_t(nodes)
        assert got.shape == (len(nodes), int(partition.mask.sum()))
        for t, entries in zip(nodes, got):
            want = dense_kappa2(partition, hI, kappa1, t)
            # off the mask the entries are 0, so the two parts cover every entry
            assert not want[~partition.mask].any()
            # relative to the size of the result: round-off grows with d |hI|^2
            diff = entries - want[partition.resonant]
            assert linalg.max_abs(diff) <= 1e-14 * max(1.0, linalg.max_abs(want))

    def test_scalar_time_gives_one_row(self, detuned_split):
        gen = kappa12(detuned_split, 1)
        nodes = np.array([0.3, 0.9])
        batched = gen.kappa2_of_t(nodes)
        assert gen.kappa2_of_t(0.9).shape == batched.shape[1:]
        assert linalg.max_abs(gen.kappa2_of_t(0.9) - batched[1]) <= 1e-15


def pinned_split(n, kind):
    """H0 diagonal with frequencies linspace(1, 2.3, n), rotated (a random
    valid fermion) or degenerate (frequencies 1, 2, 1, ...); HI a random
    valid fermion."""
    if kind == "diag":
        base = eh.diagonal_modes(np.linspace(1.0, 2.3, n))
    elif kind == "rotated":
        base = random_valid_fermion(n, np.random.default_rng(11))
    else:
        base = eh.diagonal_modes([1.0 + j % 2 for j in range(n)])
    return SplitHamiltonian(
        base=base, interaction=random_valid_fermion(n, np.random.default_rng(1)), coupling=0.1
    )


PINNED_CASES = [(4, 2, "rotated"), (4, 2, "degenerate"), (3, 3, "diag")]


class TestKappaFromSlots:
    """kappa12 reads kappa1 and kappa2(t) off the 2n x 2n interaction and the
    slot indices of the resonant entries; checked against the dense hI of
    ``resonance_frame`` at sizes ``kappa2_cases`` never draws."""

    @pytest.mark.parametrize("n, m, kind", PINNED_CASES)
    def test_matches_dense_frame(self, n, m, kind):
        split = pinned_split(n, kind)
        gen = kappa12(split, m)
        partition, hI = dense_frame(split, m)
        assert np.array_equal(gen.kappa1.view(np.uint64), hI[partition.resonant].view(np.uint64))
        kappa1 = np.where(partition.mask, hI, 0.0)
        nodes = np.linspace(0.0, 1.0, 2 * 5 + 1)
        for t, entries in zip(nodes, gen.kappa2_of_t(nodes)):
            want = dense_kappa2(partition, hI, kappa1, t)
            diff = entries - want[partition.resonant]
            assert linalg.max_abs(diff) <= 1e-14 * max(1.0, linalg.max_abs(want))

    @pytest.mark.parametrize("n, m, kind", PINNED_CASES)
    def test_eigenvalues_are_slot_sums(self, n, m, kind):
        split = pinned_split(n, kind)
        frame = kappa12(split, m).partition.decomposition
        l = frame.slot_eigenvalues
        # every slot sum, in Kronecker order, added slot by slot
        sums = [sum(l[i] for i in digits) for digits in itertools.product(range(frame.k), repeat=m)]
        np.testing.assert_array_equal(frame.eigenvalues, np.sort(sums))
        # l in the column order of V1: K = V1 diag(l) V1^dag
        K = split.base.single_particle_generator()
        V1 = np.eye(frame.k) if frame.factor is None else frame.factor
        assert linalg.max_abs(V1 @ np.diag(l) @ V1.conj().T - K) <= 1e-14 * (1 + linalg.max_abs(K))

    def test_builds_no_dense_interaction(self, monkeypatch):
        def refuse(K, m):
            raise AssertionError(f"kron_sum of a {len(K)} x {len(K)} matrix over {m} slots")

        monkeypatch.setattr(linalg, "kron_sum", refuse)
        for kind in ("diag", "rotated"):
            gen = kappa12(pinned_split(3, kind), 2)
            assert gen.kappa2_of_t(np.linspace(0.0, 1.0, 5)).shape == (5, len(gen.kappa1))


class TestExpansionProperties:
    def test_stationarity(self, offres_split, resonant_split):
        for split in (offres_split, resonant_split):
            assert stationarity_residual(split, free_moment_partition(split, 1)) < 1e-10

    def test_truncation_order(self, detuned_split):
        from dataclasses import replace

        t = 1.0
        m1 = mu1(detuned_split, 1)(t)
        m2 = mu2_closed(detuned_split, 1)(t)
        h0 = eh.moment_generator(detuned_split.base, 1)
        M0 = free_moment_generator_hermitian(detuned_split, 1)
        errors = []
        for lam in (0.2, 0.1, 0.05):
            split = replace(detuned_split, coupling=lam)
            h = eh.moment_generator(split.total(), 1)
            v = linalg.matrix_exponential(-h0 * t) @ linalg.matrix_exponential(h * t)
            Pv = project(v, M0)
            approx = np.eye(4) + lam * m1 + lam**2 * m2
            errors.append(linalg.max_abs(Pv - approx))
        for big, small in zip(errors, errors[1:]):
            assert 6.5 <= big / small <= 9.5

    def test_no_blowup_on_window(self, detuned_split):
        from dataclasses import replace

        from effheis.dynamics import TimeGrid, integrate_time_local

        split = replace(detuned_split, coupling=0.2)
        series = integrate_time_local(kappa12(split, 1), 2, TimeGrid(5.0, 100))
        assert max(linalg.max_abs(v) for v in series.values) < 10.0
