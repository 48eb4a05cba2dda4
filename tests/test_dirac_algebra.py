import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwfields import dirac_algebra as da
from bwfields import massive_bw as mbw
from bwfields import momentum as mom
from bwfields import spinor_core as sc


def random_field(rng, mass=1.0, sign=1, batch=None):
    shape = ((batch,) if batch else ()) + (2,)
    seed = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    sp = rng.normal(size=((batch, 3) if batch else 3))
    return mbw.build_from_seed(seed, mom.on_shell(mass, sign, sp), 1)


class TestGammaSet:
    def test_clifford_relation(self):
        gs = da.build_gammas()
        anti = np.einsum("qab,rbc->qrac", gs.gamma, gs.gamma) + np.einsum(
            "rab,qbc->qrac", gs.gamma, gs.gamma
        )
        target = 2 * np.einsum("qr,ac->qrac", sc.METRIC, np.eye(4))
        assert np.max(np.abs(anti - target)) < 1e-13

    def test_commutator_normalization(self):
        gs = da.build_gammas()
        comm = np.einsum("qab,rbc->qrac", gs.gamma, gs.gamma) - np.einsum(
            "rab,qbc->qrac", gs.gamma, gs.gamma
        )
        assert np.max(np.abs(comm - 4j * gs.sigma)) < 1e-13

    def test_gamma0_squares_to_identity(self):
        gs = da.build_gammas()
        assert_allclose(gs.gamma[0] @ gs.gamma[0], np.eye(4), atol=1e-14)

    def test_generator_blocks_match_core_tables(self):
        gs = da.build_gammas()
        slow, sblow = da._sigma_blocks_reference()
        assert np.max(np.abs(gs.sigma[:, :, :2, :2] - slow)) < 1e-14
        assert np.max(np.abs(gs.sigma[:, :, 2:, 2:] - sblow)) < 1e-14
        assert np.max(np.abs(gs.sigma[:, :, :2, 2:])) == 0.0
        assert np.max(np.abs(gs.sigma[:, :, 2:, :2])) == 0.0

    def test_pseudoscalar_block_form(self):
        gs = da.build_gammas()
        assert_allclose(gs.gamma5, np.diag([-1.0, -1.0, 1.0, 1.0]), atol=1e-14)
        assert_allclose(gs.gamma5 @ gs.gamma5, np.eye(4), atol=1e-14)
        for q in range(4):
            assert np.max(np.abs(gs.gamma5 @ gs.gamma[q] + gs.gamma[q] @ gs.gamma5)) < 1e-14


    def test_cached_set_is_shared_and_read_only(self):
        gs = da.build_gammas()
        assert da.build_gammas() is gs
        for arr in (gs.gamma, gs.sigma, gs.gamma5):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestBridge:
    def test_pack_requires_spin_half(self):
        rng = np.random.default_rng(0)
        p = mom.on_shell(1.0, 1, [0, 0, 0])
        f = mbw.build_from_seed(mbw.symmetrize(rng.normal(size=(2, 2)), 2), p, 2)
        with pytest.raises(ValueError):
            da.pack_bispinor(f)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        f = random_field(rng)
        back = da.unpack_bispinor(da.pack_bispinor(f), f.p)
        for lab in mbw.all_labels(1):
            assert_allclose(back.components[lab], f.components[lab])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_packed_field_solves_matrix_equation(self, sign):
        rng = np.random.default_rng(2 + sign)
        for _ in range(10):
            f = random_field(rng, 1.2, sign)
            assert da.dirac_residual(da.pack_bispinor(f), f.p, 1.2) < 1e-12

    def test_rest_frame_block_proportionality(self):
        # at rest the matrix equation degenerates to gamma0 psi = psi
        f = mbw.build_from_seed(np.array([1.0, -2.0 + 0.5j]), mom.on_shell(1.0, 1, [0, 0, 0]), 1)
        psi = da.pack_bispinor(f)
        gs = da.build_gammas()
        assert_allclose(gs.gamma[0] @ psi, psi, atol=1e-13)

    def test_off_shell_residual_scales_linearly(self):
        rng = np.random.default_rng(3)
        f = random_field(rng)
        psi = da.pack_bispinor(f)

        class OffShell:
            def __init__(self, vec):
                self.vec = vec

        rs = []
        for delta in (1e-3, 2e-3):
            vec = f.p.vec.copy()
            vec[0] += delta
            rs.append(da.dirac_residual(psi, OffShell(vec), 1.0))
        assert rs[1] / rs[0] == pytest.approx(2.0, rel=1e-6)
        vec = f.p.vec.copy()
        vec[0] += 1e-3
        gap = abs(mom.minkowski_dot(vec, vec) - 1.0)
        assert 0.05 * gap < rs[0] < 20 * gap


class TestCurrent:
    def test_zero_input(self):
        assert_allclose(da.dirac_current(np.zeros(4)), np.zeros(4))

    def test_positive_time_component(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert da.dirac_current(psi)[0] > 0

    def test_matrix_route_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert_allclose(da.dirac_current(psi), da.dirac_current_matrix_route(psi), atol=1e-13)

    def test_matrix_route_matches_explicit_contraction(self):
        rng = np.random.default_rng(31)
        psi = rng.normal(size=(2, 9, 4)) + 1j * rng.normal(size=(2, 9, 4))
        ref = np.einsum("...a,qab,...b->...q", da.dirac_adjoint(psi), da.build_gammas().gamma, psi)
        j = da.dirac_current_matrix_route(psi)
        assert j.shape == (2, 9, 4)
        assert np.max(np.abs(j - ref.real)) <= 1e-14 * np.max(np.abs(ref))
        assert_allclose(da.dirac_current_matrix_route(psi[0, 0]), j[0, 0], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tensor_correspondence(self, sign):
        rng = np.random.default_rng(6)
        f = random_field(rng, 1.0, sign, batch=40)
        psi = da.pack_bispinor(f)
        T = mbw.tensor_T(f)
        j = da.dirac_current(psi)
        assert np.max(np.abs(T - j / np.sqrt(2.0))) < 1e-12 * max(1.0, np.max(np.abs(j)))
        assert np.max(np.abs(j - np.sqrt(2.0) * T)) < 1e-12 * max(1.0, np.max(np.abs(j)))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_bilinear_integrand_equals_invariant_integrand(self, sign):
        rng = np.random.default_rng(7)
        f = random_field(rng, 0.9, sign, batch=30)
        psi = da.pack_bispinor(f)
        lhs = da.norm_bilinear_integrand(psi, f.p, 0.9)
        rhs = sign * np.sqrt(2.0) * mbw.norm_covariant_integrand(f)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_bilinear_norm_matches_invariant_norm_quadrature(self):
        rng = np.random.default_rng(8)
        packet = mbw.GaussianPacket(1, 1.0, 1, rng.normal(size=2) + 0j)
        sampler = mom.monte_carlo_sampler(1.0, 1, 20000, seed=50)
        v_cov, se_cov = mbw.norm_covariant(packet, sampler, 1, 1.0, 1)

        def integrand(p):
            return da.norm_bilinear_integrand(da.pack_bispinor(packet(p)), p, 1.0)

        val, se = mom.integrate(integrand, sampler)
        assert abs(val.real - v_cov) <= 3 * max(np.hypot(se_cov, se), 1e-15)
