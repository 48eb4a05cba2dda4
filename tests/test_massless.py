import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwfields import massless as ml
from bwfields import momentum as mom
from bwfields import slot_core as core
from bwfields import spinor_core as sc
from bwfields.massive_bw import symmetrize


def rand_null(rng, batch=None, sign=1):
    shape = (batch, 3) if batch else (3,)
    return mom.on_shell(0.0, sign, rng.normal(size=shape))


def rand_potential(rng, n, batch=None):
    shape = ((batch,) if batch else ()) + (2,) * n
    xi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return symmetrize(xi, n) if n > 1 else xi


class TestPotentialRoute:
    def test_massive_rejected(self):
        with pytest.raises(ValueError):
            ml.field_from_potential(rand_potential(np.random.default_rng(0), 1),
                                    mom.on_shell(1.0, 1, [0, 0, 1]), 1)

    def test_zero_potential(self):
        p = mom.on_shell(0.0, 1, [0, 0, 1.0])
        f = ml.field_from_potential(np.zeros((2, 2)), p, 2)
        assert np.all(f.psi == 0)

    def test_output_is_symmetric(self):
        rng = np.random.default_rng(2)
        f = ml.field_from_potential(rand_potential(rng, 3), rand_null(rng), 3)
        assert np.max(np.abs(f.psi - symmetrize(f.psi, 3))) < 1e-13

    def test_n1_output_parallel_to_frame_direction(self):
        rng = np.random.default_rng(3)
        p = mom.on_shell(0.0, 1, [0, 0, 1.0])
        f = ml.field_from_potential(rand_potential(rng, 1), p, 1)
        pi = mom.spin_frame(p).pi
        assert abs(f.psi[0] * pi[1] - f.psi[1] * pi[0]) < 1e-13


def test_one_bit_stack_with_read_only_psi_view():
    rng = np.random.default_rng(19)
    p = rand_null(rng, 5)
    psi = rng.normal(size=(5, 2, 2)) + 0j
    f = ml.MasslessFieldAtP.from_psi(2, p, psi)
    assert f.stack.shape == (1, 2, 1, 2, 5) and f.batch_shape() == (5,)
    assert np.array_equal(f.psi, psi) and not np.shares_memory(f.stack, psi)
    assert np.shares_memory(f.psi, f.stack) and not f.psi.flags.writeable
    with pytest.raises(ValueError, match="pair of axes"):
        ml.MasslessFieldAtP(n=2, p=p, stack=np.zeros((2, 2, 2, 2, 5)))
    with pytest.raises(ValueError, match="null shell"):
        ml.MasslessFieldAtP.from_psi(1, mom.on_shell(1.0, 1, [0, 0, 1.0]), np.ones(2))


class TestEta:
    def test_gauge_shift_changes_eta(self):
        # that it keeps the normalization is the registry's eta_normalization
        p = rand_null(np.random.default_rng(5), 20)
        assert np.max(np.abs(ml.eta_canonical(p, 2, gauge_shift=0.4 - 0.7j) - ml.eta_canonical(p, 2))) > 1e-3

    def test_explicit_components_along_z(self):
        # spin-frame oracle: omega-bar = (0, 2^{-1/4}) for the +z null ray
        p = mom.on_shell(0.0, 1, [0, 0, 1.0])
        eta = ml.eta_canonical(p, 2)
        expected = np.zeros((2, 2), dtype=complex)
        expected[1, 1] = 2.0**-0.5
        assert_allclose(eta, expected, atol=1e-14)


class TestAmplitudeRoute:
    def test_unit_amplitude_n1(self):
        for sign in (1, -1):
            p = mom.on_shell(0.0, sign, [0.3, -0.5, 0.8])
            f = ml.field_from_amplitude(np.asarray(1.0), p, 1)
            pi = mom.spin_frame(p).pi
            assert_allclose(f.psi, (-1j * sign) * pi, atol=1e-14)


def pl_from_dual_route(p):
    """Reference for pl_matrices: the momentum contracted with the dual generators."""
    return np.einsum("...b,baxy->...axy", p.covec, sc.dual(sc.sigma_generators().sigma))


class TestSpinVector:
    def test_displayed_contraction_identities(self):
        rng = np.random.default_rng(8)
        for sign in (1, -1):
            p = rand_null(rng, 80, sign)
            pl = ml.pl_matrices(p)
            p_ll = mom.momentum_matrix(p, "ll")
            lhs = np.einsum("...axy,...ym->...axm", pl, p_ll)
            rhs = -0.5 * np.einsum("...a,...xm->...axm", p.vec, p_ll)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_dual_generator_route(self):
        rng = np.random.default_rng(9)
        for mass in (0.0, 1.0):
            p = mom.on_shell(mass, 1, rng.normal(size=(30, 3)))
            assert np.max(np.abs(ml.pl_matrices(p) - pl_from_dual_route(p))) < 1e-12

    def test_rest_frame_time_component_vanishes(self):
        assert np.max(np.abs(ml.pl_matrices(mom.on_shell(1.0, 1, [0, 0, 0]))[0])) < 1e-14


class TestHelicity:
    def test_mixed_content_has_large_residual(self):
        rng = np.random.default_rng(13)
        p = rand_null(rng)
        fr = mom.spin_frame(p)
        omega_low = np.einsum("B,BA->A", fr.omega, sc.EPS_LO)
        psi = np.einsum("i,j->ij", fr.pi, omega_low)
        bad = ml.MasslessFieldAtP.from_psi(2, p, psi)
        assert ml.helicity(bad)[0] > 0.1


class TestNormIntegrands:
    def test_probe_form_equals_potential_form(self):
        rng = np.random.default_rng(14)
        for sign in (1, -1):
            for n in (1, 2, 3):
                p = rand_null(rng, 40, sign)
                xi = rand_potential(rng, n, 40)
                f = ml.field_from_potential(xi, p, n)
                ts = [rng.normal(size=4) for _ in range(n)]
                pr = ml.norm_primed_integrand(f, ts)
                u_route = ml.potential_route_integrand(xi, p, n)
                assert np.max(np.abs(pr - u_route)) < 1e-10 * max(
                    1.0, float(np.max(np.abs(u_route)))
                )

    def test_t_independence(self):
        rng = np.random.default_rng(15)
        p = rand_null(rng, 10)
        f = ml.field_from_amplitude(rng.normal(size=10) + 0j, p, 2)
        base = None
        for _ in range(10):
            ts = [rng.normal(size=4) for _ in range(2)]
            pr = ml.norm_primed_integrand(f, ts)
            if base is None:
                base = pr
            else:
                assert np.max(np.abs(pr - base)) < 1e-10 * np.max(np.abs(base))

    def test_tensor_factorization(self):
        rng = np.random.default_rng(17)
        for sign in (1, -1):
            for n in (1, 2, 3):
                p = rand_null(rng, sign=sign)
                xi = rand_potential(rng, n)
                f = ml.field_from_potential(xi, p, n)
                T = core.world_tensor(f.stack, sc.build_ivdw().up[:, None], n)
                scalar = ml.potential_route_integrand(xi, p, n)
                assert np.max(np.abs(T - scalar * core.outer_power(p.covec, n))) < 1e-10 * max(
                    1.0, float(np.max(np.abs(T)))
                )

    def test_scalar_covariance_under_spinor_action(self):
        rng = np.random.default_rng(18)
        for n in (1, 2):
            s = sc.random_sl2c(rng)
            lam_inv = sc.sl2c_to_lorentz(s).inverse()
            p = rand_null(rng, 30)
            def gen(q, n=n):
                return ml.field_from_amplitude(np.exp(-np.sum(q.spatial**2, -1)) * (1 + 0.5j), q, n)
            f_q = gen(mom.act(lam_inv, p))
            f_tr = core.transform(gen, s)(p)
            assert type(f_tr) is ml.MasslessFieldAtP
            assert core.residual_field_equations(f_tr) < 1e-9
            ts = [rng.normal(size=4) for _ in range(n)]
            pr_t = ml.norm_primed_integrand(f_tr, ts)
            pr_o = ml.norm_primed_integrand(f_q, ts)
            assert np.max(np.abs(pr_t - pr_o)) < 1e-10 * np.max(np.abs(pr_o))
