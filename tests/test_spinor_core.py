import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from bwfields import momentum as mom
from bwfields import spinor_core as sc


def complex_arrays(shape):
    return st.builds(
        lambda re, im: np.array(re) + 1j * np.array(im),
        st.lists(st.floats(-10, 10), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
            lambda v: np.reshape(v, shape)
        ),
        st.lists(st.floats(-10, 10), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
            lambda v: np.reshape(v, shape)
        ),
    )


class TestEpsilon:
    def test_tables(self):
        assert sc.EPS_LO[0, 1] == 1.0
        assert sc.EPS_LO[1, 0] == -1.0
        assert_allclose(sc.EPS_LO, -sc.EPS_LO.T)
        # raise-then-lower contraction is the Kronecker delta
        delta = np.einsum("ab,cb->ca", sc.EPS_UP, sc.EPS_LO)
        assert_allclose(delta, np.eye(2))

    @settings(deadline=None, max_examples=25)
    @given(complex_arrays((2,)))
    def test_round_trip(self, psi):
        assert_allclose(sc._raise_axis(sc._lower_axis(psi, 0), 0), psi, atol=1e-12)
        assert_allclose(sc._lower_axis(sc._raise_axis(psi, 0), 0), psi, atol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(complex_arrays((2,)), complex_arrays((2,)))
    def test_contraction_sign_flip(self, psi, phi):
        # psi lower and phi upper: psi^A phi_A = -psi_A phi^A
        psi_up = sc._raise_axis(psi, 0)
        phi_lo = sc._lower_axis(phi, 0)
        assert_allclose(np.dot(psi_up, phi_lo), -np.dot(psi, phi), atol=1e-10)

    def test_lowering_convention_pinned(self):
        # (1, 0) with an upper index lowers to (0, 1)
        assert_allclose(sc._lower_axis(np.array([1.0, 0.0]), 0), [0.0, 1.0])


class TestIvdW:
    def test_explicit_tables(self):
        g = sc.build_ivdw()
        assert_allclose(g.up[0], np.eye(2) / np.sqrt(2.0))
        assert_allclose(g.up[3], np.diag([1.0, -1.0]) / np.sqrt(2.0))

    def test_hermiticity(self):
        g = sc.build_ivdw()
        for a in range(4):
            assert_allclose(g.up[a], g.up[a].conj().T, atol=1e-15)
            assert_allclose(g.lo[a], g.lo[a].conj().T, atol=1e-15)

    def test_diagonal_contraction_gives_identity(self):
        # a = b = 0 entry of the pair identity: g^{00} times the unit spinor
        g = sc.build_ivdw()
        val = 2 * np.einsum("xm,ym->xy", g.lo_w[0], g.up_w[0])
        assert_allclose(val, np.eye(2), atol=1e-15)

    def test_completeness(self):
        g = sc.build_ivdw()
        assert_allclose(np.einsum("aij,bij->ab", g.up, g.lo_w), np.eye(4), atol=1e-14)
        delta4 = np.einsum("ik,jl->ijkl", np.eye(2), np.eye(2))
        assert_allclose(np.einsum("aij,akl->ijkl", g.up, g.lo_w), delta4, atol=1e-14)

    def test_lowered_table_matches_transposed_tilde(self):
        g = sc.build_ivdw()
        pauli = sc._PAULI
        tilde = np.array([np.eye(2), -pauli[1], -pauli[2], -pauli[3]])
        assert_allclose(g.lo, np.transpose(tilde, (0, 2, 1)) / np.sqrt(2.0), atol=1e-15)


class TestCachedTables:
    @staticmethod
    def tables():
        g, sg = sc.build_ivdw(), sc.sigma_generators()
        return [g.up, g.lo, g.up_w, g.lo_w, sg.sigma, sg.sigma_bar, sg.sigma_low,
                sg.sigma_bar_low, sc.levi_civita4()]

    def test_shared_and_read_only(self):
        assert sc.build_ivdw() is sc.build_ivdw()
        assert sc.sigma_generators() is sc.sigma_generators()
        assert sc.levi_civita4() is sc.levi_civita4()
        for arr in self.tables():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] *= 2

    def test_failed_write_leaves_later_results_unchanged(self):
        p = mom.on_shell(1.0, 1, [0.1, 0.2, 0.3])
        before = mom.momentum_matrix(p)
        with pytest.raises(ValueError):
            sc.build_ivdw().up[0] *= 2
        assert np.array_equal(mom.momentum_matrix(p), before)
        assert_allclose(before[0, 0], (p.p0 + 0.3) / np.sqrt(2.0))


class TestWorldSpinor:
    def test_time_axis_form(self):
        assert_allclose(
            sc.spinor_from_world(np.array([1.0, 0, 0, 0]), 1), np.eye(2) / np.sqrt(2.0)
        )


class TestGenerators:
    def test_antisymmetry(self):
        sg = sc.sigma_generators()
        assert np.max(np.abs(sg.sigma + np.transpose(sg.sigma, (1, 0, 2, 3)))) < 1e-15
        assert np.max(np.abs(np.einsum("aaxy->axy", sg.sigma))) == 0.0

    def test_boost_and_rotation_blocks(self):
        sg = sc.sigma_generators()
        assert_allclose(sg.sigma[0, 3], 0.5j * np.diag([1.0, -1.0]), atol=1e-15)
        assert_allclose(sg.sigma[1, 2], 0.5 * np.diag([1.0, -1.0]), atol=1e-15)


class TestSL2C:
    def test_det_validation(self):
        with pytest.raises(ValueError):
            sc.SL2CElement(2.0 * np.eye(2))
        # the bound scales like the rounding in det, eps |S|^2: large
        # elements pass, while a unit-scale matrix is held to 1e-12
        sc.random_sl2c(np.random.default_rng(0), scale=8, size=2000)
        with pytest.raises(ValueError, match="determinant"):
            sc.SL2CElement(np.diag([1.0 + 1e-9, 1.0]))

    def test_identity_maps_to_identity(self):
        lam = sc.sl2c_to_lorentz(sc.SL2CElement(np.eye(2)))
        assert_allclose(lam.matrix, np.eye(4), atol=1e-14)

    def test_diagonal_boost(self):
        s = sc.SL2CElement(np.diag([np.exp(0.5), np.exp(-0.5)]))
        lam = sc.sl2c_to_lorentz(s).matrix
        assert_allclose(lam[0, 0], np.cosh(1.0), atol=1e-13)
        assert_allclose(lam[1, 1], 1.0, atol=1e-13)
        assert_allclose(lam[2, 2], 1.0, atol=1e-13)
        assert_allclose(abs(lam[0, 3]), np.sinh(1.0), atol=1e-13)

    def test_sign_invariance(self):
        rng = np.random.default_rng(4)
        s = sc.random_sl2c(rng)
        minus = sc.SL2CElement(-s.matrix)
        assert_allclose(
            sc.sl2c_to_lorentz(s).matrix, sc.sl2c_to_lorentz(minus).matrix, atol=1e-13
        )

    def test_lorentz_invariants_enforced(self):
        with pytest.raises(ValueError):
            sc.LorentzMatrix(np.diag([1.0, 1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            sc.LorentzMatrix(-np.eye(4))

    def test_inverse(self):
        rng = np.random.default_rng(6)
        lam = sc.sl2c_to_lorentz(sc.random_sl2c(rng))
        assert_allclose(lam.matrix @ lam.inverse().matrix, np.eye(4), atol=1e-12)


class TestExpRep:
    def test_zero_gives_identity(self):
        assert_allclose(sc.exp_rep(np.zeros((4, 4))).matrix, np.eye(2))

    def test_antisymmetry_required(self):
        with pytest.raises(ValueError):
            sc.exp_rep(np.eye(4))

    def test_rotation_about_z_by_pi(self):
        w = np.zeros((4, 4))
        w[1, 2], w[2, 1] = np.pi, -np.pi
        s = sc.exp_rep(w).matrix
        # independent 2x2 oracle: generator for these parameters is
        # (i/2) * 2 omega^{12} sigma_{12} with sigma_{12} = diag(1,-1)/2
        oracle = expm(1j * np.pi * np.diag([1.0, -1.0]) / 2.0)
        assert_allclose(s, oracle, atol=1e-12)
        assert_allclose(np.abs(np.diag(s)), [1.0, 1.0], atol=1e-12)
        assert_allclose(s, np.diag([1j, -1j]), atol=1e-12)

    def test_determinant_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.uniform(-1, 1, (4, 4))
            s = sc.exp_rep(w - w.T)
            assert abs(np.linalg.det(s.matrix) - 1.0) < 1e-10

    def test_linearization_second_order(self):
        # finite-difference oracle for the induced vector generator
        rng = np.random.default_rng(8)
        w = rng.uniform(-1, 1, (4, 4))
        w = w - w.T

        def lam(t):
            return sc.sl2c_to_lorentz(sc.exp_rep(t * w)).matrix

        h = 1e-4
        gen = (lam(h) - lam(-h)) / (2 * h)
        errs = []
        for t in (1e-2, 5e-3):
            errs.append(np.max(np.abs(lam(t) - np.eye(4) - t * gen)) / t**2)
        # error/t^2 is a constant for a quadratic remainder
        assert errs[0] == pytest.approx(errs[1], rel=0.05)


class TestClosedForm:
    """The closed-form exponential and Kronecker-product map against their former routes."""

    @staticmethod
    def generators(omega):
        return 0.5j * np.einsum("...ab,abxy->...xy", omega, sc.sigma_generators().sigma_low)

    @staticmethod
    def parameters(k, scale, seed):
        w = np.random.default_rng(seed).uniform(-scale, scale, (k, 4, 4))
        return w - np.swapaxes(w, -1, -2)

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_agrees_with_expm(self, scale):
        w = self.parameters(10**4, scale, 40)
        closed, oracle = sc.exp_rep(w).matrix, expm(self.generators(w))
        err = np.max(np.abs(closed - oracle), axis=(-1, -2)) / np.max(np.abs(oracle), axis=(-1, -2))
        assert np.max(err) <= 1e-14

    def test_null_rotation_is_one_plus_generator(self):
        # omega^{01} = omega^{13} = t gives M = [[0, t], [0, 0]], so M^2 = 0 and s = 0
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 3] = 1.5
        w = w - w.T
        assert np.array_equal(sc.exp_rep(w).matrix, np.eye(2) + self.generators(w))

    @pytest.mark.parametrize("angle", [2e-9, 1e-3, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0])
    def test_rotation_near_zero_and_at_the_switch(self, angle):
        # |s| = angle / 2: near zero, and either side of the switch at |s| = 1/2
        w = np.zeros((4, 4))
        w[1, 2], w[2, 1] = angle, -angle
        oracle = expm(self.generators(w))
        assert_allclose(sc.exp_rep(w).matrix, oracle, rtol=0, atol=1e-15)

    def test_full_turn_is_minus_one(self):
        w = np.zeros((4, 4))
        w[1, 2], w[2, 1] = 2 * np.pi, -2 * np.pi
        assert_allclose(sc.exp_rep(w).matrix, -np.eye(2), rtol=0, atol=4e-15)

    def test_boosts_are_exactly_diagonal(self):
        rapidity = np.linspace(-14.0, 14.0, 2801)
        w = np.zeros((rapidity.size, 4, 4))
        w[:, 0, 3], w[:, 3, 0] = rapidity, -rapidity
        s = sc.exp_rep(w).matrix
        assert not s[:, 0, 1].any() and not s[:, 1, 0].any() and not s.imag.any()
        assert np.max(np.abs(s[:, 0, 0] * s[:, 1, 1] - 1.0)) <= 1e-15
        assert_allclose(s[:, 0, 0].real, np.exp(rapidity / 2), rtol=1e-14)
        for k in (0, 1480, 2800):
            assert np.array_equal(sc.boost_z(rapidity[k]).matrix, s[k])

    def test_nan_parameters_raise_without_warning(self):
        w = self.parameters(3, 1.0, 41)
        w[1, 0, 2] = w[1, 2, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                sc.exp_rep(w)
            with pytest.raises(ValueError):
                sc.SL2CElement(np.full((2, 2), np.nan))

    def test_lorentz_map_agrees_with_four_operand_einsum(self):
        s = sc.random_sl2c(np.random.default_rng(42), scale=2.0, size=200).matrix
        g = sc.build_ivdw()
        lam_lu = np.einsum("aij,...ik,...jl,bkl->...ab", g.up, s, np.conj(s), g.lo_w)
        oracle = sc.METRIC @ lam_lu.real @ sc.METRIC
        lam = sc.sl2c_to_lorentz(sc.SL2CElement(s)).matrix
        err = np.max(np.abs(lam - oracle), axis=(-1, -2)) / np.max(np.abs(oracle), axis=(-1, -2))
        assert np.max(err) <= 1e-14


class TestBatchedGroupAction:
    """Batched elements against the same elements taken one at a time."""

    @staticmethod
    def elements(k=12):
        batch = sc.random_sl2c(np.random.default_rng(30), size=k)
        return batch, [sc.SL2CElement(m) for m in batch.matrix]

    @staticmethod
    def loop_draw(rng, scale):
        """One element drawn parameter by parameter, row by row above the diagonal."""
        w = np.zeros((4, 4))
        for a in range(4):
            for b in range(a + 1, 4):
                w[a, b] = rng.uniform(-scale, scale)
                w[b, a] = -w[a, b]
        return sc.exp_rep(w).matrix

    @pytest.mark.parametrize("size", [7, (3, 2), (1,)])
    def test_batched_draw_equals_sequential_draws(self, size):
        rng_batch, rng_seq = np.random.default_rng(31), np.random.default_rng(31)
        batch = sc.random_sl2c(rng_batch, scale=0.7, size=size).matrix
        k = int(np.prod(size))
        seq = np.array([self.loop_draw(rng_seq, 0.7) for _ in range(k)])
        assert batch.shape == np.shape(np.empty(size)) + (2, 2)
        assert np.array_equal(batch.reshape(k, 2, 2), seq)
        # both generators end in the same state
        assert rng_batch.uniform() == rng_seq.uniform()

    def test_default_size_is_one_element(self):
        rng, rng_loop = np.random.default_rng(1), np.random.default_rng(1)
        assert np.array_equal(sc.random_sl2c(rng).matrix, self.loop_draw(rng_loop, 1.0))

    def test_exp_rep_batch(self):
        rng = np.random.default_rng(32)
        w = rng.uniform(-1, 1, (2, 5, 4, 4))
        w = w - np.swapaxes(w, -1, -2)
        batch = sc.exp_rep(w).matrix
        assert batch.shape == (2, 5, 2, 2)
        for idx in np.ndindex(2, 5):
            assert np.array_equal(batch[idx], sc.exp_rep(w[idx]).matrix)

    def test_lorentz_map_inverse_and_products(self):
        batch, singles = self.elements()
        lam = sc.sl2c_to_lorentz(batch)
        assert lam.matrix.shape == (12, 4, 4)
        inv = lam.inverse().matrix
        prod_s = (batch @ batch).matrix
        for k, s in enumerate(singles):
            lam_k = sc.sl2c_to_lorentz(s)
            assert np.array_equal(lam.matrix[k], lam_k.matrix)
            assert np.array_equal(inv[k], lam_k.inverse().matrix)
            assert np.array_equal(prod_s[k], (s @ s).matrix)
        assert_allclose(lam.matrix @ inv, np.broadcast_to(np.eye(4), inv.shape), atol=1e-12)

    def test_products_broadcast(self):
        batch, singles = self.elements(4)
        one = singles[0]
        left = (one @ batch).matrix
        assert left.shape == (4, 2, 2)
        for k, s in enumerate(singles):
            assert_allclose(left[k], (one @ s).matrix, atol=1e-14)

    def test_one_bad_determinant_rejected(self):
        batch, _ = self.elements(5)
        m = batch.matrix.copy()
        m[3] *= 1.01
        with pytest.raises(ValueError, match="determinant"):
            sc.SL2CElement(m)

    def test_one_non_orthochronous_matrix_rejected(self):
        lam = np.broadcast_to(np.eye(4), (2, 3, 4, 4)).copy()
        lam[1, 2] = -np.eye(4)  # metric and determinant kept, time reversed
        with pytest.raises(ValueError, match="orthochronous"):
            sc.LorentzMatrix(lam)
        lam[1, 2] = np.diag([1.0, 1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="metric"):
            sc.LorentzMatrix(lam)
        lam[1, 2] = np.diag([1.0, -1.0, 1.0, 1.0])  # a reflection: det -1
        with pytest.raises(ValueError, match="determinant"):
            sc.LorentzMatrix(lam)

    def test_one_non_antisymmetric_parameter_set_rejected(self):
        rng = np.random.default_rng(33)
        w = rng.uniform(-1, 1, (6, 4, 4))
        w = w - np.swapaxes(w, -1, -2)
        w[4, 0, 0] = 1e-6
        with pytest.raises(ValueError, match="antisymmetric"):
            sc.exp_rep(w)


def _nan(*shape):
    return np.full(shape, np.nan)


def _nan_off_diagonal_seed():
    seed = np.zeros((2, 2))
    seed[0, 1] = np.nan
    return seed


def _nan_cases():
    from types import SimpleNamespace

    from bwfields import dirac_algebra as da
    from bwfields import massive_bw as mbw
    from bwfields import massless as ml
    from bwfields import maxwell as mx
    from bwfields import slot_core as core

    massive_p = mom.on_shell(1.0, 1, [0.1, 0.2, 0.3])
    null_p = mom.on_shell(0.0, 1, [0.0, 0.0, 1.0])
    field = mbw.build_from_seed(np.array([1.0, 2.0j]), massive_p, 1)
    null_field = ml.MasslessFieldAtP.from_psi(1, null_p, np.array([1.0, 0.5j]))
    return {
        "SL2CElement": (lambda: sc.SL2CElement(_nan(2, 2)), ValueError),
        "LorentzMatrix": (lambda: sc.LorentzMatrix(_nan(4, 4)), ValueError),
        "exp_rep": (lambda: sc.exp_rep(_nan(4, 4)), ValueError),
        "sl2c_to_lorentz": (lambda: sc.sl2c_to_lorentz(SimpleNamespace(matrix=_nan(2, 2))), AssertionError),
        "FourMomentum mass": (lambda: mom.FourMomentum(mass=np.nan, sign=1, spatial=np.zeros(3)), ValueError),
        "FourMomentum spatial": (lambda: mom.on_shell(1.0, 1, _nan(3)), ValueError),
        "FourMomentum infinite spatial": (lambda: mom.on_shell(0.0, 1, [np.inf, 0.0, 1.0]), ValueError),
        "act": (lambda: mom.act(sc.LorentzMatrix(np.eye(4)), SimpleNamespace(vec=_nan(4), mass=1.0, sign=1)),
                ValueError),
        "build_from_seed": (lambda: mbw.build_from_seed(_nan_off_diagonal_seed(), massive_p, 2), ValueError),
        "GaussianPacket": (lambda: mbw.GaussianPacket(2, 1.0, 1, _nan_off_diagonal_seed()), ValueError),
        "massive tensor_T": (lambda: mbw.tensor_T(mbw.BWFieldAtP(1, massive_p, _nan(2, 2))), AssertionError),
        "massive t.p": (lambda: mbw.norm_primed_integrand(field, [_nan(4)]), ValueError),
        "massless world_tensor": (
            lambda: core.world_tensor(ml.MasslessFieldAtP.from_psi(1, null_p, _nan(2)).stack,
                                      sc.build_ivdw().up[:, None], 1), AssertionError),
        "massless t.p": (lambda: ml.norm_primed_integrand(null_field, [_nan(4)]), ValueError),
        "FaradayAtP": (lambda: mx.FaradayAtP(f=_nan(4, 4), p=null_p), ValueError),
        "PotentialAtP": (lambda: mx.PotentialAtP(phi=_nan(4), p=null_p), ValueError),
        "em_spinor": (lambda: mx.em_spinor(SimpleNamespace(f=_nan(4, 4))), AssertionError),
        "tensor_T_em": (lambda: mx.tensor_T_em(_nan(2, 2)), AssertionError),
        "stress_form": (lambda: mx.stress_form(SimpleNamespace(f=_nan(4, 4) + 0j)), AssertionError),
        "dirac_current": (lambda: da.dirac_current(_nan(4)), AssertionError),
    }


@pytest.mark.parametrize("case", list(_nan_cases()))
def test_nan_input_rejected(case):
    # every validation reads "not value <= tol", which NaN cannot pass
    build, error = _nan_cases()[case]
    with pytest.raises(error):
        build()
