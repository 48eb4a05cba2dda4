from functools import partial

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
    def test_gamma0_squares_to_identity(self):
        gs = da.build_gammas()
        assert_allclose(gs.gamma[0] @ gs.gamma[0], np.eye(4), atol=1e-14)

    def test_generator_off_diagonal_blocks_vanish(self):
        # that the diagonal blocks are the core tables is gamma_ivdw_correspondence
        gs = da.build_gammas()
        assert np.max(np.abs(gs.sigma[:, :, :2, 2:])) == 0.0
        assert np.max(np.abs(gs.sigma[:, :, 2:, :2])) == 0.0

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
            rs.append(np.max(da.dirac_residual(psi, OffShell(vec), 1.0)))
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

    def test_imaginary_part_is_judged_per_sample(self, monkeypatch):
        # a small sample's imaginary part of 1e-6 fails against its own
        # scale (1) even beside a large sample (1e8), whose scale would
        # forgive it
        world = da.world_from_spinor

        def leaky(pair, n):
            out = world(pair, n)
            return out + 1e-6j * (np.max(np.abs(out), axis=-1, keepdims=True) < 10)

        monkeypatch.setattr(da, "world_from_spinor", leaky)
        psi = np.array([[1e4, 0, 0, 0], [1.0, 0, 0, 0]], dtype=complex)
        with pytest.raises(AssertionError, match="imaginary"):
            da.dirac_current(psi)
        assert da.dirac_current(psi[0])[0] == 1e8

    @pytest.mark.parametrize("sign", [1, -1])
    def test_spinor_form_matches_its_einsum(self, sign):
        # the g_a^{AA'} contraction as it was written before it went through
        # world_from_spinor, on packed fields of each energy branch
        psi = np.array(da.pack_bispinor(random_field(np.random.default_rng(8), 1.0, sign, batch=50)))
        u, v = psi[..., :2], psi[..., 2:]
        pair = np.einsum("...i,...j->...ij", u, np.conj(u)) + np.einsum("...i,...j->...ij", np.conj(v), v)
        ref = np.sqrt(2.0) * np.einsum("aij,...ij->...a", sc.build_ivdw().up, pair)
        j = da.dirac_current(psi)
        assert j.shape == ref.shape
        assert np.max(np.abs(j - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_bilinear_integrand_equals_invariant_integrand(self, sign):
        rng = np.random.default_rng(7)
        f = random_field(rng, 0.9, sign, batch=30)
        psi = da.pack_bispinor(f)
        lhs = da.norm_bilinear_integrand(psi, f.p, 0.9)
        rhs = sign * np.sqrt(2.0) * mbw.norm_covariant_integrand(f)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("batch", [(5000,), (40, 30)])
    def test_bilinear_integrand_is_the_trailing_axis_sum_bit_for_bit(self, sign, batch):
        rng = np.random.default_rng(9)
        seed = rng.normal(size=batch + (2,)) + 1j * rng.normal(size=batch + (2,))
        p = mom.on_shell(0.9, sign, rng.normal(size=batch + (3,)))
        psi = da.pack_bispinor(mbw.build_from_seed(seed, p, 1))
        ref = sign * np.sum(p.vec * da.dirac_current_matrix_route(psi), axis=-1) / 0.9**2
        got = da.norm_bilinear_integrand(psi, p, 0.9)
        assert got.shape == batch and got.tobytes() == ref.tobytes()

    def test_bilinear_norm_matches_invariant_norm_quadrature(self):
        rng = np.random.default_rng(8)
        packet = mbw.GaussianPacket(1, 1.0, 1, rng.normal(size=2) + 0j)
        sampler = mom.shell_cubature(1.0, 1, 9.0)
        v_cov = mbw.norm_covariant(packet, sampler, 1, 1.0, 1)

        def integrand(p):
            return da.norm_bilinear_integrand(da.pack_bispinor(packet(p)), p, 1.0)

        val, _ = mom.integrate(integrand, sampler)
        assert abs(val.real - v_cov) <= 1e-12 * abs(v_cov)


def eps_row_adjoint(psi):
    """Reference for dirac_adjoint: each conjugate block raised with eps as a row product."""
    psibar_up = np.conj(psi[..., :2]) @ sc.EPS_UP.T
    xibar_up = np.conj(psi[..., 2:]) @ sc.EPS_UP.T
    return np.concatenate([-xibar_up, psibar_up], axis=-1)


def einsum_current(psi):
    """Reference for dirac_current_matrix_route: adj_a gamma_q^{ab} psi_b in one
    einsum over the 16 pairs (a, b), with the adjoint from eps_row_adjoint."""
    return np.einsum("...a,qab,...b->...q", eps_row_adjoint(psi), da.build_gammas().gamma, psi).real


def packed_view(shape):
    """pack_bispinor, a read-only view of the stack, against the concatenation."""
    rng = np.random.default_rng(40 + len(shape))
    seed = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
    f = mbw.build_from_seed(seed, mom.on_shell(1.1, -1, rng.normal(size=shape + (3,))), 1)
    psi = da.pack_bispinor(f)
    assert np.shares_memory(psi, f.stack)
    with pytest.raises(ValueError, match="read-only"):
        psi[..., 0] = 0.0
    return [(psi, np.concatenate([f.components[(0,)], f.components[(1,)]], axis=-1), 0.0)]


def adjoint(shape):
    """dirac_adjoint against the eps-row product, on a plain and a packed (strided) bispinor."""
    rng = np.random.default_rng(50 + len(shape))
    psi = rng.normal(size=shape + (4,)) + 1j * rng.normal(size=shape + (4,))
    packed = da.pack_bispinor(random_field(rng, 1.0, 1, batch=9))
    return [(da.dirac_adjoint(x), eps_row_adjoint(x), 0.0) for x in (psi, packed)]


def matrix_route(shape):
    """dirac_current_matrix_route against the einsum route and the spinor form;
    one sample alone gives its value in the batch."""
    rng = np.random.default_rng(60 + len(shape))
    psi = rng.normal(size=shape + (4,)) + 1j * rng.normal(size=shape + (4,))
    ref = einsum_current(psi)
    j = da.dirac_current_matrix_route(psi)
    scale = np.max(np.abs(ref))
    first = (0,) * len(shape)
    return [(j, ref, 1e-15 * scale), (da.dirac_current(psi), j, 1e-13 * scale),
            (da.dirac_current_matrix_route(psi[first]), j[first], 1e-14)]


def matrix_route_on_a_packed_field():
    psi = da.pack_bispinor(random_field(np.random.default_rng(70), 1.0, -1, batch=4096))
    ref = einsum_current(np.array(psi))
    return [(da.dirac_current_matrix_route(psi), ref, 1e-15 * np.max(np.abs(ref)))]


# The bispinor view, the adjoint and the matrix route against the
# concatenation, eps-row and einsum references, each within its bound
ORACLES = {
    **{f"packed_view-{shape}": partial(packed_view, shape) for shape in [(), (7,), (3, 5)]},
    **{f"adjoint-{shape}": partial(adjoint, shape) for shape in [(), (7,), (3, 5)]},
    **{f"matrix_route-{shape}": partial(matrix_route, shape) for shape in [(), (7,), (3, 5), (2, 9), (4096,)]},
    "matrix_route_on_a_packed_field": matrix_route_on_a_packed_field,
}


@pytest.mark.parametrize("oracle", list(ORACLES), ids=lambda key: key.replace(" ", ""))
def test_against_the_reference_it_replaced(oracle):
    for got, ref, bound in ORACLES[oracle]():
        assert got.shape == ref.shape and np.max(np.abs(got - ref)) <= bound


@pytest.mark.parametrize("batch", [(1000,), (20, 50)])
def test_a_nan_sample_leaves_every_other_sample_finite(batch):
    # the products with the zero entries of the block and gamma tables
    # spread a NaN within its own sample, never across samples
    rng = np.random.default_rng(80)
    psi = rng.normal(size=batch + (4,)) + 1j * rng.normal(size=batch + (4,))
    bad = (7,) * len(batch)
    psi[bad + (1,)] = np.nan
    for out in (da.dirac_adjoint(psi), da.dirac_current_matrix_route(psi)):
        assert np.any(np.isnan(out[bad]))
        out[bad] = 0.0
        assert np.all(np.isfinite(out))
