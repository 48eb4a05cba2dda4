from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwfields import massive_bw as mbw
from bwfields import momentum as mom
from bwfields import spinor_core as sc


def random_field(rng, n, mass=1.0, sign=1, batch=None):
    shape = ((batch,) if batch else ()) + (2,) * n
    seed = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    seed = mbw.symmetrize(seed, n) if n > 1 else seed
    sp = rng.normal(size=((batch, 3) if batch else 3))
    return mbw.build_from_seed(seed, mom.on_shell(mass, sign, sp), n)


class TestConstruction:
    def test_rest_frame_recursion(self):
        # 2x2 contraction oracle at p = (m, 0): generated component is the
        # seed with swapped entries and one sign flip
        seed = np.array([1.0 + 0j, 2.0 - 1.0j])
        f = mbw.build_from_seed(seed, mom.on_shell(1.0, 1, [0, 0, 0]), 1)
        assert_allclose(f.components[(1,)], [seed[1], -seed[0]])
        # same moduli as the seed, permuted by the epsilon contraction
        assert_allclose(sorted(np.abs(f.components[(1,)])), sorted(np.abs(seed)))

    def test_all_labels_present(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4):
            f = random_field(rng, n)
            assert set(f.components) == set(mbw.all_labels(n))
            for lab, arr in f.components.items():
                assert arr.shape == (2,) * n

    def test_zero_seed_gives_zero_field(self):
        f = mbw.build_from_seed(np.zeros((2, 2)), mom.on_shell(1.0, 1, [0.3, 0, 0]), 2)
        assert all(np.all(a == 0) for a in f.components.values())

    def test_massless_rejected(self):
        with pytest.raises(ValueError):
            mbw.build_from_seed(np.zeros(2), mom.on_shell(0.0, 1, [0, 0, 1]), 1)

    def test_asymmetric_seed_rejected(self):
        bad = np.zeros((2, 2))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            mbw.build_from_seed(bad, mom.on_shell(1.0, 1, [0, 0, 0]), 2)

    def test_spin_cap(self):
        with pytest.raises(ValueError):
            mbw.build_from_seed(np.zeros((2,) * 7), mom.on_shell(1.0, 1, [0, 0, 0]), 7)
        # cap is adjustable for deliberate high-spin work
        f = mbw.build_from_seed(
            np.zeros((2,) * 7), mom.on_shell(1.0, 1, [0, 0, 0]), 7, spin_cap=7
        )
        assert len(f.components) == 2**7

    def test_generated_components_symmetric(self):
        rng = np.random.default_rng(1)
        f = random_field(rng, 3)
        for lab, arr in f.components.items():
            groups: dict[int, list[int]] = {}
            for k, bit in enumerate(lab):
                groups.setdefault(bit, []).append(k)
            for axes in groups.values():
                for i in axes:
                    for j in axes:
                        if i < j:
                            swapped = np.swapaxes(arr, i, j)
                            assert np.max(np.abs(arr - swapped)) < 1e-12


class TestFieldEquations:
    def test_constructed_fields_satisfy_both_equations(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4):
            for sign in (1, -1):
                f = random_field(rng, n, 1.3, sign, batch=20)
                assert mbw.residual_field_equations(f) < 1e-12

    def test_perturbation_scale(self):
        # doubling one generated component at rest: residual is exactly
        # (m / sqrt2) |component|
        seed = np.array([0.7 - 0.2j, 1.1 + 0.4j])
        mass = 1.7
        f = mbw.build_from_seed(seed, mom.on_shell(mass, 1, [0, 0, 0]), 1)
        comps = dict(f.components)
        pert = comps[(1,)].copy()
        doubled = pert[0]
        pert[0] *= 2.0
        comps[(1,)] = pert
        broken = mbw.BWFieldAtP(1, f.p, comps)
        assert_allclose(
            mbw.residual_field_equations(broken),
            (mass / np.sqrt(2.0)) * abs(doubled),
            rtol=1e-12,
        )

    def test_dirac_equivalence_n1(self):
        # both the two-component residual and the 4x4 matrix residual vanish
        # on the same data (the matrix oracle lives in dirac_algebra)
        from bwfields import dirac_algebra as da

        rng = np.random.default_rng(3)
        f = random_field(rng, 1, 1.2)
        psi = da.pack_bispinor(f)
        assert mbw.residual_field_equations(f) < 1e-12
        assert da.dirac_residual(psi, f.p, 1.2) < 1e-12
        # breaking the field breaks both
        comps = dict(f.components)
        comps[(1,)] = comps[(1,)] + 1.0
        broken = mbw.BWFieldAtP(1, f.p, comps)
        assert mbw.residual_field_equations(broken) > 1e-2
        assert da.dirac_residual(da.pack_bispinor(broken), f.p, 1.2) > 1e-2


def per_label_T(f):
    """Reference for tensor_T: one einsum of psi, psibar and n g tables per label."""
    g = sc.build_ivdw().up
    n = f.n
    world, iw, jw = "abcdef"[:n], "ghijkl"[:n], "mnopqr"[:n]
    total = 0.0
    for lab, arr in f.components.items():
        ops = [arr, np.conj(arr)]
        subs = [f"...{iw}", f"...{jw}"]
        for k, bit in enumerate(lab):
            u, v = (iw[k], jw[k]) if bit == 0 else (jw[k], iw[k])
            ops.append(g)
            subs.append(f"{world[k]}{u}{v}")
        total = total + np.einsum(",".join(subs) + f"->...{world}", *ops)
    return total.real


def assert_matches_per_label(f, batch_shape):
    T = mbw.tensor_T(f)
    ref = per_label_T(f)
    assert T.dtype == np.float64
    assert T.shape == ref.shape == tuple(batch_shape) + (4,) * f.n
    assert np.max(np.abs(T - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestTensor:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("batch", [None, 7])
    def test_matches_per_label_sum_on_seed_fields(self, n, sign, batch):
        rng = np.random.default_rng(1000 * n + 10 * sign + (batch or 0))
        f = random_field(rng, n, 1.2, sign, batch=batch)
        assert_matches_per_label(f, (batch,) if batch else ())

    def test_matches_per_label_sum_on_transformed_field(self):
        rng = np.random.default_rng(19)
        for n in (2, 3):
            seed = mbw.symmetrize(rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n), n)
            packet = mbw.GaussianPacket(n, 1.0, -1, seed)
            gen = mbw.transform(packet, sc.random_sl2c(rng))
            assert_matches_per_label(gen(mom.on_shell(1.0, -1, rng.normal(size=(2, 3, 3)))), (2, 3))

    def test_matches_per_label_sum_on_independent_components(self):
        # components that no seed generates: every one of them enters T
        rng = np.random.default_rng(20)
        n = 3
        p = mom.on_shell(1.0, 1, rng.normal(size=(5, 3)))
        comps = {
            lab: rng.normal(size=(5,) + (2,) * n) + 1j * rng.normal(size=(5,) + (2,) * n)
            for lab in mbw.all_labels(n)
        }
        assert_matches_per_label(mbw.BWFieldAtP(n, p, comps), (5,))

    def test_matches_per_label_sum_on_broadcast_components(self):
        # an unbatched seed with batched momenta: the seed component has no
        # batch axis, the generated ones do
        seed = mbw.symmetrize(np.arange(4.0).reshape(2, 2) + 1j, 2)
        f = mbw.build_from_seed(seed, mom.on_shell(1.0, 1, np.eye(3)), 2)
        assert_matches_per_label(f, (3,))

    def test_matches_per_label_sum_at_n5(self):
        rng = np.random.default_rng(21)
        assert_matches_per_label(random_field(rng, 5, 1.0, 1, batch=1), (1,))

    def test_complex_tensor_rejected(self, monkeypatch):
        rng = np.random.default_rng(22)
        f = random_field(rng, 2)
        # a phase on the conversion table makes T complex
        rotated = SimpleNamespace(up=np.exp(0.3j) * sc.build_ivdw().up)
        monkeypatch.setattr(mbw, "build_ivdw", lambda: rotated)
        with pytest.raises(AssertionError):
            mbw.tensor_T(f)

    def test_zero_field_zero_tensor(self):
        f = mbw.build_from_seed(np.zeros(2), mom.on_shell(1.0, 1, [0.1, 0, 0]), 1)
        assert np.all(mbw.tensor_T(f) == 0)

    def test_n1_matches_direct_pairing(self):
        rng = np.random.default_rng(4)
        f = random_field(rng, 1)
        g = sc.build_ivdw().up
        psi0, psi1 = f.components[(0,)], f.components[(1,)]
        pair = np.einsum("i,j->ij", psi0, np.conj(psi0)) + np.einsum(
            "i,j->ij", np.conj(psi1), psi1
        )
        assert_allclose(mbw.tensor_T(f), np.einsum("aij,ij->a", g, pair).real, atol=1e-13)

    def test_projection_recursion(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            for sign in (1, -1):
                f = random_field(rng, n, 0.9, sign, batch=50)
                T = mbw.tensor_T(f)
                scale = np.max(np.abs(T))
                for k in range(n):
                    assert np.max(np.abs(T - mbw.project_slot(T, f.p, k, n))) < 1e-10 * scale
                    assert (
                        np.max(np.abs(T - mbw.trace_reverse_slot(T, f.p, k, n)))
                        < 1e-10 * scale
                    )
                nfold = (mbw.scalar_N(f) / 0.9 ** (2 * n))[(...,) + (None,) * n]
                outer = np.einsum(
                    ",".join(f"...{c}" for c in "abcd"[:n]) + "->..." + "abcd"[:n],
                    *(f.p.covec for _ in range(n)),
                )
                assert np.max(np.abs(T - nfold * outer)) < 1e-10 * scale

    def test_positivity(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3):
            for sign in (1, -1):
                f = random_field(rng, n, 1.0, sign, batch=50)
                assert np.all(sign**n * mbw.scalar_N(f) >= 0)

    def test_rest_frame_scalar_value(self):
        # direct contraction oracle: at rest both labels carry the seed
        # moduli, T_0 = sqrt2 sum|seed|^2 and N = m T_0
        mass = 1.7
        f = mbw.build_from_seed(np.array([1.0, 0.0]), mom.on_shell(mass, 1, [0, 0, 0]), 1)
        assert_allclose(mbw.scalar_N(f), mass * np.sqrt(2.0) * 1.0, rtol=1e-13)
        assert mbw.scalar_N(f) > 0
        assert_allclose(mbw.norm_standard_integrand(f), 2.0 / mass, rtol=1e-13)


def per_label_N(f):
    """Reference for scalar_N: one einsum of psi, psibar and n p^{AA'} tables per label."""
    p_uu = mom.momentum_matrix(f.p, "uu")
    n = f.n
    iw, jw = "abcdef"[:n], "ghijkl"[:n]
    total = 0.0
    for lab, arr in f.components.items():
        ops = [arr, np.conj(arr)]
        subs = [f"...{iw}", f"...{jw}"]
        for k, bit in enumerate(lab):
            u, v = (iw[k], jw[k]) if bit == 0 else (jw[k], iw[k])
            ops.append(p_uu)
            subs.append(f"...{u}{v}")
        total = total + np.einsum(",".join(subs) + "->...", *ops)
    return total.real


def extended_N(f):
    """The per-label contraction of the same float64 inputs in extended precision."""
    g = sc.build_ivdw().up.astype(np.clongdouble)
    p_uu = np.einsum("...a,aij->...ij", f.p.vec.astype(np.longdouble), g)
    n = f.n
    iw, jw = "abcdef"[:n], "ghijkl"[:n]
    total = 0.0
    for lab, arr in f.components.items():
        arr = arr.astype(np.clongdouble)
        ops = [arr, np.conj(arr)]
        subs = [f"...{iw}", f"...{jw}"]
        for k, bit in enumerate(lab):
            u, v = (iw[k], jw[k]) if bit == 0 else (jw[k], iw[k])
            ops.append(p_uu)
            subs.append(f"...{u}{v}")
        total = total + np.einsum(",".join(subs) + "->...", *ops)
    return total.real


def assert_N_matches_per_label(f, batch_shape):
    N = mbw.scalar_N(f)
    ref = per_label_N(f)
    assert N.dtype == np.float64
    assert np.shape(N) == np.shape(ref) == tuple(batch_shape)
    assert np.max(np.abs(N - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestScalar:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("batch", [None, 7])
    def test_matches_per_label_sum_on_seed_fields(self, n, sign, batch):
        rng = np.random.default_rng(2000 * n + 10 * sign + (batch or 0))
        f = random_field(rng, n, 1.2, sign, batch=batch)
        assert_N_matches_per_label(f, (batch,) if batch else ())

    def test_matches_per_label_sum_on_transformed_field(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 4):
            seed = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
            packet = mbw.GaussianPacket(n, 1.0, -1, mbw.symmetrize(seed, n))
            gen = mbw.transform(packet, sc.random_sl2c(rng))
            p = mom.on_shell(1.0, -1, rng.normal(size=(2, 3, 3)))
            assert_N_matches_per_label(gen(p), (2, 3))

    def test_matches_per_label_sum_on_broadcast_components(self):
        # an unbatched seed with batched momenta
        seed = mbw.symmetrize(np.arange(8.0).reshape(2, 2, 2) - 1j, 3)
        f = mbw.build_from_seed(seed, mom.on_shell(1.0, 1, np.eye(3)), 3)
        assert f.components[(0, 0, 0)].shape == (2, 2, 2)
        assert_N_matches_per_label(f, (3,))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_no_less_accurate_than_per_label_sum(self, n, sign):
        rng = np.random.default_rng(3000 * n + sign)
        f = random_field(rng, n, 1.0, sign, batch=200)
        exact = extended_N(f)
        scale = float(np.max(np.abs(exact)))
        err = float(np.max(np.abs(mbw.scalar_N(f) - exact))) / scale
        err_oracle = float(np.max(np.abs(per_label_N(f) - exact))) / scale
        assert err <= max(err_oracle, 16 * np.finfo(float).eps)


class TestMomentumMatrix:
    @staticmethod
    def explicit(p, positions):
        up = np.einsum("...a,aij->...ij", p.vec, sc.build_ivdw().up)
        lo = np.einsum("ki,...kl,lj->...ij", sc.EPS_LO, up, sc.EPS_LO)
        return {"uu": up, "ll": lo, "ul": up @ sc.EPS_LO, "lu": lo @ sc.EPS_UP.T}[positions]

    @pytest.mark.parametrize("positions", ["uu", "ll", "ul", "lu"])
    @pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
    @pytest.mark.parametrize("mass", [0.0, 1.3])
    def test_matches_explicit_contraction(self, positions, shape, mass):
        rng = np.random.default_rng(50 + len(shape))
        for sign in (1, -1):
            p = mom.on_shell(mass, sign, rng.normal(scale=2.0, size=shape + (3,)))
            mat = mom.momentum_matrix(p, positions)
            ref = self.explicit(p, positions)
            assert mat.shape == ref.shape == shape + (2, 2)
            assert mat.dtype == np.complex128
            assert np.max(np.abs(mat - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(p.vec))

    def test_unknown_positions_rejected(self):
        with pytest.raises(ValueError):
            mom.momentum_matrix(mom.on_shell(1.0, 1, [0, 0, 1]), "uv")


def slot_by_slot(f, s):
    """Reference for transform: D(s) applied one slot at a time, S on 0-bits, conj(S) on 1-bits."""
    comps = {}
    for lab, arr in f.components.items():
        for k, bit in enumerate(lab):
            mat = s.matrix if bit == 0 else np.conj(s.matrix)
            axis = arr.ndim - f.n + k
            arr = np.moveaxis(np.tensordot(mat, arr, axes=([1], [axis])), 0, axis)
        comps[lab] = arr
    return comps


class TestTransformOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_slot_by_slot_contraction(self, n):
        rng = np.random.default_rng(40 + n)
        seed = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
        packet = mbw.GaussianPacket(n, 1.0, 1, mbw.symmetrize(seed, n))
        s = sc.random_sl2c(rng)
        lam_inv = sc.sl2c_to_lorentz(s).inverse()
        for shape in ((), (5,), (2, 3)):
            p = mom.on_shell(1.0, 1, rng.normal(size=shape + (3,)))
            got = mbw.transform(packet, s)(p)
            ref = slot_by_slot(packet(mom.act(lam_inv, p)), s)
            assert got.p is p
            for lab in mbw.all_labels(n):
                scale = np.max(np.abs(ref[lab]))
                assert got.components[lab].shape == ref[lab].shape == shape + (2,) * n
                assert np.max(np.abs(got.components[lab] - ref[lab])) <= 1e-13 * scale

    def test_matches_slot_by_slot_on_broadcast_components(self):
        rng = np.random.default_rng(45)
        seed = mbw.symmetrize(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), 2)

        def gen(p):
            return mbw.build_from_seed(seed, p, 2)

        s = sc.random_sl2c(rng)
        p = mom.on_shell(1.0, -1, rng.normal(size=(4, 3)))
        got = mbw.transform(gen, s)(p)
        ref = slot_by_slot(gen(mom.act(sc.sl2c_to_lorentz(s).inverse(), p)), s)
        for lab in mbw.all_labels(2):
            assert got.components[lab].shape == ref[lab].shape
            scale = np.max(np.abs(ref[lab]))
            assert np.max(np.abs(got.components[lab] - ref[lab])) <= 1e-13 * scale


class TestNorms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_pointwise_equalities(self, n, sign):
        rng = np.random.default_rng(100 * n + sign)
        f = random_field(rng, n, 1.1, sign, batch=10)
        std = mbw.norm_standard_integrand(f)
        cov = mbw.norm_covariant_integrand(f)
        scale = np.max(np.abs(std))
        ts = [rng.normal(size=4) for _ in range(n)]
        pr = mbw.norm_primed_integrand(f, ts)
        assert np.max(np.abs(pr - cov)) < 1e-10 * scale
        tpm = [np.array([float(sign), 0, 0, 0])] * n
        assert (
            np.max(np.abs(mbw.norm_primed_integrand(f, tpm) - sign**n * 2.0 ** (-n / 2) * std))
            < 1e-10 * scale
        )
        assert np.max(np.abs(std - sign**n * 2.0 ** (n / 2) * cov)) < 1e-10 * scale

    def test_t_independence(self):
        rng = np.random.default_rng(7)
        f = random_field(rng, 3, 1.0, 1, batch=5)
        base = None
        for _ in range(10):
            ts = [rng.normal(size=4) for _ in range(3)]
            pr = mbw.norm_primed_integrand(f, ts)
            if base is None:
                base = pr
            else:
                assert np.max(np.abs(pr - base)) < 1e-10 * np.max(np.abs(base))

    def test_vanishing_probe_rejected(self):
        rng = np.random.default_rng(8)
        f = random_field(rng, 1)
        # orthogonal probe: t.p = 0
        t = np.zeros(4)
        t[1] = f.p.vec[2]
        t[2] = -f.p.vec[1]
        with pytest.raises(ValueError):
            mbw.norm_primed_integrand(f, [t])


class TestTransform:
    def test_identity(self):
        rng = np.random.default_rng(9)
        packet = mbw.GaussianPacket(2, 1.0, 1, mbw.symmetrize(rng.normal(size=(2, 2)), 2))
        gen = mbw.transform(packet, sc.SL2CElement(np.eye(2)))
        p = mom.on_shell(1.0, 1, [0.2, -0.4, 0.9])
        for lab in mbw.all_labels(2):
            assert_allclose(gen(p).components[lab], packet(p).components[lab], atol=1e-13)

    def test_equivariance(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 3):
            seed = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
            packet = mbw.GaussianPacket(n, 1.0, 1, mbw.symmetrize(seed, n) if n > 1 else seed)
            s = sc.random_sl2c(rng)
            gen = mbw.transform(packet, s)
            p = mom.on_shell(1.0, 1, rng.normal(size=(7, 3)))
            assert mbw.residual_field_equations(gen(p)) < 1e-9

    def test_scalar_covariance(self):
        rng = np.random.default_rng(11)
        for n in (1, 2):
            seed = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
            seed = mbw.symmetrize(seed, n) if n > 1 else seed

            def gen(p, seed=seed, n=n):
                shape = np.asarray(p.p0).shape
                return mbw.build_from_seed(np.broadcast_to(seed, shape + (2,) * n), p, n)

            q = mom.on_shell(1.0, 1, rng.normal(size=(20, 3)))
            for _ in range(100):
                s = sc.random_sl2c(rng)
                lam_inv = sc.sl2c_to_lorentz(s).inverse()
                n_tr = mbw.scalar_N(mbw.transform(gen, s)(q))
                n_ref = mbw.scalar_N(gen(mom.act(lam_inv, q)))
                assert np.max(np.abs(n_tr - n_ref) / np.abs(n_ref)) < 1e-10

    def test_scalar_covariance_high_spin_moderate_boosts(self):
        # float64 cancellation grows as e^{2 n rapidity}; spins 3 and 4 are
        # exercised at half parameter scale to stay within tolerance
        rng = np.random.default_rng(12)
        for n in (3, 4):
            seed = mbw.symmetrize(rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n), n)

            def gen(p, seed=seed, n=n):
                shape = np.asarray(p.p0).shape
                return mbw.build_from_seed(np.broadcast_to(seed, shape + (2,) * n), p, n)

            q = mom.on_shell(1.0, 1, rng.normal(scale=0.5, size=(20, 3)))
            for _ in range(25):
                s = sc.random_sl2c(rng, scale=0.5)
                lam_inv = sc.sl2c_to_lorentz(s).inverse()
                n_tr = mbw.scalar_N(mbw.transform(gen, s)(q))
                n_ref = mbw.scalar_N(gen(mom.act(lam_inv, q)))
                assert np.max(np.abs(n_tr - n_ref) / np.abs(n_ref)) < 1e-10

    def test_packet_norm_invariance_monte_carlo(self):
        rng = np.random.default_rng(13)
        packet = mbw.GaussianPacket(2, 1.0, 1, mbw.symmetrize(rng.normal(size=(2, 2)), 2))
        sampler = mom.monte_carlo_sampler(1.0, 1, 50000, seed=20)
        v1, se1 = mbw.norm_covariant(packet, sampler, 2, 1.0, 1)
        v2, se2 = mbw.norm_covariant(mbw.transform(packet, sc.boost_z(0.8)), sampler, 2, 1.0, 1)
        assert abs(v2 - v1) < 3 * np.hypot(se1, se2)

    def test_standard_norm_equals_covariant_norm(self):
        rng = np.random.default_rng(14)
        packet = mbw.GaussianPacket(1, 1.0, 1, rng.normal(size=2) + 0j)
        sampler = mom.monte_carlo_sampler(1.0, 1, 2000, seed=21)
        v_cov, _ = mbw.norm_covariant(packet, sampler, 1, 1.0, 1)
        v_std, _ = mbw.norm_standard(packet, sampler)
        assert_allclose(v_cov, v_std, rtol=1e-12)


class TestSpacetimeResidual:
    def test_second_order_convergence(self):
        rng = np.random.default_rng(15)
        f = random_field(rng, 2)
        x = np.array([0.3, -0.2, 0.5, 0.1])
        r1 = mbw.fd_spacetime_residual(f, x, 0.1)
        r2 = mbw.fd_spacetime_residual(f, x, 0.05)
        assert 3.5 < r1 / r2 < 4.5

    def test_exact_derivative_variant(self):
        rng = np.random.default_rng(16)
        for sign in (1, -1):
            f = random_field(rng, 1, 1.0, sign)
            assert mbw.fd_spacetime_residual(f, np.zeros(4), 0.1, exact=True) < 1e-12

    def test_wrong_frequency_sign(self):
        rng = np.random.default_rng(17)
        f = random_field(rng, 1)
        r = mbw.fd_spacetime_residual(f, np.array([0.1, 0.2, -0.3, 0.4]), 0.05, flip_frequency=True)
        assert r > 0.1

    def test_invalid_step(self):
        rng = np.random.default_rng(18)
        f = random_field(rng, 1)
        with pytest.raises(ValueError):
            mbw.fd_spacetime_residual(f, np.zeros(4), 0.0)
