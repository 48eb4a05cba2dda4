import math
from functools import partial
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwfields import checks
from bwfields import massive_bw as mbw
from bwfields import massless as ml
from bwfields import momentum as mom
from bwfields import slot_core as core
from bwfields import spinor_core as sc
from bwfields.checks import REGISTRY, default_parameters
from bwfields.slot_core import fd_spacetime_residual
from test_mutations import flipped_frequency


def random_field(rng, n, mass=1.0, sign=1, batch=None):
    shape = ((batch,) if batch else ()) + (2,) * n
    seed = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    seed = mbw.symmetrize(seed, n) if n > 1 else seed
    sp = rng.normal(size=((batch, 3) if batch else 3))
    return mbw.build_from_seed(seed, mom.on_shell(mass, sign, sp), n)


def two_term(arr, mat, k, n, sum_first):
    """One label's slot-k contraction, batch first: two slices times a row (or column) of mat."""
    tail = (slice(None),) * (n - 1 - k)
    place = (...,) + (None,) * k + (slice(None),) + (None,) * (n - 1 - k)
    rows = mat if sum_first else np.swapaxes(mat, -1, -2)
    out = arr[(..., slice(0, 1)) + tail] * rows[..., 0, :][place]
    out += arr[(..., slice(1, 2)) + tail] * rows[..., 1, :][place]
    return out


def label_recursion(seed, p, n):
    """Reference for build_from_seed: each label from the label with its first 1-bit cleared."""
    p_ul = mom.momentum_matrix(p, "ul")
    factor = -np.sqrt(2.0) / p.mass
    comps = {(0,) * n: np.asarray(seed, dtype=complex)}
    for lab in sorted(mbw.all_labels(n), key=lambda t: (sum(t), t)):
        if lab not in comps:
            k = lab.index(1)
            comps[lab] = factor * two_term(comps[lab[:k] + (0,) + lab[k + 1:]], p_ul, k, n, sum_first=True)
    return comps


class TestConstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed_batch, p_batch", [((), ()), ((7,), (7,)), ((2, 3), (2, 3)), ((), (5,))])
    def test_matches_label_recursion_bit_for_bit(self, n, seed_batch, p_batch):
        rng = np.random.default_rng(90 + n + len(p_batch))
        shape = seed_batch + (2,) * n
        seed = mbw.symmetrize(rng.normal(size=shape) + 1j * rng.normal(size=shape), n)
        p = mom.on_shell(1.3, 1, rng.normal(size=p_batch + (3,)))
        f = mbw.build_from_seed(seed, p, n)
        ref = label_recursion(seed, p, n)
        for lab, arr in f.components.items():
            assert arr.shape == p_batch + (2,) * n
            assert np.array_equal(arr, np.broadcast_to(ref[lab], arr.shape))

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
        with pytest.raises(ValueError, match="symmetric"):
            mbw.GaussianPacket(2, 1.0, 1, bad)
        # symmetric in its first two slots only: the second adjacent exchange sees it
        odd = np.zeros((2, 2, 2))
        odd[0, 0, 1] = 1.0
        odd[1, 0, 0] = odd[0, 1, 0] = 2.0
        with pytest.raises(ValueError, match="slot exchange"):
            mbw.build_from_seed(odd, mom.on_shell(1.0, 1, [0, 0, 0]), 3)

    def test_batched_packet_seed_rejected(self):
        # a batch of seeds would build fields no packet integral can take
        seeds = mbw.symmetrize(np.random.default_rng(2).normal(size=(3, 2, 2)) + 0j, 2)
        with pytest.raises(ValueError, match="one seed"):
            mbw.GaussianPacket(2, 1.0, 1, seeds)

    def test_packet_values_match_the_checked_builder(self, monkeypatch):
        # a packet checks its seed once and skips the check on every block
        def run():
            params = {**default_parameters(), "samples": 20000}
            return REGISTRY["packet_norm_invariance"].run(params, np.random.default_rng(8))

        def checked_call(packet, p):
            amp = np.exp(-np.sum(p.spatial**2, axis=-1) / (2 * packet.width**2))
            seed = np.asarray(amp)[(...,) + (None,) * packet.n] * packet.seed_spinor
            return mbw.build_from_seed(seed, p, packet.n)

        value = run()
        monkeypatch.setattr(mbw.GaussianPacket, "__call__", checked_call)
        assert run() == value

    def test_spin_cap(self):
        with pytest.raises(ValueError):
            mbw.build_from_seed(np.zeros((2,) * 7), mom.on_shell(1.0, 1, [0, 0, 0]), 7)

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
        broken = mbw.BWFieldAtP.from_components(1, f.p, comps)
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
        broken = mbw.BWFieldAtP.from_components(1, f.p, comps)
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
        # components that no seed generates, not even slot-symmetric ones
        # (which the public constructor rejects): every one of them enters T
        rng = np.random.default_rng(20)
        n = 3
        p = mom.on_shell(1.0, 1, rng.normal(size=(5, 3)))
        shape = (2, 2) * n + (5,)
        stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert_matches_per_label(mbw.BWFieldAtP._of_stack(n, p, stack), (5,))

    def test_matches_per_label_sum_on_broadcast_components(self):
        # an unbatched seed with batched momenta, broadcast over them in the stack
        seed = mbw.symmetrize(np.arange(4.0).reshape(2, 2) + 1j, 2)
        f = mbw.build_from_seed(seed, mom.on_shell(1.0, 1, np.eye(3)), 2)
        assert_matches_per_label(f, (3,))

    def test_matches_per_label_sum_at_n5(self):
        rng = np.random.default_rng(21)
        assert_matches_per_label(random_field(rng, 5, 1.0, 1, batch=1), (1,))

    @pytest.mark.parametrize("batch", [(2, 5), (0,)])
    def test_chunked_batch_equals_one_chunk(self, batch, monkeypatch):
        # chunks of 3 fields, the last one short, against the batch at once
        rng = np.random.default_rng(23)
        seed = mbw.symmetrize(rng.normal(size=batch + (2,) * 3) + 1j * rng.normal(size=batch + (2,) * 3), 3)
        f = mbw.build_from_seed(seed, mom.on_shell(1.1, -1, rng.normal(size=batch + (3,))), 3)
        whole = mbw.tensor_T(f)
        monkeypatch.setattr(core, "WORLD_TENSOR_CHUNK_BYTES", 3 * 8**3 * 16)
        assert np.array_equal(mbw.tensor_T(f), whole) and whole.shape == batch + (4,) * 3

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

    def test_rest_frame_scalar_value(self):
        # direct contraction oracle: at rest both labels carry the seed
        # moduli, T_0 = sqrt2 sum|seed|^2 and N = m T_0
        mass = 1.7
        f = mbw.build_from_seed(np.array([1.0, 0.0]), mom.on_shell(mass, 1, [0, 0, 0]), 1)
        assert_allclose(mbw.scalar_N(f), mass * np.sqrt(2.0) * 1.0, rtol=1e-13)
        assert mbw.scalar_N(f) > 0
        assert_allclose(mbw.norm_standard_integrand(f), 2.0 / mass, rtol=1e-13)


def per_label_N(f, dtype=np.clongdouble):
    """Reference for scalar_N: one einsum of psi, psibar and n p^{AA'} = p^a g_a^{AA'}
    tables per label, on the float64 inputs converted to ``dtype``."""
    g = sc.build_ivdw().up.astype(dtype)
    p_uu = np.einsum("...a,aij->...ij", f.p.vec.astype(g.real.dtype), g)
    n = f.n
    iw, jw = "abcdef"[:n], "ghijkl"[:n]
    total = 0.0
    for lab, arr in f.components.items():
        arr = arr.astype(dtype)
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
    assert np.max(np.abs(N - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestScalar:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("batch", [None, 7])
    def test_matches_per_label_sum_on_seed_fields(self, n, sign, batch):
        rng = np.random.default_rng(2000 * n + 10 * sign + (batch or 0))
        f = random_field(rng, n, 1.2, sign, batch=batch)
        assert_N_matches_per_label(f, (batch,) if batch else ())

    def test_matches_per_label_sum_on_transformed_field(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 4, 5, 6):
            for sign in (1, -1):
                seed = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
                packet = mbw.GaussianPacket(n, 1.0, sign, mbw.symmetrize(seed, n))
                gen = mbw.transform(packet, sc.random_sl2c(rng))
                p = mom.on_shell(1.0, sign, rng.normal(size=(2, 3, 3)))
                assert_N_matches_per_label(gen(p), (2, 3))

    def test_matches_per_label_sum_on_broadcast_components(self):
        # an unbatched seed with batched momenta
        seed = mbw.symmetrize(np.arange(8.0).reshape(2, 2, 2) - 1j, 3)
        f = mbw.build_from_seed(seed, mom.on_shell(1.0, 1, np.eye(3)), 3)
        # the stack holds the seed once per momentum
        assert np.array_equal(f.components[(0, 0, 0)], np.broadcast_to(seed, (3, 2, 2, 2)))
        assert_N_matches_per_label(f, (3,))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_no_less_accurate_than_per_label_sum(self, n, sign):
        rng = np.random.default_rng(3000 * n + sign)
        f = random_field(rng, n, 1.0, sign, batch=200)
        exact = per_label_N(f)
        scale = float(np.max(np.abs(exact)))
        err = float(np.max(np.abs(mbw.scalar_N(f) - exact))) / scale
        err_oracle = float(np.max(np.abs(per_label_N(f, complex) - exact))) / scale
        assert err <= max(err_oracle, 16 * np.finfo(float).eps)


def seed_norm_loop(seed, p, n):
    """Reference for seed_form: 2^n phibar (p^{AA'T})^{(x)n} phi, applying p^{AA'T} to
    the 2^n seed entries slot by slot, batch last."""
    pm = np.moveaxis(mom.momentum_matrix(p, "uu"), (-2, -1), (0, 1))
    phi = np.asarray(seed).reshape((2,) * n + (1,) * (pm.ndim - 2))
    q = phi
    for k in range(n):
        lo, hi = q[(slice(None),) * k + (0,)], q[(slice(None),) * k + (1,)]
        q = np.stack([pm[0, i] * lo + pm[1, i] * hi for i in (0, 1)], axis=k)
    return 2.0**n * np.sum(phi.real * q.real + phi.imag * q.imag, axis=tuple(range(n)))


def seed_norm_clongdouble(seed, p, n):
    """2^n phibar (p^{AA'T})^{(x)n} phi in clongdouble on the float64 inputs; batch-first seed."""
    g = sc.build_ivdw().up.astype(np.clongdouble)
    p_uu = np.einsum("...a,aij->...ij", p.vec.astype(np.longdouble), g)
    phi = np.asarray(seed).astype(np.clongdouble)
    iw, jw = "abcdef"[:n], "ghijkl"[:n]
    subs = [f"...{iw}", f"...{jw}"] + [f"...{jw[k]}{iw[k]}" for k in range(n)]
    return 2**n * np.einsum(",".join(subs) + "->...", np.conj(phi), phi, *[p_uu] * n).real


class TestSeedNorm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_equals_scalar_N_of_the_built_field(self, n, sign):
        rng = np.random.default_rng(5000 + 10 * n + sign)
        for mass in (0.6, 1.0, 2.3):
            for batch in [(), (7,), (3, 5)]:
                seed = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
                seed = mbw.symmetrize(seed, n) if n > 1 else seed
                p = mom.on_shell(mass, sign, rng.normal(size=batch + (3,)))
                got = mbw.seed_form(seed, n)(p)
                ref = mbw.scalar_N(mbw.build_from_seed(seed, p, n))
                assert got.shape == ref.shape == batch
                assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equals_the_seed_entry_loop(self, n):
        rng = np.random.default_rng(5050 + n)
        for sign in (1, -1):
            for p_batch in [(), (9,), (3, 5)]:
                seed = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
                seed = mbw.symmetrize(seed, n) if n > 1 else seed
                p = mom.on_shell(1.1, sign, rng.normal(size=p_batch + (3,)))
                got = mbw.seed_form(seed, n)(p)
                ref = seed_norm_loop(seed, p, n)
                assert got.dtype == np.float64 and got.shape == ref.shape
                assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_large_momenta_against_clongdouble(self, n):
        # |p| = 50: the polynomial's terms reach 50^n |phi|^2 while N can be far smaller
        rng = np.random.default_rng(5300 + n)
        for sign in (1, -1):
            for mass in (0.6, 1.0, 2.3):
                seed = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
                seed = mbw.symmetrize(seed, n) if n > 1 else seed
                spatial = rng.normal(size=(200, 3))
                p = mom.on_shell(mass, sign, 50.0 * spatial / np.linalg.norm(spatial, axis=-1, keepdims=True))
                exact = seed_norm_clongdouble(seed, p, n)
                assert np.all(np.abs(mbw.seed_form(seed, n)(p) - exact) <= 1e-12 * np.abs(exact))

    def test_form_built_once_per_check(self, monkeypatch):
        # the shell cubature's rows in integrand blocks: one form, evaluated
        # once per block; the stack route's blocks hold the 31 223 rows the
        # image screen keeps at the defaults
        seed_form, scalar_N, forms, blocks, stack_blocks = mbw.seed_form, mbw.scalar_N, [], [], []

        def counting(seed, n):
            forms.append(n)
            norm = seed_form(seed, n)

            def counted(p):
                blocks.append(len(p.p0))
                return norm(p)

            return counted

        def counted_N(f):
            stack_blocks.append(len(f.p.p0))
            return scalar_N(f)

        monkeypatch.setattr(mbw, "seed_form", counting)
        monkeypatch.setattr(mbw, "scalar_N", counted_N)
        REGISTRY["packet_norm_invariance"].run(default_parameters(), np.random.default_rng(1))
        assert len(forms) == 1
        full, last = divmod(math.prod(mom.SHELL_NODES), mom.INTEGRATE_BLOCK)
        assert blocks == [mom.INTEGRATE_BLOCK] * full + [last]
        assert stack_blocks == [mom.INTEGRATE_BLOCK] * 7 + [2551]

    @pytest.mark.parametrize("mass, width", list(product((0.2, 1.0, 5.0), (0.5, 1.0, 2.0))))
    def test_image_screen_drops_a_negligible_share(self, mass, width, monkeypatch):
        # the stack route's integrand on the whole rule: the nodes the screen
        # drops carry at most 1e-25 of its integral (under 2e-29 measured)
        screens, images = [], []
        image_rule, norm_covariant = checks._image_rule, mbw.norm_covariant

        def screen(sampler, lam_inv, width):
            screens.append((sampler, image_rule(sampler, lam_inv, width)))
            return screens[-1][1]

        def norm(gen, sampler, *args):
            images.append(gen)
            return norm_covariant(gen, sampler, *args)

        monkeypatch.setattr(checks, "_image_rule", screen)
        monkeypatch.setattr(mbw, "norm_covariant", norm)
        params = dict(default_parameters(), mass=mass, width=width)
        REGISTRY["packet_norm_invariance"].run(params, np.random.default_rng(1))
        ((full, kept),), (image,) = screens, images
        kept_rows = {row.tobytes() for row in kept.rows}
        dropped = np.array([row.tobytes() not in kept_rows for row in full.rows])
        assert 0 < np.count_nonzero(dropped) < len(full)
        assert_allclose(kept.weights, full.weights[~dropped] * len(kept) / len(full), rtol=1e-15)
        contrib = np.concatenate([
            full.weights[start:start + mom.INTEGRATE_BLOCK]
            * mbw.scalar_N(image(mom.on_shell(mass, 1, full.points[start:start + mom.INTEGRATE_BLOCK])))
            for start in range(0, len(full), mom.INTEGRATE_BLOCK)])
        assert np.sum(np.abs(contrib[dropped])) <= 1e-25 * abs(np.sum(contrib))

    @pytest.mark.parametrize("top", [0.0, np.inf, np.nan])
    def test_image_screen_keeps_every_node_without_a_finite_maximum(self, top):
        rows = mom.shell_cubature(1.0, 1, 5.0).rows[:3]
        sampler = mom.HyperboloidSampler(rows, np.full(3, top), 1.0, 1)
        lam_inv = sc.sl2c_to_lorentz(sc.boost_z(0.8)).inverse()
        assert checks._image_rule(sampler, lam_inv, 1.0) is sampler

    def test_packet_integral_equals_the_stack_route(self):
        from bwfields.checks import _seed_form_norm

        rng = np.random.default_rng(5200)
        seed = mbw.symmetrize(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), 2)
        packet = mbw.GaussianPacket(2, 1.3, 1, seed, 0.8)
        sampler = mom.monte_carlo_sampler(1.3, 1, 5000, 0.8, seed=22)
        got = _seed_form_norm(packet, sampler)
        assert_allclose(got, mbw.norm_covariant(packet, sampler, 2, 1.3, 1), rtol=1e-13)

    def test_invalid_input_rejected(self):
        p = mom.on_shell(1.0, 1, [0.1, 0.2, 0.3])
        bad = np.zeros((2, 2))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            mbw.seed_form(bad, 2)
        with pytest.raises(ValueError, match="one seed"):
            mbw.seed_form(np.ones((3, 2, 2)), 2)
        with pytest.raises(ValueError, match="m > 0"):
            mbw.seed_form(np.ones(2), 1)(mom.on_shell(0.0, 1, [0.1, 0.2, 0.3]))


class TestBatchedTransform:
    @staticmethod
    def follower(seed, n):
        """A generator whose seed follows its momenta's batch."""
        def gen(p):
            shape = np.asarray(p.p0).shape
            return mbw.build_from_seed(np.broadcast_to(seed, shape + (2,) * n), p, n)
        return gen

    @pytest.mark.parametrize("mass", [1.0, 0.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_per_element_transform(self, n, mass):
        # the massless generator's amplitude is a Gaussian of its momenta
        rng = np.random.default_rng(60 + n)
        seed = mbw.symmetrize(rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n), n)
        if mass:
            gen = self.follower(seed, n)
        else:
            def gen(q):
                return ml.field_from_amplitude((1 + 0.5j) * np.exp(-q.spatial_sq / 2), q, n)
        s = sc.random_sl2c(rng, size=6)
        p = mom.on_shell(mass, 1, rng.normal(size=(4, 3)))
        got = mbw.transform(gen, s)(p)
        assert got.batch_shape() == (6, 4) and type(got) is type(gen(p))
        for k in range(6):
            ref = mbw.transform(gen, sc.SL2CElement(s.matrix[k]))(p)
            for lab in product(range(ref.bits), repeat=n):
                want = ref._batch_first(lab)
                assert np.max(np.abs(got._batch_first(lab)[k] - want)) <= 1e-14 * np.max(np.abs(want))
            if mass:
                assert_allclose(mbw.scalar_N(got)[k], mbw.scalar_N(ref), rtol=1e-13)

    def test_unbatched_seed_follows_the_group_batch(self):
        # the stack broadcasts an unbatched seed over the (B, N) batch that
        # act gives, so each element maps the fields at its own momenta
        rng = np.random.default_rng(81)
        seed = mbw.symmetrize(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), 2)

        def gen(p):
            return mbw.build_from_seed(seed, p, 2)

        s = sc.random_sl2c(rng, size=3)
        p = mom.on_shell(1.0, 1, rng.normal(size=(4, 3)))
        got = mbw.transform(gen, s)(p)
        assert got.batch_shape() == (3, 4)
        for k in range(3):
            ref = mbw.transform(gen, sc.SL2CElement(s.matrix[k]))(p)
            scale = np.max(np.abs(ref.stack))
            assert np.max(np.abs(got.stack[..., k, :] - ref.stack)) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    def test_single_element_is_n_slot_maps(self, n, shape):
        # one element maps each label slot by slot, S on 0-bits and conj(S)
        # on 1-bits, as a label-by-label loop does: a packet on the positive
        # branch, an unbatched seed under batched momenta on the negative
        # one.  The transform takes each slot as one matrix product, so the
        # two differ by rounding: each is within n eps |S|^n max|psi| of the
        # exact map, |S| the largest absolute row sum of S.  A wrong map (S
        # for conj S, or S transposed) misses by O(max|psi|).
        rng = np.random.default_rng(70 + n)
        seed = mbw.symmetrize(rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n), n)
        s = sc.random_sl2c(rng)
        maps = (s.matrix, np.conj(s.matrix))
        growth = np.max(np.sum(np.abs(s.matrix), axis=1))
        for sign, gen in ((1, mbw.GaussianPacket(n, 1.0, 1, seed)),
                          (-1, lambda p: mbw.build_from_seed(seed, p, n))):
            p = mom.on_shell(1.0, sign, rng.normal(size=shape + (3,)))
            got = mbw.transform(gen, s)(p)
            assert got.p is p
            f = gen(mom.act(sc.sl2c_to_lorentz(s).inverse(), p))
            for lab, arr in f.components.items():
                bound = 2 * n * np.finfo(float).eps * growth**n * np.max(np.abs(arr))
                for k, bit in enumerate(lab):
                    arr = two_term(arr, maps[bit], k, n, sum_first=False)
                assert np.max(np.abs(got.components[lab] - arr)) <= bound

    def test_component_outside_the_group_batch_rejected(self):
        rng = np.random.default_rng(80)
        seed = mbw.symmetrize(rng.normal(size=(2, 2)) + 0j, 2)
        elsewhere = mom.on_shell(1.0, 1, rng.normal(size=(4, 3)))

        def gen(p):  # ignores its momenta, so the field's batch is (4,), not (3, 3)
            return mbw.build_from_seed(seed, elsewhere, 2)

        s = sc.random_sl2c(rng, size=3)
        with pytest.raises(ValueError, match="group batch"):
            mbw.transform(gen, s)(mom.on_shell(1.0, 1, rng.normal(size=(3, 3))))


class TestStack:
    def test_round_trip_unbatched_seed_with_batched_momenta(self):
        rng = np.random.default_rng(82)
        seed = mbw.symmetrize(rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)), 3)
        p = mom.on_shell(1.0, -1, rng.normal(size=(5, 3)))
        f = mbw.build_from_seed(seed, p, 3)
        assert f.stack.shape == (2, 2, 2, 2, 2, 2, 5)
        for lab, view in f.components.items():
            assert view.shape == (5, 2, 2, 2)
            assert np.shares_memory(view, f.stack) and not view.flags.writeable
        # axes (bit_1, i_1, bit_2, i_2, bit_3, i_3, batch)
        assert np.array_equal(f.components[(0, 1, 1)][4, 1, 0, 1], f.stack[0, 1, 1, 0, 1, 1, 4])
        back = mbw.BWFieldAtP.from_components(3, p, f.components)
        assert np.array_equal(back.stack, f.stack)
        comps = dict(f.components)
        comps[(0, 0, 0)] = seed
        assert np.array_equal(mbw.BWFieldAtP.from_components(3, p, comps).stack, f.stack)

    def test_round_trip_batched_element(self):
        rng = np.random.default_rng(83)
        gen = TestBatchedTransform.follower(mbw.symmetrize(rng.normal(size=(2, 2)) + 0j, 2), 2)
        p = mom.on_shell(1.0, 1, rng.normal(size=(4, 3)))
        got = mbw.transform(gen, sc.random_sl2c(rng, size=2))(p)
        assert got.batch_shape() == (2, 4) and got.stack.shape == (2, 2, 2, 2, 2, 4)
        assert got.components[(1, 0)].shape == (2, 4, 2, 2)
        assert np.array_equal(got.components[(1, 0)][1, 3, 0, 1], got.stack[1, 0, 0, 1, 1, 3])
        back = mbw.BWFieldAtP.from_components(2, p, got.components)
        assert np.array_equal(back.stack, got.stack)

    def test_components_not_symmetric_under_slot_exchange_rejected(self):
        rng = np.random.default_rng(84)
        for n in (2, 3):
            f = random_field(rng, n, batch=3)
            comps = dict(f.components)
            mixed = (0, 1) + (0,) * (n - 2)
            swapped = (1, 0) + (0,) * (n - 2)
            # the (0,1) array under the (1,0) label, its indices not exchanged
            comps[swapped] = comps[mixed]
            with pytest.raises(ValueError, match="slot exchange"):
                mbw.BWFieldAtP.from_components(n, f.p, comps)
        # one slot has no exchange: any n = 1 components are accepted
        comps = {(0,): rng.normal(size=(4, 2)), (1,): rng.normal(size=(4, 2))}
        assert mbw.BWFieldAtP.from_components(1, f.p, comps).batch_shape() == (4,)

    def test_stack_not_symmetric_under_slot_exchange_rejected(self):
        # scalar_N reads only symmetric stacks: on this one it would be wrong
        rng = np.random.default_rng(85)
        p = mom.on_shell(1.0, 1, rng.normal(size=(4, 3)))
        stack = rng.normal(size=(2, 2, 2, 2, 4)) + 1j * rng.normal(size=(2, 2, 2, 2, 4))
        with pytest.raises(ValueError, match="slot exchange"):
            mbw.BWFieldAtP(2, p, stack)
        # symmetrized, the same stack is accepted
        f = mbw.BWFieldAtP(2, p, (stack + np.transpose(stack, (2, 3, 0, 1, 4))) / 2)
        assert f.batch_shape() == (4,)

    def test_slot_symmetry_judged_per_sample(self):
        # a large symmetric sample must not lend its scale to a small one:
        # alone or beside it, a 1e-7 exchange defect is rejected
        rng = np.random.default_rng(87)
        f = random_field(rng, 2, batch=2)
        stack = f.stack.copy()
        stack[..., 0] *= 1e6
        stack[0, 0, 1, 1, 1] += 1e-7
        first, second = (mom.on_shell(1.0, 1, f.p.spatial[i:i + 1]) for i in (0, 1))
        with pytest.raises(ValueError, match="slot exchange"):
            mbw.BWFieldAtP(2, second, stack[..., 1:])
        with pytest.raises(ValueError, match="slot exchange"):
            mbw.BWFieldAtP(2, f.p, stack)
        # the symmetric sample, at its own scale, is accepted
        assert mbw.BWFieldAtP(2, first, stack[..., :1]).batch_shape() == (1,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stack_accepted_without_warning(self, bad):
        # its results then read NaN or inf: a failure, not a crash or a warning
        f = random_field(np.random.default_rng(86), 2, batch=3)
        stack = f.stack.copy()
        stack[0, 0, 0, 0, 1] = bad
        assert mbw.BWFieldAtP(2, f.p, stack).batch_shape() == (3,)

    def test_stack_without_slot_axes_rejected(self):
        with pytest.raises(ValueError, match="slot"):
            mbw.BWFieldAtP(2, mom.on_shell(1.0, 1, [0, 0, 0]), np.zeros((2, 2, 2)))


class TestNorms:
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

    def test_packet_norm_invariance_on_the_shell_cubature(self):
        # the rule reaches 9 widths past the image of the rapidity-0.8 boost
        rng = np.random.default_rng(13)
        packet = mbw.GaussianPacket(2, 1.0, 1, mbw.symmetrize(rng.normal(size=(2, 2)), 2))
        sampler = mom.shell_cubature(1.0, 1, 9.0 * np.exp(0.8) + np.sinh(0.8))
        v1 = mbw.norm_covariant(packet, sampler, 2, 1.0, 1)
        v2 = mbw.norm_covariant(mbw.transform(packet, sc.boost_z(0.8)), sampler, 2, 1.0, 1)
        assert abs(v2 - v1) <= 1e-10 * abs(v1)


def plane_wave(kind, rng, n, sign=1):
    if kind == "massive":
        return random_field(rng, n, 1.0, sign)
    return ml.field_from_amplitude(np.asarray(1.3 - 0.4j), mom.on_shell(0.0, sign, rng.normal(size=3)), n)


@pytest.mark.parametrize("kind", ["massive", "massless"])
class TestSpacetimeResidual:
    def test_second_order_convergence(self, kind):
        f = plane_wave(kind, np.random.default_rng(15), 2)
        x = np.array([0.3, -0.2, 0.5, 0.1])
        r1 = fd_spacetime_residual(f, x, 0.1)
        r2 = fd_spacetime_residual(f, x, 0.05)
        assert 3.5 < r1 / r2 < 4.5

    def test_wrong_frequency_sign(self, kind, monkeypatch):
        f = plane_wave(kind, np.random.default_rng(17), 1)
        flipped_frequency(monkeypatch)
        r = fd_spacetime_residual(f, np.array([0.1, 0.2, -0.3, 0.4]), 0.05)
        assert r > 0.1

    def test_invalid_step(self, kind):
        f = plane_wave(kind, np.random.default_rng(18), 1)
        with pytest.raises(ValueError):
            fd_spacetime_residual(f, np.zeros(4), 0.0)

    def test_nan_field_gives_nan(self, kind):
        # a running builtin max would keep 0.0 and hide the NaN
        f = plane_wave(kind, np.random.default_rng(19), 2)
        stack = f.stack.copy()
        stack[(0,) * (stack.ndim - 1) + (slice(None),)] = np.nan
        broken = type(f)(n=f.n, p=f.p, stack=stack)
        assert np.isnan(fd_spacetime_residual(broken, np.zeros(4), 0.1))
        assert np.isnan(core.residual_field_equations(broken))


class TestNanSafeMaximum:
    def test_worst_of(self):
        assert core.worst_of(0.0, 3, np.float64(2.5)) == 3.0
        assert np.isnan(core.worst_of(0.0, np.nan, 5.0))
        assert np.isnan(core.worst_of(np.nan, 5.0))
        assert core.worst_of(0.0, np.inf) == np.inf
        assert max(0.0, np.nan) == 0.0  # the builtin drops NaN in second place

    def test_field_equation_residual_of_a_nan_field(self):
        f = random_field(np.random.default_rng(20), 2, 1.0, 1, batch=5)
        stack = f.stack.copy()
        stack[1, 0, 1, 1, 3] = np.nan
        assert np.isnan(mbw.residual_field_equations(mbw.BWFieldAtP(n=2, p=f.p, stack=stack)))


def moveaxis_batch_last(a, n, nb):
    """Reference for slot_core._batch_last: the former moveaxis, then a reshape."""
    a = np.moveaxis(a, range(a.ndim - n, a.ndim), range(n))
    return a.reshape(a.shape[:n] + (1,) * (nb + n - a.ndim) + a.shape[n:])


def batch_last_and_kernel(shape, nb):
    """_batch_last and the kernel it builds against the moveaxis formula."""
    rng = np.random.default_rng(400 + len(shape) + nb)
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    maps = (np.swapaxes(m, -1, -2), m.real)
    kernel = core._kernel(maps, nb)
    assert kernel.flags.c_contiguous
    return [(core._batch_last(m, 2, nb), moveaxis_batch_last(m, 2, nb)),
            (kernel, np.array([moveaxis_batch_last(x, 2, nb) for x in maps], dtype=complex))]


def packet_stack(n, shape):
    """The packet's stack against the batch-first seed, times the envelope."""
    rng = np.random.default_rng(500 + 10 * n + len(shape))
    seed = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
    packet = mbw.GaussianPacket(n, 1.2, -1, mbw.symmetrize(seed, n) if n > 1 else seed, 0.8)
    p = mom.on_shell(1.2, -1, rng.normal(size=shape + (3,)))
    amp = np.exp(-p.spatial_sq / (2 * 0.8**2))
    batch_first = np.asarray(amp)[(...,) + (None,) * n] * packet.seed_spinor
    stack = packet(p).stack
    return [(stack[core._label_index((0,) * n)], moveaxis_batch_last(batch_first, n, len(shape))),
            (stack, mbw.build_from_seed(batch_first, p, n).stack)]


def grouped_probe_sets(n, sign):
    """norm_equivalences' layout, ten fields as a (1, 10) batch and ten probe
    sets as (10, 1, 4) per slot, against ten calls on the (10,) batch."""
    rng = np.random.default_rng(600 + n)
    seed = rng.normal(size=(10,) + (2,) * n) + 1j * rng.normal(size=(10,) + (2,) * n)
    seed = mbw.symmetrize(seed, n) if n > 1 else seed
    sp = rng.normal(size=(10, 3))
    f = mbw.build_from_seed(seed, mom.on_shell(1.0, sign, sp), n)
    grouped_f = mbw.build_from_seed(seed[None], mom.on_shell(1.0, sign, sp[None]), n)
    probes = rng.normal(size=(10, n, 4))
    grouped = mbw.norm_primed_integrand(grouped_f, [probes[:, k, None] for k in range(n)])
    assert grouped.shape == (10, 10)
    return [(grouped[i], mbw.norm_primed_integrand(f, list(probes[i]))) for i in range(10)]


# Each components-first rewrite against the batch-first formula it replaced
ORACLES = {
    **{f"batch_last-{shape}-{nb}": partial(batch_last_and_kernel, shape, nb)
       for shape, nb in [((2, 2), 0), ((7, 2, 2), 1), ((7, 2, 2), 3), ((3, 5, 2, 2), 2)]},
    **{f"packet_stack-{n}-{shape}": partial(packet_stack, n, shape)
       for shape in [(), (7,), (3, 5)] for n in [1, 2, 3, 4]},
    **{f"grouped_probes-{n}-{sign}": partial(grouped_probe_sets, n, sign)
       for sign in [1, -1] for n in [1, 2, 3, 4]},
}


@pytest.mark.parametrize("oracle", list(ORACLES), ids=lambda key: key.replace(" ", ""))
def test_bit_for_bit_against_the_formula_it_replaced(oracle):
    for got, ref in ORACLES[oracle]():
        assert np.array_equal(got, ref)
