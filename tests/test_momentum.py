import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwfields import massive_bw as mbw
from bwfields import momentum as mom
from bwfields import spinor_core as sc


def one_shot_integrate(f, sampler):
    """Reference for integrate: the integrand on all samples at once, then the same reduction."""
    p = mom.FourMomentum(mass=sampler.mass, sign=sampler.sign, spatial=sampler.points)
    contrib = sampler.weights * np.asarray(f(p))
    n = len(sampler)
    mean = np.sum(contrib) / n
    var = np.sum(np.abs(contrib - mean) ** 2) / (n - 1) if n > 1 else 0.0
    return complex(mean), float(np.sqrt(var / n))


class TestOnShell:
    def test_rest_frame(self):
        p = mom.on_shell(1.0, 1, [0.0, 0.0, 0.0])
        assert_allclose(p.vec, [1.0, 0, 0, 0])

    def test_null_along_z(self):
        p = mom.on_shell(0.0, 1, [0.0, 0.0, 1.0])
        assert_allclose(p.vec, [1.0, 0, 0, 1.0])

    def test_negative_branch_energy(self):
        p = mom.on_shell(1.0, -1, [3.0, 0.0, 0.0])
        assert_allclose(p.p0, -np.sqrt(10.0))

    def test_errors(self):
        with pytest.raises(ValueError):
            mom.on_shell(-1.0, 1, [0, 0, 0])
        with pytest.raises(ValueError):
            mom.on_shell(0.0, 1, [0, 0, 0])
        with pytest.raises(ValueError):
            mom.FourMomentum(1.0, 2, np.zeros(3))

    def test_mass_shell_invariant(self):
        rng = np.random.default_rng(0)
        for mass, sign in [(1.0, 1), (0.7, -1), (0.0, 1), (0.0, -1)]:
            p = mom.on_shell(mass, sign, rng.normal(size=(50, 3)))
            assert np.max(np.abs(mom.minkowski_dot(p.vec, p.vec) - mass**2)) < 1e-10


class TestMomentumMatrix:
    def test_rest_frame_form(self):
        p = mom.on_shell(1.0, 1, [0, 0, 0])
        assert_allclose(mom.momentum_matrix(p, "uu"), np.eye(2) / np.sqrt(2.0))

    def test_hermitian_and_determinant(self):
        rng = np.random.default_rng(1)
        for mass, sign in [(1.0, 1), (1.0, -1), (0.0, 1), (0.0, -1)]:
            p = mom.on_shell(mass, sign, rng.normal(size=(30, 3)))
            up = mom.momentum_matrix(p, "uu")
            assert np.max(np.abs(up - np.conj(np.swapaxes(up, -1, -2)))) < 1e-14
            assert np.max(np.abs(np.linalg.det(up) - mass**2 / 2)) < 1e-12

    def test_null_matrix_is_singular(self):
        p = mom.on_shell(0.0, 1, [0, 0, 1.0])
        up = mom.momentum_matrix(p, "uu")
        assert abs(np.linalg.det(up)) < 1e-14

    def test_primed_contraction_identity(self):
        # p_{AA'} p^{AB'} = (p.p/2) delta_{A'}^{B'}
        rng = np.random.default_rng(2)
        for mass in (1.3, 0.0):
            p = mom.on_shell(mass, 1, rng.normal(size=(20, 3)))
            lo = mom.momentum_matrix(p, "ll")
            up = mom.momentum_matrix(p, "uu")
            tr = np.einsum("...am,...an->...mn", lo, up)
            target = (mass**2 / 2) * np.eye(2)
            assert np.max(np.abs(tr - target)) < 1e-12

    def test_trace_reversal_world_form(self):
        # p_{AB'} p_{BA'} = p_a p_b - (m^2/2) g_{ab}
        rng = np.random.default_rng(3)
        mass = 1.1
        for sign in (1, -1):
            p = mom.on_shell(mass, sign, rng.normal(size=(20, 3)))
            lo = mom.momentum_matrix(p, "ll")
            # crossed primed indices, axes arranged (A, A', B, B')
            crossed = np.einsum("...ad,...cb->...abcd", lo, lo)
            grouped = np.transpose(crossed, tuple(range(crossed.ndim - 4)) + (-4, -2, -3, -1))
            world = sc.world_from_spinor(grouped, 2)
            pa = p.covec
            target = np.einsum("...a,...b->...ab", pa, pa) - (mass**2 / 2) * sc.METRIC
            assert np.max(np.abs(world - target)) < 1e-10

    def test_bad_positions(self):
        p = mom.on_shell(1.0, 1, [0, 0, 0])
        with pytest.raises(ValueError):
            mom.momentum_matrix(p, "xx")


def derived_table(positions):
    """Each momentum_matrix table derived on the spot: the oracle for the cached ones."""
    up = sc.build_ivdw().up
    table = {
        "uu": lambda: up,
        "ll": lambda: sc.EPS_LO.T @ up @ sc.EPS_LO,
        "ul": lambda: up @ sc.EPS_LO,
        "lu": lambda: sc.EPS_LO.T @ up @ sc.EPS_LO @ sc.EPS_UP.T,
    }[positions]()
    return table.view(float).reshape(4, 8)


KINEMATICS = [
    (shape, mass, sign)
    for shape in [(), (7,), (2, 3), (3, 5)] for mass in [0.0, 1.3] for sign in [1, -1]
]


class TestCachedKinematics:
    @pytest.mark.parametrize("shape, mass, sign", KINEMATICS)
    def test_bit_for_bit_against_per_call_formulas(self, shape, mass, sign):
        rng = np.random.default_rng(60 + len(shape))
        spatial = rng.normal(scale=2.0, size=shape + (3,))
        p = mom.on_shell(mass, sign, spatial)
        sq = np.sum(spatial**2, axis=-1)
        assert np.array_equal(p.spatial_sq, sq)
        assert np.array_equal(p.p0, sign * np.sqrt(mass**2 + sq))
        vec = np.concatenate([np.asarray(p.p0)[..., None], spatial], -1)
        assert np.array_equal(p.vec, vec) and p.vec is p.vec
        assert np.array_equal(p.covec, vec @ sc.METRIC)

    @pytest.mark.parametrize("positions", ["uu", "ll", "ul", "lu"])
    @pytest.mark.parametrize("shape, mass, sign", KINEMATICS)
    def test_momentum_matrix_bit_for_bit_against_derived_table(self, shape, mass, sign, positions):
        rng = np.random.default_rng(60 + len(shape))
        spatial = rng.normal(scale=2.0, size=shape + (3,))
        p = mom.on_shell(mass, sign, spatial)
        vec = np.concatenate([np.asarray(p.p0)[..., None], spatial], -1)
        table = derived_table(positions)
        assert np.array_equal(mom._POSITION_TABLES[positions], table)
        ref = (vec @ table).view(complex).reshape(shape + (2, 2))
        mat = mom.momentum_matrix(p, positions)
        assert mat.dtype == np.complex128 and np.array_equal(mat, ref)

    def test_cached_arrays_read_only(self):
        p = mom.on_shell(1.3, 1, np.random.default_rng(70).normal(size=(7, 3)))
        for arr in (p.vec, p.spatial_sq, p.p0, p.spatial, *mom._POSITION_TABLES.values()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2.0
        with pytest.raises(TypeError):
            mom._POSITION_TABLES["uu"] = np.zeros((4, 8))
        # the refused writes left momentum_matrix's tables as built
        assert_allclose(mom.momentum_matrix(mom.on_shell(1.0, 1, [0, 0, 0])), np.eye(2) / np.sqrt(2.0))

    @pytest.mark.parametrize("mass, width", [(0.0, 1.0), (1.3, 0.7), (0.4, 2.5)])
    def test_sampler_weights_match_two_reduction_formula(self, mass, width):
        s = mom.monte_carlo_sampler(mass, 1, 5000, width, seed=71)
        pts = np.random.default_rng(71).normal(scale=width, size=(5000, 3))
        log_rho = -np.sum(pts**2, axis=1) / (2 * width**2) - 1.5 * np.log(2 * np.pi * width**2)
        w = np.exp(-log_rho) / (2 * np.sqrt(mass**2 + np.sum(pts**2, axis=1)))
        assert np.array_equal(s.points, pts) and np.array_equal(s.weights, w)

    @pytest.mark.parametrize("width", [0.7, 1.0, 1.3])
    def test_sampler_draw_is_the_scaled_normal_bit_for_bit(self, width):
        s = mom.monte_carlo_sampler(1.0, 1, 30000, width, seed=73)
        pts = np.random.default_rng(73).normal(scale=width, size=(30000, 3))
        assert s.points.tobytes() == pts.tobytes()

    def test_vec_of_strided_spatial_columns(self):
        # act hands FourMomentum the spatial columns of a (..., 4) product
        rows = np.random.default_rng(72).normal(size=(3, 5, 4))
        p = mom.on_shell(1.3, -1, rows[..., 1:])
        vec = np.concatenate([np.asarray(p.p0)[..., None], rows[..., 1:]], -1)
        assert np.array_equal(p.vec, vec) and p.vec.flags.c_contiguous


class TestSpinFrame:
    def test_massive_rejected(self):
        with pytest.raises(ValueError):
            mom.spin_frame(mom.on_shell(1.0, 1, [0, 0, 1]))

    def test_axis_aligned_factor(self):
        fr = mom.spin_frame(mom.on_shell(0.0, 1, [0, 0, 1.0]))
        assert_allclose(fr.pi, [0.0, 2.0**0.25], atol=1e-14)

    def test_normalization_and_reassembly(self):
        rng = np.random.default_rng(4)
        for sign in (1, -1):
            # momenta in all octants
            sp = rng.normal(size=(100, 3))
            p = mom.on_shell(0.0, sign, sp)
            fr = mom.spin_frame(p)
            norm = np.einsum("...a,...a->...", fr.pi, fr.omega)
            assert np.max(np.abs(norm - 1.0)) < 1e-12
            assert np.max(np.abs(fr.reassembled(sign) - p.covec)) < 1e-10

    def test_deterministic_phase(self):
        p = mom.on_shell(0.0, 1, [0.3, -0.4, 0.2])
        a = mom.spin_frame(p)
        b = mom.spin_frame(p)
        assert_allclose(a.pi, b.pi)
        big = a.pi[np.argmax(np.abs(a.pi))]
        assert abs(big.imag) < 1e-14 and big.real > 0


class TestAct:
    def test_identity(self):
        p = mom.on_shell(1.0, 1, [0.2, 0.3, -0.1])
        q = mom.act(sc.LorentzMatrix(np.eye(4)), p)
        assert_allclose(q.vec, p.vec)

    def test_boost_of_rest_frame(self):
        lam = sc.sl2c_to_lorentz(sc.boost_z(1.0))
        q = mom.act(lam, mom.on_shell(1.0, 1, [0, 0, 0]))
        assert_allclose(q.p0, np.cosh(1.0), atol=1e-13)

    def test_mass_and_branch_preserved(self):
        rng = np.random.default_rng(5)
        for sign in (1, -1):
            p = mom.on_shell(0.8, sign, rng.normal(size=(100, 3)))
            for _ in range(10):
                lam = sc.sl2c_to_lorentz(sc.random_sl2c(rng))
                q = mom.act(lam, p)
                assert q.mass == p.mass and q.sign == p.sign
                assert np.max(np.abs(mom.minkowski_dot(q.vec, q.vec) - 0.64)) < 1e-10

    @pytest.mark.parametrize("shape", [(), (6,)])
    def test_batched_matrices(self, shape):
        rng = np.random.default_rng(6)
        lam = sc.sl2c_to_lorentz(sc.random_sl2c(rng, size=4))
        p = mom.on_shell(0.8, -1, rng.normal(size=shape + (3,)))
        q = mom.act(lam, p)
        # 4 matrices on the momenta: a (4,) + shape batch
        assert q.vec.shape == (4,) + shape + (4,)
        assert q.mass == p.mass and q.sign == p.sign
        for k in range(4):
            assert np.array_equal(q.vec[k], mom.act(sc.LorentzMatrix(lam.matrix[k]), p).vec)

    def test_batched_matrices_on_matching_batch(self):
        # batch axes before the momenta's last one pair up with the matrices'
        rng = np.random.default_rng(7)
        lam = sc.sl2c_to_lorentz(sc.random_sl2c(rng, size=3))
        p = mom.on_shell(1.0, 1, rng.normal(size=(3, 5, 3)))
        q = mom.act(lam, p)
        assert q.vec.shape == (3, 5, 4)
        for k in range(3):
            ref = mom.act(sc.LorentzMatrix(lam.matrix[k]), mom.on_shell(1.0, 1, p.spatial[k]))
            assert np.array_equal(q.vec[k], ref.vec)


class TestQuadrature:
    def test_zero_integrand(self):
        s = mom.monte_carlo_sampler(1.0, 1, 100, seed=0)
        val, se = mom.integrate(lambda p: np.zeros(100), s)
        assert val == 0 and se == 0

    def test_empty_sampler_rejected(self):
        s = mom.HyperboloidSampler(rows=np.zeros((0, 4)), weights=np.zeros(0), mass=1.0, sign=1)
        with pytest.raises(ValueError):
            mom.integrate(lambda p: np.zeros(0), s)

    @pytest.mark.parametrize("mass, sign, row, match", [
        (-1.0, 1, [1.0, 0.0, 0.0, 0.0], "non-negative"),
        (1.0, 2, [2.0, 0.0, 0.0, 0.0], "sign"),
        (1.0, 1, [np.inf, np.inf, 0.0, 0.0], "finite"),
        (1.0, 1, [np.nan, 0.0, np.nan, 0.0], "finite"),
        (0.0, -1, [0.0, 0.0, 0.0, 0.0], "nonzero spatial"),
        (1.0, 1, [1.0, 0.0, 0.0], "shape"),
    ])
    def test_sampler_makes_the_momentum_checks_once(self, mass, sign, row, match):
        # each check FourMomentum makes on construction, made on the rows
        # integrate hands out without checking them again
        rows = np.array([[1.0, 0.0, 0.0, 1.0][: len(row)], row])
        with pytest.raises(ValueError, match=match):
            mom.HyperboloidSampler(rows=rows, weights=np.ones(2), mass=mass, sign=sign)

    @pytest.mark.parametrize("mass, sign, width", [(1.3, -1, 0.8), (0.0, 1, 1.0)])
    def test_block_momenta_are_on_shell_of_the_points_bit_for_bit(self, mass, sign, width):
        block = mom.INTEGRATE_BLOCK
        sampler = mom.monte_carlo_sampler(mass, sign, 2 * block + 5, width, seed=19)
        assert np.shares_memory(sampler.points, sampler.rows) and not sampler.points.flags.writeable
        seen = []
        mom.integrate(lambda p: seen.append(p) or np.zeros(len(p.p0)), sampler)
        assert [len(p.p0) for p in seen] == [block, block, 5]
        for start, p in zip(range(0, len(sampler), block), seen):
            ref = mom.on_shell(mass, sign, sampler.points[start:start + block])
            assert (p.mass, p.sign) == (ref.mass, ref.sign)
            for name in ("vec", "p0", "spatial_sq", "spatial"):
                got = getattr(p, name)
                assert np.array_equal(got, getattr(ref, name)) and not got.flags.writeable, name

    def test_gaussian_against_larger_reference(self):
        # self-consistency oracle: value within 3 sigma of a 100x-N run
        f = lambda p: np.exp(-np.sum(p.spatial**2, axis=-1))
        small = mom.monte_carlo_sampler(1.0, 1, 2000, seed=10)
        big = mom.monte_carlo_sampler(1.0, 1, 200000, seed=11)
        v1, se1 = mom.integrate(f, small)
        v2, se2 = mom.integrate(f, big)
        assert abs(v1.real - v2.real) < 3 * np.hypot(se1, se2)

    def test_massless_gaussian_analytic(self):
        # integral d^3p exp(-|p|^2/w^2) / (2|p|) = pi w^2
        w = 1.3
        s = mom.monte_carlo_sampler(0.0, 1, 200000, width=w, seed=12)
        f = lambda p: np.exp(-np.sum(p.spatial**2, axis=-1) / w**2)
        val, se = mom.integrate(f, s)
        assert abs(val.real - np.pi * w**2) < 3 * se

    def test_measure_invariance_under_boost(self):
        # substitution oracle: same integral for f(p) and f(Lambda p)
        lam = sc.sl2c_to_lorentz(sc.boost_z(0.6))

        def f(p):
            return np.exp(-np.sum(p.spatial**2, axis=-1))

        def f_boosted(p):
            q = mom.act(lam, p)
            return np.exp(-np.sum(q.spatial**2, axis=-1))

        s1 = mom.monte_carlo_sampler(1.0, 1, 400000, seed=13)
        s2 = mom.monte_carlo_sampler(1.0, 1, 400000, seed=14)
        v1, se1 = mom.integrate(f, s1)
        v2, se2 = mom.integrate(f_boosted, s2)
        assert abs(v1.real - v2.real) < 3 * np.hypot(se1, se2)

    def test_error_scaling(self):
        f = lambda p: np.exp(-np.sum(p.spatial**2, axis=-1))
        _, se1 = mom.integrate(f, mom.monte_carlo_sampler(1.0, 1, 4000, seed=15))
        _, se2 = mom.integrate(f, mom.monte_carlo_sampler(1.0, 1, 8000, seed=15))
        ratio = se1 / se2
        assert abs(ratio - np.sqrt(2.0)) < 0.2 * np.sqrt(2.0)

    @pytest.mark.parametrize("samples", [1, 4095, 4096, 4097, 200000])
    def test_blocks_match_one_shot_evaluation(self, samples):
        packet = mbw.GaussianPacket(2, 1.0, 1, mbw.symmetrize(np.arange(4.0).reshape(2, 2) - 1j, 2))
        sampler = mom.monte_carlo_sampler(1.0, 1, samples, seed=17)
        sizes = []

        def norm(p):
            sizes.append(len(p.p0))
            return mbw.scalar_N(packet(p))

        assert mom.integrate(norm, sampler) == one_shot_integrate(norm, sampler)
        block = mom.INTEGRATE_BLOCK
        blocks = [block] * (samples // block) + ([samples % block] if samples % block else [])
        assert sizes == blocks + [samples]
        gauss = lambda p: np.exp(-np.sum(p.spatial**2, axis=-1))
        assert mom.integrate(gauss, sampler) == one_shot_integrate(gauss, sampler)

    def test_wrong_shape_in_a_later_block_rejected(self):
        sampler = mom.monte_carlo_sampler(1.0, 1, mom.INTEGRATE_BLOCK + 10, seed=18)

        def f(p):
            n = len(p.p0)
            return np.zeros(n if n == mom.INTEGRATE_BLOCK else n + 1)

        with pytest.raises(ValueError, match="one value per sample"):
            mom.integrate(f, sampler)

    def test_deterministic_given_seed(self):
        f = lambda p: np.exp(-np.sum(p.spatial**2, axis=-1))
        a = mom.integrate(f, mom.monte_carlo_sampler(1.0, 1, 1000, seed=16))
        b = mom.integrate(f, mom.monte_carlo_sampler(1.0, 1, 1000, seed=16))
        assert a == b
