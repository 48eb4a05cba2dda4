import math
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwfields import dirac_algebra as da
from bwfields import massive_bw as mbw
from bwfields import massless as ml
from bwfields import maxwell as mx
from bwfields import momentum as mom
from bwfields import slot_core as core
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


BOTH = np.array([[1], [-1]])


class TestBranchSigns:
    def test_array_sign_holds_each_branch(self):
        spatial = np.random.default_rng(8).normal(size=(2, 5, 3))
        p = mom.on_shell(1.3, BOTH, spatial)
        assert p.sign.dtype == int and p.sign.shape == (2, 1)
        assert np.all(p.p0[0] > 0) and np.all(p.p0[1] < 0)
        for i, sign in enumerate((1, -1)):
            assert np.array_equal(p.vec[i], mom.on_shell(1.3, sign, spatial[i]).vec)

    def test_array_sign_is_a_read_only_copy(self):
        sign = np.array([[1], [-1]])
        p = mom.on_shell(0.0, sign, np.ones((2, 3, 3)))
        sign[0, 0] = -1
        assert p.sign[0, 0] == 1
        with pytest.raises(ValueError, match="read-only"):
            p.sign[0, 0] = -1

    @pytest.mark.parametrize("sign", [[[1], [0]], [[2], [-1]], [[1.0], [np.nan]], [[[1]], [[-1]]], [1, -1, 1]],
                             ids=["zero", "two", "nan", "enlarging", "not-broadcasting"])
    def test_invalid_array_sign(self, sign):
        with pytest.raises(ValueError, match="sign"):
            mom.on_shell(1.0, np.array(sign), np.ones((2, 5, 3)))


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


def shell_draw(shape, mass, sign):
    """A seeded on-shell batch and the vec the per-call formulas build for it."""
    spatial = np.random.default_rng(60 + len(shape)).normal(scale=2.0, size=shape + (3,))
    p = mom.on_shell(mass, sign, spatial)
    return p, spatial, np.concatenate([np.asarray(p.p0)[..., None], spatial], -1)


def cached_kinematics(shape, mass, sign):
    """The cached FourMomentum arrays against the per-call formulas they replaced."""
    p, spatial, vec = shell_draw(shape, mass, sign)
    sq = np.sum(spatial**2, axis=-1)
    assert p.vec is p.vec
    return [(p.spatial_sq, sq), (p.p0, sign * np.sqrt(mass**2 + sq)), (p.vec, vec), (p.covec, vec @ sc.METRIC)]


def cached_momentum_matrix(shape, mass, sign, positions):
    """A cached momentum_matrix table, and its product, against the table derived on the spot."""
    p, _, vec = shell_draw(shape, mass, sign)
    table = derived_table(positions)
    mat = mom.momentum_matrix(p, positions)
    assert mat.dtype == np.complex128
    return [(mom._POSITION_TABLES[positions], table), (mat, (vec @ table).view(complex).reshape(shape + (2, 2)))]


def sampler_weights(mass, width):
    """The sampler's points and weights against the two-reduction formula."""
    s = mom.monte_carlo_sampler(mass, 1, 5000, width, seed=71)
    pts = np.random.default_rng(71).normal(scale=width, size=(5000, 3))
    log_rho = -np.sum(pts**2, axis=1) / (2 * width**2) - 1.5 * np.log(2 * np.pi * width**2)
    return [(s.points, pts), (s.weights, np.exp(-log_rho) / (2 * np.sqrt(mass**2 + np.sum(pts**2, axis=1))))]


def sampler_draw(width):
    """The sampler's points, bit pattern for bit pattern the scaled normal draw."""
    s = mom.monte_carlo_sampler(1.0, 1, 30000, width, seed=73)
    pts = np.random.default_rng(73).normal(scale=width, size=(30000, 3))
    return [(s.points.view(np.uint64), pts.view(np.uint64))]


def strided_vec():
    """vec of the strided spatial columns that act hands FourMomentum."""
    rows = np.random.default_rng(72).normal(size=(3, 5, 4))
    p = mom.on_shell(1.3, -1, rows[..., 1:])
    assert p.vec.flags.c_contiguous
    return [(p.vec, np.concatenate([np.asarray(p.p0)[..., None], rows[..., 1:]], -1))]


KINEMATICS = [(shape, mass, sign) for shape in [(), (7,), (2, 3), (3, 5)] for mass in [0.0, 1.3] for sign in [1, -1]]
ORACLES = {
    **{f"kinematics-{shape}-{mass}-{sign}": partial(cached_kinematics, shape, mass, sign)
       for shape, mass, sign in KINEMATICS},
    **{f"momentum_matrix-{shape}-{mass}-{sign}-{pos}": partial(cached_momentum_matrix, shape, mass, sign, pos)
       for shape, mass, sign in KINEMATICS for pos in ["uu", "ll", "ul", "lu"]},
    **{f"sampler_weights-{mass}-{width}": partial(sampler_weights, mass, width)
       for mass, width in [(0.0, 1.0), (1.3, 0.7), (0.4, 2.5)]},
    **{f"sampler_draw-{width}": partial(sampler_draw, width) for width in [0.7, 1.0, 1.3]},
    "strided_vec": strided_vec,
}


@pytest.mark.parametrize("oracle", list(ORACLES), ids=lambda key: key.replace(" ", ""))
def test_bit_for_bit_against_the_formula_it_replaced(oracle):
    for got, ref in ORACLES[oracle]():
        assert np.array_equal(got, ref)


def test_cached_arrays_read_only():
    p = mom.on_shell(1.3, 1, np.random.default_rng(70).normal(size=(7, 3)))
    for arr in (p.vec, p.spatial_sq, p.p0, p.spatial, *mom._POSITION_TABLES.values()):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2.0
    with pytest.raises(TypeError):
        mom._POSITION_TABLES["uu"] = np.zeros((4, 8))
    # the refused writes left momentum_matrix's tables as built
    assert_allclose(mom.momentum_matrix(mom.on_shell(1.0, 1, [0, 0, 0])), np.eye(2) / np.sqrt(2.0))


def stack_first(f):
    """A field's stack with its batch axes first."""
    return np.moveaxis(f.stack, range(2 * f.n), range(-2 * f.n, 0))


def built(p, d, n):
    return mbw.build_from_seed(d["seed"], p, n)


def amplitude_field(p, d, n):
    return ml.field_from_amplitude(d["amp"], p, n)


def potential(p, d):
    return mx.PotentialAtP(phi=1j * mx.transverse_polarization(p, d["v"]), p=p)


def branch_eigenvalue(p, d, n):
    """helicity's eigenvalue, which is fitted per index of the leading batch
    axis: a single branch goes in as a (1, k) batch."""
    if np.ndim(p.p0) == 2:
        return ml.helicity(amplitude_field(p, d, n))[1]
    p = mom.on_shell(0.0, p.sign, p.spatial[None])
    return ml.helicity(amplitude_field(p, {"amp": d["amp"][None]}, n))[1][0]


def one_seed(n):
    return mbw.symmetrize(np.arange(2**n).reshape((2,) * n) * (1 + 0.5j) + 0.3j, n)


def faraday(p, d):
    return mx.faraday_from_potential(potential(p, d))


# The einsum formulas that the products of em_spinor, em_spinor_from_potential,
# stress_form, potential_form, em_norm_integrand, pl_matrices, eta_canonical,
# dirac_residual, dirac_current, project_slot and trace_reverse_slot replaced:
# the oracles of EINSUM_ORACLES.
def einsum_em_spinor(far):
    sig_ll = np.einsum("qrxc,cb->qrxb", sc.sigma_generators().sigma_low, sc.EPS_LO)
    f_up = np.einsum("...qr,qc,rd->...cd", far.f, sc.METRIC, sc.METRIC)
    return 0.5j * np.einsum("...qr,qrab->...ab", f_up, sig_ll)


def einsum_em_spinor_from_potential(pot, ordering, terms=False):
    """phi_AB, or with ``terms`` the sum of its terms' sizes, which bounds
    its rounding as the Lorenz gauge cancels them."""
    p_ll = mom.momentum_matrix(pot.p, "ll")
    phi_mixed = sc.spinor_from_world(pot.phi @ sc.METRIC, 1) @ sc.EPS_UP.T
    spec = {"first": "...am,...bm->...ab", "second": "...bm,...am->...ab"}[ordering]
    if terms:
        return np.einsum(spec, np.abs(p_ll), np.abs(phi_mixed))
    return -1j * np.einsum(spec, p_ll, phi_mixed)


def einsum_stress_form(far):
    f, fbar = far.f, np.conj(far.f)
    f_up = np.einsum("...qr,qc,rd->...cd", f, sc.METRIC, sc.METRIC)
    scalar = np.einsum("...qr,...qr->...", fbar, f_up)
    cross = np.einsum("...ac,...bc->...ab", f, np.einsum("...bc,cd->...bd", fbar, sc.METRIC))
    return (0.5 * (0.25 * np.einsum("...,ab->...ab", scalar, sc.METRIC) - cross)).real


def einsum_potential_form(pot):
    phi_sq = mom.minkowski_dot(pot.phi, np.conj(pot.phi))
    return (-0.5 * np.einsum("...,...a,...b->...ab", phi_sq, pot.p.covec, pot.p.covec)).real


def einsum_em_norm_integrand(far, t1, t2, terms=False):
    """The integrand, or with ``terms`` the sum of its terms' sizes, which
    bounds its rounding as the sum cancels."""
    stress = einsum_stress_form(far)
    den = mom.minkowski_dot(t1, far.p.vec) * mom.minkowski_dot(t2, far.p.vec)
    if terms:
        stress, t1, t2, den = (np.abs(a) for a in (stress, t1, t2, den))
    return np.einsum("...ab,...a,...b->...", stress, t1, t2) / den


def einsum_pl_matrices(p):
    g = sc.build_ivdw()
    t1 = np.einsum("...xm,aym->...axy", mom.momentum_matrix(p, "ll"), g.up_w)
    t2 = np.einsum("axm,...ym->...axy", g.lo_w, mom.momentum_matrix(p, "uu"))
    return -0.5 * (t1 - t2)


def einsum_eta_canonical(p, n, shift):
    fr = p.frame
    return core.outer_power(np.conj(fr.omega + shift * np.einsum("AB,...B->...A", sc.EPS_UP, fr.pi)), n)


def einsum_dirac_residual(psi, p, mass):
    slash = np.einsum("...q,qab->...ab", p.vec, da.build_gammas().gamma)
    return np.max(np.abs(np.einsum("...ab,...b->...a", slash, psi) - mass * psi), axis=-1)


def einsum_dirac_current(psi):
    u, v = psi[..., :2], psi[..., 2:]
    pair = np.einsum("...i,...j->...ij", u, np.conj(u)) + np.einsum("...i,...j->...ij", np.conj(v), v)
    return (np.sqrt(2.0) * sc.world_from_spinor(pair, 1)).real


def einsum_slot_operator(T, p, n, reverse):
    """project_slot (reverse=False) and trace_reverse_slot on slot 0."""
    op = np.einsum("...a,...b->...ab", p.covec, p.vec) / p.mass**2
    op = 2.0 * op - np.eye(4) if reverse else op
    return mbw._apply_world_slot(T, op, 0, n)


def bispinor(p, d):
    return da.pack_bispinor(built(p, d, 1))


# name: (mass, spins, the call, its einsum oracle[, the scale of its
# rounding, each sample's largest entry if not given]), all as
# ``call(p, draws, n)``
EINSUM_ORACLES = {
    "em_spinor": (0.0, [1], lambda p, d, n: mx.em_spinor(faraday(p, d)),
                  lambda p, d, n: einsum_em_spinor(faraday(p, d))),
    **{f"em_spinor_from_potential-{o}": (
        0.0, [1], partial(lambda o, p, d, n: mx.em_spinor_from_potential(potential(p, d), o), o),
        partial(lambda o, p, d, n: einsum_em_spinor_from_potential(potential(p, d), o), o),
        partial(lambda o, p, d, n: einsum_em_spinor_from_potential(potential(p, d), o, terms=True), o))
       for o in ["first", "second"]},
    "stress_form": (0.0, [1], lambda p, d, n: mx.stress_form(faraday(p, d)),
                    lambda p, d, n: einsum_stress_form(faraday(p, d))),
    "potential_form": (0.0, [1], lambda p, d, n: mx.potential_form(potential(p, d)),
                       lambda p, d, n: einsum_potential_form(potential(p, d))),
    "em_norm_integrand": (0.0, [1], lambda p, d, n: mx.em_norm_integrand(faraday(p, d), d["t"], d["t2"]),
                          lambda p, d, n: einsum_em_norm_integrand(faraday(p, d), d["t"], d["t2"]),
                          lambda p, d, n: einsum_em_norm_integrand(faraday(p, d), d["t"], d["t2"], terms=True)),
    "pl_matrices": (0.0, [1], lambda p, d, n: ml.pl_matrices(p), lambda p, d, n: einsum_pl_matrices(p)),
    "eta_canonical": (0.0, [1, 2, 3], lambda p, d, n: ml.eta_canonical(p, n, gauge_shift=0.4 - 0.7j),
                      lambda p, d, n: einsum_eta_canonical(p, n, 0.4 - 0.7j)),
    "dirac_residual": (1.3, [1], lambda p, d, n: da.dirac_residual(bispinor(p, d), p, 1.3),
                       lambda p, d, n: einsum_dirac_residual(bispinor(p, d), p, 1.3)),
    "dirac_current": (1.3, [1], lambda p, d, n: da.dirac_current(bispinor(p, d)),
                      lambda p, d, n: einsum_dirac_current(bispinor(p, d))),
    "project_slot": (1.3, [1, 2], lambda p, d, n: mbw.project_slot(mbw.tensor_T(built(p, d, n)), p, 0, n),
                     lambda p, d, n: einsum_slot_operator(mbw.tensor_T(built(p, d, n)), p, n, False)),
    "trace_reverse_slot": (
        1.3, [1, 2], lambda p, d, n: mbw.trace_reverse_slot(mbw.tensor_T(built(p, d, n)), p, 0, n),
        lambda p, d, n: einsum_slot_operator(mbw.tensor_T(built(p, d, n)), p, n, True)),
}


def oracle_draws(batch, n):
    """Seeded draws for a call on a batch of momenta: one probe pair per
    branch of a (2, k) batch, one for the whole batch otherwise."""
    rng = np.random.default_rng(95 + n + len(batch))
    seed = rng.normal(size=batch + (2,) * n) + 1j * rng.normal(size=batch + (2,) * n)
    probes = (2, 1, 4) if len(batch) == 2 else (4,)
    return rng.normal(size=batch + (3,)), {
        "seed": mbw.symmetrize(seed, n), "v": rng.normal(size=batch + (4,)),
        "t": rng.normal(size=probes), "t2": rng.normal(size=probes)}


@pytest.mark.parametrize("name, n, batch", [
    (name, n, batch) for name, (_, spins, *_) in EINSUM_ORACLES.items() for n in spins
    for batch in [(), (7,), (2, 7)]])
def test_product_against_its_einsum(name, n, batch):
    mass, _, call, oracle, *terms = EINSUM_ORACLES[name]
    spatial, draws = oracle_draws(batch, n)
    p = mom.on_shell(mass, BOTH if len(batch) == 2 else 1, spatial)
    got, ref = np.asarray(call(p, draws, n)), np.asarray(oracle(p, draws, n))
    assert got.shape == ref.shape

    def per_sample(a):
        return np.max(np.abs(a).reshape(ref.shape[: len(batch)] + (-1,)), axis=-1)

    scale = per_sample(terms[0](p, draws, n) if terms else ref)
    assert np.all(per_sample(got - ref) <= 8 * np.finfo(float).eps * scale)


# Each primitive the registry runs on both branches at once, as (mass, spins,
# call): ``call(p, draws, n)`` gives a batch-first result, and on a (2, 50)
# batch with sign [[1], [-1]] its row i must be bit for bit the call on
# branch i alone.  The helicity eigenvalue is fitted per leading axis.  50
# is the registry's batch per branch; at some other sizes (1, 3, 1000) a
# BLAS product or a reduction picks a kernel by size or memory layout, and
# a few entries differ in their last bit.
BRANCH_PRIMITIVES = {
    "vec": (1.3, [1], lambda p, d, n: p.vec),
    "covec": (1.3, [1], lambda p, d, n: p.covec),
    **{f"momentum_matrix-{pos}": (0.0, [1], partial(lambda pos, p, d, n: mom.momentum_matrix(p, pos), pos))
       for pos in ["uu", "ll", "ul", "lu"]},
    "spin_frame": (0.0, [1], lambda p, d, n: np.concatenate([mom.spin_frame(p).pi, mom.spin_frame(p).omega], -1)),
    "build_from_seed": (1.3, [1, 2, 3, 4], lambda p, d, n: stack_first(built(p, d, n))),
    "tensor_T": (1.3, [1, 2, 3, 4], lambda p, d, n: mbw.tensor_T(built(p, d, n))),
    "scalar_N": (1.3, [1, 2, 3, 4], lambda p, d, n: mbw.scalar_N(built(p, d, n))),
    "seed_form": (1.3, [1, 2, 3, 4], lambda p, d, n: mbw.seed_form(one_seed(n), n)(p)),
    "residual_field_equations": (1.3, [1, 2, 3, 4], lambda p, d, n: core.residual_field_equations(built(p, d, n))),
    "probe_norm-massive": (1.3, [1, 2, 3], lambda p, d, n: mbw.norm_primed_integrand(built(p, d, n), [d["t"]] * n)),
    "field_from_amplitude": (0.0, [1, 2, 3, 4], lambda p, d, n: amplitude_field(p, d, n).psi),
    "field_from_potential": (0.0, [1, 2, 3, 4], lambda p, d, n: ml.field_from_potential(d["seed"], p, n).psi),
    "eta_canonical": (0.0, [1, 2, 3, 4], lambda p, d, n: ml.eta_canonical(p, n, gauge_shift=0.4 - 0.7j)),
    "potential_route_integrand": (
        0.0, [1, 2, 3, 4], lambda p, d, n: ml.potential_route_integrand(d["seed"], p, n)),
    "helicity-residual": (0.0, [1, 2, 3, 4], lambda p, d, n: ml.helicity(amplitude_field(p, d, n))[0]),
    "helicity-eigenvalue": (0.0, [1, 2, 3, 4], lambda p, d, n: branch_eigenvalue(p, d, n)),
    "probe_norm-massless": (0.0, [1, 2, 3], lambda p, d, n: ml.norm_primed_integrand(amplitude_field(p, d, n), [d["t"]] * n)),
    "dirac_residual": (1.3, [1], lambda p, d, n: da.dirac_residual(da.pack_bispinor(built(p, d, n)), p, 1.3)),
    "dirac_current": (1.3, [1], lambda p, d, n: da.dirac_current(da.pack_bispinor(built(p, d, n)))),
    "dirac_current_matrix_route": (
        1.3, [1], lambda p, d, n: da.dirac_current_matrix_route(da.pack_bispinor(built(p, d, n)))),
    "norm_bilinear_integrand": (
        1.3, [1], lambda p, d, n: da.norm_bilinear_integrand(da.pack_bispinor(built(p, d, n)), p, 1.3)),
    "em_spinor_from_potential": (0.0, [1], lambda p, d, n: mx.em_spinor_from_potential(potential(p, d))),
    "em_spinor_from_potential-second": (
        0.0, [1], lambda p, d, n: mx.em_spinor_from_potential(potential(p, d), "second")),
    "em_spinor": (0.0, [1], lambda p, d, n: mx.em_spinor(faraday(p, d))),
    "stress_form": (0.0, [1], lambda p, d, n: mx.stress_form(faraday(p, d))),
    "potential_form": (0.0, [1], lambda p, d, n: mx.potential_form(potential(p, d))),
    "em_norm_integrand": (0.0, [1], lambda p, d, n: mx.em_norm_integrand(faraday(p, d), d["t"], d["t"])),
    "pl_matrices": (0.0, [1], lambda p, d, n: ml.pl_matrices(p)),
    "project_slot": (1.3, [1, 2], lambda p, d, n: mbw.project_slot(mbw.tensor_T(built(p, d, n)), p, 0, n)),
    "trace_reverse_slot": (
        1.3, [1, 2], lambda p, d, n: mbw.trace_reverse_slot(mbw.tensor_T(built(p, d, n)), p, 0, n)),
    "tensor_T_em": (0.0, [1], lambda p, d, n: mx.tensor_T_em(mx.em_spinor_from_potential(potential(p, d)))),
}


@pytest.mark.parametrize("name, n, k", [
    *[(name, n, 50) for name, (_, spins, _) in BRANCH_PRIMITIVES.items() for n in spins],
    # bilinear_norm_equality's 1000 momenta per branch
    *[(name, 1, 1000) for name in ("build_from_seed", "seed_form", "norm_bilinear_integrand")]])
def test_both_branches_in_one_call_bit_for_bit(name, n, k):
    mass, _, call = BRANCH_PRIMITIVES[name]
    rng = np.random.default_rng(90 + n)
    seed = mbw.symmetrize(rng.normal(size=(2, k) + (2,) * n) + 1j * rng.normal(size=(2, k) + (2,) * n), n)
    draws = {"seed": seed, "amp": rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k)),
             "t": rng.normal(size=(2, 1, 4)), "v": rng.normal(size=(2, k, 4))}
    spatial = rng.normal(size=(2, k, 3))
    both = np.asarray(call(mom.on_shell(mass, BOTH, spatial), draws, n))
    for i, sign in enumerate((1, -1)):
        alone = np.asarray(call(mom.on_shell(mass, sign, spatial[i]), {key: a[i] for key, a in draws.items()}, n))
        assert both[i].shape == alone.shape
        assert np.ascontiguousarray(both[i]).tobytes() == np.ascontiguousarray(alone).tobytes()


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
            outer = fr.pi[..., :, None] * np.conj(fr.pi)[..., None, :]
            assert np.max(np.abs(sign * sc.world_from_spinor(outer, 1) - p.covec)) < 1e-10

    def test_deterministic_phase(self):
        p = mom.on_shell(0.0, 1, [0.3, -0.4, 0.2])
        a = mom.spin_frame(p)
        b = mom.spin_frame(p)
        assert_allclose(a.pi, b.pi)
        big = a.pi[np.argmax(np.abs(a.pi))]
        assert abs(big.imag) < 1e-14 and big.real > 0

    def test_momentum_keeps_its_frame(self, monkeypatch):
        p = mom.on_shell(0.0, -1, np.random.default_rng(5).normal(size=(7, 3)))
        calls = []
        spin_frame = mom.spin_frame
        monkeypatch.setattr(mom, "spin_frame", lambda q: calls.append(q) or spin_frame(q))
        fr = p.frame
        assert p.frame is fr and calls == [p]
        assert np.array_equal(fr.pi, spin_frame(p).pi) and np.array_equal(fr.omega, spin_frame(p).omega)
        for a in (fr.pi, fr.omega):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0
        with pytest.raises(ValueError, match="null"):
            mom.on_shell(1.0, 1, [0, 0, 1]).frame


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
        # a complex buffer sums |contrib - mean|^2 as complex numbers, in
        # another order than the reference's real sum
        wave = lambda p: np.exp(1j * p.spatial[:, 0]) * gauss(p)
        assert_allclose(mom.integrate(wave, sampler), one_shot_integrate(wave, sampler), rtol=1e-13)

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


class TestShellCubature:
    @pytest.mark.parametrize("k", [1, 2, 5, 30, 54])
    def test_gauss_legendre_matches_numpy(self, k):
        x, w = mom._gauss_legendre(k)
        ref_x, ref_w = np.polynomial.legendre.leggauss(k)
        assert np.max(np.abs(x - ref_x)) <= 1e-15 and np.max(np.abs(w - ref_w)) <= 1e-14

    @pytest.mark.parametrize("mass", [0.2, 1.0, 5.0])
    def test_gaussian_to_roundoff(self, mass):
        # integral dmu 2|p^0| exp(-|p|^2) = integral d^3p exp(-|p|^2) = pi^(3/2)
        sampler = mom.shell_cubature(mass, 1, 9.0)
        val, _ = mom.integrate(lambda p: 2 * np.abs(p.p0) * np.exp(-p.spatial_sq), sampler)
        assert abs(val.real - np.pi**1.5) <= 1e-13 * np.pi**1.5

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rows_on_the_shell_within_the_radius(self, sign):
        sampler = mom.shell_cubature(1.3, sign, 7.0)
        ref = mom.on_shell(1.3, sign, sampler.points)
        assert np.array_equal(sampler.rows[:, 0], ref.p0)
        assert np.all(ref.spatial_sq <= 49.0 * (1 + 1e-15))
        assert np.all(sampler.weights > 0) and (sampler.mass, sampler.sign) == (1.3, sign)

    def test_len_points_and_weights_as_a_sampler(self):
        # as test_sampler_and_integrate_as_the_worker_and_tracer_call_them
        # reads a Monte-Carlo sampler; integrate divides by the node count
        n = math.prod(mom.SHELL_NODES)
        sampler = mom.shell_cubature(1.0, 1, 5.0)
        assert len(sampler) == n
        points, weights = sampler.points, sampler.weights
        assert points.shape == (n, 3) and points.dtype == np.float64 and weights.shape == (n,)
        value, se = mom.integrate(lambda p: np.ones(len(p.p0)), sampler)
        assert isinstance(value, complex) and isinstance(se, float)
        assert abs(value.real - np.sum(weights) / n) <= 1e-15 * value.real
        # a last, partial block: dropping it moves the integral
        assert n % mom.INTEGRATE_BLOCK

    @pytest.mark.parametrize("mass, radius", [(0.0, 1.0), (1.0, 0.0), (1.0, -1.0), (-1.0, 1.0)])
    def test_degenerate_shell_rejected(self, mass, radius):
        with pytest.raises(ValueError):
            mom.shell_cubature(mass, 1, radius)
