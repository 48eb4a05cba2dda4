"""Static registry of named verification checks.

Each check body draws its randomness from a dedicated generator, measures
one family of identities and yields its residuals: scalars or arrays
already divided by their scale, or z-scores for quadrature statements.
A body that covers both energy branches runs them as one batch whose
leading axis is the branch, sign [[1], [-1]]: it draws the +1 branch's
numbers and then the -1 branch's, as a loop over the branches would, and
takes every scale and fit per branch, so its residuals are those of one
call per branch.
``Check.run`` alone reduces them to the worst violation, NaN if any is NaN.
The anchor string states the identity being verified, so a report doubles
as a coverage map of the identity inventory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import dirac_algebra as da
from . import massive_bw as mbw
from . import massless as ml
from . import maxwell as mx
from . import momentum as mom
from . import slot_core as core
from . import spinor_core as sc
from .slot_core import worst_of

__all__ = ["Check", "ConfigError", "REGISTRY", "MODULES", "default_parameters"]


class ConfigError(Exception):
    """Invalid configuration or usage; maps to exit code 2."""


@dataclass(frozen=True)
class Check:
    name: str
    module: str
    anchor: str
    kind: str  # "residual" | "zscore"
    tolerance: float
    residuals: Callable[[dict, np.random.Generator], Iterator[float | np.ndarray]]

    def run(self, params: dict, rng: np.random.Generator) -> float:
        """The largest residual the body yields, NaN if any of them is NaN."""
        maxima = [np.max(r) for r in self.residuals(params, rng)]
        if not maxima:
            raise ValueError(f"check {self.name} yielded no residuals")
        return worst_of(*maxima)


def default_parameters() -> dict:
    return {"spins": [1, 2, 3, 4], "mass": 1.0, "samples": 100000, "width": 1.0}


def _batch(batch):
    """A batch shape, given as a tuple or as one length."""
    return (batch,) if isinstance(batch, int) else tuple(batch)


def _sym_seed(re, im, n):
    seed = re + 1j * im
    return mbw.symmetrize(seed, n) if n > 1 else seed


def _rand_sym_seed(rng, n, batch=()):
    shape = _batch(batch) + (2,) * n
    return _sym_seed(rng.normal(size=shape), rng.normal(size=shape), n)


# ---------------------------------------------------------------------------
# both energy branches as one batch
# ---------------------------------------------------------------------------

_SIGNS = (1, -1)


def _branch_normals(rng, *shapes):
    """Normal draws of the given shapes for the branches +1 and -1, each
    stacked on a leading axis of 2: all of the +1 branch's draws in turn,
    then all of the -1 branch's, as a loop over the branches makes them."""
    draws = [[rng.normal(size=shape) for shape in shapes] for _ in _SIGNS]
    return [np.stack(pair) for pair in zip(*draws)]


def _on_branches(mass, spatial):
    """Momenta whose leading batch axis runs over the branches +1, -1."""
    return mom.on_shell(mass, np.reshape(_SIGNS, (2,) + (1,) * (spatial.ndim - 2)), spatial)


def _massive_shapes(n, batch):
    """Shapes of the draws of a massive field: its momenta, then the real and
    imaginary parts of its seed."""
    batch = _batch(batch)
    return batch + (3,), batch + (2,) * n, batch + (2,) * n


def _branch_massive(n, mass, spatial, re, im):
    """A massive field on both branches from branch-stacked draws of
    ``_massive_shapes``."""
    return mbw.build_from_seed(_sym_seed(re, im, n), _on_branches(mass, spatial), n)


def _rand_massive_branches(rng, n, mass, batch):
    """A random massive field of batch (2,) + batch: the +1 branch's momenta
    and seed, then the -1 branch's."""
    return _branch_massive(n, mass, *_branch_normals(rng, *_massive_shapes(n, batch)))


def _branch_max(a, ndim, axis=0):
    """Largest |entry| of each branch of ``a``, whose axis ``axis`` runs over
    the branches, shaped (2, 1, ...) to divide an array of ``ndim`` axes
    whose leading axis does."""
    top = np.max(np.abs(a), axis=tuple(i for i in range(a.ndim) if i != axis))
    return top.reshape((2,) + (1,) * (ndim - 1))


def _relative(value, ref):
    """|value - ref| / |ref|.  A reference that underflows to 0 or overflows,
    at the ends of the mass and width ranges, gives inf or NaN: a failure,
    without a warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(value - ref) / np.abs(ref)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _check_epsilon_roundtrip(params, rng):
    for rank in range(1, 5):
        arr = rng.normal(size=(2,) * rank) + 1j * rng.normal(size=(2,) * rank)
        k = int(rng.integers(rank))
        yield np.abs(sc._lower_axis(sc._raise_axis(arr, k), k) - arr)
    # contraction sign flip: psi^A phi_A = -psi_A phi^A, for psi lower and phi upper
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    yield abs(np.dot(sc._raise_axis(psi, 0), sc._lower_axis(phi, 0)) + np.dot(psi, phi))


def _check_ivdw_relations(params, rng):
    g = sc.build_ivdw()
    target = np.einsum("ab,xy->abxy", sc.METRIC, np.eye(2))
    iw1 = np.einsum("axm,bym->abxy", g.lo_w, g.up_w) + np.einsum("bxm,aym->abxy", g.lo_w, g.up_w)
    iw2 = np.einsum("axm,bxn->abmn", g.lo_w, g.up_w) + np.einsum("bxm,axn->abmn", g.lo_w, g.up_w)
    yield np.abs(iw1 - target)
    yield np.abs(iw2 - target)
    yield np.abs(g.up - np.swapaxes(g.up, 1, 2).conj())
    yield np.abs(np.einsum("aij,bij->ab", g.up, g.lo_w) - np.eye(4))


def _check_useful_expressions(params, rng):
    g = sc.build_ivdw()
    sg = sc.sigma_generators()
    target = np.einsum("ab,xy->abxy", sc.METRIC, np.eye(2))
    ue1 = np.einsum("axm,bym->abxy", g.lo_w, g.up_w) - 0.5 * target - 1j * sg.sigma
    ue2 = np.einsum("axm,bxn->abmn", g.lo_w, g.up_w) - 0.5 * target - 1j * sg.sigma_bar
    yield np.abs(ue1)
    yield np.abs(ue2)


def _check_generator_duality(params, rng):
    sg = sc.sigma_generators()
    yield np.abs(sc.dual(sg.sigma) + 1j * sg.sigma)
    yield np.abs(sc.dual(sg.sigma_bar) - 1j * sg.sigma_bar)


def _check_generator_routes(params, rng):
    sg = sc.sigma_generators()
    s_eps, sb_eps = sc._sigma_from_epsilon_form()
    yield np.abs(sg.sigma - s_eps)
    yield np.abs(sg.sigma_bar - sb_eps)


def _check_world_spinor_roundtrip(params, rng):
    for rank in (1, 2, 3):
        w = rng.normal(size=(4,) * rank)
        for upper in (False, True):
            s = sc.spinor_from_world(w, rank, upper=upper)
            yield np.abs(sc.world_from_spinor(s, rank, upper=upper) - w)
    v = rng.normal(size=4)
    vs = sc.spinor_from_world(v, 1, upper=True)
    yield abs(v @ sc.METRIC @ v - 2 * np.linalg.det(vs))


def _check_lorentz_homomorphism(params, rng):
    # 100 pairs in one batch; the draws are those of 100 pairs drawn in turn
    pairs = sc.random_sl2c(rng, size=(100, 2)).matrix
    s1, s2 = sc.SL2CElement(pairs[:, 0]), sc.SL2CElement(pairs[:, 1])
    lhs = (s1 @ s2).lorentz.matrix
    rhs = s1.lorentz.matrix @ s2.lorentz.matrix
    # fixed elements pin the sign of exp_rep, which random ones cannot see
    rot = np.zeros((4, 4))
    rot[1, 2], rot[2, 1] = 0.7, -0.7
    yield np.abs(lhs - rhs)
    yield np.abs(sc.boost_z(0.8).matrix - np.diag(np.exp([0.4, -0.4])))
    yield np.abs(sc.exp_rep(rot).matrix - np.diag(np.exp([0.35j, -0.35j])))


def _check_clifford(params, rng):
    gs = da.build_gammas()
    anti = np.einsum("qab,rbc->qrac", gs.gamma, gs.gamma) + np.einsum(
        "rab,qbc->qrac", gs.gamma, gs.gamma
    )
    target = 2 * np.einsum("qr,ac->qrac", sc.METRIC, np.eye(4))
    comm = np.einsum("qab,rbc->qrac", gs.gamma, gs.gamma) - np.einsum(
        "rab,qbc->qrac", gs.gamma, gs.gamma
    )
    yield np.abs(anti - target)
    yield np.abs(comm - 4j * gs.sigma)


def _check_gamma5(params, rng):
    gs = da.build_gammas()
    yield np.abs(gs.gamma5 - np.diag([-1.0, -1.0, 1.0, 1.0]))
    yield np.abs(gs.gamma5 @ gs.gamma5 - np.eye(4))
    yield np.abs(gs.gamma5 @ gs.gamma + gs.gamma @ gs.gamma5)


def _check_gamma_ivdw(params, rng):
    g = sc.build_ivdw()
    pauli = sc._PAULI
    sig_tilde = np.array([np.eye(2), -pauli[1], -pauli[2], -pauli[3]])
    yield np.abs(g.up - pauli / np.sqrt(2.0))
    yield np.abs(g.lo - np.transpose(sig_tilde, (0, 2, 1)) / np.sqrt(2.0))
    gs = da.build_gammas()
    sg = sc.sigma_generators()
    yield np.abs(gs.sigma[:, :, :2, :2] - sg.sigma_low)
    yield np.abs(gs.sigma[:, :, 2:, 2:] - sg.sigma_bar_low)


# ---------------------------------------------------------------------------
# massive suite
# ---------------------------------------------------------------------------


def _field_scale(f) -> np.ndarray:
    """max(1, max|psi| max|p^a|) of each branch of a field whose leading
    batch axis runs over the branches: the size of the terms p^A_{A'} psi of
    the first-order equations, and of (p-slash - m) psi."""
    nb = f.stack.ndim - 2 * f.n
    return np.fmax(1.0, _branch_max(f.stack, nb, 2 * f.n) * _branch_max(f.p.vec, nb))


def _check_massive_field_equations(params, rng):
    for n in params["spins"]:
        f = _rand_massive_branches(rng, n, params["mass"], 20)
        yield core.residual_field_equations(f) / _field_scale(f)


def _check_projection(params, rng):
    for n in params["spins"]:
        f = _rand_massive_branches(rng, n, params["mass"], 50)
        T = mbw.tensor_T(f)
        scale = _branch_max(T, T.ndim)
        for k in range(n):
            yield np.abs(T - mbw.project_slot(T, f.p, k, n)) / scale
            yield np.abs(T - mbw.trace_reverse_slot(T, f.p, k, n)) / scale
        full = mbw.norm_covariant_integrand(f)
        nfold = full[(...,) + (None,) * n] * core.outer_power(f.p.covec, n)
        yield np.abs(T - nfold) / scale


def _check_norm_equivalences(params, rng):
    for n in params["spins"]:
        # per branch, ten fields as a (1, 10) batch and ten probe sets as
        # (10, 1, 4) per slot: row i of the (10, 10) integrand is probe set
        # i; the draws are those of ten sets drawn in turn
        *fields, probes = _branch_normals(rng, *_massive_shapes(n, (1, 10)), (10, n, 4))
        f = _branch_massive(n, params["mass"], *fields)
        sign = f.p.sign
        std = mbw.norm_standard_integrand(f)
        cov = mbw.norm_covariant_integrand(f)
        scale = _branch_max(cov, 3)
        # five probe sets per call, so that no contraction is larger than
        # one branch's ten sets (at spin 6, 4^6 labels on each of 100 pairs)
        halves = (probes[:, :5], probes[:, 5:])
        pr = np.concatenate([mbw.norm_primed_integrand(f, [h[:, :, k, None] for k in range(n)]) for h in halves], 1)
        with np.errstate(invalid="ignore"):  # an overflowed cov gives inf / inf
            yield np.abs(pr - cov) / scale
        # each branch's first set through the world tensor, a route that
        # shares no code with the spinor-pair contraction
        world = mbw.tensor_T(f)
        first = probes[:, 0]
        for k in reversed(range(n)):
            world = (world @ first[:, k].reshape((2,) + (1,) * (world.ndim - 3) + (4, 1)))[..., 0]
        dots = [mom.minkowski_dot(first[:, k, None, None], f.p.vec) for k in range(n)]
        world = world / np.prod(dots, axis=0)
        yield np.abs(world - pr[:, :1]) / scale
        yield np.abs(pr[:, 1:] - pr[:, :1]) / scale
        tpm = np.zeros((2, 1, 1, 4))
        tpm[..., 0] = sign
        pr_t = mbw.norm_primed_integrand(f, [tpm] * n)
        std_scale = _branch_max(std, 3)
        yield np.abs(pr_t - sign**n * 2.0 ** (-n / 2.0) * std) / std_scale
        yield np.abs(std - sign**n * 2.0 ** (n / 2.0) * cov) / std_scale
        # a negative norm fails outright; cov is N / m^{2n} with m^{2n} > 0,
        # so it has N's sign, and a NaN compares False both ways
        yield float(np.any(sign**n * cov < 0))


def _check_scalar_covariance(params, rng):
    """Pointwise invariance of the full momentum contraction under the
    spinor action, at full parameter scale for spins 1 and 2."""
    for n in (1, 2):
        seed_sp = _rand_sym_seed(rng, n)

        def gen(p, seed_sp=seed_sp, n=n):
            return mbw.build_from_seed(seed_sp, p, n)

        q = mom.on_shell(params["mass"], 1, rng.normal(size=(20, 3)))
        # one batch of 100 elements: N and N' have shape (100, 20)
        s = sc.random_sl2c(rng, size=100)
        # transform reads the same kept image
        lam_inv = s.lorentz.inverse()
        n_tr = mbw.scalar_N(core.transform(gen, s)(q))
        n_ref = mbw.scalar_N(gen(mom.act(lam_inv, q)))
        yield _relative(n_tr, n_ref)


def _check_seed_form_norm(params, rng):
    """The seed form against scalar_N of the field built from the same seed,
    sample by sample; one seed and one form per spin, for both branches."""
    for n in params["spins"]:
        seed = _rand_sym_seed(rng, n)
        form = mbw.seed_form(seed, n)
        p = _on_branches(params["mass"], *_branch_normals(rng, (50, 3)))
        yield _relative(mbw.scalar_N(mbw.build_from_seed(seed, p, n)), form(p))


def _seed_form_norm(packet, sampler):
    """The packet's invariant norm as ``norm_covariant`` takes it, N(p) from one
    seed form: no stack, so no route shared with the field's slot contractions."""
    n, mass = packet.n, packet.mass
    pref = float(packet.sign) ** n * 2.0 ** (n / 2.0) / mass ** (2 * n)
    norm = mbw.seed_form(packet.seed_spinor, n)
    return pref * mom.integrate(lambda p: packet.amplitude(p) ** 2 * norm(p), sampler)[0].real


def _zscore(a, se_a, b, se_b):
    """|a - b| in units of the combined standard error.  With no error it is
    0.0 if the values agree within 1e-12 and inf otherwise; an infinite error,
    from an estimate that overflowed, gives NaN."""
    denom = float(np.hypot(se_a, se_b))
    if denom == 0.0:
        return 0.0 if abs(a - b) < 1e-12 else float("inf")
    return abs(a - b) / denom if denom < float("inf") else float("nan")


# The share of its largest value below which the image's envelope drops a
# node from the stack route of the packet check
_IMAGE_SCREEN = 1e-30


def _image_rule(sampler, lam_inv, width):
    """The nodes of ``sampler`` that the image, under Lambda, of a packet of
    the given width reaches: those where the envelope w_i a(Lambda^-1 p_i)^2
    is at least _IMAGE_SCREEN of its largest value.  The kept weights are
    scaled by kept / N, as ``integrate`` divides by the node count.  An
    envelope whose largest value is 0, inf or NaN keeps every node."""
    spatial = sampler.rows @ lam_inv.matrix[1:].T
    env = sampler.weights * np.exp(-mom._spatial_sq(spatial) / width**2)
    top = np.max(env)
    if not 0.0 < top < np.inf:
        return sampler
    keep = env >= _IMAGE_SCREEN * top
    weights = sampler.weights[keep] * (np.count_nonzero(keep) / len(sampler))
    return mom.HyperboloidSampler(sampler.rows[keep], weights, sampler.mass, sampler.sign)


def _check_packet_norm_invariance(params, rng):
    """The seed-form norm of the packet against the stack-route norm of its
    image under one generic element.  The seed form runs on the whole shell
    cubature; the stack route only on the nodes where the image's envelope
    is at least 1e-30 of its largest value (``_image_rule``).  The dropped
    nodes carry at most 1.5e-29 of the stack route's integral at m in
    {0.2, 1, 5} and w in {0.5, 1, 2} (seeds 1-3)."""
    mass, width = params["mass"], params["width"]
    packet = mbw.GaussianPacket(2, mass, 1, _rand_sym_seed(rng, 2), width)
    # complex and not diagonal, so S in place of conj S on a primed slot
    # moves the image's norm; its rapidity is 0.84
    omega = np.zeros((4, 4))
    omega[0, 3], omega[1, 2], omega[0, 1], omega[2, 3] = 0.8, 0.7, 0.3, -0.4
    element = sc.exp_rep(omega - omega.T)
    # the image sits at |p| = m sinh(eta) and is up to e^eta wider than the
    # packet; the rule reaches 9 of those widths past it
    lam = element.lorentz
    cosh = lam.matrix[0, 0]
    sinh = np.sqrt(cosh * cosh - 1.0)
    sampler = mom.shell_cubature(mass, 1, 9.0 * width * (cosh + sinh) + mass * sinh)
    v1 = _seed_form_norm(packet, sampler)
    # the full rule is freed before the stack route runs
    sampler = _image_rule(sampler, lam.inverse(), width)
    v2 = mbw.norm_covariant(core.transform(packet, element), sampler, 2, mass, 1)
    yield _relative(v2, v1)


def _fd_order(f, x):
    """|r(0.1) / r(0.05) - 4| for the plane-wave FD residual r(h), which is
    O(h^2); inf unless the momentum-space residual is negligible and
    r(0.05) is positive (a NaN field gives inf, not a pass or a crash)."""
    r1 = core.fd_spacetime_residual(f, x, 0.1)
    r2 = core.fd_spacetime_residual(f, x, 0.05)
    if not (core.residual_field_equations(f) <= 1e-12 and r2 > 0):
        return float("inf")
    return abs(r1 / r2 - 4.0)


def _check_fd_massive(params, rng):
    p = mom.on_shell(params["mass"], 1, rng.normal(size=3))
    f = mbw.build_from_seed(_rand_sym_seed(rng, 2), p, 2)
    yield _fd_order(f, rng.normal(size=4) * 0.3)


# ---------------------------------------------------------------------------
# massless suite
# ---------------------------------------------------------------------------


def _check_massless_field_equations(params, rng):
    for n in params["spins"]:
        seed = (50,) + (2,) * n
        sp, xi_re, xi_im, f_re, f_im = _branch_normals(rng, (50, 3), seed, seed, (50,), (50,))
        p = _on_branches(0.0, sp)
        xi = _sym_seed(xi_re, xi_im, n)
        for fld in (ml.field_from_potential(xi, p, n), ml.field_from_amplitude(f_re + 1j * f_im, p, n)):
            yield core.residual_field_equations(fld) / _field_scale(fld)


def _check_helicity(params, rng):
    for n in params["spins"]:
        sp, f_re, f_im = _branch_normals(rng, (50, 3), (50,), (50,))
        fld = ml.field_from_amplitude(f_re + 1j * f_im, _on_branches(0.0, sp), n)
        # the eigenvalue is fitted to each branch's 50 samples
        residual, eigenvalue = ml.helicity(fld)
        yield residual
        yield np.abs(eigenvalue - ml.HELICITY_SIGN * n / 2.0)


def _check_eta_normalization(params, rng):
    for n in params["spins"]:
        p = _on_branches(0.0, *_branch_normals(rng, (50, 3)))
        for shift in (0.0, 0.4 - 0.7j):
            eta = ml.eta_canonical(p, n, gauge_shift=shift)
            val = ml.potential_route_integrand(eta, p, n)
            yield np.abs(val - p.sign**n)


def _check_amplitude_identity(params, rng):
    for n in params["spins"]:
        sp, f_re, f_im, ts = _branch_normals(rng, (50, 3), (50,), (50,), (n, 4))
        p = _on_branches(0.0, sp)
        fv = f_re + 1j * f_im
        fld = ml.field_from_amplitude(fv, p, n)
        target = ml.amplitude_norm_integrand(fv)
        scale = _branch_max(target, 2)
        # one probe set per branch, (2, 1, 4) per slot
        pr = ml.norm_primed_integrand(fld, [ts[:, k, None] for k in range(n)])
        yield np.abs(p.sign**n * pr - target) / scale
        eta = ml.eta_canonical(p, n)
        xi = fv[(...,) + (None,) * n] * eta
        yield np.abs(ml.field_from_potential(xi, p, n).psi - fld.psi)
        yield np.abs(pr - ml.potential_route_integrand(xi, p, n)) / scale


def _check_amplitude_gaussian_norm(params, rng):
    width = params["width"]
    sampler = mom.monte_carlo_sampler(0.0, 1, params["samples"], width, seed=int(rng.integers(2**31)))

    def integrand(p):
        fv = np.exp(-p.spatial_sq / (2 * width**2))
        return ml.amplitude_norm_integrand(fv)

    val, se = mom.integrate(integrand, sampler)
    yield _zscore(val.real, se, np.pi * width**2, 0.0)


def _check_fd_massless(params, rng):
    p = mom.on_shell(0.0, 1, rng.normal(size=3))
    fld = ml.field_from_amplitude(np.asarray(1.0 + 0.5j), p, 2)
    yield _fd_order(fld, rng.normal(size=4) * 0.3)


# ---------------------------------------------------------------------------
# electromagnetic suite
# ---------------------------------------------------------------------------


def _sample_max(a, axes=(-2, -1)):
    """Largest |entry| of each sample of a batch of matrices."""
    return np.max(np.abs(a), axis=axes)


def _real_modes(spatial, v):
    """Real-F Lorenz-gauge potentials on null momenta from branch-stacked
    draws of their spatial parts and polarizations, shapes (2,) + batch +
    (3,) and (2,) + batch + (4,)."""
    p = _on_branches(0.0, spatial)
    return mx.PotentialAtP(phi=1j * mx.transverse_polarization(p, v), p=p)


def _check_em_spinor_symmetry(params, rng):
    sp, v_re, v_im = _branch_normals(rng, (10, 3), (10, 4), (10, 4))
    p = _on_branches(0.0, sp)
    pot = mx.PotentialAtP(phi=mx.transverse_polarization(p, v_re + 1j * v_im), p=p)
    phi1 = mx.em_spinor_from_potential(pot, "first")
    phi2 = mx.em_spinor_from_potential(pot, "second")
    gauge = mx.PotentialAtP(phi=(0.7 + 0.1j) * p.vec, p=p)
    yield np.abs(phi1 - phi2)
    yield np.abs(phi1 - np.swapaxes(phi1, -1, -2))
    yield np.abs(mx.em_spinor_from_potential(gauge))


def _check_three_way_tensor(params, rng):
    pot = _real_modes(*_branch_normals(rng, (25, 3), (25, 4)))
    far = mx.faraday_from_potential(pot)
    phi_ab = mx.em_spinor_from_potential(pot)
    t_spinor = mx.tensor_T_em(phi_ab)
    scale = np.maximum(_sample_max(t_spinor), 1e-30)
    phi_scale = np.maximum(_sample_max(phi_ab), 1e-30)
    yield _sample_max(t_spinor - mx.stress_form(far)) / scale
    yield _sample_max(t_spinor - mx.potential_form(pot)) / scale
    yield _sample_max(mx.em_spinor(far) - phi_ab) / phi_scale


def _check_energy_density(params, rng):
    pot = _real_modes(*_branch_normals(rng, (50, 3), (50, 4)))
    e_vec, b_vec = mx.eb_from_faraday(mx.faraday_from_potential(pot).f)
    t00 = mx.tensor_T_em(mx.em_spinor_from_potential(pot))[..., 0, 0]
    target = 0.25 * (np.sum(e_vec.real**2, -1) + np.sum(b_vec.real**2, -1))
    yield np.abs(t00 - target) / np.maximum(target, 1e-30)


def _check_maxwell_vs_massless_norm(params, rng):
    # per branch, 10 groups of 10 momenta, one probe pair per group; real
    # F: the field-tensor and spinor forms agree only on real fields
    sp, v, t1, t2 = _branch_normals(rng, (10, 10, 3), (10, 10, 4), (10, 1, 4), (10, 1, 4))
    pot = _real_modes(sp, v)
    v_em = mx.em_norm_integrand(mx.faraday_from_potential(pot), t1, t2)
    fld = ml.MasslessFieldAtP.from_psi(2, pot.p, mx.em_spinor_from_potential(pot))
    v_ml = ml.norm_primed_integrand(fld, [t1, t2])
    yield _sample_max(v_em - v_ml, -1) / _sample_max(v_ml, -1)


# ---------------------------------------------------------------------------
# spin-1/2 bridge suite
# ---------------------------------------------------------------------------


def _check_dirac_bridge(params, rng):
    f = _rand_massive_branches(rng, 1, params["mass"], 50)
    psi = da.pack_bispinor(f)
    scale = _field_scale(f)
    yield da.dirac_residual(psi, f.p, params["mass"]) / scale
    yield core.residual_field_equations(da.unpack_bispinor(psi, f.p)) / scale


def _check_current_tensor(params, rng):
    # momenta in units of m, so that the bit-1 half, (sqrt2/m) p psi, is as
    # large as the seed at any mass and a wrong gamma table shows
    mass = params["mass"]
    spatial, re, im = _branch_normals(rng, *_massive_shapes(1, 50))
    f = _branch_massive(1, mass, mass * spatial, re, im)
    psi = da.pack_bispinor(f)
    T = mbw.tensor_T(f)
    j_mat = da.dirac_current_matrix_route(psi)
    j_spin = da.dirac_current(psi)
    scale = np.fmax(1.0, _branch_max(j_spin, 3))
    yield np.abs(T - j_mat / np.sqrt(2.0)) / scale
    yield np.abs(j_spin - j_mat) / scale
    # a negative charge density fails outright
    yield float(np.any(j_spin[..., 0] < 0))


def _check_bilinear_norm(params, rng):
    """m^-2 p.current of a built spin-1/2 field against sign sqrt2 m^-2 times
    its seed form, sample by sample; one seed and one form, both branches."""
    mass = params["mass"]
    seed = _rand_sym_seed(rng, 1)
    form = mbw.seed_form(seed, 1)
    p = _on_branches(mass, *_branch_normals(rng, (1000, 3)))
    ref = p.sign * np.sqrt(2.0) * form(p) / mass**2
    psi = da.pack_bispinor(mbw.build_from_seed(seed, p, 1))
    yield _relative(da.norm_bilinear_integrand(psi, p, mass), ref)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

MODULES = ("identities", "massive", "massless", "maxwell", "dirac")

REGISTRY: dict[str, Check] = {}


def _register(name, module, anchor, kind, tolerance, residuals):
    if name in REGISTRY:
        raise ValueError(f"check {name} is registered twice")
    REGISTRY[name] = Check(name, module, anchor, kind, tolerance, residuals)


_register(
    "epsilon_roundtrip", "identities",
    "raise/lower round trip is the identity; psi^A phi_A = -psi_A phi^A",
    "residual", 1e-13, _check_epsilon_roundtrip,
)
_register(
    "ivdw_symbol_relations", "identities",
    "symmetric pair contractions g^a g^b + g^b g^a = g^ab eps, Hermiticity, completeness",
    "residual", 1e-13, _check_ivdw_relations,
)
_register(
    "useful_expressions", "identities",
    "g^a g^b = (1/2) g^ab eps + i sigma^ab, unprimed and primed",
    "residual", 1e-13, _check_useful_expressions,
)
_register(
    "generator_duality", "identities",
    "*sigma = -i sigma and *sigmabar = +i sigmabar with e^{0123} = +1",
    "residual", 1e-13, _check_generator_duality,
)
_register(
    "generator_two_routes", "identities",
    "antisymmetrized g sandwich equals the pure epsilon form of the generators",
    "residual", 1e-14, _check_generator_routes,
)
_register(
    "world_spinor_roundtrip", "identities",
    "index-pair conversion round trip; p.p = 2 det p^{AA'}",
    "residual", 1e-13, _check_world_spinor_roundtrip,
)
_register(
    "lorentz_homomorphism", "identities",
    "induced vector map is a group homomorphism on 100 random pairs; "
    "boost_z(0.8) = diag(e^0.4, e^-0.4), z-rotation by 0.7 = diag(e^0.35i, e^-0.35i)",
    "residual", 1e-10, _check_lorentz_homomorphism,
)
_register(
    "clifford_relations", "identities",
    "gamma_q gamma_r + gamma_r gamma_q = 2 g_qr; commutator = 4i sigma_qr",
    "residual", 1e-13, _check_clifford,
)
_register(
    "gamma5_block_form", "identities",
    "gamma5 = (i/4!) e^{abcd} gamma_a..gamma_d = diag(-1,-1,1,1); squares to 1",
    "residual", 1e-13, _check_gamma5,
)
_register(
    "gamma_ivdw_correspondence", "identities",
    "g tables equal sigma/sqrt2 and sigma-tilde/sqrt2; generator blocks match",
    "residual", 1e-13, _check_gamma_ivdw,
)
_register(
    "massive_field_equations", "massive",
    "constructed fields satisfy both first-order momentum-space equations (scale-relative)",
    "residual", 1e-12, _check_massive_field_equations,
)
_register(
    "trace_reversal_projection", "massive",
    "T = 2 m^-2 (p p - m^2/2 g) T slot-wise and T = m^-2n p..p (p..p.T)",
    "residual", 1e-10, _check_projection,
)
_register(
    "norm_equivalences", "massive",
    "probe-vector, component-sum and invariant norm integrands agree pointwise",
    "residual", 1e-10, _check_norm_equivalences,
)
_register(
    "scalar_lorentz_covariance", "massive",
    "N'(p) = N(Lambda^-1 p) pointwise for 100 random group elements",
    "residual", 1e-10, _check_scalar_covariance,
)
_register(
    "seed_form_norm", "massive",
    "scalar_N of a built field equals its seed form 2^n phibar (P^T)^(x)n phi, P = p^{AA'}, at 50 momenta",
    "residual", 1e-12, _check_seed_form_norm,
)
_register(
    "packet_norm_invariance", "massive",
    "seed-form norm 2^n phibar p..p phi of a Gaussian packet equals the stack norm of its image "
    "under a generic complex element (product Gauss rule on the mass shell)",
    "residual", 1e-10, _check_packet_norm_invariance,
)
_register(
    "fd_plane_wave_massive", "massive",
    "central-difference residual of the position-space equations is O(h^2)",
    "residual", 0.5, _check_fd_massive,
)
_register(
    "massless_field_equations", "massless",
    "p^{AA'} psi_{..A..} = 0 for potential- and amplitude-built fields (scale-relative)",
    "residual", 1e-12, _check_massless_field_equations,
)
_register(
    "helicity_eigenequation", "massless",
    "slot-summed spin vector has eigenvalue -(n/2) p^a on unprimed fields",
    "residual", 1e-10, _check_helicity,
)
_register(
    "eta_normalization", "massless",
    "p..p eta etabar = (+-1)^n, stable under the frame gauge shift",
    "residual", 1e-10, _check_eta_normalization,
)
_register(
    "amplitude_norm_identity", "massless",
    "(+-1)^n probe-norm integrand equals |f|^2; both field routes agree",
    "residual", 1e-10, _check_amplitude_identity,
)
_register(
    "amplitude_gaussian_norm", "massless",
    "Monte-Carlo amplitude norm matches the analytic Gaussian value pi w^2",
    "zscore", 3.0, _check_amplitude_gaussian_norm,
)
_register(
    "fd_plane_wave_massless", "massless",
    "central-difference residual of the massless equation is O(h^2)",
    "residual", 0.5, _check_fd_massless,
)
_register(
    "em_spinor_symmetry", "maxwell",
    "phi_AB = -i p phi is symmetric, ordering-independent, kills pure gauge",
    "residual", 1e-12, _check_em_spinor_symmetry,
)
_register(
    "three_way_tensor_equality", "maxwell",
    "spinor-squared, field-tensor and potential forms of T_ab agree (real F)",
    "residual", 1e-10, _check_three_way_tensor,
)
_register(
    "energy_density", "maxwell",
    "T_00 = (E^2 + B^2)/4 on 100 real transverse samples",
    "residual", 1e-12, _check_energy_density,
)
_register(
    "maxwell_vs_massless_norm", "maxwell",
    "electromagnetic probe norm equals the spin-1 (n=2) field norm pointwise",
    "residual", 1e-10, _check_maxwell_vs_massless_norm,
)
_register(
    "dirac_bridge", "dirac",
    "spin-1/2 pair packs into a bispinor solving p-slash psi = m psi, and back",
    "residual", 1e-12, _check_dirac_bridge,
)
_register(
    "current_tensor_correspondence", "dirac",
    "T_a = 2^-1/2 adjoint gamma_a psi; spinor and matrix currents agree; j0 > 0",
    "residual", 1e-12, _check_current_tensor,
)
_register(
    "bilinear_norm_equality", "dirac",
    "m^-2 p.current of a built spin-1/2 field equals sqrt2 m^-2 times its seed form (pointwise, both branches)",
    "residual", 1e-12, _check_bilinear_norm,
)
