"""Mutation matrix for the field core: each broken variant fails a registry check.

Every mutation is installed with monkeypatch, then each registry check named
beside it runs at 20000 samples and must fail; unmutated, the same checks
pass.  A check that cannot fail under its mutation guards nothing.
"""

import dataclasses
import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from bwfields import checks
from bwfields import dirac_algebra as da
from bwfields import massive_bw as mbw
from bwfields import maxwell as mx
from bwfields import momentum as mom
from bwfields import slot_core as core
from bwfields import spinor_core as sc
from bwfields import verify_cli as vc
from bwfields.checks import REGISTRY


def run_check(name, mass=1.0):
    config = vc.load_config(None)
    config["parameters"]["samples"] = 20000
    config["parameters"]["mass"] = mass
    config["checks"] = [{"name": name, "parameters": {}}]
    (result,) = vc.run_suite(config)
    return result


def patch_everywhere(monkeypatch, module, name, mutant):
    """Point every bwfields binding of module.name, imported ones too, at mutant."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("bwfields"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, mutant)


def drop_sqrt2(monkeypatch):
    # a factor -1/m in place of -sqrt2/m scales each 1-bit by 1/sqrt2; the
    # builder behind both build_from_seed and GaussianPacket is patched
    build = mbw._build_from_symmetric

    def mutant(seed, p, n, amp=1.0):
        stack = build(seed, p, n, amp).stack
        for k in range(n):
            stack = stack * np.array([1.0, 2.0**-0.5]).reshape((2,) + (1,) * (stack.ndim - 2 * k - 1))
        return mbw.BWFieldAtP(n=n, p=p, stack=stack)

    monkeypatch.setattr(mbw, "_build_from_symmetric", mutant)


def halved_seed_form(monkeypatch):
    # 2^(n-1) in place of 2^n, in the form the checks build once per packet
    seed_form = mbw.seed_form

    def mutant(seed, n):
        norm = seed_form(seed, n)
        return lambda p: norm(p) / 2

    monkeypatch.setattr(mbw, "seed_form", mutant)


def untransposed_slot_moments(monkeypatch):
    # E_k in place of E_k^T: the seed form of p^{AA'} rather than its transpose
    monkeypatch.setattr(mbw, "_SLOT_MOMENTS", np.conj(mbw._SLOT_MOMENTS))


def s_on_primed_slots(monkeypatch):
    transform, kernel = core.transform, core._kernel

    def mutant(gen, s):
        # transform builds its kernel when called: S on both halves of a slot
        with monkeypatch.context() as m:
            patch_everywhere(m, core, "_kernel", lambda maps, nb: kernel(maps[:1] * 2, nb))
            return transform(gen, s)

    patch_everywhere(monkeypatch, core, "transform", mutant)


def negated_exponent(monkeypatch):
    # exp(-M) in place of exp(M): random parameters are as likely as their
    # negatives, so only fixed elements can see it
    exp_rep = sc.exp_rep
    patch_everywhere(monkeypatch, sc, "exp_rep", lambda omega: exp_rep(-np.asarray(omega)))


def wrong_row(monkeypatch):
    def mutant(stack, kernel, k):
        later = (None,) * (stack.ndim - kernel.ndim - 2 * k + 1)
        head = (slice(None),) * (2 * k + 1)
        out = stack[head + (slice(0, 1),)] * kernel[(slice(None), slice(None), 0) + later]
        out += stack[head + (slice(1, 2),)] * kernel[(slice(None), slice(None), 0) + later]
        return out

    patch_everywhere(monkeypatch, core, "_contract_slot", mutant)


def transposed_probe_kernel(monkeypatch):
    contract = core.contract_probes

    def mutant(stack, kernels):
        return contract(stack, [np.swapaxes(kernel, 1, 2) for kernel in kernels])

    patch_everywhere(monkeypatch, core, "contract_probes", mutant)


def scalar_N_mutant(transpose_bit1=False, unprimed_only=False):
    def mutant(f):
        n = f.n
        p_uu = mom.momentum_matrix(f.p, "uu")
        bit1 = np.swapaxes(p_uu, -1, -2) if transpose_bit1 else p_uu
        q = f.stack
        kernel = core._kernel((np.swapaxes(p_uu, -1, -2), bit1), q.ndim - 2 * n)
        for k in range(n):
            q = core._contract_slot(q, kernel, k)
        prod = (q * np.conj(f.stack)).real
        if unprimed_only:
            return np.sum(prod[core._label_index((0,) * n)], axis=tuple(range(n)))
        return np.sum(prod, axis=tuple(range(2 * n)))

    return mutant


def transposed_bit1_kernel(monkeypatch):
    monkeypatch.setattr(mbw, "scalar_N", scalar_N_mutant(transpose_bit1=True))


def unprimed_label_only(monkeypatch):
    monkeypatch.setattr(mbw, "scalar_N", scalar_N_mutant(unprimed_only=True))


def screen_with_lambda(monkeypatch):
    # the image's envelope taken at Lambda p, not at Lambda^-1 p: the screen
    # keeps the nodes of the packet's mirror image and drops the image's own
    image_rule = checks._image_rule
    monkeypatch.setattr(checks, "_image_rule", lambda sampler, lam_inv, width: image_rule(
        sampler, lam_inv.inverse(), width))


def coarse_screen(monkeypatch):
    # nodes below 1e-3 of the envelope's largest value dropped from the stack route
    monkeypatch.setattr(checks, "_IMAGE_SCREEN", 1e-3)


def last_block_dropped(monkeypatch):
    # the integrand's values on a final partial block never reach the sum
    integrate = mom.integrate

    def mutant(f, sampler):
        def blockwise(p):
            vals = np.asarray(f(p))
            return np.zeros_like(vals) if len(vals) < mom.INTEGRATE_BLOCK else vals

        return integrate(blockwise, sampler)

    patch_everywhere(monkeypatch, mom, "integrate", mutant)


def rolled_faraday_momenta(monkeypatch):
    # each sample's F from its neighbour's momentum on the sample axis, the
    # last batch axis (a leading axis may run over the energy branches): a
    # batch of one cannot show it
    faraday = mx.faraday_from_potential

    def mutant(pot):
        covec = pot.p.covec
        if covec.ndim > 1:
            covec = np.roll(covec, 1, axis=-2)
        f = faraday(SimpleNamespace(p=SimpleNamespace(covec=covec), phi=pot.phi)).f
        return mx.FaradayAtP(f=f, p=pot.p)

    patch_everywhere(monkeypatch, mx, "faraday_from_potential", mutant)


def swapped_em_generators(monkeypatch):
    # sigma^{rq} in place of sigma^{qr} flips the sign of em_spinor, which
    # reads the generators from its (16, 4) table over (q, r) and (A, B)
    table = mx._SIGMA_TABLE.reshape(4, 4, 4)
    monkeypatch.setattr(mx, "_SIGMA_TABLE", np.swapaxes(table, 0, 1).reshape(16, 4))


def cached_table(monkeypatch, positions, table):
    # momentum_matrix reads every table from the one cache
    tables = dict(mom._POSITION_TABLES, **{positions: np.ascontiguousarray(table).view(float).reshape(4, 8)})
    monkeypatch.setattr(mom, "_POSITION_TABLES", tables)


def transposed_ul_table(monkeypatch):
    ul = mom._POSITION_TABLES["ul"].view(complex).reshape(4, 2, 2)
    cached_table(monkeypatch, "ul", np.swapaxes(ul, 1, 2))


def raising_eps_in_ll_table(monkeypatch):
    # EPS_UP contracted as in raising, eps^{A'B'} p_{AB'}, on the primed
    # index; EPS_UP on both sides would give the same table (it equals EPS_LO)
    cached_table(monkeypatch, "ll", sc.EPS_LO.T @ sc.build_ivdw().up @ sc.EPS_UP.T)


def unsigned_adjoint(monkeypatch):
    adjoint = da.dirac_adjoint

    def mutant(psi):
        adj = adjoint(psi)
        return np.concatenate([-adj[..., :2], adj[..., 2:]], axis=-1)

    monkeypatch.setattr(da, "dirac_adjoint", mutant)


def scaled_bilinear_integrand(monkeypatch):
    # 1 % high at every momentum: within three standard errors of a
    # Monte-Carlo comparison at 20000 samples (z = 2.5), not of a pointwise one
    integrand = da.norm_bilinear_integrand
    monkeypatch.setattr(da, "norm_bilinear_integrand", lambda psi, p, mass: 1.01 * integrand(psi, p, mass))


def tilted_bilinear_integrand(monkeypatch):
    # an odd 1e-3 tilt along p_x: its integral over a symmetric sampler moves
    # only by noise, so only the comparison at each momentum sees it
    integrand = da.norm_bilinear_integrand

    def mutant(psi, p, mass):
        tilt = 1.0 + 1e-3 * p.spatial[..., 0] / np.linalg.norm(p.spatial, axis=-1)
        return tilt * integrand(psi, p, mass)

    monkeypatch.setattr(da, "norm_bilinear_integrand", mutant)


def transposed_gammas_in_matrix_route(monkeypatch):
    # gamma_q^{ba} in place of gamma_q^{ab} where the route reads the table
    route, gammas = da.dirac_current_matrix_route, da.build_gammas()
    swapped = dataclasses.replace(gammas, gamma=np.swapaxes(gammas.gamma, 1, 2))

    def mutant(psi):
        with monkeypatch.context() as m:
            m.setattr(da, "build_gammas", lambda: swapped)
            return route(psi)

    monkeypatch.setattr(da, "dirac_current_matrix_route", mutant)


def transposed_s_in_lorentz_map(monkeypatch):
    # S^T kron conj(S)^T in place of S kron conj(S): the map reverses products
    to_lorentz = sc.sl2c_to_lorentz

    def mutant(s):
        return to_lorentz(sc.SL2CElement(np.swapaxes(s.matrix, -1, -2)))

    patch_everywhere(monkeypatch, sc, "sl2c_to_lorentz", mutant)


def negated_eps_up(monkeypatch):
    # raising with -eps^{AB}: lowering no longer undoes it
    monkeypatch.setattr(sc, "EPS_UP", -sc.EPS_UP)


def unnormalized_ivdw(monkeypatch):
    # g_a^{AA'} = sigma_a in place of sigma_a / sqrt2, and so for every table
    g = sc.build_ivdw()
    scaled = sc.IvdWSymbol(*(np.sqrt(2.0) * t for t in (g.up, g.lo, g.up_w, g.lo_w)))
    patch_everywhere(monkeypatch, sc, "build_ivdw", lambda: scaled)


def swapped_generator_pair(monkeypatch):
    # sigma^{ba} in place of sigma^{ab} in the g-sandwich generators
    sg = sc.sigma_generators()
    swapped = dataclasses.replace(sg, sigma=np.swapaxes(sg.sigma, 0, 1))
    patch_everywhere(monkeypatch, sc, "sigma_generators", lambda: swapped)


def negative_levi_civita(monkeypatch):
    # e^{0123} = -1; the gamma set and dual's mixed tensor are rebuilt on
    # every call so gamma5 and the dual see it
    e = sc.levi_civita4()
    patch_everywhere(monkeypatch, sc, "levi_civita4", lambda: -e)
    monkeypatch.setattr(da, "build_gammas", da.build_gammas.__wrapped__)
    monkeypatch.setattr(sc, "_e_mixed", sc._e_mixed.__wrapped__)


def gammas_without_sqrt2(monkeypatch):
    gs = da.build_gammas()
    monkeypatch.setattr(da, "build_gammas", lambda: dataclasses.replace(gs, gamma=gs.gamma / np.sqrt(2.0)))


def raised_world_index_in_tensor_T(monkeypatch):
    # g^a^{AA'} in place of g_a^{AA'}: T comes out with upper world indices
    g = sc.build_ivdw()
    monkeypatch.setattr(mbw, "build_ivdw", lambda: dataclasses.replace(g, up=g.up_w))


def flipped_frequency(monkeypatch):
    # the mode exp(i(p.x + p0 t)) in place of exp(i(p.x - p0 t))
    def mutant(f, x):
        return np.exp(1j * (f.p.spatial @ x[1:] + f.p.p0 * x[0])) * f.stack

    monkeypatch.setattr(core, "_mode_value", mutant)


def upper_momentum_in_em_spinor(monkeypatch):
    # p^{AA'} in place of p_{AA'} in phi_AB = -i p_{AA'} phi_B^{A'}
    matrix = mom.momentum_matrix
    monkeypatch.setattr(mx, "momentum_matrix", lambda p, positions="uu": matrix(p, "uu"))


MUTATIONS = {
    "sqrt2 dropped in build_from_seed": (
        drop_sqrt2,
        ["massive_field_equations", "seed_form_norm", "packet_norm_invariance", "bilinear_norm_equality"]),
    "2^(n-1) for 2^n in the seed form": (
        halved_seed_form, ["seed_form_norm", "packet_norm_invariance", "bilinear_norm_equality"]),
    "E_k for E_k^T in the seed form": (untransposed_slot_moments, ["seed_form_norm", "bilinear_norm_equality"]),
    "S on primed slots in transform": (s_on_primed_slots, ["scalar_lorentz_covariance", "packet_norm_invariance"]),
    "wrong row in the shared slot contraction": (
        wrong_row, ["massive_field_equations", "seed_form_norm", "massless_field_equations"]),
    "transposed kernel in the shared probe contraction": (
        transposed_probe_kernel, ["norm_equivalences", "maxwell_vs_massless_norm"]),
    "transposed bit-1 kernel in scalar_N": (transposed_bit1_kernel, ["norm_equivalences", "seed_form_norm"]),
    "scalar_N on the all-unprimed label only": (unprimed_label_only, ["norm_equivalences", "seed_form_norm"]),
    "integrate drops its last partial block": (
        last_block_dropped, ["amplitude_gaussian_norm", "packet_norm_invariance"]),
    "image screen built with Lambda in place of Lambda^-1": (screen_with_lambda, ["packet_norm_invariance"]),
    "image screen at 1e-3 of its maximum": (coarse_screen, ["packet_norm_invariance"]),
    "momenta rolled by one sample in faraday_from_potential": (
        rolled_faraday_momenta, ["three_way_tensor_equality", "energy_density"]),
    "generator pair swapped in em_spinor": (swapped_em_generators, ["three_way_tensor_equality"]),
    "cached ul table transposed": (
        transposed_ul_table, ["massive_field_equations", "norm_equivalences", "seed_form_norm"]),
    "cached ll table lowered with a raising eps": (
        raising_eps_in_ll_table,
        ["three_way_tensor_equality", "helicity_eigenequation", "eta_normalization",
         "amplitude_norm_identity", "fd_plane_wave_massless"]),
    "xibar block of dirac_adjoint without its minus sign": (
        unsigned_adjoint, ["bilinear_norm_equality", "current_tensor_correspondence"]),
    "bilinear integrand 1 % high": (scaled_bilinear_integrand, ["bilinear_norm_equality"]),
    "bilinear integrand tilted by 1e-3 p_x/|p|": (tilted_bilinear_integrand, ["bilinear_norm_equality"]),
    "gamma table transposed inside dirac_current_matrix_route": (
        transposed_gammas_in_matrix_route, ["bilinear_norm_equality", "current_tensor_correspondence"]),
    "exp(-M) for exp(M) in exp_rep": (negated_exponent, ["lorentz_homomorphism"]),
    "S transposed in the Kronecker product of sl2c_to_lorentz": (
        transposed_s_in_lorentz_map, ["lorentz_homomorphism", "scalar_lorentz_covariance"]),
    "EPS_UP negated": (negated_eps_up, ["epsilon_roundtrip"]),
    "g tables without 1/sqrt2": (
        unnormalized_ivdw,
        ["ivdw_symbol_relations", "useful_expressions", "world_spinor_roundtrip", "gamma_ivdw_correspondence"]),
    "generator index pair swapped in sigma_generators": (
        swapped_generator_pair, ["useful_expressions", "generator_two_routes"]),
    "e^{0123} = -1 in levi_civita4": (negative_levi_civita, ["generator_duality", "gamma5_block_form"]),
    "sqrt2 dropped from the gamma table": (
        gammas_without_sqrt2,
        ["clifford_relations", "dirac_bridge", "current_tensor_correspondence", "bilinear_norm_equality"]),
    "world index raised in the conversion table of tensor_T": (
        raised_world_index_in_tensor_T, ["trace_reversal_projection", "norm_equivalences"]),
    "frequency sign flipped in the plane-wave mode": (
        flipped_frequency, ["fd_plane_wave_massive", "fd_plane_wave_massless"]),
    "p^{AA'} for p_{AA'} in em_spinor_from_potential": (
        upper_momentum_in_em_spinor, ["em_spinor_symmetry", "three_way_tensor_equality"]),
}


@pytest.mark.parametrize("check", sorted({check for _, checks in MUTATIONS.values() for check in checks}))
def test_check_passes_unmutated(check):
    assert run_check(check).status == "pass"


# rows whose mutation makes every spin frame NaN by design, so numpy warns on
# the way to the failure; every other row must run free of RuntimeWarnings
NAN_BY_DESIGN = {("cached ll table lowered with a raising eps", check) for check in (
    "helicity_eigenequation", "eta_normalization", "amplitude_norm_identity", "fd_plane_wave_massless")}


@pytest.mark.parametrize("mutation, check", [
    pytest.param(mutation, check, marks=[pytest.mark.filterwarnings("ignore::RuntimeWarning")]
                 if (mutation, check) in NAN_BY_DESIGN else [])
    for mutation, (_, checks) in MUTATIONS.items() for check in checks])
def test_mutation_fails_its_check(mutation, check, monkeypatch):
    MUTATIONS[mutation][0](monkeypatch)
    result = run_check(check)
    assert result.status == "fail", f"{check} = {result.value} under: {mutation}"


# the checks whose residuals are divided by a scale that moves with the mass
SCALED = {"massive_field_equations", "dirac_bridge", "current_tensor_correspondence"}


@pytest.mark.parametrize("mass", [1e-2, 1e4])
@pytest.mark.parametrize("mutation, check", [
    (mutation, check) for mutation, (_, checks) in MUTATIONS.items() for check in checks if check in SCALED])
def test_mutation_fails_its_scaled_check_away_from_unit_mass(mutation, check, mass, monkeypatch):
    MUTATIONS[mutation][0](monkeypatch)
    result = run_check(check, mass)
    assert result.status == "fail", f"{check} = {result.value} at m = {mass} under: {mutation}"


@pytest.mark.parametrize("mass", [1e4, 1e8, 1e12, 1e16])
def test_transposed_gammas_fail_the_current_check_at_large_mass(mass, monkeypatch):
    # the check draws its momenta in units of m, so the bit-1 half of its
    # fields stays as large as the seed and a transposed table reads O(1)
    assert run_check("current_tensor_correspondence", mass).status == "pass"
    transposed_gammas_in_matrix_route(monkeypatch)
    result = run_check("current_tensor_correspondence", mass)
    assert result.status == "fail" and result.value > 1.0, f"{result.value} at m = {mass}"


def test_every_registered_check_has_a_mutation():
    covered = {check for _, checks in MUTATIONS.values() for check in checks}
    assert sorted(set(REGISTRY) - covered) == []


def test_untransposed_seed_form_is_a_reflection_seen_only_pointwise(monkeypatch):
    # E_k for E_k^T: p^{AA'} is Hermitian, so its transpose is its conjugate,
    # which is p^{AA'} at p^2 -> -p^2.  The Gaussian packets and the shell
    # cubature are invariant under that reflection (phi -> -phi), so the
    # integral of packet_norm_invariance keeps its value to rounding; the
    # comparisons at each momentum, the registry checks seed_form_norm and
    # bilinear_norm_equality (their row in MUTATIONS), are what see it.
    rng = np.random.default_rng(31)
    seed = mbw.symmetrize(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), 2)
    spatial = rng.normal(size=(50, 3))
    p, reflected = (mom.on_shell(1.0, 1, spatial * s) for s in ([1, 1, 1], [1, -1, 1]))
    built = mbw.scalar_N(mbw.build_from_seed(seed, p, 2))
    form = mbw.seed_form(seed, 2)
    untransposed_slot_moments(monkeypatch)
    mutant = mbw.seed_form(seed, 2)
    assert np.array_equal(mutant(p), form(reflected))
    assert np.max(np.abs(mutant(p) - built) / np.abs(built)) > 0.1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_fields_fail_the_massless_suite(monkeypatch, capsys):
    # under the ll-table mutation every spin frame is NaN: the massless suite
    # must report failures (exit 1), not pass them or raise
    raising_eps_in_ll_table(monkeypatch)
    assert vc.main(["massless", "--samples", "2000", "--format", "json"]) == 1
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)}
    for name in ("helicity_eigenequation", "eta_normalization", "amplitude_norm_identity"):
        assert rows[name]["status"] == "fail" and rows[name]["value"] == "nan"
    assert rows["fd_plane_wave_massless"]["value"] == "inf"
