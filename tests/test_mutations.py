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

from bwfields import dirac_algebra as da
from bwfields import massive_bw as mbw
from bwfields import maxwell as mx
from bwfields import momentum as mom
from bwfields import slot_core as core
from bwfields import spinor_core as sc
from bwfields import verify_cli as vc


def run_check(name):
    config = vc.load_config(None)
    config["parameters"]["samples"] = 20000
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


def halved_seed_norm(monkeypatch):
    # 2^(n-1) in place of 2^n
    seed_norm = mbw.seed_norm
    monkeypatch.setattr(mbw, "seed_norm", lambda seed, p, n: seed_norm(seed, p, n) / 2)


def s_on_primed_slots(monkeypatch):
    transform, kernel = mbw.transform, core._kernel

    def mutant(gen, s):
        # transform builds its kernel when called: S on both halves of a slot
        with monkeypatch.context() as m:
            patch_everywhere(m, core, "_kernel", lambda maps, nb: kernel(maps[:1] * 2, nb))
            return transform(gen, s)

    monkeypatch.setattr(mbw, "transform", mutant)


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
    # each sample's F from its neighbour's momentum: a batch of one cannot show it
    faraday = mx.faraday_from_potential

    def mutant(pot):
        covec = pot.p.covec
        if covec.ndim > 1:
            covec = np.roll(covec, 1, axis=0)
        f = faraday(SimpleNamespace(p=SimpleNamespace(covec=covec), phi=pot.phi)).f
        return mx.FaradayAtP(f=f, p=pot.p)

    patch_everywhere(monkeypatch, mx, "faraday_from_potential", mutant)


def swapped_em_generators(monkeypatch):
    # sigma_{rq} in place of sigma_{qr} flips the sign of em_spinor
    sg = mx.sigma_generators()
    swapped = dataclasses.replace(sg, sigma_low=np.swapaxes(sg.sigma_low, 0, 1))
    monkeypatch.setattr(mx, "sigma_generators", lambda: swapped)


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


MUTATIONS = {
    "sqrt2 dropped in build_from_seed": (
        drop_sqrt2, ["massive_field_equations", "packet_norm_invariance", "bilinear_norm_equality"]),
    "2^(n-1) for 2^n in seed_norm": (halved_seed_norm, ["packet_norm_invariance", "bilinear_norm_equality"]),
    "S on primed slots in transform": (s_on_primed_slots, ["scalar_lorentz_covariance"]),
    "wrong row in the shared slot contraction": (
        wrong_row, ["massive_field_equations", "massless_field_equations"]),
    "transposed kernel in the shared probe contraction": (
        transposed_probe_kernel, ["norm_equivalences", "maxwell_vs_massless_norm"]),
    "transposed bit-1 kernel in scalar_N": (transposed_bit1_kernel, ["norm_equivalences"]),
    "scalar_N on the all-unprimed label only": (unprimed_label_only, ["norm_equivalences"]),
    "integrate drops its last partial block": (last_block_dropped, ["amplitude_gaussian_norm"]),
    "momenta rolled by one sample in faraday_from_potential": (
        rolled_faraday_momenta, ["three_way_tensor_equality", "energy_density"]),
    "generator pair swapped in em_spinor": (swapped_em_generators, ["three_way_tensor_equality"]),
    "cached ul table transposed": (transposed_ul_table, ["massive_field_equations", "norm_equivalences"]),
    "cached ll table lowered with a raising eps": (
        raising_eps_in_ll_table,
        ["three_way_tensor_equality", "helicity_eigenequation", "eta_normalization",
         "amplitude_norm_identity", "fd_plane_wave_massless"]),
    "xibar block of dirac_adjoint without its minus sign": (
        unsigned_adjoint, ["bilinear_norm_equality", "current_tensor_correspondence"]),
    "gamma table transposed inside dirac_current_matrix_route": (
        transposed_gammas_in_matrix_route, ["bilinear_norm_equality", "current_tensor_correspondence"]),
    "S transposed in the Kronecker product of sl2c_to_lorentz": (
        transposed_s_in_lorentz_map, ["lorentz_homomorphism", "scalar_lorentz_covariance"]),
}


@pytest.mark.parametrize("check", sorted({check for _, checks in MUTATIONS.values() for check in checks}))
def test_check_passes_unmutated(check):
    assert run_check(check).status == "pass"


@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_mutation_fails_its_check(mutation, monkeypatch):
    install, checks = MUTATIONS[mutation]
    install(monkeypatch)
    for check in checks:
        result = run_check(check)
        assert result.status == "fail", f"{check} = {result.value} under: {mutation}"


def test_nan_fields_fail_the_massless_suite(monkeypatch, capsys):
    # under the ll-table mutation every spin frame is NaN: the massless suite
    # must report failures (exit 1), not pass them or raise
    raising_eps_in_ll_table(monkeypatch)
    assert vc.main(["massless", "--samples", "2000", "--format", "json"]) == 1
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)}
    for name in ("helicity_eigenequation", "eta_normalization", "amplitude_norm_identity"):
        assert rows[name]["status"] == "fail" and rows[name]["value"] == "nan"
    assert rows["fd_plane_wave_massless"]["value"] == "inf"
