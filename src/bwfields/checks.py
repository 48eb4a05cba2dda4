"""Static registry of named verification checks.

Each check draws its randomness from a dedicated generator, measures one
family of identities and returns the worst violation (a residual, or a
z-score for quadrature statements).  The anchor string states the identity
being verified, so a report doubles as a coverage map of the identity
inventory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dirac_algebra as da
from . import massive_bw as mbw
from . import massless as ml
from . import maxwell as mx
from . import momentum as mom
from . import spinor_core as sc

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
    run: Callable[[dict, np.random.Generator], float]


def default_parameters() -> dict:
    return {"spins": [1, 2, 3, 4], "mass": 1.0, "samples": 100000, "width": 1.0,
            "scheme": "monte-carlo"}


def _monte_carlo_sampler_from(params, mass, sign, seed):
    if params.get("scheme", "monte-carlo") != "monte-carlo":
        raise ConfigError("z-score checks need the monte-carlo sampling scheme")
    return mom.monte_carlo_sampler(mass, sign, params["samples"], params["width"], seed=seed)


def _pow_outer(vec: np.ndarray, n: int) -> np.ndarray:
    """n-fold outer product over a trailing axis: (..., 4) -> (..., 4)^n."""
    letters = "abcdef"[:n]
    subs = [f"...{letters[k]}" for k in range(n)]
    return np.einsum(",".join(subs) + f"->...{letters}", *(vec for _ in range(n)))


def _rand_sym_seed(rng, n, batch=None):
    shape = ((batch,) if batch else ()) + (2,) * n
    seed = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return mbw.symmetrize(seed, n) if n > 1 else seed


def _rand_massive(rng, n, mass, sign, batch):
    p = mom.on_shell(mass, sign, rng.normal(size=(batch, 3)))
    return mbw.build_from_seed(_rand_sym_seed(rng, n, batch), p, n)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _check_epsilon_roundtrip(params, rng):
    worst = 0.0
    for rank in range(1, 5):
        arr = rng.normal(size=(2,) * rank) + 1j * rng.normal(size=(2,) * rank)
        slots = tuple((bool(rng.integers(2)), False) for _ in range(rank))
        t = sc.SpinorTensor(arr, slots)
        k = int(rng.integers(rank))
        rt = t.raise_index(k).lower_index(k)
        worst = max(worst, float(np.max(np.abs(rt.array - arr))))
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi_up = sc.SpinorTensor(psi, ((False, False),)).raise_index(0).array
    phi_lo = sc.SpinorTensor(phi, ((False, True),)).lower_index(0).array
    # contraction sign flip: psi^A phi_A = -psi_A phi^A
    worst = max(worst, abs(np.dot(psi_up, phi_lo) + np.dot(psi, phi)))
    return worst


def _check_ivdw_relations(params, rng):
    g = sc.build_ivdw()
    target = np.einsum("ab,xy->abxy", sc.METRIC, np.eye(2))
    iw1 = np.einsum("axm,bym->abxy", g.lo_w, g.up_w) + np.einsum("bxm,aym->abxy", g.lo_w, g.up_w)
    iw2 = np.einsum("axm,bxn->abmn", g.lo_w, g.up_w) + np.einsum("bxm,axn->abmn", g.lo_w, g.up_w)
    herm = max(np.max(np.abs(g.up[a] - g.up[a].conj().T)) for a in range(4))
    comp = np.max(np.abs(np.einsum("aij,bij->ab", g.up, g.lo_w) - np.eye(4)))
    return float(max(np.max(np.abs(iw1 - target)), np.max(np.abs(iw2 - target)), herm, comp))


def _check_useful_expressions(params, rng):
    g = sc.build_ivdw()
    sg = sc.sigma_generators()
    target = np.einsum("ab,xy->abxy", sc.METRIC, np.eye(2))
    ue1 = np.einsum("axm,bym->abxy", g.lo_w, g.up_w) - 0.5 * target - 1j * sg.sigma
    ue2 = np.einsum("axm,bxn->abmn", g.lo_w, g.up_w) - 0.5 * target - 1j * sg.sigma_bar
    return float(max(np.max(np.abs(ue1)), np.max(np.abs(ue2))))


def _check_generator_duality(params, rng):
    sg = sc.sigma_generators()
    d1 = np.max(np.abs(sc.dual(sg.sigma) + 1j * sg.sigma))
    d2 = np.max(np.abs(sc.dual(sg.sigma_bar) - 1j * sg.sigma_bar))
    return float(max(d1, d2))


def _check_generator_routes(params, rng):
    sg = sc.sigma_generators()
    s_eps, sb_eps = sc._sigma_from_epsilon_form()
    return float(max(np.max(np.abs(sg.sigma - s_eps)), np.max(np.abs(sg.sigma_bar - sb_eps))))


def _check_world_spinor_roundtrip(params, rng):
    worst = 0.0
    for rank in (1, 2, 3):
        w = rng.normal(size=(4,) * rank)
        for upper in (False, True):
            s = sc.spinor_from_world(w, rank, upper=upper)
            worst = max(worst, float(np.max(np.abs(sc.world_from_spinor(s, rank, upper=upper) - w))))
    v = rng.normal(size=4)
    vs = sc.spinor_from_world(v, 1, upper=True)
    worst = max(worst, abs(v @ sc.METRIC @ v - 2 * np.linalg.det(vs)))
    return worst


def _check_lorentz_homomorphism(params, rng):
    worst = 0.0
    for _ in range(100):
        s1, s2 = sc.random_sl2c(rng), sc.random_sl2c(rng)
        lhs = sc.sl2c_to_lorentz(s1 @ s2).matrix
        rhs = sc.sl2c_to_lorentz(s1).matrix @ sc.sl2c_to_lorentz(s2).matrix
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _check_clifford(params, rng):
    gs = da.build_gammas()
    anti = np.einsum("qab,rbc->qrac", gs.gamma, gs.gamma) + np.einsum(
        "rab,qbc->qrac", gs.gamma, gs.gamma
    )
    target = 2 * np.einsum("qr,ac->qrac", sc.METRIC, np.eye(4))
    comm = np.einsum("qab,rbc->qrac", gs.gamma, gs.gamma) - np.einsum(
        "rab,qbc->qrac", gs.gamma, gs.gamma
    )
    return float(max(np.max(np.abs(anti - target)), np.max(np.abs(comm - 4j * gs.sigma))))


def _check_gamma5(params, rng):
    gs = da.build_gammas()
    block = np.diag([-1.0, -1.0, 1.0, 1.0])
    sq = np.max(np.abs(gs.gamma5 @ gs.gamma5 - np.eye(4)))
    anti = max(
        np.max(np.abs(gs.gamma5 @ gs.gamma[q] + gs.gamma[q] @ gs.gamma5)) for q in range(4)
    )
    return float(max(np.max(np.abs(gs.gamma5 - block)), sq, anti))


def _check_gamma_ivdw(params, rng):
    g = sc.build_ivdw()
    pauli = sc._PAULI
    sig_tilde = np.array([np.eye(2), -pauli[1], -pauli[2], -pauli[3]])
    d1 = np.max(np.abs(g.up - pauli / np.sqrt(2.0)))
    d2 = np.max(np.abs(g.lo - np.transpose(sig_tilde, (0, 2, 1)) / np.sqrt(2.0)))
    gs = da.build_gammas()
    slow, sblow = da._sigma_blocks_reference()
    d3 = np.max(np.abs(gs.sigma[:, :, :2, :2] - slow))
    d4 = np.max(np.abs(gs.sigma[:, :, 2:, 2:] - sblow))
    return float(max(d1, d2, d3, d4))


# ---------------------------------------------------------------------------
# massive suite
# ---------------------------------------------------------------------------


def _field_scale(f) -> float:
    return max(1.0, max(float(np.max(np.abs(a))) for a in f.components.values()))


def _check_massive_field_equations(params, rng):
    # residual relative to the largest component: random momentum tails can
    # push component magnitudes to ~1e3 where float64 costs the headroom
    worst = 0.0
    for n in params["spins"]:
        for sign in (1, -1):
            f = _rand_massive(rng, n, params["mass"], sign, 20)
            worst = max(worst, mbw.residual_field_equations(f) / _field_scale(f))
    return worst


def _check_projection(params, rng):
    worst = 0.0
    for n in params["spins"]:
        for sign in (1, -1):
            f = _rand_massive(rng, n, params["mass"], sign, params.get("fields", 50))
            T = mbw.tensor_T(f)
            scale = float(np.max(np.abs(T)))
            for k in range(n):
                worst = max(
                    worst,
                    float(np.max(np.abs(T - mbw.project_slot(T, f.p, k, n)))) / scale,
                    float(np.max(np.abs(T - mbw.trace_reverse_slot(T, f.p, k, n)))) / scale,
                )
            full = mbw.scalar_N(f) / f.p.mass ** (2 * n)
            nfold = full[(...,) + (None,) * n] * _pow_outer(f.p.covec, n)
            worst = max(worst, float(np.max(np.abs(T - nfold))) / scale)
    return worst


def _check_norm_equivalences(params, rng):
    worst = 0.0
    for n in params["spins"]:
        for sign in (1, -1):
            f = _rand_massive(rng, n, params["mass"], sign, 10)
            std = mbw.norm_standard_integrand(f)
            cov = mbw.norm_covariant_integrand(f)
            scale = float(np.max(np.abs(cov)))
            first = None
            for _ in range(10):
                ts = [rng.normal(size=4) for _ in range(n)]
                pr = mbw.norm_primed_integrand(f, ts)
                worst = max(worst, float(np.max(np.abs(pr - cov))) / scale)
                if first is None:
                    first = pr
                else:
                    worst = max(worst, float(np.max(np.abs(pr - first))) / scale)
            tpm = [np.array([float(sign), 0.0, 0.0, 0.0])] * n
            pr_t = mbw.norm_primed_integrand(f, tpm)
            worst = max(
                worst,
                float(np.max(np.abs(pr_t - sign**n * 2.0 ** (-n / 2.0) * std)))
                / float(np.max(np.abs(std))),
                float(np.max(np.abs(std - sign**n * 2.0 ** (n / 2.0) * cov)))
                / float(np.max(np.abs(std))),
            )
            if np.any(sign**n * mbw.scalar_N(f) < 0):
                worst = max(worst, 1.0)
    return worst


def _check_scalar_covariance(params, rng):
    """Pointwise invariance of the full momentum contraction under the
    spinor action, at full parameter scale for spins 1 and 2."""
    worst = 0.0
    for n in (1, 2):
        seed_sp = _rand_sym_seed(rng, n)

        def gen(p, seed_sp=seed_sp, n=n):
            shape = np.asarray(p.p0).shape
            return mbw.build_from_seed(np.broadcast_to(seed_sp, shape + (2,) * n), p, n)

        q = mom.on_shell(params["mass"], 1, rng.normal(size=(20, 3)))
        for _ in range(100):
            s = sc.random_sl2c(rng)
            lam_inv = sc.sl2c_to_lorentz(s).inverse()
            n_tr = mbw.scalar_N(mbw.transform(gen, s)(q))
            n_ref = mbw.scalar_N(gen(mom.act(lam_inv, q)))
            worst = max(worst, float(np.max(np.abs(n_tr - n_ref) / np.abs(n_ref))))
    return worst


def _check_packet_norm_invariance(params, rng):
    n = 2
    seed_sp = _rand_sym_seed(rng, n)
    packet = mbw.GaussianPacket(n, params["mass"], 1, seed_sp, params["width"])
    sampler = _monte_carlo_sampler_from(params, params["mass"], 1, int(rng.integers(2**31)))
    v1, se1 = mbw.norm_covariant(packet, sampler, n, params["mass"], 1)
    boosted = mbw.transform(packet, sc.boost_z(0.8))
    v2, se2 = mbw.norm_covariant(boosted, sampler, n, params["mass"], 1)
    return abs(v2 - v1) / float(np.hypot(se1, se2))


def _check_fd_massive(params, rng):
    f = mbw.random_field(rng, 2, params["mass"], 1)
    x = rng.normal(size=4) * 0.3
    r1 = mbw.fd_spacetime_residual(f, x, 0.1)
    r2 = mbw.fd_spacetime_residual(f, x, 0.05)
    exact = mbw.fd_spacetime_residual(f, x, 0.1, exact=True)
    if exact > 1e-12:
        return float("inf")
    return abs(r1 / r2 - 4.0)


# ---------------------------------------------------------------------------
# massless suite
# ---------------------------------------------------------------------------


MASSLESS_SPIN_CAP = 3


def _massless_spins(params):
    """The requested spins the massless checks run; spins above the cap are skipped."""
    spins = [n for n in params["spins"] if n <= MASSLESS_SPIN_CAP]
    if not spins:
        raise ConfigError(
            f"massless checks need a spin index in 1..{MASSLESS_SPIN_CAP}, got {params['spins']}"
        )
    return spins


def _check_massless_field_equations(params, rng):
    worst = 0.0
    for n in _massless_spins(params):
        for sign in (1, -1):
            p = mom.on_shell(0.0, sign, rng.normal(size=(50, 3)))
            xi = ml.HertzPotentialAtP(n=n, xi=_rand_sym_seed(rng, n, 50))
            fld = ml.field_from_potential(xi, p)
            scale = max(1.0, float(np.max(np.abs(fld.psi))) * float(np.max(np.abs(p.vec))))
            worst = max(worst, ml.massless_equation_residual(fld) / scale)
            fv = rng.normal(size=50) + 1j * rng.normal(size=50)
            fld2 = ml.field_from_amplitude(fv, p, n)
            scale2 = max(1.0, float(np.max(np.abs(fld2.psi))) * float(np.max(np.abs(p.vec))))
            worst = max(worst, ml.massless_equation_residual(fld2) / scale2)
    return worst


def _check_helicity(params, rng):
    worst = 0.0
    for n in _massless_spins(params):
        for sign in (1, -1):
            p = mom.on_shell(0.0, sign, rng.normal(size=(50, 3)))
            fv = rng.normal(size=50) + 1j * rng.normal(size=50)
            fld = ml.field_from_amplitude(fv, p, n)
            worst = max(worst, ml.helicity_residual(fld))
            worst = max(worst, abs(ml.helicity_eigenvalue(fld) - ml.HELICITY_SIGN * n / 2.0))
    return worst


def _check_eta_normalization(params, rng):
    worst = 0.0
    for n in _massless_spins(params):
        for sign in (1, -1):
            p = mom.on_shell(0.0, sign, rng.normal(size=(50, 3)))
            for shift in (0.0, 0.4 - 0.7j):
                eta = ml.eta_canonical(p, n, gauge_shift=shift)
                val = ml.potential_route_integrand(ml.HertzPotentialAtP(n=n, xi=eta), p)
                worst = max(worst, float(np.max(np.abs(val - sign**n))))
    return worst


def _check_amplitude_identity(params, rng):
    worst = 0.0
    for n in _massless_spins(params):
        for sign in (1, -1):
            p = mom.on_shell(0.0, sign, rng.normal(size=(50, 3)))
            fv = rng.normal(size=50) + 1j * rng.normal(size=50)
            fld = ml.field_from_amplitude(fv, p, n)
            target = ml.amplitude_norm_integrand(fv)
            scale = float(np.max(target))
            ts = [rng.normal(size=4) for _ in range(n)]
            pr = ml.norm_primed_integrand(fld, ts)
            worst = max(worst, float(np.max(np.abs(sign**n * pr - target))) / scale)
            eta = ml.eta_canonical(p, n)
            xi = ml.HertzPotentialAtP(n=n, xi=fv[(...,) + (None,) * n] * eta)
            fld_pot = ml.field_from_potential(xi, p)
            worst = max(worst, float(np.max(np.abs(fld_pot.psi - fld.psi))))
            u_route = ml.potential_route_integrand(xi, p)
            worst = max(worst, float(np.max(np.abs(pr - u_route))) / scale)
    return worst


def _check_amplitude_gaussian_norm(params, rng):
    width = params["width"]
    sampler = _monte_carlo_sampler_from(params, 0.0, 1, int(rng.integers(2**31)))

    def integrand(p):
        fv = np.exp(-np.sum(p.spatial**2, axis=-1) / (2 * width**2))
        return ml.amplitude_norm_integrand(fv)

    val, se = mom.integrate(integrand, sampler)
    analytic = np.pi * width**2
    return abs(val.real - analytic) / se


def _check_fd_massless(params, rng):
    p = mom.on_shell(0.0, 1, rng.normal(size=3))
    fld = ml.field_from_amplitude(np.asarray(1.0 + 0.5j), p, 2)
    x = rng.normal(size=4) * 0.3
    r1 = ml.fd_spacetime_residual_massless(fld, x, 0.1)
    r2 = ml.fd_spacetime_residual_massless(fld, x, 0.05)
    exact = ml.fd_spacetime_residual_massless(fld, x, 0.1, exact=True)
    if exact > 1e-12:
        return float("inf")
    return abs(r1 / r2 - 4.0)


# ---------------------------------------------------------------------------
# electromagnetic suite
# ---------------------------------------------------------------------------


def _check_em_spinor_symmetry(params, rng):
    worst = 0.0
    for _ in range(20):
        p = mom.on_shell(0.0, int(rng.choice([1, -1])), rng.normal(size=3))
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v[0] -= mom.minkowski_dot(p.vec, v) / p.p0
        pot = mx.PotentialAtP(phi=v, p=p)
        phi1 = mx.em_spinor_from_potential(pot, "first")
        phi2 = mx.em_spinor_from_potential(pot, "second")
        worst = max(worst, float(np.max(np.abs(phi1 - phi2))))
        worst = max(worst, float(np.max(np.abs(phi1 - np.swapaxes(phi1, -1, -2)))))
        gauge = mx.PotentialAtP(phi=(0.7 + 0.1j) * p.vec, p=p)
        worst = max(worst, float(np.max(np.abs(mx.em_spinor_from_potential(gauge)))))
    return worst


def _check_three_way_tensor(params, rng):
    worst = 0.0
    for _ in range(50):
        p = mom.on_shell(0.0, int(rng.choice([1, -1])), rng.normal(size=3))
        psi_vec = mx.random_transverse_polarization(rng, p)
        pot = mx.PotentialAtP(phi=1j * psi_vec, p=p)
        far = mx.faraday_from_potential(pot)
        phi_ab = mx.em_spinor_from_potential(pot)
        t_spinor = mx.tensor_T_em(phi_ab)
        t_stress = mx.stress_form(far)
        t_pot = mx.potential_form(pot)
        scale = max(float(np.max(np.abs(t_spinor))), 1e-30)
        worst = max(
            worst,
            float(np.max(np.abs(t_spinor - t_stress))) / scale,
            float(np.max(np.abs(t_spinor - t_pot))) / scale,
        )
        worst = max(
            worst,
            float(np.max(np.abs(mx.em_spinor(far) - phi_ab)))
            / max(float(np.max(np.abs(phi_ab))), 1e-30),
        )
    return worst


def _check_energy_density(params, rng):
    worst = 0.0
    for _ in range(100):
        p = mom.on_shell(0.0, int(rng.choice([1, -1])), rng.normal(size=3))
        psi_vec = mx.random_transverse_polarization(rng, p)
        pot = mx.PotentialAtP(phi=1j * psi_vec, p=p)
        far = mx.faraday_from_potential(pot)
        e_vec, b_vec = mx.eb_from_faraday(far.f)
        t00 = mx.tensor_T_em(mx.em_spinor_from_potential(pot))[..., 0, 0]
        target = 0.25 * (np.sum(e_vec.real**2, -1) + np.sum(b_vec.real**2, -1))
        worst = max(worst, float(np.abs(t00 - target)) / max(float(target), 1e-30))
    return worst


def _check_maxwell_vs_massless_norm(params, rng):
    worst = 0.0
    for _ in range(20):
        p = mom.on_shell(0.0, int(rng.choice([1, -1])), rng.normal(size=(10, 3)))
        v = rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))
        v[..., 0] -= mom.minkowski_dot(p.vec, v) / p.p0
        pot = mx.PotentialAtP(phi=v, p=p)
        phi_ab = mx.em_spinor_from_potential(pot)
        t1, t2 = rng.normal(size=4), rng.normal(size=4)
        v_em = mx.em_norm_integrand(phi_ab, p, t1, t2)
        fld = ml.MasslessFieldAtP(n=2, p=p, psi=phi_ab)
        v_ml = ml.norm_primed_integrand(fld, [t1, t2])
        worst = max(worst, float(np.max(np.abs(v_em - v_ml)) / np.max(np.abs(v_ml))))
    return worst


# ---------------------------------------------------------------------------
# spin-1/2 bridge suite
# ---------------------------------------------------------------------------


def _check_dirac_bridge(params, rng):
    worst = 0.0
    for sign in (1, -1):
        f = _rand_massive(rng, 1, params["mass"], sign, 50)
        psi = da.pack_bispinor(f)
        worst = max(worst, da.dirac_residual(psi, f.p, params["mass"]))
        back = da.unpack_bispinor(psi, f.p)
        worst = max(worst, mbw.residual_field_equations(back))
    return worst


def _check_current_tensor(params, rng):
    worst = 0.0
    for sign in (1, -1):
        f = _rand_massive(rng, 1, params["mass"], sign, 50)
        psi = da.pack_bispinor(f)
        T = mbw.tensor_T(f)
        j_mat = da.dirac_current_matrix_route(psi)
        j_spin = da.dirac_current(psi)
        worst = max(worst, float(np.max(np.abs(T - j_mat / np.sqrt(2.0)))))
        worst = max(worst, float(np.max(np.abs(j_spin - j_mat))))
        if np.any(j_spin[..., 0] < 0):
            worst = max(worst, 1.0)
    return worst


def _check_bilinear_norm(params, rng):
    n = 1
    seed_sp = _rand_sym_seed(rng, n)
    packet = mbw.GaussianPacket(n, params["mass"], 1, seed_sp, params["width"])
    sampler = _monte_carlo_sampler_from(params, params["mass"], 1, int(rng.integers(2**31)))
    v_cov, se_cov = mbw.norm_covariant(packet, sampler, n, params["mass"], 1)

    def integrand(p):
        psi = da.pack_bispinor(packet(p))
        return da.norm_bilinear_integrand(psi, p, params["mass"])

    val, se = mom.integrate(integrand, sampler)
    denom = float(np.hypot(se_cov, se))
    if denom == 0.0:
        return 0.0 if abs(val.real - v_cov) < 1e-12 else float("inf")
    return abs(val.real - v_cov) / denom


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

MODULES = ("identities", "massive", "massless", "maxwell", "dirac")

REGISTRY: dict[str, Check] = {}


def _register(name, module, anchor, kind, tolerance, run):
    REGISTRY[name] = Check(name, module, anchor, kind, tolerance, run)


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
    "induced vector map is a group homomorphism on 100 random pairs",
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
    "packet_norm_invariance", "massive",
    "invariant norm of a Gaussian packet unchanged by a boost (Monte Carlo)",
    "zscore", 3.0, _check_packet_norm_invariance,
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
    "m^-2 p.current norm equals the invariant norm for spin-1/2 packets",
    "zscore", 3.0, _check_bilinear_norm,
)
