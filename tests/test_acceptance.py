"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; any assertion failure marks the criterion as failed.
"""

import time

import numpy as np

from bwfields import dirac_algebra as da
from bwfields import massive_bw as mbw
from bwfields import massless as ml
from bwfields import maxwell as mx
from bwfields import momentum as mom
from bwfields import spinor_core as sc
from bwfields import verify_cli as vc
from bwfields.checks import _rand_sym_seed


def _report(num, text):
    print(f"PASS criterion {num}: {text}", flush=True)


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    g = sc.build_ivdw()
    sg = sc.sigma_generators()
    gs = da.build_gammas()
    tol = 1e-13

    target = np.einsum("ab,xy->abxy", sc.METRIC, np.eye(2))
    iw1 = np.einsum("axm,bym->abxy", g.lo_w, g.up_w) + np.einsum("bxm,aym->abxy", g.lo_w, g.up_w)
    iw2 = np.einsum("axm,bxn->abmn", g.lo_w, g.up_w) + np.einsum("bxm,axn->abmn", g.lo_w, g.up_w)
    assert np.max(np.abs(iw1 - target)) < tol
    assert np.max(np.abs(iw2 - target)) < tol

    ue1 = np.einsum("axm,bym->abxy", g.lo_w, g.up_w) - 0.5 * target - 1j * sg.sigma
    ue2 = np.einsum("axm,bxn->abmn", g.lo_w, g.up_w) - 0.5 * target - 1j * sg.sigma_bar
    assert np.max(np.abs(ue1)) < tol and np.max(np.abs(ue2)) < tol

    assert np.max(np.abs(sc.dual(sg.sigma) + 1j * sg.sigma)) < tol
    assert np.max(np.abs(sc.dual(sg.sigma_bar) - 1j * sg.sigma_bar)) < tol

    anti = np.einsum("qab,rbc->qrac", gs.gamma, gs.gamma) + np.einsum(
        "rab,qbc->qrac", gs.gamma, gs.gamma
    )
    comm = np.einsum("qab,rbc->qrac", gs.gamma, gs.gamma) - np.einsum(
        "rab,qbc->qrac", gs.gamma, gs.gamma
    )
    assert np.max(np.abs(anti - 2 * np.einsum("qr,ac->qrac", sc.METRIC, np.eye(4)))) < tol
    assert np.max(np.abs(comm - 4j * gs.sigma)) < tol
    assert np.max(np.abs(gs.gamma5 - np.diag([-1.0, -1.0, 1.0, 1.0]))) < tol

    pauli = sc._PAULI
    tilde = np.array([np.eye(2), -pauli[1], -pauli[2], -pauli[3]])
    assert np.max(np.abs(g.up - pauli / np.sqrt(2.0))) < tol
    assert np.max(np.abs(g.lo - np.transpose(tilde, (0, 2, 1)) / np.sqrt(2.0))) < tol

    # 100 random inputs through the epsilon and conversion machinery
    for _ in range(100):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        t = sc.SpinorTensor(psi, ((False, False),))
        assert np.max(np.abs(t.raise_index(0).lower_index(0).array - psi)) < tol
        v = rng.normal(size=4)
        vs = sc.spinor_from_world(v, 1, upper=True)
        assert abs(v @ sc.METRIC @ v - 2 * np.linalg.det(vs)) < tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"identity suite entrywise < 1e-13 ({elapsed:.2f}s)")


def test_criterion_2_trace_reversal_projection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    for n in (1, 2, 3, 4):
        for sign in (1, -1):
            p = mom.on_shell(1.0, sign, rng.normal(size=(50, 3)))
            f = mbw.build_from_seed(_rand_sym_seed(rng, n, 50), p, n)
            T = mbw.tensor_T(f)
            scale = float(np.max(np.abs(T)))
            for k in range(n):
                assert np.max(np.abs(T - mbw.trace_reverse_slot(T, f.p, k, n))) < 1e-10 * scale
                assert np.max(np.abs(T - mbw.project_slot(T, f.p, k, n))) < 1e-10 * scale
            letters = "abcd"[:n]
            outer = np.einsum(
                ",".join(f"...{c}" for c in letters) + f"->...{letters}",
                *(f.p.covec for _ in range(n)),
            )
            nfold = (mbw.scalar_N(f) / f.p.mass ** (2 * n))[(...,) + (None,) * n] * outer
            assert np.max(np.abs(T - nfold)) < 1e-10 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"trace reversal and n-fold projection rel < 1e-10 ({elapsed:.2f}s)")


def test_criterion_3_norm_equivalences():
    rng = np.random.default_rng(103)
    for n in (1, 2, 3, 4):
        for sign in (1, -1):
            p = mom.on_shell(1.0, sign, rng.normal(size=(10, 3)))
            f = mbw.build_from_seed(_rand_sym_seed(rng, n, 10), p, n)
            std = mbw.norm_standard_integrand(f)
            cov = mbw.norm_covariant_integrand(f)
            scale = float(np.max(np.abs(std)))
            base = None
            for _ in range(10):
                ts = [rng.normal(size=4) for _ in range(n)]
                pr = mbw.norm_primed_integrand(f, ts)
                assert np.max(np.abs(pr - cov)) < 1e-10 * scale
                if base is None:
                    base = pr
                else:
                    assert np.max(np.abs(pr - base)) < 1e-10 * scale
            tpm = [np.array([float(sign), 0, 0, 0])] * n
            pr_axis = mbw.norm_primed_integrand(f, tpm)
            assert np.max(np.abs(pr_axis - sign**n * 2.0 ** (-n / 2) * std)) < 1e-10 * scale
    _report(3, "probe, component-sum and invariant integrands agree pointwise")


def test_criterion_4_lorentz_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    # pointwise scalar covariance, 100 random group elements
    for n in (1, 2):
        seed = _rand_sym_seed(rng, n)

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
    # full packet norm under a boost, 1e5 samples
    packet = mbw.GaussianPacket(2, 1.0, 1, _rand_sym_seed(rng, 2))
    sampler = mom.monte_carlo_sampler(1.0, 1, 100000, seed=1040)
    v1, se1 = mbw.norm_covariant(packet, sampler, 2, 1.0, 1)
    v2, se2 = mbw.norm_covariant(mbw.transform(packet, sc.boost_z(0.8)), sampler, 2, 1.0, 1)
    assert abs(v2 - v1) <= 3 * np.hypot(se1, se2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, f"pointwise and packet-norm invariance ({elapsed:.2f}s)")


def test_criterion_5_massless():
    rng = np.random.default_rng(105)
    for sign in (1, -1):
        for n in (1, 2, 3):
            p = mom.on_shell(0.0, sign, rng.normal(size=(50, 3)))
            xi_arr = _rand_sym_seed(rng, n, 50)
            fld = ml.field_from_potential(ml.HertzPotentialAtP(n=n, xi=xi_arr), p)
            assert ml.massless_equation_residual(fld) < 1e-12
            fv = rng.normal(size=50) + 1j * rng.normal(size=50)
            famp = ml.field_from_amplitude(fv, p, n)
            assert ml.massless_equation_residual(famp) < 1e-12
            assert ml.helicity_residual(famp) < 1e-10
            ts = [rng.normal(size=4) for _ in range(n)]
            pr = ml.norm_primed_integrand(famp, ts)
            assert np.max(np.abs(sign**n * pr - np.abs(fv) ** 2)) < 1e-10 * float(
                np.max(np.abs(fv) ** 2)
            )
            eta = ml.eta_canonical(p, n)
            val = ml.potential_route_integrand(ml.HertzPotentialAtP(n=n, xi=eta), p)
            assert np.max(np.abs(val - sign**n)) < 1e-10
    _report(5, "massless equations, helicity, amplitude identity, frame normalization")


def test_criterion_6_maxwell():
    rng = np.random.default_rng(106)
    for _ in range(100):
        p = mom.on_shell(0.0, int(rng.choice([1, -1])), rng.normal(size=3))
        pol = mx.random_transverse_polarization(rng, p)
        pot = mx.PotentialAtP(phi=1j * pol, p=p)
        far = mx.faraday_from_potential(pot)
        phi = mx.em_spinor_from_potential(pot)
        a = mx.tensor_T_em(phi)
        b = mx.stress_form(far)
        c = mx.potential_form(pot)
        scale = max(float(np.max(np.abs(a))), 1e-30)
        assert np.max(np.abs(a - b)) < 1e-10 * scale
        assert np.max(np.abs(a - c)) < 1e-10 * scale
        e_vec, b_vec = mx.eb_from_faraday(far.f)
        t00_target = 0.25 * float(np.sum(e_vec.real**2) + np.sum(b_vec.real**2))
        assert abs(a[0, 0] - t00_target) < 1e-12 * max(t00_target, 1e-30)
    # norm equality against the spin-1 route, complex data
    for _ in range(20):
        p = mom.on_shell(0.0, 1, rng.normal(size=(10, 3)))
        v = rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))
        v[..., 0] -= mom.minkowski_dot(p.vec, v) / p.p0
        phi = mx.em_spinor_from_potential(mx.PotentialAtP(phi=v, p=p))
        t1, t2 = rng.normal(size=4), rng.normal(size=4)
        v_em = mx.em_norm_integrand(phi, p, t1, t2)
        v_ml = ml.norm_primed_integrand(ml.MasslessFieldAtP(n=2, p=p, psi=phi), [t1, t2])
        assert np.max(np.abs(v_em - v_ml)) < 1e-10 * float(np.max(np.abs(v_ml)))
    _report(6, "three-way tensor equality, energy density, spin-1 norm match")


def test_criterion_7_dirac_bridge():
    rng = np.random.default_rng(107)
    for sign in (1, -1):
        p = mom.on_shell(1.0, sign, rng.normal(size=(50, 3)))
        f = mbw.build_from_seed(_rand_sym_seed(rng, 1, 50), p, 1)
        psi = da.pack_bispinor(f)
        assert da.dirac_residual(psi, f.p, 1.0) < 1e-12
        T = mbw.tensor_T(f)
        j = da.dirac_current_matrix_route(psi)
        assert np.max(np.abs(T - j / np.sqrt(2.0))) < 1e-12 * max(1.0, float(np.max(np.abs(j))))
    packet = mbw.GaussianPacket(1, 1.0, 1, rng.normal(size=2) + 0j)
    sampler = mom.monte_carlo_sampler(1.0, 1, 50000, seed=1070)
    v_cov, se_cov = mbw.norm_covariant(packet, sampler, 1, 1.0, 1)
    val, se = mom.integrate(
        lambda p: da.norm_bilinear_integrand(da.pack_bispinor(packet(p)), p, 1.0), sampler
    )
    assert abs(val.real - v_cov) <= 3 * max(np.hypot(se_cov, se), 1e-15)
    _report(7, "bispinor equation, current-tensor match, bilinear norm within 3 sigma")


def test_criterion_8_finite_difference_convergence():
    rng = np.random.default_rng(108)
    p = mom.on_shell(1.0, 1, rng.normal(size=3))
    f = mbw.build_from_seed(_rand_sym_seed(rng, 2), p, 2)
    x = np.array([0.3, -0.2, 0.5, 0.1])
    ratio = mbw.fd_spacetime_residual(f, x, 0.1) / mbw.fd_spacetime_residual(f, x, 0.05)
    assert 3.5 < ratio < 4.5
    pn = mom.on_shell(0.0, 1, rng.normal(size=3))
    fm = ml.field_from_amplitude(np.asarray(1.0 - 0.7j), pn, 2)
    ratio_m = ml.fd_spacetime_residual_massless(fm, x, 0.1) / ml.fd_spacetime_residual_massless(
        fm, x, 0.05
    )
    assert 3.5 < ratio_m < 4.5
    _report(8, f"plane-wave residual ratios {ratio:.3f} and {ratio_m:.3f} in [3.5, 4.5]")


def test_criterion_9_full_suite_runtime_and_determinism():
    t0 = time.perf_counter()
    config = vc.load_config(None)
    results = vc.run_suite(config, "all")
    first = vc.render_report(results, "json")
    elapsed = time.perf_counter() - t0
    assert all(r.status == "pass" for r in results), [
        (r.name, r.value, r.tolerance) for r in results if r.status != "pass"
    ]
    second = vc.render_report(vc.run_suite(config, "all"), "json")
    assert first == second
    assert elapsed < 180.0
    _report(9, f"default suite: {len(results)} checks pass in {elapsed:.1f}s, reports byte-identical")
