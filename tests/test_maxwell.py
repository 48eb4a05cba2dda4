import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwfields import massless as ml
from bwfields import maxwell as mx
from bwfields import momentum as mom
from bwfields import slot_core as core
from bwfields import spinor_core as sc
from bwfields.checks import REGISTRY, default_parameters


def rand_null(rng, sign=None, batch=None):
    s = int(rng.choice([1, -1])) if sign is None else sign
    shape = (batch, 3) if batch else (3,)
    return mom.on_shell(0.0, s, rng.normal(size=shape))


def real_mode(rng, p):
    """Lorenz-gauge potential whose field tensor is real at this momentum."""
    pol = mx.random_transverse_polarization(rng, p)
    return mx.PotentialAtP(phi=1j * pol, p=p)


def complex_lorenz_potential(rng, p):
    shape = np.asarray(p.p0).shape
    v = rng.normal(size=shape + (4,)) + 1j * rng.normal(size=shape + (4,))
    v[..., 0] -= mom.minkowski_dot(p.vec, v) / p.p0
    return mx.PotentialAtP(phi=v, p=p)


class TestDictionary:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        e = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        f = mx.em_field_tensor(e, b)
        e2, b2 = mx.eb_from_faraday(f)
        assert_allclose(e, e2)
        assert_allclose(b, b2)

    def test_antisymmetry_enforced(self):
        with pytest.raises(ValueError):
            mx.FaradayAtP(f=np.eye(4), p=mom.on_shell(0.0, 1, [0, 0, 1]))

    def test_gauge_enforced(self):
        p = mom.on_shell(0.0, 1, [0, 0, 1.0])
        with pytest.raises(ValueError):
            mx.PotentialAtP(phi=np.array([1.0, 0, 0, 0]), p=p)


class TestEmSpinor:
    def test_zero_field(self):
        p = mom.on_shell(0.0, 1, [0, 0, 1.0])
        assert np.all(mx.em_spinor(mx.FaradayAtP(f=np.zeros((4, 4)), p=p)) == 0)

    def test_symmetry_for_random_complex_field(self):
        rng = np.random.default_rng(1)
        e = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        p = rand_null(rng)
        phi = mx.em_spinor(mx.FaradayAtP(f=mx.em_field_tensor(e, b), p=p))
        assert np.max(np.abs(phi - phi.T)) < 1e-12

    def test_axis_plane_wave_is_rank_one(self):
        p = mom.on_shell(0.0, 1, [0, 0, 1.0])
        far = mx.FaradayAtP(f=mx.em_field_tensor([1.0, 0, 0], [0, 1.0, 0]), p=p)
        phi = mx.em_spinor(far)
        pi = mom.spin_frame(p).pi
        outer = np.einsum("i,j->ij", pi, pi)
        ratio = phi[1, 1] / outer[1, 1]
        assert_allclose(phi, ratio * outer, atol=1e-13)
        assert np.linalg.svd(phi, compute_uv=False)[1] < 1e-13

    def test_pure_gauge_gives_zero(self):
        rng = np.random.default_rng(3)
        p = rand_null(rng)
        pot = mx.PotentialAtP(phi=(0.4 - 1.1j) * p.vec, p=p)
        assert np.max(np.abs(mx.em_spinor_from_potential(pot))) < 1e-13

    @pytest.mark.parametrize("ordering", ["first", "second"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_potential_route_matches_its_einsum(self, sign, ordering):
        # phi_{AA'} = g^a_{AA'} phi_a as it was written before it went through
        # spinor_from_world, on a batch of each energy branch
        rng = np.random.default_rng(6)
        pot = complex_lorenz_potential(rng, rand_null(rng, sign, 40))
        phi_lo_sp = np.einsum("aij,...b,ba->...ij", sc.build_ivdw().lo_w, pot.phi, sc.METRIC)
        pair = "...bm,...am->...ab" if ordering == "second" else "...am,...bm->...ab"
        ref = -1j * np.einsum(pair, mom.momentum_matrix(pot.p, "ll"), phi_lo_sp @ sc.EPS_UP.T)
        phi = mx.em_spinor_from_potential(pot, ordering)
        assert phi.shape == ref.shape == (40, 2, 2)
        assert np.max(np.abs(phi - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_field_tensor_route_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = rand_null(rng)
            pot = complex_lorenz_potential(rng, p)
            far = mx.faraday_from_potential(pot)
            a = mx.em_spinor(far)
            b = mx.em_spinor_from_potential(pot)
            assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_exchange_lemma(self):
        # phi_{CC'} phi^C_{B'} is antisymmetric in the primed pair
        from bwfields.spinor_core import EPS_UP, METRIC, build_ivdw

        rng = np.random.default_rng(5)
        p = rand_null(rng)
        pot = complex_lorenz_potential(rng, p)
        g = build_ivdw()
        phi_lo = np.einsum("aij,b,ba->ij", g.lo_w, pot.phi, METRIC)
        phi_up_mixed = np.einsum("CD,Dm->Cm", EPS_UP, phi_lo)
        x = np.einsum("Cm,Cn->mn", phi_lo, phi_up_mixed)
        assert np.max(np.abs(x + x.T)) < 1e-13


class TestTensorForms:
    def test_axis_plane_wave_energy_density(self):
        p = mom.on_shell(0.0, 1, [0, 0, 1.0])
        far = mx.FaradayAtP(f=mx.em_field_tensor([1.0, 0, 0], [0, 1.0, 0]), p=p)
        assert_allclose(mx.stress_form(far)[0, 0], 0.5, atol=1e-14)

    def test_three_way_equality_on_real_field_data(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = rand_null(rng)
            pot = real_mode(rng, p)
            far = mx.faraday_from_potential(pot)
            assert np.max(np.abs(far.f.imag)) < 1e-12
            phi = mx.em_spinor_from_potential(pot)
            a = mx.tensor_T_em(phi)
            b = mx.stress_form(far)
            c = mx.potential_form(pot)
            scale = max(float(np.max(np.abs(a))), 1e-30)
            assert np.max(np.abs(a - b)) < 1e-10 * scale
            assert np.max(np.abs(a - c)) < 1e-10 * scale

    def test_circular_mode_separates_the_forms(self):
        # negative control: a single circular component has energy in only
        # one helicity, so the spinor-squared form is twice the field-tensor
        # form; the real-field restriction on the equality tests is not an
        # artifact of slack tolerances
        p = mom.on_shell(0.0, 1, [0, 0, 1.0])
        phi = np.zeros(4, dtype=complex)
        phi[1], phi[2] = 1.0, 1.0j
        phi -= mom.minkowski_dot(p.vec, phi) / p.p0 * np.array([1.0, 0, 0, 0])
        pot = mx.PotentialAtP(phi=phi, p=p)
        a = mx.tensor_T_em(mx.em_spinor_from_potential(pot))
        b = mx.stress_form(mx.faraday_from_potential(pot))
        ratio = a[0, 0] / b[0, 0]
        assert ratio == pytest.approx(2.0, rel=1e-10) or ratio == pytest.approx(0.0, abs=1e-10)


class TestNorms:
    def test_zero_field_zero_norm(self):
        p = mom.on_shell(0.0, 1, [0, 0.2, 1.0])
        val = mx.em_norm_integrand(mx.FaradayAtP(f=np.zeros((4, 4)), p=p), np.array([1.0, 0, 0, 0]),
                                   np.array([1.0, 0.1, 0, 0]))
        assert val == 0

    def test_matches_massless_spin1_route_on_real_fields_only(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = rand_null(rng, batch=10)
            t1, t2 = rng.normal(size=4), rng.normal(size=4)
            gaps = []
            for pot in (real_mode(rng, p), complex_lorenz_potential(rng, p)):
                v_em = mx.em_norm_integrand(mx.faraday_from_potential(pot), t1, t2)
                fld = ml.MasslessFieldAtP.from_psi(2, p, mx.em_spinor_from_potential(pot))
                v_ml = ml.norm_primed_integrand(fld, [t1, t2])
                gaps.append(np.max(np.abs(v_em - v_ml)) / max(1.0, float(np.max(np.abs(v_ml)))))
            # complex F carries unbalanced circular content, which the spinor form misses
            assert gaps[0] < 1e-10 and gaps[1] > 1e-3

    def test_grouped_probe_batch_matches_per_group_loop(self):
        # maxwell_vs_massless_norm's layout: probes (10, 1, 4) against momenta (10, 10)
        rng = np.random.default_rng(13)
        pot = real_mode(rng, mom.on_shell(0.0, -1, rng.normal(size=(10, 10, 3))))
        t1, t2 = rng.normal(size=(10, 1, 4)), rng.normal(size=(10, 1, 4))
        v_em = mx.em_norm_integrand(mx.faraday_from_potential(pot), t1, t2)
        fld = ml.MasslessFieldAtP.from_psi(2, pot.p, mx.em_spinor_from_potential(pot))
        v_ml = ml.norm_primed_integrand(fld, [t1, t2])
        for g in range(10):
            pg = mom.on_shell(0.0, -1, pot.p.spatial[g])
            pot_g = mx.PotentialAtP(phi=pot.phi[g], p=pg)
            probes = [t1[g, 0], t2[g, 0]]
            assert np.array_equal(v_em[g], mx.em_norm_integrand(mx.faraday_from_potential(pot_g), *probes))
            fld_g = ml.MasslessFieldAtP.from_psi(2, pg, mx.em_spinor_from_potential(pot_g))
            assert np.array_equal(v_ml[g], ml.norm_primed_integrand(fld_g, probes))

    def test_probe_independence(self):
        rng = np.random.default_rng(10)
        p = rand_null(rng)
        far = mx.faraday_from_potential(complex_lorenz_potential(rng, p))
        base = None
        for _ in range(10):
            v = mx.em_norm_integrand(far, rng.normal(size=4), rng.normal(size=4))
            if base is None:
                base = v
            else:
                assert abs(v - base) < 1e-10 * abs(base)

    def test_vanishing_probe_rejected(self):
        rng = np.random.default_rng(11)
        p = mom.on_shell(0.0, 1, [0, 0, 1.0])
        far = mx.faraday_from_potential(complex_lorenz_potential(rng, p))
        t_bad = np.array([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            mx.em_norm_integrand(far, t_bad, np.array([1.0, 0, 0, 0]))


@pytest.mark.parametrize("name", [name for name, check in REGISTRY.items() if check.module == "maxwell"])
def test_registry_checks_make_one_call_per_energy_branch(name, monkeypatch):
    # a per-momentum loop in a check would make these calls once per sample
    calls = {}
    for module, fn in ((mom, "on_shell"), (mx, "tensor_T_em"), (mx, "stress_form")):
        def counted(*args, _original=getattr(module, fn), _fn=fn, **kwargs):
            calls[_fn] = calls.get(_fn, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, fn, counted)
    REGISTRY[name].run(default_parameters(), np.random.default_rng(0))
    assert calls["on_shell"] == 2
    assert calls.get("tensor_T_em", 0) <= 2 and calls.get("stress_form", 0) <= 2, calls


def along_z(batch):
    return mom.on_shell(0.0, 1, np.broadcast_to([0.0, 0.0, 1.0], batch + (3,)))


def potential_case(monkeypatch):
    def validate(phi):
        mx.PotentialAtP(phi=phi, p=along_z(phi.shape[:-1]))

    # p.phi = 0 on a large sample; 1e-5 on a small one
    return validate, np.array([0, 1e6, 0, 0]), np.array([1e-5, 1, 0, 0])


def faraday_case(monkeypatch):
    def validate(f):
        mx.FaradayAtP(f=f, p=along_z(f.shape[:-2]))

    big = mx.em_field_tensor(np.zeros(3), [1e6, 0, 0])
    big[2, 3] += 1e-7  # symmetric part within 1e-12 of its own largest entry
    small = mx.em_field_tensor([1.0, 0, 0], np.zeros(3))
    small[1, 2] += 1e-8
    return validate, big, small


def em_spinor_case(monkeypatch):
    # a non-symmetric term in sigma_{01} reaches phi_AB through F^{01} only
    sg = sc.sigma_generators()
    sigma_low = sg.sigma_low.copy()
    sigma_low[0, 1] += 1e-8 * np.array([[1.0, 0], [0, 0]])
    monkeypatch.setattr(mx, "sigma_generators", lambda: dataclasses.replace(sg, sigma_low=sigma_low))

    def validate(f):
        mx.em_spinor(mx.FaradayAtP(f=f, p=along_z(f.shape[:-2])))

    return validate, mx.em_field_tensor(np.zeros(3), [1e6, 0, 0]), mx.em_field_tensor([1.0, 0, 0], np.zeros(3))


def stress_case(monkeypatch):
    def validate(f):
        mx.stress_form(mx.FaradayAtP(f=f, p=along_z(f.shape[:-2])))

    # real F gives a real stress tensor; a small imaginary B gives it an imaginary part
    big = mx.em_field_tensor(np.zeros(3), [1e6, 0, 0])
    small = mx.em_field_tensor([1.0, 0, 0], [0, 1e-8j, 0])
    return validate, big, small


def world_tensor_case(monkeypatch):
    # an anti-Hermitian term on index pair (1, 1) gives sum psi psibar K an
    # imaginary part on samples with psi_1 != 0 only
    kernel = sc.build_ivdw().up[:, None] + 1e-8j * np.array([[0, 0], [0, 1.0]])

    def validate(psi):
        core.world_tensor(core._unprimed_stack(psi, 1), kernel, 1)

    return validate, np.array([1e3, 0j]), np.array([0, 1.0 + 0j])


PER_SAMPLE_CASES = {
    "PotentialAtP": potential_case,
    "FaradayAtP": faraday_case,
    "em_spinor": em_spinor_case,
    "stress_form": stress_case,
    "world_tensor": world_tensor_case,
}


@pytest.mark.parametrize("case", list(PER_SAMPLE_CASES))
def test_each_sample_validated_on_its_own_scale(case, monkeypatch):
    validate, big, small = PER_SAMPLE_CASES[case](monkeypatch)
    # one momentum: the large sample's violation is within its own scale
    validate(big)
    with pytest.raises((ValueError, AssertionError)):
        validate(small)
    # in a batch, the large sample no longer widens the small one's tolerance
    validate(np.stack([big, big]))
    for batch in (np.stack([big, small]), np.stack([small, big])):
        with pytest.raises((ValueError, AssertionError)):
            validate(batch)
