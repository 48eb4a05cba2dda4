"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; any assertion failure marks the criterion as failed.
"""

import time

import numpy as np
import pytest

from bwfields import massless as ml
from bwfields import momentum as mom
from bwfields import slot_core as core
from bwfields import verify_cli as vc
from bwfields.checks import REGISTRY, _rand_sym_seed, default_parameters


def _report(num, text):
    print(f"PASS criterion {num}: {text}", flush=True)


def run_checks(seed, names, repeat=1):
    """Run registry checks by name, in turn on one generator, at the default
    parameters; each run must pass the check's own tolerance."""
    rng = np.random.default_rng(seed)
    params = default_parameters()
    for name in names:
        check = REGISTRY[name]
        for _ in range(repeat):
            value = check.run(params, rng)
            assert value <= check.tolerance, f"{name} = {value} > {check.tolerance}"


# Rows a check must pass beyond its default run: a bound tighter than its
# tolerance (the conversion tables and generators are exact up to a few
# roundings), or a mass away from m = 1, where every power of m is 1 (m^-2 in
# project_slot, 2pp/m^2 - 1 in trace_reverse_slot, m^-2n in
# norm_covariant_integrand, m in dirac_residual).
BOUNDS = [
    ("ivdw_symbol_relations", 1.0, 1e-14),
    ("useful_expressions", 1.0, 1e-14),
    ("generator_duality", 1.0, 1e-14),
    ("gamma5_block_form", 1.0, 1e-14),
    ("trace_reversal_projection", 0.9, 1e-10),
    ("norm_equivalences", 1.1, 1e-10),
    ("dirac_bridge", 1.2, 1e-12),
]


@pytest.mark.parametrize("name, mass, bound", BOUNDS)
def test_check_within_bound(name, mass, bound):
    check = REGISTRY[name]
    assert bound <= check.tolerance
    params = dict(default_parameters(), mass=mass)
    assert check.run(params, np.random.default_rng(101)) <= bound


@pytest.mark.parametrize("mass", [0.6, 1.0, 2.3])
def test_seed_form_norm_at_every_spin(mass):
    # the default run stops at spin 4; the seed form is meant to hold to the cap
    check = REGISTRY["seed_form_norm"]
    params = dict(default_parameters(), spins=[1, 2, 3, 4, 5, 6], mass=mass)
    assert check.run(params, np.random.default_rng(101)) <= check.tolerance


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    run_checks(101, [name for name, check in REGISTRY.items() if check.module == "identities"])
    # 100 random inputs through the epsilon and conversion machinery
    run_checks(101, ["epsilon_roundtrip", "world_spinor_roundtrip"], repeat=100)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"identity suite within its tolerances ({elapsed:.2f}s)")


def test_criterion_2_trace_reversal_projection():
    t0 = time.perf_counter()
    run_checks(102, ["trace_reversal_projection"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"trace reversal and n-fold projection rel < 1e-10 ({elapsed:.2f}s)")


def test_criterion_3_norm_equivalences():
    run_checks(103, ["norm_equivalences"])
    _report(3, "probe, component-sum and invariant integrands agree pointwise")


def test_criterion_4_lorentz_invariance():
    t0 = time.perf_counter()
    run_checks(104, ["scalar_lorentz_covariance", "packet_norm_invariance"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, f"pointwise and packet-norm invariance ({elapsed:.2f}s)")


def test_criterion_5_massless():
    run_checks(105, ["massless_field_equations", "helicity_eigenequation",
                     "amplitude_norm_identity", "eta_normalization"])
    # the registry residual is relative to |psi||p|; this bound is absolute
    rng = np.random.default_rng(105)
    for sign in (1, -1):
        for n in (1, 2, 3):
            p = mom.on_shell(0.0, sign, rng.normal(size=(50, 3)))
            fld = ml.field_from_potential(_rand_sym_seed(rng, n, 50), p, n)
            assert core.residual_field_equations(fld) < 1e-12
            famp = ml.field_from_amplitude(rng.normal(size=50) + 1j * rng.normal(size=50), p, n)
            assert core.residual_field_equations(famp) < 1e-12
    _report(5, "massless equations, helicity, amplitude identity, frame normalization")


def test_criterion_6_maxwell():
    run_checks(106, ["three_way_tensor_equality"], repeat=2)
    run_checks(106, ["energy_density", "maxwell_vs_massless_norm"])
    _report(6, "three-way tensor equality, energy density, spin-1 norm match")


def test_criterion_7_dirac_bridge():
    run_checks(107, ["dirac_bridge", "current_tensor_correspondence", "bilinear_norm_equality"])
    _report(7, "bispinor equation, current-tensor match, bilinear norm within 3 sigma")


def test_criterion_8_finite_difference_convergence():
    run_checks(108, ["fd_plane_wave_massive", "fd_plane_wave_massless"])
    _report(8, "plane-wave residual ratios within 0.5 of 4")


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
