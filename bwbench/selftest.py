"""Tests of the benchmark itself: each output check fails on a wrong value,
the tracer sees calls through names imported by value, and the command
refuses to run without the package sources.

    python3 -m pytest -q bwbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from bwfields import massive_bw, massless, momentum, spinor_core  # noqa: E402
from bwfields.checks import REGISTRY  # noqa: E402

import hostspeed  # noqa: E402
import outputs  # noqa: E402
from tracing import Tracer  # noqa: E402


# -- SL(2,C) -> Lorentz ------------------------------------------------------


def test_lorentz_trace_formula_agrees_with_program():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = spinor_core.random_sl2c(rng)
        assert outputs.lorentz_agrees(s.matrix, spinor_core.sl2c_to_lorentz(s).matrix)


def test_lorentz_check_fails_on_wrong_matrix():
    rng = np.random.default_rng(6)
    s = spinor_core.random_sl2c(rng)
    lam = spinor_core.sl2c_to_lorentz(s).matrix
    assert not outputs.lorentz_agrees(s.matrix, lam + 1e-9)
    assert not outputs.lorentz_agrees(s.matrix, lam.T)
    # the vector map of S-dagger-inverse instead of S
    wrong = np.conj(np.linalg.inv(s.matrix)).T
    assert not outputs.lorentz_agrees(s.matrix, spinor_core.sl2c_to_lorentz(
        spinor_core.SL2CElement(wrong)).matrix)
    assert not outputs.lorentz_agrees(s.matrix, lam[:3, :3])


def test_lorentz_formula_batches():
    rng = np.random.default_rng(7)
    elements = [spinor_core.random_sl2c(rng) for _ in range(3)]
    batch = np.stack([e.matrix for e in elements])
    lam = np.stack([spinor_core.sl2c_to_lorentz(e).matrix for e in elements])
    assert outputs.lorentz_agrees(batch, lam)


# -- quadrature --------------------------------------------------------------


@pytest.fixture(scope="module")
def small_sampler():
    return momentum.monte_carlo_sampler(0.0, 1, 4000, 1.0, seed=11)


def test_gaussian_mean_matches_integrate_and_pi_w2(small_sampler):
    mean, se = outputs.gaussian_mean(small_sampler.points, small_sampler.weights, 1.0)
    value, se_prog = momentum.integrate(
        lambda p: massless.amplitude_norm_integrand(np.exp(-np.sum(p.spatial**2, axis=-1) / 2)),
        small_sampler,
    )
    assert outputs.same_to_roundoff(mean, value.real)
    assert math.isclose(se, se_prog, rel_tol=1e-9)
    assert outputs.gaussian_within_se(mean, se, 1.0)


def test_quadrature_checks_fail_on_wrong_values(small_sampler):
    mean, se = outputs.gaussian_mean(small_sampler.points, small_sampler.weights, 1.0)
    # weights off by a factor 2 (the 1/(2|p0|) of the invariant measure)
    wrong, wrong_se = outputs.gaussian_mean(small_sampler.points, 2 * small_sampler.weights, 1.0)
    assert not outputs.gaussian_within_se(wrong, wrong_se, 1.0)
    # the Gaussian of the amplitude instead of its square
    wrong, wrong_se = outputs.gaussian_mean(small_sampler.points, small_sampler.weights,
                                            math.sqrt(2.0))
    assert not outputs.gaussian_within_se(wrong, wrong_se, 1.0)
    assert not outputs.gaussian_within_se(mean, 0.0, 1.0)
    assert not outputs.same_to_roundoff(mean, mean * (1 + 1e-9))
    assert not outputs.same_to_roundoff(mean, float("nan"))


def test_reported_zscore_check(small_sampler):
    mean, se = outputs.gaussian_mean(small_sampler.points, small_sampler.weights, 1.0)
    z = abs(mean - math.pi) / se
    assert outputs.zscore_matches(mean, se, 1.0, z)
    assert not outputs.zscore_matches(mean, se, 1.0, z + 1e-6)
    assert not outputs.zscore_matches(mean, se, 1.0, 0.0)
    assert not outputs.zscore_matches(mean, se, 1.0, float("inf"))


def test_check_rng_is_the_generator_run_suite_gives():
    """amplitude_gaussian_norm's sampler, rebuilt from the check's generator,
    reproduces the value run_suite reports."""
    from bwfields import verify_cli

    config = verify_cli.load_config(None)
    config.update(seed=42, checks=[{"name": "amplitude_gaussian_norm", "parameters": {}}])
    config["parameters"]["samples"] = 3000
    (result,) = verify_cli.run_suite(config)
    rng = outputs.check_rng(42, "amplitude_gaussian_norm")
    sampler = momentum.monte_carlo_sampler(0.0, 1, 3000, 1.0, seed=int(rng.integers(2**31)))
    mean, se = outputs.gaussian_mean(sampler.points, sampler.weights, 1.0)
    assert outputs.zscore_matches(mean, se, 1.0, result.value)


# -- report rows -------------------------------------------------------------

ROW = {"name": "a", "status": "pass", "kind": "residual", "value": 1e-14, "tolerance": 1e-12,
       "seed": 3}


def test_report_checks_fail_on_wrong_reports():
    good = json.dumps([ROW, dict(ROW, name="b")]).encode()
    assert outputs.report_complete(outputs.parse_report(good), ["b", "a"], 3)
    assert outputs.parse_report(b"[{]") is None
    assert outputs.parse_report(b'{"a": 1}') is None
    assert not outputs.report_complete(outputs.parse_report(good), ["a", "b", "c"], 3)
    assert not outputs.report_complete(outputs.parse_report(good), ["a", "b"], 4)
    assert not outputs.report_complete(None, ["a"], 3)


def test_row_checks_fail_on_wrong_rows():
    bound = outputs.gross_bound("a", "residual", 1e-12)
    assert outputs.row_within(ROW, bound)
    # past its tolerance on a rare seed: consistent, not gross
    assert outputs.row_within(dict(ROW, value=3e-11, status="fail"), bound)
    assert not outputs.row_within(dict(ROW, value=3e-11), bound)
    assert not outputs.row_within(dict(ROW, value=0.02, status="fail"), bound)
    assert not outputs.row_within(dict(ROW, value=float("nan")), bound)
    assert not outputs.row_within(dict(ROW, value=float("inf"), status="fail"), bound)
    assert not outputs.row_within(dict(ROW, value="1e-14"), bound)
    assert not outputs.row_within({}, bound)
    z = dict(ROW, kind="zscore", value=3.5, tolerance=3.0, status="fail")
    assert outputs.row_consistent(z)
    assert outputs.row_consistent(dict(z, value=0.5, status="pass"))
    assert not outputs.row_consistent(dict(z, status="pass"))
    assert not outputs.row_consistent(dict(z, value=float("inf")))
    assert not outputs.row_consistent(dict(z, value=-1.0, status="pass"))


def test_single_precision_residuals_fail():
    """Errors of a float32/complex64 computation pass no residual bound."""
    eps32 = float(np.finfo(np.float32).eps)
    for tol in (1e-14, 1e-13, 1e-12):
        bound = outputs.gross_bound("a", "residual", tol)
        assert not outputs.row_within(dict(ROW, value=eps32, tolerance=tol, status="fail"), bound)
    bound = outputs.gross_bound("a", "residual", 1e-10)
    assert outputs.row_within(dict(ROW, value=3e-9, tolerance=1e-10, status="fail"), bound)
    assert not outputs.row_within(dict(ROW, value=eps32, tolerance=1e-10, status="fail"), bound)
    assert not outputs.row_within(dict(ROW, value=1e-6, tolerance=1e-10, status="fail"), bound)


def test_first_order_stencil_fails_fd_checks():
    """|r1/r2 - 4| is 2 for an O(h) stencil, 12 for O(h^4): both fail."""
    fd = [name for name in REGISTRY if name.startswith("fd_plane_wave_")]
    assert sorted(fd) == ["fd_plane_wave_massive", "fd_plane_wave_massless"]
    for name in fd:
        check = REGISTRY[name]
        bound = outputs.gross_bound(name, check.kind, check.tolerance)
        row = dict(ROW, name=name, tolerance=check.tolerance)
        assert outputs.row_within(dict(row, value=0.04, status="pass"), bound)
        assert outputs.row_within(dict(row, value=0.7, status="fail"), bound)
        assert not outputs.row_within(dict(row, value=2.0, status="fail"), bound)
        assert not outputs.row_within(dict(row, value=12.0, status="fail"), bound)


def test_large_zscores_fail():
    """A z-score of a broken measure or group action is not a chance miss."""
    for name in ("packet_norm_invariance", "amplitude_gaussian_norm", "bilinear_norm_equality"):
        check = REGISTRY[name]
        assert check.kind == "zscore"
        bound = outputs.gross_bound(name, check.kind, check.tolerance)
        row = dict(ROW, name=name, kind="zscore", tolerance=check.tolerance)
        assert outputs.row_within(dict(row, value=1.2, status="pass"), bound)
        assert outputs.row_within(dict(row, value=6.3, status="fail"), bound)
        assert not outputs.row_within(dict(row, value=31.0, status="fail"), bound)
        assert not outputs.row_within(dict(row, value=1e3, status="fail"), bound)


def test_every_check_has_a_bound_below_order_one():
    assert set(outputs.WIDE_RESIDUAL_FACTOR) <= set(REGISTRY)
    for name, check in REGISTRY.items():
        bound = outputs.gross_bound(name, check.kind, check.tolerance)
        assert check.tolerance <= bound <= (outputs.ZSCORE_BOUND if check.kind == "zscore" else 1.0)


def test_norm_equivalences_wide_bound():
    """Its chance misses pass; a single-precision or broken result fails."""
    check = REGISTRY["norm_equivalences"]
    bound = outputs.gross_bound("norm_equivalences", check.kind, check.tolerance)
    row = dict(ROW, name="norm_equivalences", tolerance=check.tolerance, status="fail")
    assert outputs.row_within(dict(row, value=1.02e-9), bound)
    assert not outputs.row_within(dict(row, value=6e-4), bound)
    assert not outputs.row_within(dict(row, value=0.5), bound)


# -- tracer ------------------------------------------------------------------


def test_tracer_sees_names_imported_by_value():
    tracer = Tracer()
    tracer.install()
    try:
        # massive_bw calls momentum_matrix through its own module-level name
        assert hasattr(massive_bw.momentum_matrix, "__wrapped__")
        assert massive_bw.momentum_matrix is momentum.momentum_matrix
        p = momentum.on_shell(1.0, 1, np.zeros((5, 3)))
        seed = np.ones((5, 2, 2), dtype=complex)
        f = massive_bw.build_from_seed(seed, p, 2)
        massive_bw.tensor_T(f)
        row = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert row["momentum.on_shell.calls"] == 1
    assert row["momentum.momentum_matrix.calls"] == 1
    assert row["massive_bw.build_from_seed.samples"] == 5
    assert row["massive_bw.tensor_T.labels"] == 4
    assert row["spinor_core.build_ivdw.calls"] >= 2
    assert row["massive_bw.tensor_T.self_s"] > 0.0
    assert not hasattr(massive_bw.momentum_matrix, "__wrapped__")
    assert {s[2] for s in tracer.spans} >= {"massive_bw.build_from_seed", "momentum.momentum_matrix"}


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        p = momentum.on_shell(1.0, 1, np.ones((200, 3)))
        massive_bw.build_from_seed(np.ones((200, 2, 2), dtype=complex), p, 2)
        row = tracer.snapshot()
    finally:
        tracer.uninstall()
    (outer,) = [s for s in tracer.spans if s[2] == "massive_bw.build_from_seed"]
    children = [s for s in tracer.spans if s[1] == outer[0]]
    assert {s[2] for s in children} == {"momentum.momentum_matrix", "massive_bw.symmetrize"}
    expected = (outer[4] - outer[3]) - sum(s[4] - s[3] for s in children)
    assert math.isclose(row["massive_bw.build_from_seed.self_s"], expected, rel_tol=1e-9)


# -- host-speed correction ----------------------------------------------------


def test_scaled_time_follows_the_reference():
    nominal = hostspeed.REFERENCE_S
    assert math.isclose(hostspeed.scaled(2.0, [nominal, nominal]), 2.0)
    # a host twice as slow doubles both the pass and the reference
    assert math.isclose(hostspeed.scaled(4.0, [2 * nominal, 2 * nominal, 9.0]), 2.0)
    # a program twice as fast on the same host halves the scaled time
    assert math.isclose(hostspeed.scaled(1.0, [nominal] * 3), 1.0)
    assert math.isclose(hostspeed.scaled(1.0, [0.1, 0.2], 0.15), 1.0)


def test_clock_samples_during_a_pass_and_leaves_its_time_out():
    clock = hostspeed.Clock()
    clock.begin()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 3 * hostspeed.SPLIT_S + 0.1:
        pass
    clock.end()
    # start, end, and the timer's samples in between
    assert len(clock.refs) >= 4
    assert clock.wall < time.perf_counter() - t0 - sum(clock.refs[1:-1]) + 0.01
    assert clock.wall > 0.0


# -- the command -------------------------------------------------------------


def test_command_without_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bwbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bwbench/run.py", "--workload", "small_calls",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_command_small_run():
    proc = subprocess.run([sys.executable, "bwbench/run.py", "--workload", "small_calls",
                           "--seed", "1", "--seconds", "0.1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"run_s", "setup_s", "peak_rss_mib"}
