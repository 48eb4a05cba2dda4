import dataclasses
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, example, given, settings, strategies as st

from bwfields import checks
from bwfields import massive_bw as mbw
from bwfields import maxwell as mx
from bwfields import momentum as mom
from bwfields import spinor_core as sc
from bwfields import verify_cli as vc
from bwfields.checks import MODULES, REGISTRY, Check, _zscore


def fast_config(**overrides):
    config = vc.load_config(None)
    config["parameters"].update({"spins": [1, 2], "samples": 2000})
    config.update(overrides)
    return config


class TestRegistry:
    def test_tagged_with_module_kind_and_anchor(self):
        for check in REGISTRY.values():
            assert check.module in MODULES
            assert check.kind in ("residual", "zscore")
            assert check.anchor

    def test_repeated_name_is_an_error(self, monkeypatch):
        monkeypatch.setattr(checks, "REGISTRY", dict(REGISTRY))
        check = REGISTRY["epsilon_roundtrip"]
        with pytest.raises(ValueError, match="epsilon_roundtrip"):
            checks._register(*dataclasses.astuple(check))
        assert checks.REGISTRY["epsilon_roundtrip"] is check

    def test_every_module_has_checks(self):
        for module in MODULES:
            assert any(c.module == module for c in REGISTRY.values())


# The bodies that cover both energy branches, and whether they loop over
# the spins: each builds its momenta in one on_shell call per spin (one call
# in all when it has no spin loop), both branches in that call.
BRANCH_BODIES = {
    "massive_field_equations": True, "trace_reversal_projection": True, "norm_equivalences": True,
    "seed_form_norm": True, "massless_field_equations": True, "helicity_eigenequation": True,
    "eta_normalization": True, "amplitude_norm_identity": True, "em_spinor_symmetry": False,
    "three_way_tensor_equality": False, "energy_density": False, "maxwell_vs_massless_norm": False,
    "dirac_bridge": False, "current_tensor_correspondence": False, "bilinear_norm_equality": False,
}


class TestOneCallPerSpin:
    def test_no_body_loops_over_the_energy_sign(self):
        assert "for sign in" not in Path(checks.__file__).read_text()

    @pytest.mark.parametrize("name", sorted(BRANCH_BODIES))
    def test_branch_body_calls_on_shell_once_per_spin(self, name, monkeypatch):
        signs, calls = [], {}
        on_shell = mom.on_shell

        def counted_on_shell(mass, sign, spatial):
            signs.append(np.ravel(sign).tolist())
            return on_shell(mass, sign, spatial)

        monkeypatch.setattr(mom, "on_shell", counted_on_shell)
        # a per-momentum loop would make these calls once per sample
        for module, fn in ((mbw, "tensor_T"), (mx, "tensor_T_em"), (mx, "stress_form")):
            def counted(*args, _original=getattr(module, fn), _fn=fn, **kwargs):
                calls[_fn] = calls.get(_fn, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, fn, counted)
        spins = [1, 2, 3]
        REGISTRY[name].run(dict(checks.default_parameters(), spins=spins), np.random.default_rng(0))
        per_body = len(spins) if BRANCH_BODIES[name] else 1
        assert signs == [[1, -1]] * per_body
        assert all(count <= per_body for count in calls.values()), calls

    def test_every_body_with_both_branches_is_listed(self):
        # a body that builds momenta from an array of both signs is in the table
        listed = set()
        on_shell = mom.on_shell
        for name, check in REGISTRY.items():
            def spy(mass, sign, spatial, _name=name):
                if np.ndim(sign):
                    listed.add(_name)
                return on_shell(mass, sign, spatial)

            with pytest.MonkeyPatch.context() as m:
                m.setattr(mom, "on_shell", spy)
                check.run(dict(checks.default_parameters(), spins=[1], samples=2000), np.random.default_rng(0))
        assert listed == set(BRANCH_BODIES)

    def test_default_run_builds_each_spin_frame_once(self, monkeypatch):
        # one frame per spin in each of the four massless bodies that need
        # one, and one in the massless plane wave
        calls = []
        spin_frame = mom.spin_frame

        def counted(p):
            calls.append(p)
            return spin_frame(p)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("bwfields"):
                for attr, value in list(vars(mod).items()):
                    if value is spin_frame:
                        monkeypatch.setattr(mod, attr, counted)
        results = vc.run_suite(vc.load_config(None), "all")
        assert all(r.status == "pass" for r in results)
        assert len(calls) == 17

    def test_default_run_builds_each_lorentz_image_once(self, monkeypatch):
        # three in lorentz_homomorphism, one per spin in
        # scalar_lorentz_covariance and one in packet_norm_invariance: the
        # check and transform read the element's kept image
        calls = []
        to_lorentz = sc.sl2c_to_lorentz

        def counted(s):
            calls.append(s)
            return to_lorentz(s)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("bwfields"):
                for attr, value in list(vars(mod).items()):
                    if value is to_lorentz:
                        monkeypatch.setattr(mod, attr, counted)
        results = vc.run_suite(vc.load_config(None), "all")
        assert all(r.status == "pass" for r in results)
        assert len(calls) == 6


class TestCheckRun:
    """Check.run is the one reduction of the residuals a body yields."""

    @staticmethod
    def run(*values):
        def body(params, rng):
            yield from values

        return Check("synthetic", "identities", "", "residual", 1.0, body).run({}, None)

    def test_largest_value(self):
        assert self.run(0.5, 3, np.float64(2.5)) == 3.0

    def test_array_reduces_by_its_max(self):
        assert self.run(0.1, np.array([[0.2, 4.0], [1.0, 0.0]]), 2.0) == 4.0

    def test_nan_after_a_larger_value_gives_nan(self):
        assert math.isnan(self.run(5.0, np.nan))
        assert math.isnan(self.run(np.array([5.0, 1.0]), np.array([0.0, np.nan])))

    def test_body_that_yields_nothing_is_an_error(self):
        with pytest.raises(ValueError):
            self.run()

    def test_zscore_rule(self):
        assert _zscore(1.0, 3.0, 2.0, 4.0) == 0.2
        assert _zscore(2.0, 0.5, 1.0, 0.0) == 2.0
        # no standard error: agreement within 1e-12 passes, anything else fails
        assert _zscore(1.0, 0.0, 1.0 + 1e-13, 0.0) == 0.0
        assert _zscore(1.0, 0.0, 2.0, 0.0) == math.inf
        assert math.isnan(_zscore(1.0, math.inf, 2.0, 1.0))


class TestRunSuite:
    def test_empty_check_list(self):
        config = fast_config(checks=[])
        results = vc.run_suite(config, "all")
        assert results == []
        assert vc.render_report(results, "json") == b"[]\n"

    def test_suite_filtering(self):
        config = fast_config()
        results = vc.run_suite(config, "identities")
        assert results and all(r.module == "identities" for r in results)

    def test_results_sorted_by_name(self):
        config = fast_config()
        results = vc.run_suite(config, "massless")
        assert [r.name for r in results] == sorted(r.name for r in results)

    def test_determinism(self):
        config = fast_config(seed=77)
        a = vc.run_suite(config, "massive")
        b = vc.run_suite(config, "massive")
        assert [(r.name, r.value) for r in a] == [(r.name, r.value) for r in b]
        assert vc.render_report(a, "json") == vc.render_report(b, "json")
        assert vc.render_report(a, "text") == vc.render_report(b, "text")

    def test_unknown_check_rejected(self):
        config = fast_config(checks=[{"name": "nope", "parameters": {}}])
        with pytest.raises(vc.ConfigError):
            vc.run_suite(config, "all")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(vc.ConfigError):
            vc.run_suite(fast_config(parameters={"spins": [1], "mass": 0.0,
                                                 "samples": 100, "width": 1.0}), "massive")
        with pytest.raises(vc.ConfigError):
            vc.run_suite(fast_config(parameters={"spins": [9], "mass": 1.0,
                                                 "samples": 100, "width": 1.0}), "massive")

    def test_tolerance_override_can_fail_a_check(self):
        config = fast_config(checks=[{"name": "eta_normalization", "parameters": {}}],
                             tolerances={"eta_normalization": 1e-30})
        results = vc.run_suite(config, "all")
        assert results[0].status == "fail"


class TestReport:
    def test_json_fields_and_order(self):
        config = fast_config(checks=[{"name": "epsilon_roundtrip", "parameters": {}}])
        results = vc.run_suite(config, "all")
        rows = json.loads(vc.render_report(results, "json"))
        assert list(rows[0]) == [
            "name", "module", "status", "kind", "value", "tolerance", "seed", "anchor",
        ]
        assert "runtime" not in rows[0]

    def test_text_line_shape(self):
        config = fast_config(checks=[{"name": "epsilon_roundtrip", "parameters": {}}])
        line = vc.render_report(vc.run_suite(config, "all"), "text").decode()
        assert line.startswith("PASS epsilon_roundtrip residual=")
        assert "tol=" in line

    def test_failing_check_reports_value_tolerance_seed(self):
        config = fast_config(seed=5, checks=[{"name": "eta_normalization", "parameters": {}}],
                             tolerances={"eta_normalization": 1e-30})
        rows = json.loads(vc.render_report(vc.run_suite(config, "all"), "json"))
        assert rows[0]["status"] == "fail"
        assert rows[0]["tolerance"] == 1e-30
        assert rows[0]["seed"] == 5
        assert rows[0]["value"] > 0

    def test_non_finite_values_give_valid_json(self):
        # the finite-difference checks return inf when they fail
        results = [
            vc.CheckResult(name=f"c{i}", module="massive", status="fail", kind="residual",
                           value=value, tolerance=tol, seed=1, anchor="", runtime=0.0)
            for i, (value, tol) in enumerate([(math.inf, 1.0), (math.nan, 1.0), (0.5, -math.inf)])
        ]

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        rows = json.loads(vc.render_report(results, "json"), parse_constant=reject)
        assert [(r["value"], r["tolerance"]) for r in rows] == [
            ("inf", 1.0), ("nan", 1.0), (0.5, "-inf"),
        ]
        assert vc.render_report(results, "text").decode().splitlines()[0] == (
            "FAIL c0 residual=inf tol=1.0"
        )

    def test_unknown_format(self):
        with pytest.raises(vc.ConfigError):
            vc.render_report([], "yaml")


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["epsilon_roundtrip"], "seed": 3}))
        assert vc.main(["all", "--config", str(cfg)]) == 0
        capsys.readouterr()
        cfg.write_text(json.dumps({"checks": ["epsilon_roundtrip"],
                                   "tolerances": {"epsilon_roundtrip": 1e-30}}))
        assert vc.main(["all", "--config", str(cfg)]) == 1
        capsys.readouterr()
        cfg.write_text(json.dumps({"checks": ["missing_check"]}))
        assert vc.main(["all", "--config", str(cfg)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["not-a-suite"], "argument suite: invalid choice: 'not-a-suite'"),
        (["identities", "--spin", "x"], "argument --spin: invalid int value: 'x'"),
        ([], "the following arguments are required: suite"),
        (["identities", "--bogus"], "unrecognized arguments: --bogus"),
    ])
    def test_usage_error_is_one_line(self, argv, message, capsys):
        # not argparse's usage block: one line, as a bad configuration gives
        assert vc.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        assert vc.main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: bw-verify")

    def test_mass_zero_is_parameter_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mass": 0.0, "checks": ["massive_field_equations"]}))
        assert vc.main(["massive", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_only_the_monte_carlo_scheme_is_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for scheme, code in (("grid", 2), ("nonsense", 2), ("monte-carlo", 0)):
            cfg.write_text(json.dumps({"sampler": {"scheme": scheme}, "checks": ["epsilon_roundtrip"]}))
            assert vc.main(["all", "--config", str(cfg)]) == code
            err = capsys.readouterr().err
            assert err == ("" if code == 0 else f"error: unknown sampler scheme {scheme!r}\n")

    def test_unknown_check_parameter_is_usage_error(self, tmp_path, capsys):
        # a misspelled key must not leave the check at its default sample count
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": [{"name": "packet_norm_invariance",
                                               "parameters": {"scheme": "grid", "sampels": 10}}]}))
        assert vc.main(["all", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "'sampels'" in captured.err
        accepted = {"spins": [1], "mass": 1.0, "samples": 2000, "width": 1.0}
        cfg.write_text(json.dumps({"checks": [{"name": "epsilon_roundtrip", "parameters": accepted}]}))
        assert vc.main(["all", "--config", str(cfg)]) == 0
        capsys.readouterr()

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["epsilon_roundtrip"], "seed": 3}))
        monkeypatch.setenv("BW_SEED", "12345")
        assert vc.main(["all", "--config", str(cfg), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["seed"] == 12345

    def test_env_seed_against_a_different_seed_flag_is_usage_error(self, capsys, monkeypatch):
        # neither silently replaces the other; an equal pair runs
        monkeypatch.setenv("BW_SEED", "7")
        assert vc.main(["identities", "--seed", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed 5 and BW_SEED=7 differ; set one of them\n"
        assert vc.main(["identities", "--seed", "7", "--format", "json"]) == 0
        assert {row["seed"] for row in json.loads(capsys.readouterr().out)} == {7}

    def test_flag_overrides(self, capsys):
        rc = vc.main(["massless", "--spin", "1", "--samples", "2000",
                      "--seed", "9", "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["seed"] == 9 for r in rows)

    def test_byte_identical_reports(self, capsys):
        vc.main(["identities", "--seed", "42", "--format", "json"])
        first = capsys.readouterr().out
        vc.main(["identities", "--seed", "42", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_byte_identical_reports_across_interpreters(self):
        # string hashing is salted per interpreter: no report byte may depend on it
        src = Path(__file__).resolve().parents[1] / "src"
        outs = [
            subprocess.run([sys.executable, "-m", "bwfields.verify_cli", "identities", "--format", "json"],
                           capture_output=True, check=True,
                           env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hashseed)).stdout
            for hashseed in ("0", "1")
        ]
        assert outs[0] and outs[0] == outs[1]

    @pytest.mark.parametrize("raw", [
        {"seed": "abc"},
        {"seed": -1},
        {"seed": 2.5},
        {"spins": 3},
        {"spins": [True]},
        {"mass": "x"},
        {"sampler": {"samples": "many"}},
        {"sampler": {"width": None}},
        {"sampler": [200]},
        {"tolerances": {"epsilon_roundtrip": float("nan")}},
        {"tolerances": {"epsilon_roundtrip": float("inf")}},
        {"tolerances": {"epsilon_roundtrip": -1e-12}},
        {"tolerances": {"epsilon_roundtrip": "1e-12"}},
        {"tolerances": {"\r": None}},
        {"checks": [{"name": "epsilon_roundtrip", "parameters": [1]}]},
        {"checks": [{"name": "trace_reversal_projection", "parameters": {"fields": 5}}]},
        {"samples": 10},
        {"spin": [7]},
        {"parameters": {"spins": [7]}},
        {"sampler": {"sampels": 10}},
        {"mass": 1e40},
        {"mass": 1e-40},
        {"mass": 10**400},
        {"sampler": {"width": 1e155}},
        {"sampler": {"width": 1e-100, "samples": 2000}},
        {"sampler": {"samples": 1e12}},
        {"sampler": {"samples": vc.MAX_SAMPLES + 1}},
        # the run seed has one key, the top-level "seed"
        {"sampler": {"seed": 4}},
    ])
    def test_malformed_config_value_is_usage_error(self, raw, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["epsilon_roundtrip"], **raw}))
        assert vc.main(["identities", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["identities", "--tol", "nan"],
        ["identities", "--tol", "-1"],
        ["massive", "--mass", "inf"],
        ["identities", "--seed", "-5"],
        ["all", "--mass", "1e40"],
        ["all", "--mass", "1e-40"],
        ["all", "--samples", "1000000000000"],
    ])
    def test_malformed_flag_value_is_usage_error(self, argv, capsys):
        assert vc.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_massless_checks_run_at_spin_5(self, capsys):
        # massive and massless fields share one spin range
        assert vc.main(["massless", "--spin", "5", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = json.loads(captured.out)
        expected = {name for name, check in REGISTRY.items() if check.module == "massless"}
        assert {row["name"] for row in rows} == expected

    @pytest.mark.parametrize("argv", [["identities", "--spin", "5"], ["all"]], ids=["identities", "all"])
    def test_passing_run_writes_nothing_to_stderr(self, argv, capsys):
        assert vc.main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_timings_sidecar(self, tmp_path, capsys):
        argv = ["identities", "--seed", "4", "--format", "json"]
        assert vc.main(argv) == 0
        plain = capsys.readouterr().out
        path = tmp_path / "timings.json"
        assert vc.main(argv + ["--timings", str(path)]) == 0
        assert capsys.readouterr().out == plain
        timings = json.loads(path.read_text())
        names = [row["name"] for row in json.loads(plain)]
        assert list(timings["checks"]) == names
        assert all(t >= 0.0 for t in timings["checks"].values())
        assert timings["total"] == pytest.approx(sum(timings["checks"].values()))
        # the manifest: versions, seed and the digest of the effective config
        manifest = timings["manifest"]
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__
        assert manifest["seed"] == 4
        config = vc.load_config(None)
        config["seed"] = 4
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        assert manifest["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
        other = tmp_path / "other.json"
        assert vc.main(["identities", "--seed", "5", "--format", "json", "--timings", str(other)]) == 0
        assert capsys.readouterr().out != plain
        moved = json.loads(other.read_text())["manifest"]
        assert moved["seed"] == 5
        assert moved["config_sha256"] != manifest["config_sha256"]

    def test_unwritable_timings_path_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "timings.json"
        assert vc.main(["identities", "--timings", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write timings")
        assert len(captured.err.splitlines()) == 1


class TestConfigFuzz:
    """Any JSON object given as a config ends in exit 0, 1 or 2, never in a
    traceback, and exit 2 writes one line."""

    # none of these reads "samples", so no fuzzed sample count is allocated
    CHECKS = ["epsilon_roundtrip", "massive_field_equations", "scalar_lorentz_covariance",
              "fd_plane_wave_massive", "helicity_eigenequation", "dirac_bridge"]
    LO, HI = vc.SCALE_RANGE
    EDGES = [LO, HI, LO * 0.999, HI * 1.001, 0.0, -1.0, 1, 2, vc.MAX_SAMPLES,
             vc.MAX_SAMPLES + 1, 1e12, 1e155, 10**400, math.nan, math.inf]

    leaf = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
            | st.sampled_from(EDGES))
    value = st.recursive(leaf, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6)
    number = st.sampled_from(EDGES) | st.floats() | st.integers() | value
    spins = st.lists(st.integers(0, 7), max_size=3) | value
    parameters = st.fixed_dictionaries(
        {}, optional={"spins": spins, "mass": number, "samples": number, "width": number})
    entry = (st.sampled_from(CHECKS)
             | st.fixed_dictionaries({"name": st.sampled_from(CHECKS)},
                                     optional={"parameters": parameters | value})
             | value)
    config = st.fixed_dictionaries(
        # "checks" is always given and never null, which would run every check
        {"checks": st.lists(entry, max_size=3) | value.filter(lambda v: v is not None)},
        optional={
            "seed": st.integers(-3, 2**70) | value,
            "sampler": st.fixed_dictionaries(
                {}, optional={"samples": number, "width": number,
                              "scheme": st.sampled_from(["monte-carlo", "grid"]) | value}) | value,
            "spins": spins,
            "mass": number,
            "tolerances": st.dictionaries(st.sampled_from(CHECKS) | st.text(max_size=6), number,
                                          max_size=2) | value,
            "parameters": value,
        },
    )

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=config)
    @example(raw={"checks": CHECKS, "mass": LO, "spins": [1, 6]})
    @example(raw={"checks": CHECKS, "mass": HI, "spins": [1, 6],
                  "sampler": {"width": HI, "samples": vc.MAX_SAMPLES}})
    @example(raw={"checks": CHECKS, "sampler": {"width": LO, "samples": 2}})
    @example(raw={"checks": CHECKS, "mass": LO * 0.999})
    @example(raw={"checks": CHECKS, "mass": HI * 1.001})
    @example(raw={"checks": CHECKS, "sampler": {"width": HI * 1.001}})
    @example(raw={"checks": CHECKS, "sampler": {"samples": vc.MAX_SAMPLES + 1}})
    def test_any_json_object_gives_an_exit_code(self, raw, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        rc = vc.main(["all", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc in (0, 1, 2)
        if rc == 2:
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("args, config, expected", [
        (["all", "--mass", str(LO), "--samples", "2000"], None, {"scalar_lorentz_covariance": "inf"}),
        # with the mass end, |p|/m reaches 1e20 (1e41 in the packet, at the
        # largest width): the stack routes' terms no longer cancel, and both
        # norm checks fail on their value
        (["all"], {"mass": LO, "sampler": {"width": HI, "samples": 2000}},
         {"packet_norm_invariance": None, "bilinear_norm_equality": None}),
        # m^-2n overflows at spins 5 and 6
        (["massive", "--mass", str(LO), "--samples", "2000", "--spin", "5", "--spin", "6"], None,
         {"trace_reversal_projection": "inf", "norm_equivalences": "nan"}),
    ])
    def test_range_ends_write_no_warning(self, args, config, expected, tmp_path):
        # a fresh interpreter, so numpy's warnings reach stderr as a user sees them
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args = args + ["--config", str(tmp_path / "cfg.json")]
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "bwfields.verify_cli", *args], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 1 and "Warning" not in proc.stderr, proc.stderr
        rows = {name: (status, value) for status, name, value, _ in map(str.split, proc.stdout.splitlines())}
        for name, value in expected.items():
            assert rows[name][0] == "FAIL", (name, rows[name])
            if value is not None:
                assert rows[name][1] == f"residual={value}", (name, rows[name])

    @pytest.mark.parametrize("mass", vc.SCALE_RANGE)
    @pytest.mark.parametrize("width", vc.SCALE_RANGE)
    def test_every_check_runs_at_the_range_ends(self, mass, width):
        config = fast_config()
        config["parameters"].update(mass=mass, width=width)
        assert len(vc.run_suite(config, "all")) == len(REGISTRY)


class TestFlagFuzz:
    """Any command line, with or without BW_SEED, ends in exit 0, 1 or 2,
    never in a traceback, and exit 2 writes one line and no report."""

    LO, HI = vc.SCALE_RANGE
    EDGES = [LO * 0.999, HI * 1.001, 0, -1, 1e40, "nan", "inf", -5, 2**70, vc.MAX_SAMPLES + 1, "json"]
    junk = st.text(max_size=4)
    whole = st.sampled_from(["1", "2", "3", "2000"])
    real = whole | st.sampled_from(["0.5", str(LO), str(HI)])
    # a command line of valid flags, then at most one flag given a wrong value
    flags = st.fixed_dictionaries({}, optional={
        "--spin": st.lists(st.integers(1, 6).map(str), min_size=1, max_size=2),
        "--mass": real, "--samples": whole, "--seed": whole, "--tol": real,
        "--format": st.sampled_from(["json", "text"]),
        # a writable file, a directory, a file in a missing directory
        "--timings": st.sampled_from(["file", "file", "dir", "missing"]),
    })
    wrong = st.none() | st.tuples(
        st.sampled_from(["suite", "--spin", "--mass", "--samples", "--seed", "--tol", "--format"]),
        st.sampled_from([str(x) for x in EDGES]) | st.integers(-1, 7).map(str) | st.floats().map(str) | junk)
    env_seed = st.none() | st.none() | st.integers(-3, 2**70).map(str) | st.text(alphabet="0123456789-+ .ex", max_size=5)

    # the suites that take a few milliseconds at any mass and sample count;
    # massless also runs every drawn spin, up to 6
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(suite=st.sampled_from(["identities", "dirac", "massless"]), flags=flags, wrong=wrong,
           env_seed=env_seed)
    def test_any_command_line_gives_an_exit_code(self, suite, flags, wrong, env_seed, tmp_path, capsys,
                                                 monkeypatch):
        paths = {"file": tmp_path / "timings.json", "dir": tmp_path, "missing": tmp_path / "missing" / "t.json"}
        if "--timings" in flags:
            flags["--timings"] = str(paths[flags["--timings"]])
        if wrong is not None:
            if wrong[0] == "suite":
                suite = wrong[1]
            else:
                flags[wrong[0]] = [wrong[1]] if wrong[0] == "--spin" else wrong[1]
        argv = [suite]
        for flag, value in flags.items():
            for v in value if flag == "--spin" else [value]:
                argv += [flag, v]
        if env_seed is None:
            monkeypatch.delenv("BW_SEED", raising=False)
        else:
            monkeypatch.setenv("BW_SEED", env_seed)
        rc = vc.main(argv)
        captured = capsys.readouterr()
        assert rc in (0, 1, 2)
        if rc == 2:
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1
