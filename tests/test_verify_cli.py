import hashlib
import json
import math
import platform

import numpy as np
import pytest
import scipy

from bwfields import verify_cli as vc
from bwfields.checks import MODULES, REGISTRY


def fast_config(**overrides):
    config = vc.load_config(None)
    config["parameters"].update({"spins": [1, 2], "samples": 2000})
    config.update(overrides)
    return config


class TestRegistry:
    def test_names_unique_and_module_tagged(self):
        assert len(REGISTRY) == len(set(REGISTRY))
        for check in REGISTRY.values():
            assert check.module in MODULES
            assert check.kind in ("residual", "zscore")
            assert check.anchor

    def test_every_module_has_checks(self):
        for module in MODULES:
            assert any(c.module == module for c in REGISTRY.values())


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

    def test_usage_error(self, capsys):
        assert vc.main(["not-a-suite"]) == 2
        capsys.readouterr()

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
        accepted = {"spins": [1], "mass": 1.0, "samples": 2000, "width": 1.0, "fields": 5}
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
        {"checks": [{"name": "epsilon_roundtrip", "parameters": [1]}]},
        {"samples": 10},
        {"spin": [7]},
        {"parameters": {"spins": [7]}},
        {"sampler": {"sampels": 10}},
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
    ])
    def test_malformed_flag_value_is_usage_error(self, argv, capsys):
        assert vc.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_unsupported_massless_spin_is_usage_error(self, capsys):
        # the massless checks stop at spin index 3; spin 5 is not replaced by another
        assert vc.main(["massless", "--spin", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: massless checks need a spin index in 1..3, got [5]\n"

    def test_skipped_massless_spins_named_on_stderr(self, capsys):
        assert vc.main(["massless", "--spin", "1", "--spin", "5", "--samples", "2000",
                        "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "note: massless checks skipped spin indices [5]\n"
        # the report is the one of the spins that ran
        assert vc.main(["massless", "--spin", "1", "--samples", "2000", "--format", "json"]) == 0
        alone = capsys.readouterr()
        assert alone.err == ""
        assert captured.out == alone.out

    def test_no_note_without_massless_checks(self, capsys):
        assert vc.main(["identities", "--spin", "5"]) == 0
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
