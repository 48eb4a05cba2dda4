"""Batch verification driver.

Composes the registered identity checks into named suites, runs them with
configured seeds and sizes, and emits machine-readable reports.  Given the
same configuration and seed the results and the report bytes are
identical run to run; wall-clock timings are kept on the in-memory results
and never enter the report (``--timings PATH`` writes them, with a manifest
of the run's environment, to a separate JSON file).

Exit codes: 0 all checks pass, 1 at least one check fails, 2 bad usage or
configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import os
import platform
import sys
import time
import zlib
from dataclasses import dataclass

import numpy as np

from .checks import MODULES, REGISTRY, ConfigError, default_parameters
from .massive_bw import DEFAULT_SPIN_CAP

__all__ = ["CheckResult", "ConfigError", "load_config", "run_suite", "render_report", "main"]

DEFAULT_SEED = 20240901
# keys a check entry's "parameters" may set
CHECK_PARAMETERS = frozenset(default_parameters())
# keys a config file and its "sampler" mapping may set
CONFIG_KEYS = ("seed", "sampler", "spins", "mass", "tolerances", "checks")
SAMPLER_KEYS = ("samples", "width", "scheme")
# accepted mass and sampler width, ends included: every check runs to a
# result at both ends, while a mass of 1e40 or 1e-40, or a width of 1e155,
# breaks float64 (an overflow, a complex world tensor) before any check can
SCALE_RANGE = (1e-20, 1e20)
# at most this many quadrature samples, about 0.6 GiB at peak
MAX_SAMPLES = 10**7


@dataclass(frozen=True)
class CheckResult:
    name: str
    module: str
    status: str  # "pass" | "fail"
    kind: str  # "residual" | "zscore"
    value: float
    tolerance: float
    seed: int
    anchor: str
    runtime: float  # seconds; excluded from serialized reports


def _integer(value, what: str) -> int:
    """An integer config value: an integer, or a float with no fraction."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """A finite real config value."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _tolerance(value, what: str) -> float:
    tol = _real(value, what)
    if tol < 0.0:
        raise ConfigError(f"{what} must be non-negative, got {value!r}")
    return tol


def _validate_parameters(params: dict) -> None:
    spins = params.get("spins", [])
    if not isinstance(spins, (list, tuple)):
        raise ConfigError(f"spins must be a list of spin indices, got {spins!r}")
    if not spins:
        raise ConfigError("no spins selected")
    for n in spins:
        integral = isinstance(n, numbers.Integral) and not isinstance(n, bool)
        if not integral or not 1 <= n <= DEFAULT_SPIN_CAP:
            raise ConfigError(f"spin index {n!r} outside 1..{DEFAULT_SPIN_CAP}")
    lo, hi = SCALE_RANGE
    for key, what in (("mass", "mass"), ("width", "sampler width")):
        value = _real(params.get(key, 0.0), what)
        if not lo <= value <= hi:
            raise ConfigError(f"{what} must lie in [{lo:g}, {hi:g}], got {value!r}")
    samples = _integer(params.get("samples", 0), "samples")
    if not 2 <= samples <= MAX_SAMPLES:
        raise ConfigError(f"samples must lie in 2..{MAX_SAMPLES}, got {samples}")


def _known_keys(mapping: dict, accepted: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(mapping) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}; accepted: {', '.join(accepted)}")


def load_config(path: str | None) -> dict:
    """Read a JSON configuration file; missing path gives the defaults."""
    config: dict = {"seed": DEFAULT_SEED, "parameters": default_parameters(),
                    "tolerances": {}, "checks": None}
    if path is None:
        return config
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _known_keys(raw, CONFIG_KEYS, "config")
    if "seed" in raw:
        config["seed"] = _integer(raw["seed"], "seed")
    sampler = raw.get("sampler", {})
    if not isinstance(sampler, dict):
        raise ConfigError("sampler must be a mapping")
    _known_keys(sampler, SAMPLER_KEYS, "sampler")
    if "samples" in sampler:
        config["parameters"]["samples"] = _integer(sampler["samples"], "sampler samples")
    if "width" in sampler:
        config["parameters"]["width"] = _real(sampler["width"], "sampler width")
    scheme = sampler.get("scheme", "monte-carlo")
    if scheme != "monte-carlo":
        raise ConfigError(f"unknown sampler scheme {scheme!r}")
    for key in ("spins", "mass"):
        if key in raw:
            config["parameters"][key] = raw[key]
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be a mapping")
    config["tolerances"] = {
        str(k): _tolerance(v, f"tolerance of {k!r}") for k, v in tolerances.items()
    }
    checks = raw.get("checks")
    if checks is not None:
        if not isinstance(checks, list):
            raise ConfigError("checks must be a list")
        parsed = []
        for entry in checks:
            if isinstance(entry, str):
                entry = {"name": entry}
            if not isinstance(entry, dict) or "name" not in entry:
                raise ConfigError(f"bad check entry {entry!r}")
            overrides = entry.get("parameters", {})
            if not isinstance(overrides, dict):
                raise ConfigError(f"parameters of check {entry['name']!r} must be a mapping")
            unknown = sorted(set(overrides) - CHECK_PARAMETERS)
            if unknown:
                raise ConfigError(
                    f"unknown parameters {unknown} of check {entry['name']!r}; "
                    f"accepted: {', '.join(sorted(CHECK_PARAMETERS))}"
                )
            parsed.append({"name": str(entry["name"]), "parameters": dict(overrides)})
        config["checks"] = parsed
    return config


def _selected(config: dict, suite: str) -> list[tuple[str, dict]]:
    if suite != "all" and suite not in MODULES:
        raise ConfigError(f"unknown suite {suite!r}")
    if config.get("checks") is not None:
        out = []
        for entry in config["checks"]:
            name = entry["name"]
            if name not in REGISTRY:
                raise ConfigError(f"unknown check name {name!r}")
            if suite in ("all", REGISTRY[name].module):
                out.append((name, entry["parameters"]))
        return out
    return [
        (name, {})
        for name, check in REGISTRY.items()
        if suite in ("all", check.module)
    ]


def run_suite(config: dict, suite: str = "all") -> list[CheckResult]:
    """Run the selected checks; deterministic given the configured seed."""
    seed = _integer(config.get("seed", DEFAULT_SEED), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    base_params = {**default_parameters(), **config.get("parameters", {})}
    tolerances = config.get("tolerances", {})
    results = []
    for name, overrides in _selected(config, suite):
        check = REGISTRY[name]
        params = dict(base_params)
        params.update(overrides)
        _validate_parameters(params)
        tol = float(tolerances.get(name, check.tolerance))
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        t0 = time.perf_counter()
        value = float(check.run(params, rng))
        runtime = time.perf_counter() - t0
        status = "pass" if value <= tol else "fail"
        results.append(
            CheckResult(
                name=name, module=check.module, status=status, kind=check.kind,
                value=value, tolerance=tol, seed=seed, anchor=check.anchor,
                runtime=runtime,
            )
        )
    results.sort(key=lambda r: r.name)
    return results


def _manifest(config: dict) -> dict:
    """Where a run ran: the Python, numpy and scipy versions, the seed and the
    sha256 of the effective configuration (after flags and BW_SEED), as
    canonical JSON.  scipy is reported only if something imported it."""
    scipy = sys.modules.get("scipy")
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", None),
        "seed": config.get("seed", DEFAULT_SEED),
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def _write_timings(path: str, results: list[CheckResult], config: dict) -> None:
    """Sidecar JSON of the per-check runtimes in seconds, their total and the
    run's manifest."""
    timings = {"checks": {r.name: r.runtime for r in results},
               "total": sum(r.runtime for r in results),
               "manifest": _manifest(config)}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(timings, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write timings: {exc}") from exc


def _json_number(x: float) -> float | str:
    """JSON has no inf or nan: those go out as the strings the text report prints."""
    return x if math.isfinite(x) else repr(x)


def render_report(results: list[CheckResult], fmt: str) -> bytes:
    """Serialize results with stable field order; timings are omitted."""
    if fmt == "json":
        rows = [
            {
                "name": r.name,
                "module": r.module,
                "status": r.status,
                "kind": r.kind,
                "value": _json_number(r.value),
                "tolerance": _json_number(r.tolerance),
                "seed": r.seed,
                "anchor": r.anchor,
            }
            for r in results
        ]
        return (json.dumps(rows, indent=2, allow_nan=False) + "\n").encode()
    if fmt == "text":
        lines = [
            f"{'PASS' if r.status == 'pass' else 'FAIL'} {r.name} residual={r.value!r} tol={r.tolerance!r}"
            for r in results
        ]
        return ("\n".join(lines) + ("\n" if lines else "")).encode()
    raise ConfigError(f"unknown report format {fmt!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors: exit 2 with one
    ``error: ...`` line, as a bad configuration gives, not the usage block."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bw-verify",
        description="Run the spinor-field identity verification suites.",
    )
    parser.add_argument("suite", choices=list(MODULES) + ["all"])
    parser.add_argument("--spin", type=int, action="append",
                        help="restrict to one spin index 2s (repeatable)")
    parser.add_argument("--mass", type=float, help="mass for the massive suites")
    parser.add_argument("--samples", type=int, help="Monte-Carlo sample count")
    parser.add_argument("--seed", type=int, help="base seed for all checks")
    parser.add_argument("--tol", type=float,
                        help="override every check tolerance (use sparingly)")
    parser.add_argument("--format", choices=["json", "text"], default="text")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--timings", metavar="PATH",
                        help="write per-check runtimes (seconds), their total and a manifest "
                             "of the environment to a JSON file")
    return parser


def _usage_error(exc: ConfigError) -> int:
    """Exit code 2 after one ``error: ...`` line on stderr, even where the
    message quotes an argument with a line break."""
    print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:  # --help, the one exit left to argparse
        return 0
    except ConfigError as exc:
        return _usage_error(exc)
    try:
        config = load_config(args.config)
        if args.spin:
            config["parameters"]["spins"] = args.spin
        if args.mass is not None:
            config["parameters"]["mass"] = args.mass
        if args.samples is not None:
            config["parameters"]["samples"] = args.samples
        if args.seed is not None:
            config["seed"] = args.seed
        if args.tol is not None:
            tol = _tolerance(args.tol, "--tol")
            config["tolerances"] = {name: tol for name in REGISTRY}
        env_seed = os.environ.get("BW_SEED")
        if env_seed is not None:
            try:
                config["seed"] = int(env_seed)
            except ValueError as exc:
                raise ConfigError(f"BW_SEED must be an integer, got {env_seed!r}") from exc
            if args.seed is not None and args.seed != config["seed"]:
                raise ConfigError(f"--seed {args.seed} and BW_SEED={env_seed} differ; set one of them")
        results = run_suite(config, args.suite)
        if args.timings is not None:
            _write_timings(args.timings, results, config)
        sys.stdout.buffer.write(render_report(results, args.format))
        sys.stdout.buffer.flush()
    except ConfigError as exc:
        return _usage_error(exc)
    if any(r.status == "fail" for r in results):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
