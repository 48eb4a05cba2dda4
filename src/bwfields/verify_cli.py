"""Batch verification driver.

Composes the registered identity checks into named suites, runs them with
configured seeds and sizes, and emits machine-readable reports.  Given the
same configuration and seed the results and the report bytes are
identical run to run; wall-clock timings are kept on the in-memory results
only, never serialized.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 bad usage or
configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass

import numpy as np

from .checks import MODULES, REGISTRY, ConfigError, default_parameters
from .massive_bw import DEFAULT_SPIN_CAP

__all__ = ["CheckResult", "ConfigError", "load_config", "run_suite", "render_report", "main"]

DEFAULT_SEED = 20240901


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


def _validate_parameters(params: dict) -> None:
    spins = params.get("spins", [])
    if not spins:
        raise ConfigError("no spins selected")
    for n in spins:
        if not isinstance(n, int) or n < 1 or n > DEFAULT_SPIN_CAP:
            raise ConfigError(f"spin index {n} outside 1..{DEFAULT_SPIN_CAP}")
    if params.get("mass", 0.0) <= 0.0:
        raise ConfigError("massive checks need mass > 0")
    if params.get("samples", 0) < 2:
        raise ConfigError("need at least 2 quadrature samples")
    if params.get("width", 0.0) <= 0.0:
        raise ConfigError("sampler width must be positive")


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
    if "seed" in raw:
        config["seed"] = int(raw["seed"])
    sampler = raw.get("sampler", {})
    if "samples" in sampler:
        config["parameters"]["samples"] = int(sampler["samples"])
    if "width" in sampler:
        config["parameters"]["width"] = float(sampler["width"])
    if "seed" in sampler:
        config["seed"] = int(sampler["seed"])
    scheme = sampler.get("scheme", "monte-carlo")
    if scheme not in ("monte-carlo", "grid"):
        raise ConfigError(f"unknown sampler scheme {scheme!r}")
    config["parameters"]["scheme"] = scheme
    for key in ("spins", "mass"):
        if key in raw:
            config["parameters"][key] = raw[key]
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be a mapping")
    config["tolerances"] = {str(k): float(v) for k, v in tolerances.items()}
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
            parsed.append({"name": str(entry["name"]),
                           "parameters": dict(entry.get("parameters", {}))})
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
    seed = int(config.get("seed", DEFAULT_SEED))
    base_params = dict(default_parameters())
    base_params.update(config.get("parameters", {}))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
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
            config["tolerances"] = {name: args.tol for name in REGISTRY}
        env_seed = os.environ.get("BW_SEED")
        if env_seed is not None:
            try:
                config["seed"] = int(env_seed)
            except ValueError as exc:
                raise ConfigError(f"BW_SEED must be an integer, got {env_seed!r}") from exc
        results = run_suite(config, args.suite)
        sys.stdout.buffer.write(render_report(results, args.format))
        sys.stdout.buffer.flush()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if any(r.status == "fail" for r in results):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
