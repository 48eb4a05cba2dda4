"""Run one workload's passes in this process and print its figures as JSON.

A pass is what ``bw-verify`` does: ``verify_cli.load_config``, then
``run_suite``, then ``render_report``, at the pass's seed.  Passes repeat
until ``--seconds`` have gone by (at least MIN_PASSES); the output checks of
each pass run after its timing.  An untraced run times each pass with a
``hostspeed.Clock``, which measures the reference work during it.
``run.py`` starts this script with one BLAS thread and ``src`` on the
import path; see README.md.

    python3 bwbench/worker.py --workload small_calls --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bwfields import massless, momentum, spinor_core, verify_cli
from bwfields.checks import REGISTRY

import hostspeed
import outputs
from tracing import Tracer, replace_everywhere

CONFIGS = Path(__file__).resolve().parent / "configs"
MIN_PASSES = 3
_STRIDE = 1_000_003  # more passes than this never fit in one run


def config_path(workload: str) -> Path | None:
    """``verify_default`` runs the default configuration of ``bw-verify all``;
    every other workload runs ``configs/<workload>.json``, read as
    ``bw-verify all --config <file>`` reads it."""
    return None if workload == "verify_default" else CONFIGS / f"{workload}.json"


def pass_seed(workload_seed: int, index: int) -> int:
    """Base seed of pass ``index``.  Pass 1 repeats pass 0, whose report it
    must reproduce byte for byte; every other pass has a seed of its own,
    and different runs' seeds give different passes."""
    return (workload_seed % 2**32) * _STRIDE + (0 if index == 1 else index)


class Tally:
    """Operations attempted and failed, with the names of the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)


def record_draws(drawn: list) -> None:
    """Keep every SL(2,C) element that spinor_core.random_sl2c returns."""
    original = spinor_core.random_sl2c

    def recording(*args, **kwargs):
        s = original(*args, **kwargs)
        drawn.append(s)
        return s

    replace_everywhere(original, recording)


def run_pass(path: Path | None, seed: int):
    config = verify_cli.load_config(None if path is None else str(path))
    config["seed"] = seed
    results = verify_cli.run_suite(config, "all")
    return config, results, verify_cli.render_report(results, "json")


def check_quadrature(config: dict, rows: dict, seed: int, tally: Tally) -> None:
    """Recompute amplitude_gaussian_norm on the sampler its generator makes."""
    name = "amplitude_gaussian_norm"
    width = float(config["parameters"]["width"])
    samples = int(config["parameters"]["samples"])
    rng = outputs.check_rng(seed, name)
    sampler = momentum.monte_carlo_sampler(0.0, 1, samples, width, seed=int(rng.integers(2**31)))
    mean, se = outputs.gaussian_mean(sampler.points, sampler.weights, width)
    value, _ = momentum.integrate(
        lambda p: massless.amplitude_norm_integrand(
            np.exp(-np.sum(p.spatial**2, axis=-1) / (2 * width**2))
        ),
        sampler,
    )
    tally.check("quadrature.pi_w2", outputs.gaussian_within_se(mean, se, width))
    tally.check("quadrature.integrate", outputs.same_to_roundoff(mean, value.real))
    reported = rows.get(name, {}).get("value", float("nan"))
    tally.check("quadrature.reported_z", outputs.zscore_matches(mean, se, width, reported))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    path = config_path(args.workload)
    names = sorted(REGISTRY) if path is None else [
        c["name"] for c in verify_cli.load_config(str(path))["checks"]
    ]
    bounds = {n: outputs.gross_bound(n, REGISTRY[n].kind, REGISTRY[n].tolerance) for n in names}
    # a warm process: the lazily built tables are filled before timing
    spinor_core.build_ivdw()
    spinor_core.sigma_generators()
    spinor_core.levi_civita4()

    drawn: list = []
    if args.workload == "small_calls":
        record_draws(drawn)
    tracer = clock = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        clock = hostspeed.Clock()

    tally = Tally()
    verdict_misses: list[str] = []
    pass_s: list[float] = []
    scaled_s: list[float] = []
    pass_refs: list[list[float]] = []
    layer_rows: list[dict] = []
    first_report = None
    start = time.perf_counter()
    while len(pass_s) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        seed = pass_seed(args.seed, len(pass_s))
        gc.collect()
        drawn.clear()
        if tracer:
            tracer.reset_totals()
        if clock:
            clock.begin()
            try:
                config, results, report = run_pass(path, seed)
            finally:
                clock.end()
            pass_s.append(clock.wall)
            scaled_s.append(clock.scaled())
            pass_refs.append(clock.refs)
        else:
            t0 = time.perf_counter()
            config, results, report = run_pass(path, seed)
            pass_s.append(time.perf_counter() - t0)
        if tracer:
            row = tracer.snapshot()
            row.update({f"checks.{r.name}.s": r.runtime for r in results})
            layer_rows.append(row)
            tracer.enabled = False
        if first_report is None:
            first_report = report
        elif len(pass_s) == 2:
            # the README promises byte-identical reports for the same seed
            tally.check("deterministic", report == first_report)

        parsed = outputs.parse_report(report)
        tally.check("report", outputs.report_complete(parsed, names, seed))
        rows = {r.get("name"): r for r in parsed or []}
        for name in names:
            row = rows.get(name, {})
            tally.check(name, outputs.row_within(row, bounds[name]))
            if row.get("status") != "pass":
                verdict_misses.append(f"{name}@{seed}")
        if args.workload == "small_calls":
            tally.check("lorentz", bool(drawn) and all(
                outputs.lorentz_agrees(s.matrix, spinor_core.sl2c_to_lorentz(s).matrix)
                for s in drawn
            ))
        if args.workload == "quadrature":
            check_quadrature(config, rows, seed, tally)
        if tracer:
            tracer.enabled = True

    if tracer:
        tracer.enabled = False
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {
        "pass_s": pass_s,
        "scaled_s": scaled_s,
        "reference_s": pass_refs,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "verdicts": len(pass_s) * len(names),
        "verdict_misses": verdict_misses,
        "peak_rss_mib": peak_kib / 1024.0,
    }
    if tracer:
        # counts are whole numbers, so they take the lower median
        out["layers"] = {
            k: (statistics.median if k.endswith("_s") or k.endswith(".s") else statistics.median_low)(
                [r.get(k, 0) for r in layer_rows])
            for k in sorted(set().union(*layer_rows))
        }
        if args.trace_file:
            with gzip.open(args.trace_file, "wt", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                           "spans": tracer.spans}, fh)
        tracer.uninstall()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
