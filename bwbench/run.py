"""Benchmark of ``bw-verify``: one workload per call, from the repository root.

    python3 bwbench/run.py --workload verify_default --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json
(``run_s``, ``setup_s``, ``peak_rss_mib``); with ``--trace 1`` the per-layer
metrics from a separate traced run, and the tracing overhead against an
untraced run made in the same call.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``run_s`` and ``setup_s`` are host-speed corrected (``hostspeed.py``): each
interval is rescaled by reference work timed around and during it; the wall
times are printed beside them.  Every child process gets one BLAS/OpenMP thread
and ``src`` on its import path; the package is imported from this checkout's
``src``, never from an installed copy.  See README.md for the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_RUNS = 6  # fresh interpreters timed before the worker, and as many after
IMPORTTIME_RUNS = 5
IMPORTTIME_MODULES = {"numpy": "setup.numpy_s", "scipy.linalg": "setup.scipy_linalg_s",
                      "bwfields": "setup.bwfields_s"}
_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {BUDGET_S:.0f} s")
        return remaining


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def setup_time(env: dict, deadline: Deadline) -> float:
    """Seconds from starting a fresh interpreter to its probe's ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "setup_probe.py")], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], deadline.left())
        line = proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=deadline.left())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {err.decode(errors='replace')[-2000:]}")
    return elapsed


def setup_times(env: dict, deadline: Deadline, runs: int) -> tuple[list[float], list[float]]:
    """Wall and scaled set-up times of ``runs`` fresh interpreters, with a
    reference interpreter timed before and after each."""
    wall, scaled = [], []
    before = hostspeed.start_reference(env, deadline.left())
    for _ in range(runs):
        elapsed = setup_time(env, deadline)
        after = hostspeed.start_reference(env, deadline.left())
        wall.append(elapsed)
        scaled.append(hostspeed.scaled(elapsed, [before, after], hostspeed.START_REFERENCE_S))
        before = after
    return wall, scaled


def import_times(env: dict, deadline: Deadline) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime``, in seconds."""
    proc = subprocess.run([sys.executable, "-X", "importtime", str(BENCH / "setup_probe.py")],
                          cwd=ROOT, env=env, capture_output=True, timeout=deadline.left())
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    found = {}
    for line in proc.stderr.decode().splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(2) in IMPORTTIME_MODULES:
            found.setdefault(IMPORTTIME_MODULES[m.group(2)], int(m.group(1)) * 1e-6)
    if len(found) != len(IMPORTTIME_MODULES):
        raise BenchError(f"import times missing: {sorted(set(IMPORTTIME_MODULES.values()) - set(found))}")
    return found


def run_worker(args, trace: int, env: dict, deadline: Deadline) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-file", str(OUT / f"trace-{args.workload}-{args.seed}.json.gz")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=deadline.left())
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.decode(errors='replace')[-4000:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def times(values: list[float]) -> str:
    return ",".join(f"{t:.4f}" for t in values)


def report_worker(label: str, res: dict) -> None:
    print(f"{label}: passes={len(res['pass_s'])} wall pass_s={times(res['pass_s'])}")
    if res["scaled_s"]:
        refs = [r for pass_refs in res["reference_s"] for r in pass_refs]
        print(f"{label}: scaled pass_s={times(res['scaled_s'])}")
        print(f"{label}: reference_s n={len(refs)} min={min(refs):.6f} "
              f"median={statistics.median(refs):.6f} max={max(refs):.6f}")
    misses = res["verdict_misses"]
    print(f"{label}: check verdicts over tolerance {len(misses)} of {res['verdicts']}"
          + (f": {', '.join(misses)}" if misses else ""))
    if res["failures"]:
        print(f"{label}: failed operations: {', '.join(res['failures'])}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bwfields" / "verify_cli.py").is_file():
        print(f"error: no bwfields sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that subprocess.run kills and waits for its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    env = child_env()
    deadline = Deadline(BUDGET_S)
    try:
        if args.trace == 0:
            setup_time(env, deadline)  # untimed: fills the bytecode and file caches
            wall, scaled = setup_times(env, deadline, SETUP_RUNS)
            res = run_worker(args, 0, env, deadline)
            more = setup_times(env, deadline, SETUP_RUNS)
            wall, scaled = wall + more[0], scaled + more[1]
            report_worker("untraced", res)
            print(f"wall setup_s={times(wall)}")
            print(f"scaled setup_s={times(scaled)}")
            print(f"wall medians: run_s={statistics.median(res['pass_s']):.4f} "
                  f"setup_s={statistics.median(wall):.4f}")
            values = {"run_s": statistics.median(res["scaled_s"]),
                      "setup_s": statistics.median(scaled),
                      "peak_rss_mib": res["peak_rss_mib"]}
            wanted, attempted, failed = spec["end_to_end"], res["attempted"], res["failed"]
        else:
            probes = [import_times(env, deadline) for _ in range(IMPORTTIME_RUNS)]
            plain = run_worker(args, 0, env, deadline)
            traced = run_worker(args, 1, env, deadline)
            report_worker("untraced", plain)
            report_worker("traced", traced)
            values = dict(traced["layers"])
            for key in IMPORTTIME_MODULES.values():
                values[key] = statistics.median(p[key] for p in probes)
            values["trace.run_s"] = statistics.median(traced["pass_s"])
            values["trace.untraced_run_s"] = statistics.median(plain["pass_s"])
            values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
            for key in sorted(values):
                print(f"layer {key} {values[key]!r}")
            wanted = spec["per_layer"]
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
