"""The names and files the benchmark harness relies on, checked without running it.

``bwbench/tracing.py`` wraps each function it lists in ``TRACED`` and stops
when one is gone; ``bwbench/run.py`` times the import of ``scipy.linalg``
that ``bwfields.verify_cli`` brings in, and runs its workloads from the
configs in ``bwbench/configs``; ``bwbench/worker.py`` recomputes a
quadrature check from the sampler's points and weights.  Any gap ends a
benchmark run.  The other way round, every name a ``bwfields`` module
exports is used by the package or by the harness, not by the tests alone.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bwfields
from bwfields import momentum as mom
from bwfields import verify_cli as vc
from bwfields.checks import REGISTRY

ROOT = Path(__file__).resolve().parents[1]


def test_traced_names_resolve_and_verify_cli_imports_scipy_linalg():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bwbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"bwfields.{module}")
        missing = [name for name in names if not callable(getattr(mod, name, None))]
        assert not missing, f"bwfields.{module} lacks {missing}"
    # a fresh interpreter: this one has imported scipy for other tests
    code = "import sys, bwfields.verify_cli; sys.exit('scipy.linalg' not in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "bwbench" / "configs").glob("*.json")))
def test_benchmark_config_loads_and_names_registered_checks(config):
    loaded = vc.load_config(str(ROOT / "bwbench" / "configs" / config))
    names = [entry["name"] for entry in loaded["checks"]]
    assert names and sorted(set(names) - set(REGISTRY)) == []


def test_sampler_and_integrate_as_the_worker_and_tracer_call_them():
    # worker.check_quadrature: monte_carlo_sampler(mass, sign, n, width,
    # seed=), .points and .weights into its own Gaussian mean, and
    # integrate(f, sampler) on an integrand that reads p.spatial;
    # tracing counts len(sampler) from integrate's second positional argument
    n, width = 5000, 1.3
    sampler = mom.monte_carlo_sampler(0.0, 1, n, width, seed=7)
    assert len(sampler) == n
    points, weights = sampler.points, sampler.weights
    assert points.shape == (n, 3) and points.dtype == np.float64 and weights.shape == (n,)
    assert np.array_equal(points, np.random.default_rng(7).normal(scale=width, size=(n, 3)))
    contrib = weights * np.exp(-np.sum(points * points, axis=1) / width**2)
    value, se = mom.integrate(lambda p: np.exp(-np.sum(p.spatial**2, axis=-1) / width**2), sampler)
    assert isinstance(value, complex) and isinstance(se, float)
    assert abs(value.real - np.sum(contrib) / n) <= 1e-12 * abs(value.real)


def _uses(path, strings):
    """The names a file loads, reads as attributes or imports; with ``strings``,
    also the dotted names in its string constants other than docstrings, as
    ``TRACED`` lists the functions it wraps."""
    tree = ast.parse(path.read_text())
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                yield from node.value.split(".")


def test_every_exported_name_is_used_outside_the_tests():
    used = {name for path in (ROOT / "src" / "bwfields").glob("*.py") for name in _uses(path, False)}
    used |= {name for path in (ROOT / "bwbench").rglob("*.py") for name in _uses(path, True)}
    unused = [f"{info.name}.{name}" for info in pkgutil.iter_modules(bwfields.__path__)
              for name in importlib.import_module(f"bwfields.{info.name}").__all__ if name not in used]
    assert not unused
