"""Call-boundary tracing of the bwfields layers, installed from outside.

A wrapper replaces each traced public function in every ``bwfields`` module
that holds it, so calls through names imported with ``from .x import f``
are seen as well as calls through the defining module.  Each call records a
span (name, start, end, parent) in memory; self time is the span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# Functions whose calls become spans, by module of definition.  Names follow
# the per-layer metric names in the README: <module>.<function>.<what>.
TRACED = {
    "massive_bw": ("tensor_T", "scalar_N", "build_from_seed", "norm_primed_integrand",
                   "symmetrize", "project_slot", "trace_reverse_slot", "transform",
                   "residual_field_equations"),
    "spinor_core": ("random_sl2c", "exp_rep", "sl2c_to_lorentz", "build_ivdw",
                    "sigma_generators"),
    "momentum": ("integrate", "momentum_matrix", "on_shell", "act",
                 "monte_carlo_sampler", "spin_frame"),
    "dirac_algebra": ("build_gammas", "dirac_current_matrix_route", "dirac_current"),
    "massless": ("field_from_amplitude", "field_from_potential", "eta_canonical",
                 "norm_primed_integrand"),
    "maxwell": ("tensor_T_em", "stress_form", "em_spinor_from_potential"),
    "verify_cli": ("run_suite", "render_report"),
}


def _labels(args, kwargs, result) -> int:
    f = args[0] if args else kwargs["f"]
    return len(f.components)


def _field_samples(args, kwargs, result) -> int:
    f = args[0] if args else kwargs["f"]
    return math.prod(f.batch_shape())


def _built_samples(args, kwargs, result) -> int:
    return math.prod(result.batch_shape())


def _sampler_samples(args, kwargs, result) -> int:
    sampler = args[1] if len(args) > 1 else kwargs["sampler"]
    return len(sampler)


# Work counters beside the call counts: (metric suffix, counter function).
COUNTERS = {
    "massive_bw.tensor_T": ("labels", _labels),
    "massive_bw.scalar_N": ("samples", _field_samples),
    "massive_bw.build_from_seed": ("samples", _built_samples),
    "momentum.integrate": ("samples", _sampler_samples),
}


def replace_everywhere(original, replacement) -> int:
    """Point every bwfields module attribute bound to ``original`` at
    ``replacement``; returns the number of bindings replaced."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "bwfields" or mod_name.startswith("bwfields.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


class Tracer:
    """In-memory span recorder with per-name call, self-time and work totals."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.enabled = True
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._installed: list[tuple[object, object]] = []
        self.reset_totals()

    def reset_totals(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.work: dict[str, int] = {}

    def _enter(self) -> None:
        self._stack.append([self._next_id, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        span_id, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += dur
        self.spans.append((span_id, parent, name, start, end))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.total_s[name] = self.total_s.get(name, 0.0) + dur

    def wrap(self, name: str, fn, returns_generator: bool = False):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.work[key] = self.work.get(key, 0) + counter[1](args, kwargs, result)
            if returns_generator:
                return self.wrap(name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED; bwfields must already be imported."""
        for module, functions in TRACED.items():
            mod = sys.modules[f"bwfields.{module}"]
            for fn_name in functions:
                original = getattr(mod, fn_name)
                # transform returns a generator that does the slot contractions
                # when called, so the generator's calls are spans of that layer
                wrapped = self.wrap(f"{module}.{fn_name}", original,
                                    returns_generator=fn_name == "transform")
                if replace_everywhere(original, wrapped) == 0:
                    raise RuntimeError(f"bwfields.{module}.{fn_name} not found")
                self._installed.append((original, wrapped))

    def uninstall(self) -> None:
        for original, wrapped in reversed(self._installed):
            replace_everywhere(wrapped, original)
        self._installed.clear()

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last reset."""
        out: dict[str, float] = {}
        for module, functions in TRACED.items():
            for fn_name in functions:
                name = f"{module}.{fn_name}"
                if module == "verify_cli":
                    out[f"{name}.s"] = self.total_s.get(name, 0.0)
                    continue
                out[f"{name}.calls"] = self.calls.get(name, 0)
                out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name, (what, _) in COUNTERS.items():
            out[f"{name}.{what}"] = self.work.get(f"{name}.{what}", 0)
        return out
