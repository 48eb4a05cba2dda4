"""Host-speed correction: a fixed piece of reference work, timed beside the
program, rescales each measured interval to a host of fixed speed.

The benchmark shares a few cores of a host whose speed drifts by up to 2x
within seconds and for minutes at a time; the program's pass times and the
reference's times drift together (README.md, "Steadiness").  The reference
is benchmark code that no change to ``bwfields`` touches, so an interval
divided by the reference time measured around it, times ``REFERENCE_S``,
reads the same on a slow and a fast host and still moves with the program:

    scaled_s = wall_s * REFERENCE_S / median(references around and during it)

is the time the interval would take on a host where ``reference()`` takes
``REFERENCE_S`` seconds.  Set-up times are scaled in the same way by
``start_reference()``, a fresh interpreter's start.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# Nominal times of reference() and start_reference(); they fix the scale only.
REFERENCE_S = 0.008
START_REFERENCE_S = 0.13
SPLIT_S = 0.25  # a Clock measures the reference this often during a pass

_MATRICES = np.random.default_rng(0).standard_normal((10_000, 4, 4))
# standard-library imports only: nothing in the repository changes their cost
_START = "import json, decimal, email.message, xml.etree.ElementTree, http.client, unittest"


def reference() -> float:
    """Seconds taken by fixed work of the kinds a ``bw-verify`` pass is made
    of: an interpreter loop and a batched 4x4 matrix product."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    np.einsum("kij,kjl->kil", _MATRICES, _MATRICES)
    return time.perf_counter() - t0


def start_reference(env: dict, timeout: float) -> float:
    """Seconds for a fresh interpreter to import a fixed set of standard
    library modules: process start, file reads and unmarshalling, the work
    of a set-up, which the compute reference above does not follow."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _START], env=env, check=True,
                   capture_output=True, timeout=timeout)
    return time.perf_counter() - t0


def scaled(wall_s: float, refs: list[float], nominal: float = REFERENCE_S) -> float:
    """``wall_s`` on a host where the reference takes ``nominal``, from the
    reference times measured around and during the interval."""
    return wall_s * nominal / statistics.median(refs)


class Clock:
    """Times one pass and measures the reference at its start, at its end and
    every SPLIT_S in between, from a timer signal whose handler runs between
    the interpreter's instructions; the handler's time is not counted in
    ``wall``.  ``refs`` holds this pass's reference times."""

    def __init__(self):
        self.refs: list[float] = []
        self.wall = 0.0
        self._paused = 0.0
        self._start = 0.0
        self._previous = signal.SIG_DFL

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference())
        self._paused += time.perf_counter() - t0

    def begin(self) -> None:
        self.refs = [reference()]
        self._paused = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SPLIT_S, SPLIT_S)

    def end(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = time.perf_counter() - self._start - self._paused
        self.refs.append(reference())

    def scaled(self) -> float:
        return scaled(self.wall, self.refs)
