"""Output checks of the benchmark, each against an independent computation
or a property the method must have, never against a stored report.

Every function returns True when the output is right.  They take plain
arrays and values so that ``selftest.py`` can feed them wrong ones.
"""

from __future__ import annotations

import json
import math
import zlib

import numpy as np

# sigma_a = (1, sigma_x, sigma_y, sigma_z)
PAULI4 = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# A statistical statement is checked at this many standard errors.  At 3 the
# estimate misses pi w^2 for about 0.3 % of seeds by chance (3 of 1000 seeds
# measured), which hundreds of passes would hit; at 6 a normally distributed
# estimate misses with probability about 2e-9, while a wrong normalisation
# misses by hundreds of standard errors.
STAT_SE = 6.0


def parse_report(report: bytes) -> list[dict] | None:
    """Rows of a JSON report, or None when it is not a list of objects."""
    try:
        rows = json.loads(report)
    except ValueError:
        return None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        return None
    return rows


def report_complete(rows: list[dict] | None, names: list[str], seed: int) -> bool:
    """One row per selected check, sorted by name, all at the pass seed."""
    if rows is None:
        return False
    return [r.get("name") for r in rows] == sorted(names) and all(
        r.get("seed") == seed for r in rows
    )


def row_consistent(row: dict) -> bool:
    """A report row is finite, non-negative, and its status matches the
    comparison of value and tolerance (whichever way it went)."""
    value, tol = row.get("value"), row.get("tolerance")
    if not isinstance(value, (int, float)) or not isinstance(tol, (int, float)):
        return False
    if not math.isfinite(value) or value < 0.0:
        return False
    return row.get("status") == ("pass" if value <= tol else "fail")


# A check's verdict (value <= tolerance) misses on rare seeds while the code
# works as intended, so a row fails as an operation only past a gross bound:
# far beyond that chance tail, well below what a broken computation gives.
#
# Residuals: in about 7000 benchmark passes the other residual checks missed
# 6 times, at most 27 times the tolerance; the tail falls off about as 1/x,
# so 10^3 times the tolerance is passed by chance about once in 10^6 passes.
# A broken identity gives residuals of order one.  Single precision (epsilon
# 1.2e-7) leaves errors of 1e-7 and more: 10^4 times and more the 1e-12 to
# 1e-14 tolerances, and at the bound of the 1e-10 ones.
RESIDUAL_FACTOR = 1e3
# norm_equivalences divides by products of up to four t.p factors of random
# probes, so its tail falls off more slowly: 3 misses in about 600 passes and
# seeds, two of them at 8 and 10 times the tolerance.  Its typical residual,
# 1e-12, is some 5000 double-precision epsilons; in single precision that
# would be about 6e-4, far past this wider bound.
WIDE_RESIDUAL_FACTOR = {"norm_equivalences": 1e5}
# The finite-difference checks' value is |r1/r2 - 4|, the ratio of the
# residuals at steps h and h/2 against the 2^2 of a second-order stencil; it
# stayed below 0.05 over 1200 seeds, and a first-order stencil gives 2.
FD_BOUND = 1.0
# z-scores: packet_norm_invariance's heavy-tailed importance weights take it
# past 3 on about 2 % of seeds, and it stayed below 6.3 over 1550 seeds; a
# wrong measure or group action gives hundreds of standard errors.
ZSCORE_BOUND = 30.0


def gross_bound(name: str, kind: str, tolerance: float) -> float:
    """The largest value of check ``name``'s row that is not an error."""
    if kind == "zscore":
        return ZSCORE_BOUND
    if name.startswith("fd_plane_wave_"):
        return FD_BOUND
    return WIDE_RESIDUAL_FACTOR.get(name, RESIDUAL_FACTOR) * tolerance


def row_within(row: dict, bound: float) -> bool:
    """A consistent row whose value is at most ``bound``."""
    return row_consistent(row) and row["value"] <= bound


def lorentz_from_sl2c(s: np.ndarray) -> np.ndarray:
    """Lambda^a_b = (1/2) tr(sigma_a M sigma_b M^dagger) with M = (S^-1)^T,
    for S of shape (..., 2, 2)."""
    s = np.asarray(s, dtype=complex)
    m = np.swapaxes(np.linalg.inv(s), -1, -2)
    m_dag = np.conj(np.swapaxes(m, -1, -2))
    return 0.5 * np.einsum("aij,...jk,bkl,...li->...ab", PAULI4, m, PAULI4, m_dag).real


def lorentz_agrees(s: np.ndarray, lam: np.ndarray, rel: float = 1e-12) -> bool:
    """The program's Lorentz matrix for S equals the trace formula."""
    ref = lorentz_from_sl2c(s)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != ref.shape:
        return False
    return bool(np.max(np.abs(lam - ref)) <= rel * max(1.0, float(np.max(np.abs(ref)))))


def check_rng(seed: int, name: str) -> np.random.Generator:
    """The generator ``run_suite`` gives a check: base seed and check name."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def gaussian_mean(points: np.ndarray, weights: np.ndarray, width: float) -> tuple[float, float]:
    """Weighted mean of exp(-|p|^2 / w^2) over the samples, with its standard
    error; it estimates integral d^3p exp(-|p|^2/w^2) / (2|p|) = pi w^2."""
    contrib = weights * np.exp(-np.sum(points * points, axis=1) / width**2)
    n = contrib.size
    mean = float(np.sum(contrib) / n)
    se = float(np.sqrt(np.sum((contrib - mean) ** 2) / (n - 1) / n))
    return mean, se


def gaussian_within_se(mean: float, se: float, width: float) -> bool:
    return se > 0.0 and abs(mean - math.pi * width**2) <= STAT_SE * se


def same_to_roundoff(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def zscore_matches(mean: float, se: float, width: float, reported: float) -> bool:
    """The report's amplitude_gaussian_norm value is |mean - pi w^2| / se."""
    if not math.isfinite(reported) or se <= 0.0:
        return False
    own = abs(mean - math.pi * width**2) / se
    return abs(own - reported) <= 1e-9 * max(1.0, own)
