"""On-shell four-momenta, null spin frames and mass-shell quadrature.

Momenta carry their energy-sign branch as data: p^0 = sign * sqrt(m^2 + |p|^2).
All operations broadcast over leading batch axes of the spatial components,
so a :class:`FourMomentum` can hold one momentum or a whole sample set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spinor_core import (
    EPS_LO,
    EPS_UP,
    METRIC,
    LorentzMatrix,
    build_ivdw,
    world_from_spinor,
)

__all__ = [
    "FourMomentum",
    "SpinFrame",
    "HyperboloidSampler",
    "on_shell",
    "momentum_matrix",
    "spin_frame",
    "act",
    "monte_carlo_sampler",
    "grid_sampler",
    "integrate",
    "minkowski_dot",
]


def minkowski_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^a v_a with signature (+,-,-,-), on trailing axes of length 4."""
    u = np.asarray(u)
    v = np.asarray(v)
    return u[..., 0] * v[..., 0] - np.sum(u[..., 1:] * v[..., 1:], axis=-1)


@dataclass(frozen=True)
class FourMomentum:
    """On-shell momentum with an explicit energy-sign branch."""

    mass: float
    sign: int
    spatial: np.ndarray  # (..., 3)

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError("mass must be non-negative")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        sp = np.asarray(self.spatial, dtype=float)
        if sp.shape[-1:] != (3,):
            raise ValueError("spatial part must have a trailing axis of length 3")
        sq = np.sum(sp * sp, axis=-1)
        if self.mass == 0.0 and np.any(sq == 0.0):
            raise ValueError("massless momentum must have nonzero spatial part")
        object.__setattr__(self, "spatial", sp)
        p0 = self.sign * np.sqrt(self.mass**2 + sq)
        if isinstance(p0, np.ndarray):
            p0.setflags(write=False)
        object.__setattr__(self, "_p0", p0)

    @property
    def p0(self) -> np.ndarray:
        return self._p0

    @property
    def vec(self) -> np.ndarray:
        """Contravariant components p^a, shape (..., 4)."""
        return np.concatenate(
            [np.asarray(self.p0)[..., None], self.spatial], axis=-1
        )

    @property
    def covec(self) -> np.ndarray:
        """Covariant components p_a."""
        return self.vec @ METRIC


def on_shell(mass: float, sign: int, spatial) -> FourMomentum:
    return FourMomentum(mass=float(mass), sign=int(sign), spatial=np.asarray(spatial, dtype=float))


def momentum_matrix(p: FourMomentum, positions: str = "uu") -> np.ndarray:
    """Spinor-pair form of the momentum, shape (..., 2, 2).

    ``positions`` selects the index heights: "uu" gives p^{AA'} (Hermitian,
    det = p.p/2), "ll" gives p_{AA'}, "ul" gives p^A_{A'} and "lu" gives
    p_A^{A'}.

    Each position is one (4, 2, 2) table, so the batch work is a single real
    product of p^a with the table's (4, 8) float view, written straight into
    the complex output.
    """
    up = build_ivdw().up
    if positions == "uu":
        table = up
    elif positions == "ll":
        # p_{AA'} = p^{BB'} eps_{BA} eps_{B'A'}
        table = EPS_LO.T @ up @ EPS_LO
    elif positions == "ul":
        # p^A_{A'} = p^{AB'} eps_{B'A'}
        table = up @ EPS_LO
    elif positions == "lu":
        # p_A^{A'} = eps^{A'B'} p_{AB'}
        table = EPS_LO.T @ up @ EPS_LO @ EPS_UP.T
    else:
        raise ValueError(f"unknown index positions {positions!r}")
    vec = p.vec
    batch = vec.shape[:-1]
    out = np.empty(batch + (2, 2), dtype=complex)
    np.matmul(vec, table.view(float).reshape(4, 8), out=out.view(float).reshape(batch + (8,)))
    return out


@dataclass(frozen=True)
class SpinFrame:
    """Pair (pi_A, omega^A) with pi_A omega^A = 1 factorizing a null momentum."""

    pi: np.ndarray  # (..., 2) lower index
    omega: np.ndarray  # (..., 2) upper index

    def reassembled(self, sign: int) -> np.ndarray:
        """World components of sign * pi_A pibar_{A'} (a lower world vector)."""
        outer = self.pi[..., :, None] * np.conj(self.pi)[..., None, :]
        return sign * world_from_spinor(outer, 1)


def spin_frame(p: FourMomentum) -> SpinFrame:
    """Factorize a null momentum as p_a = sign * pi_A pibar_{A'}.

    The phase is fixed by making the largest-magnitude component of pi real
    and positive; omega is the unique solution of pi_A omega^A = 1 with
    zero Euclidean overlap against the gauge direction pi^A.
    """
    if p.mass != 0.0:
        raise ValueError("spin frames exist only for null momenta")
    m = p.sign * momentum_matrix(p, "ll")  # positive semidefinite, rank 1
    d0 = m[..., 0, 0].real
    d1 = m[..., 1, 1].real
    use0 = d0 >= d1
    col = np.where(use0[..., None], m[..., :, 0], m[..., :, 1])
    den = np.sqrt(np.where(use0, d0, d1))
    pi = col / den[..., None]
    # canonical phase: largest component real positive
    big = np.where(
        np.abs(pi[..., 0]) >= np.abs(pi[..., 1]), pi[..., 0], pi[..., 1]
    )
    pi = pi * np.exp(-1j * np.angle(big))[..., None]
    omega = np.conj(pi) / np.sum(np.abs(pi) ** 2, axis=-1)[..., None]
    return SpinFrame(pi=pi, omega=omega)


def act(lam: LorentzMatrix, p: FourMomentum) -> FourMomentum:
    """Apply a Lorentz matrix; mass and energy branch are preserved."""
    new = p.vec @ lam.matrix.T
    out = FourMomentum(mass=p.mass, sign=p.sign, spatial=new[..., 1:])
    if np.max(np.abs(new[..., 0] - out.p0)) > 1e-9 * max(1.0, float(np.max(np.abs(new)))):
        raise AssertionError("transformed momentum left its mass shell")
    return out


# ---------------------------------------------------------------------------
# Quadrature over the invariant measure d^3p / (2|p^0|)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperboloidSampler:
    """Weighted samples approximating the invariant mass-shell measure."""

    points: np.ndarray  # (N, 3)
    weights: np.ndarray  # (N,)
    mass: float
    sign: int
    seed: int | None
    scheme: str  # "monte-carlo" | "grid"

    def momenta(self) -> FourMomentum:
        return FourMomentum(mass=self.mass, sign=self.sign, spatial=self.points)

    def __len__(self) -> int:
        return self.points.shape[0]


def monte_carlo_sampler(
    mass: float, sign: int, n: int, width: float = 1.0, seed: int = 0
) -> HyperboloidSampler:
    """Importance sampling from an isotropic Gaussian of the given width.

    Weights are 1 / (2|p^0| rho(p)), so a weighted mean estimates
    integral d^3p f(p) / (2|p^0|).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=width, size=(n, 3))
    log_rho = -np.sum(pts**2, axis=1) / (2 * width**2) - 1.5 * np.log(
        2 * np.pi * width**2
    )
    p0 = np.sqrt(mass**2 + np.sum(pts**2, axis=1))
    w = np.exp(-log_rho) / (2 * p0)
    return HyperboloidSampler(
        points=pts, weights=w, mass=mass, sign=sign, seed=seed, scheme="monte-carlo"
    )


def grid_sampler(
    mass: float, sign: int, n_per_axis: int, extent: float
) -> HyperboloidSampler:
    """Uniform cubic grid on [-extent, extent]^3 with midpoint weights."""
    if n_per_axis < 1:
        raise ValueError("need at least one grid point per axis")
    step = 2 * extent / n_per_axis
    axis = -extent + step * (np.arange(n_per_axis) + 0.5)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    if mass == 0.0:
        keep = np.sum(pts**2, axis=1) > 0
        pts = pts[keep]
    p0 = np.sqrt(mass**2 + np.sum(pts**2, axis=1))
    w = step**3 / (2 * p0)
    return HyperboloidSampler(
        points=pts, weights=w, mass=mass, sign=sign, seed=None, scheme="grid"
    )


def integrate(
    f: Callable[[FourMomentum], np.ndarray], sampler: HyperboloidSampler
) -> tuple[complex, float]:
    """Weighted-sample estimate of integral f(p) d^3p / (2|p^0|).

    Returns (value, standard_error); the error estimate is zero for grid
    schemes.  Evaluation is vectorized over the whole sample set and the
    reduction order is fixed, so results are deterministic per seed.
    """
    if len(sampler) == 0:
        raise ValueError("sampler is empty")
    vals = np.asarray(f(sampler.momenta()))
    if vals.shape != sampler.weights.shape:
        raise ValueError("integrand must return one value per sample")
    contrib = sampler.weights * vals
    if sampler.scheme == "grid":
        return complex(np.sum(contrib)), 0.0
    n = len(sampler)
    mean = np.sum(contrib) / n
    var = np.sum(np.abs(contrib - mean) ** 2) / (n - 1) if n > 1 else 0.0
    return complex(mean), float(np.sqrt(var / n))
