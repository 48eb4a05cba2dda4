"""On-shell four-momenta, null spin frames and mass-shell quadrature.

Momenta carry their energy-sign branch as data: p^0 = sign * sqrt(m^2 + |p|^2).
All operations broadcast over leading batch axes of the spatial components,
so a :class:`FourMomentum` can hold one momentum or a whole sample set.

Each momentum's kinematics is computed once, when it is built, and kept
read-only: |p|^2 (by column sums, which round exactly as a sum over the
length-3 axis does), p^0 and the rows p^a.  A sampler builds the rows of
all its points once, with the p^0 its weights use, and :func:`integrate`
hands the integrand momenta that are views of them: only |p|^2 is computed
again, block by block.  The four index-position tables of
:func:`momentum_matrix` are built once, at import, so a call is one product
of p^a with a cached (4, 8) table.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .spinor_core import (
    EPS_LO,
    EPS_UP,
    METRIC,
    LorentzMatrix,
    _read_only,
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
    "integrate",
    "minkowski_dot",
]


def minkowski_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^a v_a with signature (+,-,-,-), on trailing axes of length 4."""
    u = np.asarray(u)
    v = np.asarray(v)
    return u[..., 0] * v[..., 0] - np.sum(u[..., 1:] * v[..., 1:], axis=-1)


def _spatial_sq(sp: np.ndarray) -> np.ndarray:
    """|p|^2 over the trailing axis of length 3, as column sums.

    Rounds exactly as np.sum(sp * sp, axis=-1), whose length-3 reduction adds
    in the same order, at a fifth of its cost on a block of samples.
    """
    x, y, z = sp[..., 0], sp[..., 1], sp[..., 2]
    return x * x + y * y + z * z


def _check_branch(mass: float, sign: int) -> None:
    if not mass >= 0:
        raise ValueError("mass must be non-negative")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")


def _check_components(mass: float, components: np.ndarray, p0: np.ndarray) -> None:
    """Finite components, and a nonzero |p| when massless, which on the shell
    is a nonzero p^0."""
    if not np.all(np.isfinite(components)):
        raise ValueError("momentum components must be finite")
    if mass == 0.0 and np.any(p0 == 0.0):
        raise ValueError("massless momentum must have nonzero spatial part")


@dataclass(frozen=True)
class FourMomentum:
    """On-shell momentum with an explicit energy-sign branch.

    |p|^2 (``spatial_sq``), ``p0`` and the rows p^a (``vec``) are computed
    once, at construction, and are read-only like ``spatial``.
    """

    mass: float
    sign: int
    spatial: np.ndarray  # (..., 3)

    def __post_init__(self):
        _check_branch(self.mass, self.sign)
        sp = np.asarray(self.spatial, dtype=float)
        if sp.shape[-1:] != (3,):
            raise ValueError("spatial part must have a trailing axis of length 3")
        sq = _spatial_sq(sp)
        p0 = self.sign * np.sqrt(self.mass**2 + sq)
        _check_components(self.mass, sp, p0)
        vec = np.empty(sp.shape[:-1] + (4,))
        vec[..., 0] = p0
        # column by column: one strided copy of all three runs an inner loop of 3
        for k in range(3):
            vec[..., k + 1] = sp[..., k]
        # spatial becomes a read-only view of the input, as vec holds a copy
        self._hold(sp.view(), sq, p0, vec)

    def _hold(self, spatial, sq, p0, vec) -> None:
        _read_only(spatial, sq, p0, vec)
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "_spatial_sq", sq)
        object.__setattr__(self, "_p0", p0)
        object.__setattr__(self, "_vec", vec)

    @classmethod
    def _of_rows(cls, mass: float, sign: int, vec: np.ndarray) -> "FourMomentum":
        """Momenta on read-only rows p^a that a sampler has checked and put
        on the shell: views of them, and |p|^2 computed as at construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "mass", mass)
        object.__setattr__(p, "sign", sign)
        spatial = vec[..., 1:]
        p._hold(spatial, _spatial_sq(spatial), vec[..., 0], vec)
        return p

    @property
    def spatial_sq(self) -> np.ndarray:
        """|p|^2, shape (...)."""
        return self._spatial_sq

    @property
    def p0(self) -> np.ndarray:
        return self._p0

    @property
    def vec(self) -> np.ndarray:
        """Contravariant components p^a, shape (..., 4)."""
        return self._vec

    @property
    def covec(self) -> np.ndarray:
        """Covariant components p_a."""
        return self.vec @ METRIC


def on_shell(mass: float, sign: int, spatial) -> FourMomentum:
    return FourMomentum(mass=float(mass), sign=int(sign), spatial=np.asarray(spatial, dtype=float))


def _build_position_tables() -> Mapping[str, np.ndarray]:
    """The (4, 2, 2) table of each index position as a read-only (4, 8)
    float view."""
    up = build_ivdw().up
    # p_{AA'} = p^{BB'} eps_{BA} eps_{B'A'}
    ll = EPS_LO.T @ up @ EPS_LO
    tables = {
        "uu": up,
        "ll": ll,
        # p^A_{A'} = p^{AB'} eps_{B'A'}
        "ul": up @ EPS_LO,
        # p_A^{A'} = eps^{A'B'} p_{AB'}
        "lu": ll @ EPS_UP.T,
    }
    views = {k: t.view(float).reshape(4, 8) for k, t in tables.items()}
    _read_only(*views.values())
    return MappingProxyType(views)


# Built at import, before any sample arrays exist: a cache filled inside the
# first integrand call leaves its small arrays above that call's temporaries
# on the heap, which then cannot shrink when they are freed.
_POSITION_TABLES = _build_position_tables()


def momentum_matrix(p: FourMomentum, positions: str = "uu") -> np.ndarray:
    """Spinor-pair form of the momentum, shape (..., 2, 2).

    ``positions`` selects the index heights: "uu" gives p^{AA'} (Hermitian,
    det = p.p/2), "ll" gives p_{AA'}, "ul" gives p^A_{A'} and "lu" gives
    p_A^{A'}.

    Each position is one (4, 2, 2) table, so the batch work is a single real
    product of p^a with the table's cached (4, 8) float view, written
    straight into the complex output.
    """
    if positions not in _POSITION_TABLES:
        raise ValueError(f"unknown index positions {positions!r}")
    vec = p.vec
    batch = vec.shape[:-1]
    out = np.empty(batch + (2, 2), dtype=complex)
    np.matmul(vec, _POSITION_TABLES[positions], out=out.view(float).reshape(batch + (8,)))
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
    """Apply a Lorentz matrix; mass and energy branch are preserved.

    A batch of matrices, shape (B..., 4, 4), acts as in a matrix product
    with the rows p^a: the momenta's last batch axis stays whole and the
    axes before it broadcast against B...  So B matrices acting on N
    momenta give a (B, N) batch, and on one momentum a (B,) batch.  Each
    result's energy must match its mass shell to 1e-9 of that energy (at
    least 1), which bounds all its entries.
    """
    new = p.vec @ np.swapaxes(lam.matrix, -1, -2)
    out = FourMomentum(mass=p.mass, sign=p.sign, spatial=new[..., 1:])
    scale = np.maximum(1.0, np.abs(out.p0))
    if not np.all(np.abs(new[..., 0] - out.p0) <= 1e-9 * scale):
        raise AssertionError("transformed momentum left its mass shell")
    return out


# ---------------------------------------------------------------------------
# Quadrature over the invariant measure d^3p / (2|p^0|)
# ---------------------------------------------------------------------------


# Samples per integrand call, and per draw of the sampler.  An n = 2 field
# stack on 4096 samples is 1 MiB (16 components of 16 B per sample), so it
# and its temporaries do not stay in a 2 MiB L2 cache; 4096 still wins,
# because half as many blocks pay the integrand's per-call cost.  On the
# three Monte-Carlo checks (one BLAS thread, a shared 2-core x86-64 host,
# median ratio over 48 interleaved rounds in one process), 2048 takes about
# 8 % longer than 4096 and 8192 about 1 % longer, and 8192 raises the peak
# RSS of 2x10^5-sample passes by 3-4 MiB.
INTEGRATE_BLOCK = 4096


@dataclass(frozen=True)
class HyperboloidSampler:
    """Weighted samples approximating the invariant mass-shell measure.

    ``rows`` holds each sample's p^a, on the shell of ``mass`` on the branch
    ``sign``: p^0 = sign * sqrt(m^2 + |p|^2).  The checks a FourMomentum
    makes are made once, here: the branch, finite components (p^0 too) and,
    when massless, a nonzero |p|.  The arrays are held read-only, and
    ``points`` is a view of the spatial rows.
    """

    rows: np.ndarray  # (N, 4)
    weights: np.ndarray  # (N,)
    mass: float
    sign: int

    def __post_init__(self):
        _check_branch(self.mass, self.sign)
        rows = np.asarray(self.rows, dtype=float).view()
        weights = np.asarray(self.weights, dtype=float).view()
        if rows.ndim != 2 or rows.shape[1] != 4 or weights.shape != rows.shape[:1]:
            raise ValueError("need rows of shape (N, 4) and weights of shape (N,)")
        _check_components(self.mass, rows, rows[:, 0])
        _read_only(rows, weights)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "weights", weights)

    @property
    def points(self) -> np.ndarray:
        """Spatial components, shape (N, 3)."""
        return self.rows[:, 1:]

    def __len__(self) -> int:
        return self.rows.shape[0]


def monte_carlo_sampler(
    mass: float, sign: int, n: int, width: float = 1.0, seed: int = 0
) -> HyperboloidSampler:
    """Importance sampling from an isotropic Gaussian of the given width.

    Weights are 1 / (2|p^0| rho(p)), so a weighted mean estimates
    integral d^3p f(p) / (2|p^0|).  They are formed in place from -log rho =
    |p|^2 / 2w^2 + 1.5 log 2 pi w^2, which rounds exactly as the negated log
    density does; scaling standard normals in place rounds as rng.normal does.
    The normals are drawn INTEGRATE_BLOCK points at a time, the same stream
    as one draw of all of them, and each block's |p^0| serves its weights and
    its rows.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    rows = np.empty((n, 4))
    weights = np.empty(n)
    for start in range(0, n, INTEGRATE_BLOCK):
        stop = min(start + INTEGRATE_BLOCK, n)
        pts = rng.standard_normal((stop - start, 3))
        if width != 1:
            pts *= width
        sq = _spatial_sq(pts)
        energy = np.sqrt(mass**2 + sq)
        w = weights[start:stop]
        np.divide(sq, 2 * width**2, out=w)
        w += 1.5 * np.log(2 * np.pi * width**2)
        np.exp(w, out=w)
        w /= 2 * energy
        np.multiply(sign, energy, out=rows[start:stop, 0])
        for k in range(3):  # as FourMomentum fills its rows
            rows[start:stop, k + 1] = pts[:, k]
    return HyperboloidSampler(rows=rows, weights=weights, mass=mass, sign=sign)


def integrate(
    f: Callable[[FourMomentum], np.ndarray], sampler: HyperboloidSampler
) -> tuple[complex, float]:
    """Weighted-sample estimate of integral f(p) d^3p / (2|p^0|).

    Returns (value, standard_error).  ``f`` is evaluated on consecutive
    blocks of INTEGRATE_BLOCK samples, so it must work sample by sample and
    return one value per sample of each block.  Each block's momentum is a
    view of the sampler's rows, checked when the sampler was built.  The
    values are reduced together in a fixed order, so results are
    deterministic per seed.
    """
    n = len(sampler)
    if n == 0:
        raise ValueError("sampler is empty")
    blocks = []
    for start in range(0, n, INTEGRATE_BLOCK):
        rows = sampler.rows[start:start + INTEGRATE_BLOCK]
        vals = np.asarray(f(FourMomentum._of_rows(sampler.mass, sampler.sign, rows)))
        if vals.shape != rows.shape[:1]:
            raise ValueError("integrand must return one value per sample")
        blocks.append(vals)
    contrib = sampler.weights * np.concatenate(blocks)
    # the blocks go before the variance's N-sized temporaries are made
    blocks.clear()
    mean = np.sum(contrib) / n
    # an overflow here, at the ends of the accepted mass and width ranges,
    # gives an infinite error, which the z-score checks read as a failure
    with np.errstate(over="ignore", invalid="ignore"):
        var = np.sum(np.abs(contrib - mean) ** 2) / (n - 1) if n > 1 else 0.0
    return complex(mean), float(np.sqrt(var / n))
