"""Momentum-space massive spin-n/2 multispinor fields.

A field of spin n/2 is a map from length-n bit labels to rank-n component
arrays: bit 0 marks a lower unprimed slot, bit 1 a lower primed slot.  The
all-zero label holds a totally symmetric seed; every other component is
generated by the first-order momentum-space equation

    p^A_{A'} psi^{..0..}_{..A..} = -(m/sqrt2) psi^{..1..}_{..A'..}

applied slot by slot.  The companion equation with the opposite index
staggering then holds automatically because p_{AB'} p^{BB'} = (m^2/2) delta.

All operations broadcast over leading batch axes, so a whole Monte-Carlo
sample set goes through each slot contraction at once: a two-term update of
array slices per slot, or one matrix product per label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product, permutations
from typing import Callable

import numpy as np

from .momentum import FourMomentum, HyperboloidSampler, act, integrate, minkowski_dot, momentum_matrix
from .spinor_core import EPS_UP, SL2CElement, build_ivdw, sl2c_to_lorentz

__all__ = [
    "Label",
    "BWFieldAtP",
    "all_labels",
    "symmetrize",
    "build_from_seed",
    "residual_field_equations",
    "tensor_T",
    "scalar_N",
    "norm_standard_integrand",
    "norm_primed_integrand",
    "norm_covariant_integrand",
    "project_slot",
    "trace_reverse_slot",
    "transform",
    "GaussianPacket",
    "norm_covariant",
    "norm_standard",
    "fd_spacetime_residual",
    "random_field",
]

Label = tuple[int, ...]

_L = "abcdefghijklmnopqrst"

DEFAULT_SPIN_CAP = 6  # 4^n world-tensor entries; raise deliberately if needed


def all_labels(n: int) -> list[Label]:
    return [tuple(bits) for bits in product((0, 1), repeat=n)]


def _contract_slot(arr: np.ndarray, mat: np.ndarray, k: int, n: int, sum_first: bool) -> np.ndarray:
    """Contract slot k of ``arr`` with a 2x2 (possibly batched) matrix.

    ``sum_first=True`` sums over the matrix's first index (new index is its
    second); ``sum_first=False`` sums over the second.  The sum has two
    terms, each a one-value slice of ``arr`` on slot k times the matching
    row (or column) of the matrix placed on that slot; batch axes broadcast.
    """
    tail = (slice(None),) * (n - 1 - k)
    place = (...,) + (None,) * k + (slice(None),) + (None,) * (n - 1 - k)
    rows = mat if sum_first else np.swapaxes(mat, -1, -2)
    out = arr[(..., slice(0, 1)) + tail] * rows[..., 0, :][place]
    out += arr[(..., slice(1, 2)) + tail] * rows[..., 1, :][place]
    return out


@dataclass(frozen=True)
class BWFieldAtP:
    """All 2^n components of a spin-n/2 field at one momentum (or a batch)."""

    n: int
    p: FourMomentum
    components: dict[Label, np.ndarray]

    def batch_shape(self) -> tuple[int, ...]:
        arr = self.components[(0,) * self.n]
        return arr.shape[: arr.ndim - self.n]


def symmetrize(arr: np.ndarray, n: int) -> np.ndarray:
    """Total symmetrization over the trailing n axes."""
    off = arr.ndim - n
    out = np.zeros_like(arr)
    perms = list(permutations(range(n)))
    for perm in perms:
        out += np.transpose(arr, tuple(range(off)) + tuple(off + i for i in perm))
    return out / len(perms)


def build_from_seed(
    seed: np.ndarray,
    p: FourMomentum,
    n: int,
    require_symmetric: bool = True,
    spin_cap: int = DEFAULT_SPIN_CAP,
) -> BWFieldAtP:
    """Generate all 2^n components from a symmetric all-unprimed seed."""
    if p.mass <= 0:
        raise ValueError("massive construction needs m > 0")
    if n < 1 or n > spin_cap:
        raise ValueError(f"n must be between 1 and {spin_cap}")
    seed = np.asarray(seed, dtype=complex)
    if seed.shape[seed.ndim - n:] != (2,) * n:
        raise ValueError("seed must have n trailing spinor axes")
    if require_symmetric and n > 1:
        if np.max(np.abs(seed - symmetrize(seed, n))) > 1e-12 * max(1.0, np.max(np.abs(seed))):
            raise ValueError("seed is not totally symmetric")

    p_ul = momentum_matrix(p, "ul")
    factor = -np.sqrt(2.0) / p.mass
    comps: dict[Label, np.ndarray] = {(0,) * n: seed}
    for lab in sorted(all_labels(n), key=lambda t: (sum(t), t)):
        if lab in comps:
            continue
        k = lab.index(1)
        parent = list(lab)
        parent[k] = 0
        comps[lab] = factor * _contract_slot(comps[tuple(parent)], p_ul, k, n, sum_first=True)
    return BWFieldAtP(n=n, p=p, components={lab: comps[lab] for lab in all_labels(n)})


def residual_field_equations(f: BWFieldAtP) -> float:
    """Largest violation of the two first-order equations over all slots."""
    m = f.p.mass
    p_ul = momentum_matrix(f.p, "ul")
    p_lu = momentum_matrix(f.p, "lu")
    worst = 0.0
    for lab, arr in f.components.items():
        for k, bit in enumerate(lab):
            flipped = list(lab)
            flipped[k] = 1 - bit
            other = f.components[tuple(flipped)]
            if bit == 0:
                lhs = _contract_slot(arr, p_ul, k, f.n, sum_first=True)
                rhs = -(m / np.sqrt(2.0)) * other
            else:
                lhs = _contract_slot(arr, p_lu, k, f.n, sum_first=False)
                rhs = (m / np.sqrt(2.0)) * other
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def tensor_T(f: BWFieldAtP) -> np.ndarray:
    """Rank-n world tensor sum over labels of psi psibar, shape (..., 4)*n.

    Each world slot pairs the unprimed index (from psi or its conjugate,
    whichever carries it) with the primed partner; entries are real.

    The 2^n components are stacked with one (bit, index) pair per slot, so
    the label sum becomes n slot contractions of psi (x) psibar, whose bit
    is shared by both factors, with the kernel K[w, bit, i, j]: g[w, i, j]
    for bit 0 and g[w, j, i] for bit 1.
    """
    g = build_ivdw().up
    kernel = np.stack([g, np.swapaxes(g, 1, 2)], axis=1)
    n = f.n
    comps = np.broadcast_arrays(*(f.components[lab] for lab in all_labels(n)))
    batch = comps[0].shape[: comps[0].ndim - n]
    nb = len(batch)
    # (..., 2^n, (2,)*n) -> (..., bit_1, i_1, ..., bit_n, i_n)
    stacked = np.stack(comps, axis=nb).reshape(batch + (2,) * (2 * n))
    stacked = stacked.transpose(list(range(nb)) + [nb + a for k in range(n) for a in (k, n + k)])
    total = stacked.reshape(batch + (2, 2, 1) * n) * np.conj(stacked).reshape(batch + (2, 1, 2) * n)
    # each step contracts the leading (bit, i, j) slot and appends its world index
    for _ in range(n):
        total = np.tensordot(total, kernel, axes=([nb, nb + 1, nb + 2], [1, 2, 3]))
    scale = max(1.0, float(np.max(np.abs(total))))
    if np.max(np.abs(total.imag)) > 1e-12 * scale:
        raise AssertionError("world tensor has non-negligible imaginary part")
    return total.real


def scalar_N(f: BWFieldAtP) -> np.ndarray:
    """Full contraction p^{a_1}..p^{a_n} T_{a_1..a_n}, computed per label.

    Uses p^{AA'} directly on the spinor pairs, which is the same contraction
    as through the world tensor but cheaper for large sample batches: each
    label's component is pushed through p^{AA'} slot by slot (its unprimed
    index for bit 0, its primed one for bit 1) and paired with its conjugate.
    """
    p_uu = momentum_matrix(f.p, "uu")
    n = f.n
    spinor_axes = tuple(range(-n, 0))
    total = 0.0
    for lab, arr in f.components.items():
        q = arr
        for k, bit in enumerate(lab):
            q = _contract_slot(q, p_uu, k, n, sum_first=bit == 0)
        total = total + np.sum(q * np.conj(arr), axis=spinor_axes).real
    return total


def norm_standard_integrand(f: BWFieldAtP) -> np.ndarray:
    """Sum of |component|^2 over labels and index values, divided by |p0|^n."""
    n = f.n
    total = None
    for arr in f.components.values():
        s = np.sum(np.abs(arr) ** 2, axis=tuple(range(arr.ndim - n, arr.ndim)))
        total = s if total is None else total + s
    return total / np.abs(f.p.p0) ** n


def norm_primed_integrand(f: BWFieldAtP, ts: list[np.ndarray]) -> np.ndarray:
    """(t_1..t_n . T) / prod_k (t_k . p) for arbitrary probe world vectors."""
    n = f.n
    if len(ts) != n:
        raise ValueError("need one probe vector per tensor slot")
    T = tensor_T(f)
    num = T
    den = 1.0
    for k, t in enumerate(ts):
        t = np.asarray(t, dtype=float)
        tp = minkowski_dot(t, f.p.vec)
        if np.min(np.abs(tp)) < 1e-12:
            raise ValueError("division by vanishing t.p")
        rest = _L[: n - 1 - k]
        tsub = "z" if t.ndim == 1 else "...z"
        num = np.einsum(f"...z{rest},{tsub}->...{rest}", num, t)
        den = den * tp
    return num / den


def norm_covariant_integrand(f: BWFieldAtP) -> np.ndarray:
    """Manifestly invariant integrand m^{-2n} p..p.T; equals the probe form."""
    return scalar_N(f) / f.p.mass ** (2 * f.n)


def project_slot(T: np.ndarray, p: FourMomentum, k: int, n: int) -> np.ndarray:
    """Apply m^{-2} p_{a_k} p^{b} T_{..b..} to world slot k."""
    proj = np.einsum("...a,...b->...ab", p.covec, p.vec) / p.mass**2
    s = list(_L[:n])
    s[k] = "y"
    sin = "".join(s)
    s[k] = "z"
    sout = "".join(s)
    return np.einsum(f"...zy,...{sin}->...{sout}", proj, T)


def trace_reverse_slot(T: np.ndarray, p: FourMomentum, k: int, n: int) -> np.ndarray:
    """Apply 2 m^{-2} (p_a p^b - (m^2/2) delta_a^b) to world slot k."""
    op = 2.0 * np.einsum("...a,...b->...ab", p.covec, p.vec) / p.mass**2 - np.eye(4)
    s = list(_L[:n])
    s[k] = "y"
    sin = "".join(s)
    s[k] = "z"
    sout = "".join(s)
    return np.einsum(f"...zy,...{sin}->...{sout}", op, T)


# ---------------------------------------------------------------------------
# Poincare action and wave-packet ensembles
# ---------------------------------------------------------------------------

FieldGenerator = Callable[[FourMomentum], BWFieldAtP]


def transform(gen: FieldGenerator, s: SL2CElement) -> FieldGenerator:
    """Spinor transformation of a field family: psi'(p) = D(s) psi(L^{-1} p).

    Unprimed slots receive the stored matrix, primed slots its conjugate.
    """
    lam = sl2c_to_lorentz(s)
    lam_inv = lam.inverse()
    slot_maps = (s.matrix, np.conj(s.matrix))

    def new_gen(p: FourMomentum) -> BWFieldAtP:
        f = gen(act(lam_inv, p))
        comps = {}
        for lab, arr in f.components.items():
            # row-major flattening of the n slots matches the Kronecker order
            kron = reduce(np.kron, [slot_maps[bit] for bit in lab])
            batch = arr.shape[: arr.ndim - f.n]
            comps[lab] = (arr.reshape(batch + (2**f.n,)) @ kron.T).reshape(arr.shape)
        return BWFieldAtP(n=f.n, p=p, components=comps)

    return new_gen


@dataclass(frozen=True)
class GaussianPacket:
    """Square-integrable field family: fixed symmetric seed times a Gaussian."""

    n: int
    mass: float
    sign: int
    seed_spinor: np.ndarray  # (2,)*n, totally symmetric
    width: float = 1.0

    def __call__(self, p: FourMomentum) -> BWFieldAtP:
        amp = np.exp(-np.sum(p.spatial**2, axis=-1) / (2 * self.width**2))
        seed = np.asarray(amp)[(...,) + (None,) * self.n] * self.seed_spinor
        return build_from_seed(seed, p, self.n)


def norm_covariant(gen: FieldGenerator, sampler: HyperboloidSampler, n: int, mass: float, sign: int) -> tuple[float, float]:
    """(+-1)^n 2^{n/2} m^{-2n} integral dmu p..p.T, with standard error."""
    pref = float(sign) ** n * 2.0 ** (n / 2.0) / mass ** (2 * n)
    val, se = integrate(lambda p: scalar_N(gen(p)), sampler)
    return pref * val.real, abs(pref) * se


def norm_standard(gen: FieldGenerator, sampler: HyperboloidSampler) -> tuple[float, float]:
    """Component-sum norm: integral dmu sum |psi|^2 / |p0|^n."""
    val, se = integrate(lambda p: norm_standard_integrand(gen(p)), sampler)
    return val.real, se


def random_field(rng: np.random.Generator, n: int, mass: float, sign: int, momentum_scale: float = 1.0) -> BWFieldAtP:
    """Random single-momentum field with a random symmetric seed."""
    p = FourMomentum(mass=mass, sign=sign, spatial=rng.normal(scale=momentum_scale, size=3))
    seed = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
    return build_from_seed(symmetrize(seed, n) if n > 1 else seed, p, n)


# ---------------------------------------------------------------------------
# Spacetime finite-difference residual for a single plane-wave mode
# ---------------------------------------------------------------------------


def _mode_value(f: BWFieldAtP, lab: Label, x: np.ndarray, flip_frequency: bool) -> np.ndarray:
    p0 = f.p.p0 if not flip_frequency else -f.p.p0
    phase = np.exp(1j * (f.p.spatial @ x[1:] - p0 * x[0]))
    return phase * f.components[lab]


def _mode_gradient(
    f: BWFieldAtP, lab: Label, x: np.ndarray, h: float, exact: bool, flip_frequency: bool
) -> np.ndarray:
    """Four-gradient of one labelled mode at x, shape (4,) + (2,)*n."""
    if exact:
        p0 = f.p.p0 if not flip_frequency else -f.p.p0
        pa = np.concatenate([[p0], -f.p.spatial])  # covariant components
        return -1j * pa[(slice(None),) + (None,) * f.n] * _mode_value(f, lab, x, flip_frequency)
    cols = []
    for a in range(4):
        xp = x.copy()
        xp[a] += h
        xm = x.copy()
        xm[a] -= h
        cols.append(
            (_mode_value(f, lab, xp, flip_frequency) - _mode_value(f, lab, xm, flip_frequency))
            / (2 * h)
        )
    return np.stack(cols, axis=0)


def fd_spacetime_residual(
    f: BWFieldAtP, x: np.ndarray, h: float, exact: bool = False, flip_frequency: bool = False
) -> float:
    """Residual of the position-space equations on one plane-wave mode.

    Derivatives are second-order central differences of step ``h`` (or the
    analytic derivative of the exponential with ``exact=True``, in which
    case the residual reduces to the momentum-space one).  The gradient's
    unprimed (primed) index is contracted against each 0-bit (1-bit) slot.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    if f.batch_shape() != ():
        raise ValueError("spacetime residual expects a single-momentum field")
    x = np.asarray(x, dtype=float)
    g = build_ivdw()
    m = f.p.mass
    n = f.n
    worst = 0.0
    for lab, arr in f.components.items():
        grad = _mode_gradient(f, lab, x, h, exact, flip_frequency)
        nabla_ll = np.einsum("aij,a...->ij...", g.lo_w, grad)  # nabla_{AA'} psi
        nabla_ul = np.einsum("iB,Bj...->ij...", EPS_UP, nabla_ll)  # nabla^A_{A'}
        nabla_lu = np.einsum("jB,iB...->ij...", EPS_UP, nabla_ll)  # nabla_A^{A'}
        for k, bit in enumerate(lab):
            flipped = list(lab)
            flipped[k] = 1 - bit
            other = _mode_value(f, tuple(flipped), x, flip_frequency)
            s = list(_L[:n])
            s[k] = "y"
            sin = "".join(s)
            s[k] = "z"
            sout = "".join(s)
            if bit == 0:
                lhs = 1j * np.einsum(f"yz{sin}->{sout}", nabla_ul)
                rhs = -(m / np.sqrt(2.0)) * other
            else:
                lhs = 1j * np.einsum(f"zy{sin}->{sout}", nabla_lu)
                rhs = (m / np.sqrt(2.0)) * other
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
