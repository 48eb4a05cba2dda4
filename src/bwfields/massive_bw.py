"""Momentum-space massive spin-n/2 multispinor fields.

A field of spin n/2 is a map from length-n bit labels to rank-n component
arrays: bit 0 marks a lower unprimed slot, bit 1 a lower primed slot.  The
all-zero label holds a totally symmetric seed; every other component is
generated by the first-order momentum-space equation

    p^A_{A'} psi^{..0..}_{..A..} = -(m/sqrt2) psi^{..1..}_{..A'..}

applied slot by slot.  The companion equation with the opposite index
staggering then holds automatically because p_{AB'} p^{BB'} = (m^2/2) delta.

All 2^n components live in one array, the field's stack, with a (bit, index)
pair of axes per slot and the batch axes last (the layout of
:mod:`bwfields.slot_core`).  Every label-wise operation is then n slot
contractions of the stack with a per-slot kernel K[bit, i, j].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product, permutations
from types import MappingProxyType
from typing import Callable, ClassVar, Mapping

import numpy as np

from .momentum import _POSITION_TABLES, FourMomentum, HyperboloidSampler, integrate, momentum_matrix
from .slot_core import (
    FieldGenerator,
    Label,
    StackField,
    _batch_last,
    _contract_slot,
    _kernel,
    _label_index,
    _unprimed_stack,
    probe_kernel,
    probe_norm,
    residual_field_equations,
    transform,
    world_tensor,
)
from .spinor_core import _convert_slots, build_ivdw

__all__ = [
    "Label",
    "BWFieldAtP",
    "all_labels",
    "symmetrize",
    "build_from_seed",
    "residual_field_equations",
    "tensor_T",
    "scalar_N",
    "seed_form",
    "norm_standard_integrand",
    "norm_primed_integrand",
    "norm_covariant_integrand",
    "project_slot",
    "trace_reverse_slot",
    "transform",
    "GaussianPacket",
    "norm_covariant",
]

DEFAULT_SPIN_CAP = 6  # 4^n world-tensor entries; raise deliberately if needed


def all_labels(n: int) -> list[Label]:
    return [tuple(bits) for bits in product((0, 1), repeat=n)]


@dataclass(frozen=True)
class BWFieldAtP(StackField):
    """All 2^n components of a spin-n/2 field at one momentum (or a batch).

    ``stack`` holds them in one complex array of shape (2, 2)*n + batch, axes
    (bit_1, i_1, ..., bit_n, i_n, batch...).  ``components`` maps each label
    to a read-only batch-first view of the stack, shape batch + (2,)*n.

    For n >= 2 the stack must be symmetric under the exchange of any two
    slots (label bits and indices together), as every field built from a
    symmetric seed is: ``scalar_N`` relies on it.  A stack with a NaN entry
    is accepted, so that its results read NaN.
    """

    bits: ClassVar[int] = 2

    def __post_init__(self):
        super().__post_init__()
        _require_slot_symmetric(self.stack, self.n, "stack is", nan_passes=True)

    @classmethod
    def from_components(cls, n: int, p: FourMomentum, components: Mapping[Label, np.ndarray]) -> "BWFieldAtP":
        """Stack per-label arrays of shape batch + (2,)*n; batches broadcast."""
        arrs = {lab: np.asarray(components[lab], dtype=complex) for lab in all_labels(n)}
        batch = np.broadcast_shapes(*(a.shape[: a.ndim - n] for a in arrs.values()))
        stack = np.empty((2, 2) * n + batch, dtype=complex)
        for lab, a in arrs.items():
            stack[_label_index(lab)] = _batch_last(a, n, len(batch))
        return cls(n=n, p=p, stack=stack)

    @cached_property
    def components(self) -> Mapping[Label, np.ndarray]:
        return MappingProxyType({lab: self._batch_first(lab) for lab in all_labels(self.n)})


def symmetrize(arr: np.ndarray, n: int) -> np.ndarray:
    """Total symmetrization over the trailing n axes."""
    off = arr.ndim - n
    out = np.zeros_like(arr)
    perms = list(permutations(range(n)))
    for perm in perms:
        out += np.transpose(arr, tuple(range(off)) + tuple(off + i for i in perm))
    return out / len(perms)


def _require_slot_symmetric(stack: np.ndarray, n: int, what: str, nan_passes: bool = False) -> None:
    """Raise unless no exchange of two slots moves an entry of a sample by
    more than 1e-12 of that sample's largest entry (at least 1); adjacent
    exchanges generate them all.  An exchange that moves a NaN entry fails,
    unless ``nan_passes``."""
    if n < 2:
        return
    spinor_axes = tuple(range(2 * n))
    tol = 1e-12 * np.maximum(1.0, np.max(np.abs(stack), axis=spinor_axes))
    for k in range(n - 1):
        swapped = np.swapaxes(np.swapaxes(stack, 2 * k, 2 * k + 2), 2 * k + 1, 2 * k + 3)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, without a warning
            moved = np.max(np.abs(stack - swapped), axis=spinor_axes)
        if not np.all((moved <= tol) | (nan_passes & np.isnan(moved))):
            raise ValueError(f"{what} not symmetric under slot exchange")


def _symmetric_seed(seed: np.ndarray, n: int) -> np.ndarray:
    """The seed as a complex array with n trailing spinor axes, checked to be
    totally symmetric in them."""
    if n < 1 or n > DEFAULT_SPIN_CAP:
        raise ValueError(f"n must be between 1 and {DEFAULT_SPIN_CAP}")
    seed = np.asarray(seed, dtype=complex)
    if seed.shape[seed.ndim - n:] != (2,) * n:
        raise ValueError("seed must have n trailing spinor axes")
    _require_slot_symmetric(_unprimed_stack(seed, n), n, "seed is")
    return seed


def build_from_seed(seed: np.ndarray, p: FourMomentum, n: int) -> BWFieldAtP:
    """Generate all 2^n components from a symmetric all-unprimed seed.

    Slot k, last to first, fills its bit-1 half from its bit-0 half with
    earlier slots at bit 0, so each label comes from the label with its
    first 1-bit cleared.
    """
    seed = _symmetric_seed(seed, n)
    return _build_from_symmetric(_batch_last(seed, n, seed.ndim - n), p, n)


def _build_from_symmetric(seed: np.ndarray, p: FourMomentum, n: int, amp=1.0) -> BWFieldAtP:
    """build_from_seed on a seed that ``_symmetric_seed`` has already passed,
    given batch-last, shape (2,)*n + batch, as the all-zero label is stored.

    That label is written as seed * amp, with a real amplitude ``amp`` that
    broadcasts against the batch, straight into the stack.
    """
    if p.mass <= 0:
        raise ValueError("massive construction needs m > 0")
    p_ul = momentum_matrix(p, "ul")
    sbatch = seed.shape[n:]
    batch = np.broadcast_shapes(sbatch, np.shape(amp), p_ul.shape[:-2])
    stack = np.empty((2, 2) * n + batch, dtype=complex)
    seed = seed.reshape(seed.shape[:n] + (1,) * (len(batch) - len(sbatch)) + sbatch)
    np.multiply(seed, amp, out=stack[_label_index((0,) * n)])
    # p^A_{A'} contracted on its first index: K[0][i, j] = p_ul[j, i]
    kernel = _kernel((np.swapaxes(p_ul, -1, -2),), len(batch))
    factor = -np.sqrt(2.0) / p.mass
    for k in reversed(range(n)):
        lead = (slice(0, 1), slice(None)) * k
        src = _contract_slot(stack[lead + (slice(0, 1),)], kernel, k)
        np.multiply(factor, src, out=stack[lead + (slice(1, 2),)])
    return BWFieldAtP._of_stack(n, p, stack)


def tensor_T(f: BWFieldAtP) -> np.ndarray:
    """Rank-n world tensor sum over labels of psi psibar, shape (..., 4)*n.

    Each world slot pairs the unprimed index (from psi or its conjugate,
    whichever carries it) with the primed partner; entries are real.  The
    slot kernel K[w, bit, i, j] is g[w, i, j] for bit 0 and g[w, j, i] for
    bit 1.
    """
    g = build_ivdw().up
    return world_tensor(f.stack, np.stack([g, np.swapaxes(g, 1, 2)], axis=1), f.n)


def scalar_N(f: BWFieldAtP) -> np.ndarray:
    """Full contraction p^{a_1}..p^{a_n} T_{a_1..a_n}, on the spinor pairs.

    The probe contraction with every t_k = p: <psi, K^{(x)n} psi> for the
    slot kernel K of p^{AA'} (the unprimed index for bit 0, the primed one
    for bit 1), taken on h = ceil(n/2) slot contractions instead of n.
    The stack must be symmetric under the exchange of any two slots, as
    built, transformed and ``from_components`` fields are.  K is Hermitian
    on a slot's (bit, index) pair, so

        <psi, K^{(x)n} psi> = <(K^{(x)h} (x) 1) psi, (1 (x) K^{(x)(n-h)}) psi>,

    and by the symmetry the right factor is the left one's intermediate
    after n - h contractions with those slots moved last.
    """
    n = f.n
    h = (n + 1) // 2
    kernel = probe_kernel(momentum_matrix(f.p, "uu"), 2, f.stack.ndim - 2 * n)
    left = right = f.stack
    for k in range(h):
        left = _contract_slot(left, kernel, k)
        if k + 1 == n - h:
            right = left
    # slots n-h..n-1 first, then the contracted slots 0..n-h-1
    order = [*range(n - h, n), *range(n - h)]
    axes = [a for s in order for a in (2 * s, 2 * s + 1)] + list(range(2 * n, f.stack.ndim))
    # Re(conj(left) right) summed over the spinor axes: both as contiguous
    # (components, batch) rows of floats, real and imaginary parts interleaved
    rows, batch = math.prod(left.shape[:2 * n]), left.shape[2 * n:]
    left = np.ascontiguousarray(left).reshape(rows, -1).view(float)
    right = np.ascontiguousarray(right.transpose(axes)).reshape(rows, -1).view(float)
    parts = np.einsum("ij,ij->j", left, right).reshape(-1, 2)
    return (parts[:, 0] + parts[:, 1]).reshape(batch)


# E_k^T on a slot's (i, j) pair, row k, for E = (E00, E11, E01 + E10, i(E01 - E10))
_SLOT_MOMENTS = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0]])


def seed_form(seed: np.ndarray, n: int) -> Callable[[FourMomentum], np.ndarray]:
    """``p -> scalar_N(build_from_seed(seed, p, n))`` from coefficients built once.

    A built slot holds phi and B phi, B = -(sqrt2/m) (p^A_{A'})^T, and P^T +
    B^dagger P B = 2 P^T for P = p^{AA'}, so the norm is 2^n phibar (P^T)^{(x)n}
    phi.  With P = sum_k w_k E_k it is the real polynomial sum M[k_1..k_n]
    w_{k_1}..w_{k_n} in w = (P00, P11, Re P01, Im P01), four columns of the
    cached "uu" table; M is phibar (x) phi through the E_k^T table on each
    slot, and w is contracted slot by slot, the first slot in one product.
    ``seed`` is one symmetric seed, shape (2,)*n.
    """
    phi = _symmetric_seed(seed, n)
    if phi.ndim != n:
        raise ValueError("seed_form takes one seed of shape (2,)*n")
    coef = (np.conj(phi)[(slice(None), None) * n] * phi[(None, slice(None)) * n]).reshape((4,) * n)
    coef = np.ascontiguousarray(2.0**n * _convert_slots(coef, _SLOT_MOMENTS.T, n).real)
    rows = _POSITION_TABLES["uu"][:, [0, 6, 2, 3]].T

    def norm(p: FourMomentum) -> np.ndarray:
        if p.mass <= 0:
            raise ValueError("massive construction needs m > 0")
        batch = p.vec.shape[:-1]
        w = (rows @ p.vec.reshape(-1, 4).T).reshape((4,) + batch)
        # the first slot in one product per index of the leading batch axis,
        # so each branch of a batch that stacks both rounds as it does alone
        lead = batch[:1] if len(batch) > 1 else (1,)
        r = coef.reshape(-1, 4) @ np.moveaxis(w.reshape((4,) + lead + (-1,)), 0, -2)
        r = np.moveaxis(r, -2, 0).reshape((4,) * (n - 1) + batch)
        for k in reversed(range(n - 1)):
            r = np.sum(r * w, axis=k)
        return r

    return norm


def norm_standard_integrand(f: BWFieldAtP) -> np.ndarray:
    """Sum of |component|^2 over labels and index values, divided by |p0|^n."""
    n = f.n
    return np.sum(np.abs(f.stack) ** 2, axis=tuple(range(2 * n))) / np.abs(f.p.p0) ** n


def norm_primed_integrand(f: BWFieldAtP, ts: list[np.ndarray]) -> np.ndarray:
    """(t_1..t_n . T) / prod_k (t_k . p) for arbitrary probe world vectors."""
    return probe_norm(f, ts)


def norm_covariant_integrand(f: BWFieldAtP) -> np.ndarray:
    """Manifestly invariant integrand m^{-2n} p..p.T; equals the probe form.
    Where m^{-2n} overflows, at the low end of the mass range, it is inf."""
    with np.errstate(over="ignore"):
        return scalar_N(f) / f.p.mass ** (2 * f.n)


def _apply_world_slot(T: np.ndarray, op: np.ndarray, k: int, n: int) -> np.ndarray:
    """new[.., z, ..] = sum_y op[.., z, y] T[.., y, ..] on world slot k of T."""
    first = T.ndim - n
    moved = np.moveaxis(T, first + k, first)
    out = op @ moved.reshape(moved.shape[: first + 1] + (-1,))
    return np.moveaxis(out.reshape(moved.shape), first, first + k)


def project_slot(T: np.ndarray, p: FourMomentum, k: int, n: int) -> np.ndarray:
    """Apply m^{-2} p_{a_k} p^{b} T_{..b..} to world slot k."""
    proj = p.covec[..., :, None] * p.vec[..., None, :] / p.mass**2
    return _apply_world_slot(T, proj, k, n)


def trace_reverse_slot(T: np.ndarray, p: FourMomentum, k: int, n: int) -> np.ndarray:
    """Apply 2 m^{-2} (p_a p^b - (m^2/2) delta_a^b) to world slot k."""
    op = 2.0 * (p.covec[..., :, None] * p.vec[..., None, :]) / p.mass**2 - np.eye(4)
    return _apply_world_slot(T, op, k, n)


@dataclass(frozen=True)
class GaussianPacket:
    """Square-integrable field family: fixed symmetric seed times a Gaussian."""

    n: int
    mass: float
    sign: int
    seed_spinor: np.ndarray  # (2,)*n, totally symmetric
    width: float = 1.0

    def __post_init__(self):
        # checked once here: a scalar amplitude times it stays symmetric
        seed = _symmetric_seed(self.seed_spinor, self.n)
        if seed.ndim != self.n:
            raise ValueError("GaussianPacket takes one seed of shape (2,)*n")
        object.__setattr__(self, "seed_spinor", seed)

    def amplitude(self, p: FourMomentum) -> np.ndarray:
        return np.exp(-p.spatial_sq / (2 * self.width**2))

    def __call__(self, p: FourMomentum) -> BWFieldAtP:
        # an unbatched seed is already in the stack's batch-last layout
        return _build_from_symmetric(self.seed_spinor, p, self.n, self.amplitude(p))


def norm_covariant(gen: FieldGenerator, sampler: HyperboloidSampler, n: int, mass: float, sign: int) -> float:
    """(+-1)^n 2^{n/2} m^{-2n} integral dmu p..p.T."""
    pref = float(sign) ** n * 2.0 ** (n / 2.0) / mass ** (2 * n)
    return pref * integrate(lambda p: scalar_N(gen(p)), sampler)[0].real

