"""Slot core shared by the massive, massless and Maxwell fields.

A rank-n field at one momentum, or at a batch of momenta, is one complex
array, its stack, of shape (bits, 2)*n + batch: a (bit, index) pair of axes
per slot, then the batch axes.  A massive field has two bit values (bit 0
marks a lower unprimed slot, bit 1 a lower primed one); a massless field
has only unprimed slots, one bit value.  These operations then serve every
field:

- the slot contraction: slot k of a stack through a per-bit 2x2 kernel,
  a two-term update whose inner loops run over the whole batch;
- the world tensor: the sesquilinear map psi psibar -> T_{a_1..a_n}, one
  conversion-table contraction per slot;
- the probe contraction: t_1..t_n . T taken on the spinor pairs, slot by
  slot, without building T;
- the first-order field equations and the spinor action of SL(2,C), slot
  contractions with a kernel (bit-0 map, bit-1 map)[:bits].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .momentum import FourMomentum, act, minkowski_dot, momentum_matrix
from .spinor_core import EPS_UP, SL2CElement, _convert_slots, build_ivdw

__all__ = [
    "StackField",
    "outer_power",
    "world_tensor",
    "probe_kernel",
    "contract_probes",
    "probe_norm",
    "residual_field_equations",
    "fd_spacetime_residual",
    "transform",
    "worst_of",
]

Label = tuple[int, ...]


def _label_index(lab: Label) -> tuple:
    """Index of one label's components in a stack: (bit_1, :, ..., bit_n, :)."""
    return sum(((bit, slice(None)) for bit in lab), ())


def worst_of(*values) -> float:
    """The largest of the values as a float, or NaN if any of them is NaN.

    The builtin max keeps whichever argument it holds when it meets NaN, so
    a NaN residual would drop out of a running maximum and read as a pass.
    """
    worst = -math.inf
    for value in values:
        value = float(value)
        if math.isnan(value):
            return value
        if value > worst:
            worst = value
    return worst


def _batch_last(a: np.ndarray, n: int, nb: int) -> np.ndarray:
    """Batch-first array batch + (2,)*n as (2,)*n + batch, padded to nb batch axes."""
    a = a.reshape((1,) * (nb + n - a.ndim) + a.shape)
    return a.transpose(tuple(range(nb, nb + n)) + tuple(range(nb)))


def _unprimed_stack(a, n: int, nb: int | None = None) -> np.ndarray:
    """Batch-first unprimed array batch + (2,)*n as a one-bit stack (1, 2)*n + batch."""
    a = np.asarray(a, dtype=complex)
    nb = a.ndim - n if nb is None else nb
    return _batch_last(a, n, nb)[(None, slice(None)) * n]


def _kernel(maps: tuple[np.ndarray, ...], nb: int) -> np.ndarray:
    """Per-bit 2x2 maps M[..., i, j] as a kernel K[bit, i, j] + batch.

    The maps' batch lines up with the last of the ``nb`` batch axes.  A new
    C-ordered array (np.stack would keep the maps' batch-first memory order)
    gives kernel columns that run over the batch with unit stride.
    """
    views = [_batch_last(np.asarray(m), 2, nb) for m in maps]
    out = np.empty((len(views),) + views[0].shape, dtype=complex)
    for i, view in enumerate(views):
        out[i] = view
    return out


def _contract_slot(stack: np.ndarray, kernel: np.ndarray, k: int) -> np.ndarray:
    """new[.., b, i, ..] = sum_j kernel[b, i, j] stack[.., b, j, ..] on slot k.

    ``kernel`` has the stack's bit values and its batch axes (size 1 where
    they broadcast); each of the two terms is a slice times a column.
    """
    later = (None,) * (stack.ndim - kernel.ndim - 2 * k + 1)
    head = (slice(None),) * (2 * k + 1)
    out = stack[head + (slice(0, 1),)] * kernel[(slice(None), slice(None), 0) + later]
    out += stack[head + (slice(1, 2),)] * kernel[(slice(None), slice(None), 1) + later]
    return out


def outer_power(v: np.ndarray, n: int) -> np.ndarray:
    """n-fold outer product over the trailing axis: (..., d) -> (..., d)^n."""
    out = v
    for k in range(1, n):
        out = out[..., None] * v.reshape(v.shape[:-1] + (1,) * k + v.shape[-1:])
    return out


@dataclass(frozen=True)
class StackField:
    """A rank-n field as one stack of shape (bits, 2)*n + batch."""

    n: int
    p: FourMomentum
    stack: np.ndarray
    bits: ClassVar[int]

    def __post_init__(self):
        if self.stack.shape[: 2 * self.n] != (self.bits, 2) * self.n:
            raise ValueError(f"stack must start with a ({self.bits}, 2) pair of axes per slot")

    @classmethod
    def _of_stack(cls, n: int, p: FourMomentum, stack: np.ndarray) -> "StackField":
        """A field on a stack its maker built with the slot axes and, for a
        massive field, slot-symmetric: no checks, as ``FourMomentum._of_rows``."""
        f = object.__new__(cls)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "p", p)
        object.__setattr__(f, "stack", stack)
        return f

    def batch_shape(self) -> tuple[int, ...]:
        return self.stack.shape[2 * self.n:]

    def _batch_first(self, lab: Label) -> np.ndarray:
        """Read-only view of one label's components, shape batch + (2,)*n."""
        view = np.moveaxis(self.stack[_label_index(lab)], range(self.n), range(-self.n, 0))
        view.flags.writeable = False
        return view


# largest psi (x) psibar product world_tensor forms at once, in bytes, and
# the fewest samples a chunk holds: the product's broadcast runs its
# innermost loop over a chunk's samples, and with 1 or 2 it takes about 1.5
# times as long per entry (one spin-6 sample is a 4 MiB product)
WORLD_TENSOR_CHUNK_BYTES = 2**21
WORLD_TENSOR_CHUNK_SAMPLES = 4


def world_tensor(stack: np.ndarray, kernel: np.ndarray, n: int) -> np.ndarray:
    """Rank-n world tensor sum over labels of psi psibar, shape batch + (4,)*n.

    ``kernel[w, bit, i, j]`` pairs psi's index i with psibar's index j on a
    slot of that bit (the bit is shared by both factors): a bit axis of size
    2 for a massive stack, 1 for an unprimed one.  Entries must be real: each
    sample's imaginary parts within 1e-12 of its own largest entry (at least 1).
    The batch goes through in chunks whose product psi (x) psibar stays within
    ``WORLD_TENSOR_CHUNK_BYTES``, but of at least ``WORLD_TENSOR_CHUNK_SAMPLES``
    samples.
    """
    bits = kernel.shape[1]
    batch = stack.shape[2 * n:]
    flat = stack.reshape((bits, 2) * n + (-1,))
    table = kernel.reshape(4, -1).T
    per_sample = (4 * bits) ** n * flat.itemsize
    step = max(WORLD_TENSOR_CHUNK_SAMPLES, WORLD_TENSOR_CHUNK_BYTES // per_sample)
    total = np.empty(flat.shape[-1:] + (4,) * n)
    entries = tuple(range(1, n + 1))
    # an empty batch is one empty chunk
    for start in range(0, max(1, flat.shape[-1]), step):
        chunk = flat[..., start:start + step]
        psi = chunk.reshape((bits, 2, 1) * n + chunk.shape[-1:])
        psibar = np.conj(chunk).reshape((bits, 1, 2) * n + chunk.shape[-1:])
        # psi psibar through the conversion table, one (bit, i, j) slot per
        # world index; the product is left unbound, so it is freed after the
        # first slot
        part = _convert_slots((psi * psibar).reshape((4 * bits,) * n + chunk.shape[-1:]), table, n)
        # each sample is judged alone, so the chunk's real part is all that
        # is kept
        scale = np.maximum(1.0, np.max(np.abs(part), axis=entries))
        if not np.all(np.max(np.abs(part.imag), axis=entries) <= 1e-12 * scale):
            raise AssertionError("world tensor has non-negligible imaginary part")
        total[start:start + step] = part.real
    return total.reshape(batch + (4,) * n)


def probe_kernel(t_pair: np.ndarray, bits: int, nb: int) -> np.ndarray:
    """Slot kernel of a spinor-pair vector t^{AA'}: its unprimed index is
    summed against a bit-0 slot, its primed index against a bit-1 slot."""
    return _kernel((np.swapaxes(t_pair, -1, -2), t_pair)[:bits], nb)


def contract_probes(stack: np.ndarray, kernels: Sequence[np.ndarray]) -> np.ndarray:
    """sum over labels of psibar (t_1 x .. x t_n) psi, one probe kernel per slot.

    Equals t_1^{a_1}..t_n^{a_n} T_{a_1..a_n} for the world tensor of the
    stack; real, with the stack's batch shape.
    """
    q = stack
    for k, kernel in enumerate(kernels):
        q = _contract_slot(q, kernel, k)
    return np.sum((q * np.conj(stack)).real, axis=tuple(range(2 * len(kernels))))


def probe_norm(f: StackField, ts: Sequence[np.ndarray]) -> np.ndarray:
    """(t_1..t_n . T) / prod_k (t_k . p) for probe world vectors t_k^a."""
    if len(ts) != f.n:
        raise ValueError("need one probe vector per tensor slot")
    up = build_ivdw().up
    nb = f.stack.ndim - 2 * f.n
    kernels = []
    den = 1.0
    for t in ts:
        t = np.asarray(t, dtype=float)
        tp = minkowski_dot(t, f.p.vec)
        if not np.min(np.abs(tp)) >= 1e-12:
            raise ValueError("division by vanishing t.p")
        # t^{AA'} = t^a g_a^{AA'}
        kernels.append(probe_kernel(np.tensordot(t, up, axes=1), f.bits, nb))
        den = den * tp
    return contract_probes(f.stack, kernels) / den


# ---------------------------------------------------------------------------
# First-order field equations and the spinor action
# ---------------------------------------------------------------------------


def _equation_residual(f: StackField, value: np.ndarray, slot_image: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Each sample's largest violation over all slots, shape batch: on slot
    k, ``slot_image(k, bit)``, the kernel (D^A_{A'}^T, D_A^{A'})[bit] with D
    = p or i nabla applied to the bit half of the stack, a new array with
    that slot's bit axis of length 1, must map the bit-0 half of ``value``
    to -(m/sqrt2) times the bit-1 half and the bit-1 half to +(m/sqrt2)
    times the bit-0 half; an unprimed field has the bit-0 half only, and m =
    0.  A NaN entry makes its sample's violation NaN.  One bit half at a
    time, the other half of ``value`` times its sign is taken from the image
    in place, so no temporary is larger than half the stack."""
    c = f.p.mass / np.sqrt(2.0)
    spinor_axes = tuple(range(2 * f.n))
    worst = None
    for k in range(f.n):
        for bit, sign in enumerate((-c, c)[: f.bits]):
            image = slot_image(k, bit)
            image -= value[_bit_half(k, f.bits - 1 - bit)] * sign
            moved = np.max(np.abs(image), axis=spinor_axes)
            del image  # freed before the next half is formed
            worst = moved if worst is None else np.maximum(worst, moved)
    return worst


def _bit_half(k: int, bit: int) -> tuple:
    """Index of a stack's entries with slot k at the given bit, the slot's bit axis kept."""
    return (slice(None),) * (2 * k) + (slice(bit, bit + 1),)


def residual_field_equations(f: StackField) -> np.ndarray:
    """Each sample's largest violation of the momentum-space equations over
    all slots, shape batch: p^A_{A'} on bit-0 halves and p_A^{A'} on bit-1
    halves."""
    kernel = _kernel((np.swapaxes(momentum_matrix(f.p, "ul"), -1, -2), momentum_matrix(f.p, "lu"))[: f.bits],
                     f.stack.ndim - 2 * f.n)
    return _equation_residual(
        f, f.stack, lambda k, bit: _contract_slot(f.stack[_bit_half(k, bit)], kernel[bit:bit + 1], k))


def _mode_value(f: StackField, x: np.ndarray) -> np.ndarray:
    return np.exp(1j * (f.p.spatial @ x[1:] - f.p.p0 * x[0])) * f.stack


def fd_spacetime_residual(f: StackField, x: np.ndarray, h: float) -> float:
    """Residual of the position-space equations on one plane-wave mode.

    The equations of ``residual_field_equations`` with i nabla in place of
    p, its derivatives second-order central differences of step ``h``.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    if f.batch_shape() != ():
        raise ValueError("spacetime residual expects a single-momentum field")
    x = np.asarray(x, dtype=float)
    value = _mode_value(f, x)
    # the gradient's world index a is the last axis
    grad = np.stack([(_mode_value(f, x + e) - _mode_value(f, x - e)) / (2 * h) for e in h * np.eye(4)], axis=-1)
    # nabla^A_{A'} = eps^{AB} g^a_{BA'} d_a and nabla_A^{A'} = eps^{A'B'} g^a_{AB'} d_a
    g = build_ivdw().lo_w
    kernel = _kernel((np.swapaxes(EPS_UP @ g, -1, -2), g @ EPS_UP.T)[: f.bits], 1)
    return float(_equation_residual(
        f, value, lambda k, bit: 1j * np.sum(_contract_slot(grad[_bit_half(k, bit)], kernel[bit:bit + 1], k), axis=-1)))


FieldGenerator = Callable[[FourMomentum], StackField]


def transform(gen: FieldGenerator, s: SL2CElement) -> FieldGenerator:
    """Spinor transformation of a field family: psi'(p) = D(s) psi(L^{-1} p).

    Bit-0 slots receive the stored matrix and bit-1 slots its conjugate, one
    slot at a time, so massive and massless fields share the map; the result
    has the type of the generator's field.  One element, ``s.matrix`` of
    shape (2, 2), maps a slot by one matrix product.  A batch of group
    elements, ``s.matrix`` of shape (B..., 2, 2), maps a batch of fields at
    once: ``act`` gives L^{-1} p the batch (B..., N) for N momenta, and the
    field's batch, which must start with B..., goes through its own
    element's map.
    """
    lam_inv = s.lorentz.inverse()
    sbatch = s.matrix.shape[:-2]
    kernel = _kernel((s.matrix, np.conj(s.matrix)), len(sbatch))

    def new_gen(p: FourMomentum) -> StackField:
        f = gen(act(lam_inv, p))
        batch = f.batch_shape()
        if batch[: len(sbatch)] != sbatch:
            raise ValueError(f"field batch {batch} does not start with the group batch {sbatch}")
        maps = kernel[: f.bits]
        if sbatch:
            # the element batch lines up with the field's leading batch axes
            maps = maps.reshape(maps.shape + (1,) * (len(batch) - len(sbatch)))
        stack = f.stack
        shape = stack.shape
        for k in range(f.n):
            if sbatch:
                stack = _contract_slot(stack, maps, k)
            else:
                # one element: the (bit, 2, 2) maps times the stack viewed as
                # (earlier slots, bit, index, later axes), one product
                view = (math.prod(shape[: 2 * k]),) + shape[2 * k:2 * k + 2] + (math.prod(shape[2 * k + 2:]),)
                stack = np.matmul(maps, stack.reshape(view)).reshape(shape)
        # D(s) on every slot keeps the exchange symmetry of f's stack
        return type(f)._of_stack(f.n, p, stack)

    return new_gen
