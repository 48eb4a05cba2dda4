"""Two-spinor index algebra, Infeld-van der Waerden symbols and SL(2,C) maps.

Conventions (fixed once, everything downstream relies on them):

* Metric signature (+,-,-,-); Levi-Civita normalization e^{0123} = +1.
* The epsilon spinor has eps_{01} = eps^{01} = +1, i.e. the table
  [[0, 1], [-1, 0]] for both index positions (unprimed and primed alike).
* Raising contracts the second slot of eps-up:   psi^A = eps^{AB} psi_B.
  Lowering contracts the first slot of eps-down:  psi_A = psi^B eps_{BA}.
  With this staggering the round trip is the identity and
  psi^A phi_A = -psi_A phi^A.
* Infeld-van der Waerden tables: g_a^{AA'} = sigma_a / sqrt(2) with
  sigma_a = (1, sigma_vec); the all-lower table follows by lowering both
  spinor indices and coincides with (1, -sigma_vec) transposed / sqrt(2).
* A stored SL(2,C) matrix S acts on lower unprimed indices,
  psi'_X = S[X, Y] psi_Y; lower primed indices transform with conj(S).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np
import scipy.linalg  # noqa: F401  unused; the benchmark's set-up probe times it (ROADMAP item 1)

__all__ = [
    "EPS_LO",
    "EPS_UP",
    "METRIC",
    "SpinorTensor",
    "IvdWSymbol",
    "SigmaGenerators",
    "SL2CElement",
    "LorentzMatrix",
    "build_ivdw",
    "sigma_generators",
    "dual",
    "levi_civita4",
    "exp_rep",
    "sl2c_to_lorentz",
    "random_sl2c",
    "boost_z",
    "world_from_spinor",
    "spinor_from_world",
]

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

# Same numeric table for upper and lower epsilon; the asymmetry between
# raising and lowering lives in which slot gets contracted.
EPS_LO = np.array([[0.0, 1.0], [-1.0, 0.0]])
EPS_UP = np.array([[0.0, 1.0], [-1.0, 0.0]])

_PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def _raise_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """psi^A = eps^{AB} psi_B applied to one axis of a component array."""
    out = np.tensordot(EPS_UP, arr, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def _lower_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """psi_A = psi^B eps_{BA} applied to one axis of a component array."""
    out = np.tensordot(EPS_LO, arr, axes=([0], [axis]))
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# Spinor tensors
# ---------------------------------------------------------------------------

Slot = tuple[bool, bool]  # (primed, upper)


@dataclass(frozen=True)
class SpinorTensor:
    """Dense complex array with per-axis spinor index metadata.

    The trailing ``len(slots)`` axes of ``array`` are spinor indices of
    dimension 2; any leading axes are broadcast (batch) dimensions.  Each
    slot records ``(primed, upper)`` flags.
    """

    array: np.ndarray
    slots: tuple[Slot, ...]

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=complex)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "slots", tuple((bool(p), bool(u)) for p, u in self.slots))
        if arr.ndim < len(self.slots):
            raise ValueError("array rank smaller than number of slots")
        if arr.shape[arr.ndim - len(self.slots):] != (2,) * len(self.slots):
            raise ValueError("spinor axes must all have dimension 2")

    @property
    def rank(self) -> int:
        return len(self.slots)

    def _axis(self, slot: int) -> int:
        if not 0 <= slot < self.rank:
            raise IndexError(f"slot {slot} out of range for rank {self.rank}")
        return self.array.ndim - self.rank + slot

    def raise_index(self, slot: int) -> "SpinorTensor":
        primed, upper = self.slots[slot]
        if upper:
            raise ValueError(f"slot {slot} is already upper")
        new = _raise_axis(self.array, self._axis(slot))
        slots = list(self.slots)
        slots[slot] = (primed, True)
        return SpinorTensor(new, tuple(slots))

    def lower_index(self, slot: int) -> "SpinorTensor":
        primed, upper = self.slots[slot]
        if not upper:
            raise ValueError(f"slot {slot} is already lower")
        new = _lower_axis(self.array, self._axis(slot))
        slots = list(self.slots)
        slots[slot] = (primed, False)
        return SpinorTensor(new, tuple(slots))

    def conjugate(self) -> "SpinorTensor":
        """Complex conjugation swaps primed and unprimed index character."""
        slots = tuple((not p, u) for p, u in self.slots)
        return SpinorTensor(np.conj(self.array), slots)


# ---------------------------------------------------------------------------
# Infeld-van der Waerden symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IvdWSymbol:
    """Conversion tables between world-vector and spinor index pairs.

    ``up[a]`` stores g_a^{AA'} and ``lo[a]`` stores g_a_{AA'}; ``up_w``/
    ``lo_w`` carry the world index raised with the metric.
    """

    up: np.ndarray  # (4, 2, 2) g_a^{AA'}
    lo: np.ndarray  # (4, 2, 2) g_a_{AA'}
    up_w: np.ndarray  # (4, 2, 2) g^a^{AA'}
    lo_w: np.ndarray  # (4, 2, 2) g^a_{AA'}


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark cached tables read-only, so no caller can change them for the next."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=1)
def build_ivdw() -> IvdWSymbol:
    """Build the g tables; g_a^{AA'} = sigma_a / sqrt(2).  Cached, read-only."""
    up = _PAULI / np.sqrt(2.0)
    lo = np.einsum("ba,nbc,cd->nad", EPS_LO, up, EPS_LO)
    up_w = np.einsum("ab,bij->aij", METRIC, up)
    lo_w = np.einsum("ab,bij->aij", METRIC, lo)
    return IvdWSymbol(*_read_only(up, lo, up_w, lo_w))


def _convert_slots(arr: np.ndarray, table: np.ndarray, n: int) -> np.ndarray:
    """sum table[a_1, b_1] .. table[a_n, b_n] arr[a_1..a_n, ...], shape batch +
    (m,)*n, for arr of shape (k,)*n + batch and a (k, m) table: each step
    contracts the leading slot and appends its new index."""
    batch = arr.shape[n:]
    for _ in range(n):
        arr = arr.reshape(len(table), -1).T @ table
    return arr.reshape(batch + (table.shape[1],) * n)


def world_from_spinor(arr: np.ndarray, n_pairs: int, upper: bool = False) -> np.ndarray:
    """Convert ``n_pairs`` spinor index pairs, the trailing axes arranged
    (A_1..A_n, A'_1..A'_n), to world indices: v_a = g_a^{AA'} v_{AA'} for lower
    spinor indices (default), v^a = g^a_{AA'} v^{AA'} with ``upper=True``."""
    g = build_ivdw().lo_w if upper else build_ivdw().up
    arr = np.asarray(arr, dtype=complex)
    n, nb = n_pairs, arr.ndim - 2 * n_pairs
    # one slot per pair (A_k, A'_k), then the batch
    pairs = arr.transpose([nb + a for k in range(n) for a in (k, n + k)] + list(range(nb)))
    return _convert_slots(pairs.reshape((4,) * n + arr.shape[:nb]), g.reshape(4, 4).T, n)


def spinor_from_world(arr: np.ndarray, n_world: int, upper: bool = False) -> np.ndarray:
    """Inverse of :func:`world_from_spinor`: v_{AA'} = g^a_{AA'} v_a, with the
    output's trailing axes grouped (A_1..A_n, A'_1..A'_n) at the input's height."""
    g = build_ivdw().up if upper else build_ivdw().lo_w
    arr = np.asarray(arr, dtype=complex)
    n, nb = n_world, arr.ndim - n_world
    pairs = _convert_slots(np.moveaxis(arr, range(nb), range(n, n + nb)), g.reshape(4, 4), n)
    pairs = pairs.reshape(arr.shape[:nb] + (2, 2) * n)
    return pairs.transpose(list(range(nb)) + [nb + 2 * k + a for a in (0, 1) for k in range(n)])


# ---------------------------------------------------------------------------
# Levi-Civita and the spin generators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def levi_civita4() -> np.ndarray:
    """Rank-4 alternating tensor with e^{0123} = +1 (all indices upper).  Cached, read-only."""
    e = np.zeros((4, 4, 4, 4))

    def sign(p):
        s = 1
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s

    for perm in permutations(range(4)):
        e[perm] = sign(perm)
    e.setflags(write=False)
    return e


@dataclass(frozen=True)
class SigmaGenerators:
    """Generators of the (1/2,0) and (0,1/2) representations.

    ``sigma[a, b]`` stores sigma^{ab}_X{}^Y as a 2x2 block (row X, column
    Y); ``sigma_bar`` is the primed counterpart.  ``sigma_low`` carries
    both world indices lowered, as needed by the exponential map.
    """

    sigma: np.ndarray  # (4, 4, 2, 2)
    sigma_bar: np.ndarray  # (4, 4, 2, 2)
    sigma_low: np.ndarray
    sigma_bar_low: np.ndarray


def _sigma_from_epsilon_form() -> tuple[np.ndarray, np.ndarray]:
    """The purely epsilon-spinor construction of the generators."""
    g = build_ivdw()
    e = EPS_LO
    # sigma_{AA'BB'XY} = (1/2i) eps_{A'B'} (eps_{AX} eps_{BY} + eps_{BX} eps_{AY})
    s6 = (
        np.einsum("mn,ax,by->ambnxy", e, e, e)
        + np.einsum("mn,bx,ay->ambnxy", e, e, e)
    ) / 2j
    sb6 = (
        np.einsum("ab,mx,ny->ambnxy", e, e, e)
        + np.einsum("ab,nx,my->ambnxy", e, e, e)
    ) / 2j
    # World indices: sigma_{ab XY} = g_a^{AA'} g_b^{BB'} sigma_{AA'BB'XY},
    # then raise a, b with the metric and raise Y with eps.
    s_low = np.einsum("aij,bkl,ijklxy->abxy", g.up, g.up, s6)
    sb_low = np.einsum("aij,bkl,ijklxy->abxy", g.up, g.up, sb6)
    s_up = np.einsum("ac,bd,cdxy->abxy", METRIC, METRIC, s_low)
    sb_up = np.einsum("ac,bd,cdxy->abxy", METRIC, METRIC, sb_low)
    s_up = np.einsum("zc,abxc->abxz", EPS_UP, s_up)
    sb_up = np.einsum("zc,abxc->abxz", EPS_UP, sb_up)
    return s_up, sb_up


@lru_cache(maxsize=1)
def sigma_generators() -> SigmaGenerators:
    """Build the generators from antisymmetrized g contractions.

    The registry check ``generator_two_routes`` compares them with the
    epsilon-spinor route of ``_sigma_from_epsilon_form``.  Cached, read-only.
    """
    g = build_ivdw()
    # sigma^{ab}_X{}^Y = (1/2i)(g^a_{XA'} g^{bYA'} - g^b_{XA'} g^{aYA'})
    t = np.einsum("axm,bym->abxy", g.lo_w, g.up_w)
    sigma = (t - np.transpose(t, (1, 0, 2, 3))) / 2j
    # primed: contraction over the unprimed index instead
    t2 = np.einsum("axm,bxn->abmn", g.lo_w, g.up_w)
    sigma_bar = (t2 - np.transpose(t2, (1, 0, 2, 3))) / 2j

    sigma_low = np.einsum("ac,bd,cdxy->abxy", METRIC, METRIC, sigma)
    sigma_bar_low = np.einsum("ac,bd,cdxy->abxy", METRIC, METRIC, sigma_bar)
    return SigmaGenerators(*_read_only(sigma, sigma_bar, sigma_low, sigma_bar_low))


def dual(t: np.ndarray) -> np.ndarray:
    """Half-contraction with the alternating tensor on two upper world axes.

    (*t)^{ab...} = (1/2) e^{ab}_{cd} t^{cd...} acting on the first two axes.
    """
    e_mixed = np.einsum("abef,ec,fd->abcd", levi_civita4(), METRIC, METRIC)
    return 0.5 * np.einsum("abcd,cd...->ab...", e_mixed, np.asarray(t))


# ---------------------------------------------------------------------------
# SL(2,C) and Lorentz matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SL2CElement:
    """Unit-determinant 2x2 complex matrix acting on lower unprimed indices.

    ``matrix`` may carry leading batch axes, shape (..., 2, 2): a batch of
    group elements, each validated on its own: |det - 1| <= 1e-12 max(1,
    max|S|)^2, as rounding in det grows like |S|^2.  Products broadcast.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape[-2:] != (2, 2):
            raise ValueError("SL(2,C) element must be 2x2")
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1))) ** 2
        if not np.all(np.abs(det - 1.0) <= 1e-12 * scale):
            raise ValueError(f"determinant {det} is not 1")

    def __matmul__(self, other: "SL2CElement") -> "SL2CElement":
        return SL2CElement(self.matrix @ other.matrix)


@dataclass(frozen=True)
class LorentzMatrix:
    """Real proper orthochronous Lorentz matrix Lambda^a_b.

    ``matrix`` may carry leading batch axes, shape (..., 4, 4); each matrix
    of a batch is validated on its own.  Products and inverses broadcast.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.shape[-2:] != (4, 4):
            raise ValueError("Lorentz matrix must be 4x4")
        drift = np.abs(np.swapaxes(m, -1, -2) @ METRIC @ m - METRIC)
        if not np.all(drift <= 1e-9):
            raise ValueError("metric is not preserved")
        if not np.all(m[..., 0, 0] >= 1.0 - 1e-12):
            raise ValueError("matrix is not orthochronous")
        if not np.all(np.abs(np.linalg.det(m) - 1.0) <= 1e-9):
            raise ValueError("determinant is not +1")

    def inverse(self) -> "LorentzMatrix":
        # Lambda^{-1} = g Lambda^T g for metric-preserving matrices.
        return LorentzMatrix(METRIC @ np.swapaxes(self.matrix, -1, -2) @ METRIC)

    def __matmul__(self, other: "LorentzMatrix") -> "LorentzMatrix":
        return LorentzMatrix(self.matrix @ other.matrix)


_EYE2 = np.eye(2)
# |s| from which exp_rep takes the spectral form; below it cosh s - sinh s
# loses at most a factor e^(2 * 0.5) of precision (switching at 1,
# boost_z(1.955) read det - 1 = 1.4e-15)
_SPECTRAL_FROM = 0.5


def exp_rep(omega: np.ndarray) -> SL2CElement:
    """exp((i/2) omega^{ab} sigma_{ab}) for real antisymmetric parameters.

    ``omega`` has shape (..., 4, 4); a batch of parameters gives a batch of
    group elements.  The generator M is traceless, so M^2 = s^2 I with
    s^2 = -det M, and exp M = cosh s I + (sinh s / s) M (I + M at s = 0).
    From |s| = 1/2 the same value is taken as e^s P+ + e^-s P- with the
    eigenprojectors P+- = (I +- M/s) / 2, as the cosh/sinh sum cancels in
    the small eigenvalue of a large boost; a pure boost's projectors are
    exactly diag(1, 0) and diag(0, 1), so ``boost_z`` is exactly diagonal.
    Every step is elementwise, so each element of a batch is bit for bit
    the single-element value.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape[-2:] != (4, 4):
        raise ValueError("parameter array must be 4x4")
    if not np.all(np.abs(omega + np.swapaxes(omega, -1, -2)) <= 1e-12):
        raise ValueError("parameter array must be antisymmetric")
    gen = 0.5j * np.einsum("...ab,abxy->...xy", omega, sigma_generators().sigma_low)
    a = gen[..., 0, 0]
    s = np.sqrt(a * a + gen[..., 0, 1] * gen[..., 1, 0])
    large = np.abs(s) >= _SPECTRAL_FROM
    # each form sees only its own elements, so neither divides by zero
    s_small = np.where(large, 0.0, s)
    sinhc = np.divide(np.sinh(s_small), s_small, out=np.ones_like(s_small), where=s_small != 0.0)
    series = np.cosh(s_small)[..., None, None] * _EYE2 + sinhc[..., None, None] * gen
    s_large = np.where(large, s, 1.0)[..., None, None]
    # M / s as M conj(s) / |s|^2 on real pairs: numpy's complex division
    # multiplies by a reciprocal, so a / a can miss 1 and leak e^s into P-
    unit = ((gen * np.conj(s_large)).view(float) / (s_large * np.conj(s_large)).real).view(complex)
    spectral = 0.5 * np.exp(s_large) * (_EYE2 + unit) + 0.5 * np.exp(-s_large) * (_EYE2 - unit)
    return SL2CElement(np.where(large[..., None, None], spectral, series))


def sl2c_to_lorentz(s: SL2CElement) -> LorentzMatrix:
    """Vector representation induced by the spinor one.

    Lambda^a{}_b = g^{a AA'} S[A,B] conj(S)[A',B'] g_{b BB'}: one matrix
    product up_w @ (S kron conj S) @ lo^T of the IvdW tables as 4x4
    matrices over the pair index 2A + A'.  Imaginary parts must vanish.  A
    batch of elements gives a batch of matrices, each bit for bit the
    single-element one.
    """
    g = build_ivdw()
    m = s.matrix
    kron = (m[..., :, None, :, None] * np.conj(m)[..., None, :, None, :]).reshape(m.shape[:-2] + (4, 4))
    lam = g.up_w.reshape(4, 4) @ kron @ g.lo.reshape(4, 4).T
    if not np.all(np.abs(lam.imag) <= 1e-12):
        raise AssertionError("induced Lorentz matrix has imaginary parts")
    return LorentzMatrix(np.ascontiguousarray(lam.real))


def random_sl2c(
    rng: np.random.Generator, scale: float = 1.0, size: int | tuple[int, ...] = ()
) -> SL2CElement:
    """Random group element: uniform antisymmetric parameters in [-scale, scale].

    ``size`` (an int or a shape) gives a batch of that shape.  The six
    parameters above the diagonal of each element are drawn in row order,
    element after element, so a batch of k holds the same numbers as k
    single draws in turn.
    """
    shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
    w = np.zeros(shape + (4, 4))
    rows, cols = np.triu_indices(4, 1)
    w[..., rows, cols] = rng.uniform(-scale, scale, shape + (6,))
    return exp_rep(w - np.swapaxes(w, -1, -2))


def boost_z(rapidity: float) -> SL2CElement:
    """Pure boost along z with the given rapidity."""
    w = np.zeros((4, 4))
    w[0, 3] = rapidity
    w[3, 0] = -rapidity
    return exp_rep(w)
