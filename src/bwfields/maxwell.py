"""Electromagnetic specialization: field-strength spinor, Lorenz-gauge
potential, and the equality of three forms of the quadratic tensor.

Dictionary between the antisymmetric field tensor and electric/magnetic
3-vectors: F_{0i} = E_i and F_{ij} = -e_{ijk} B_k.  This choice is pinned
by requiring T_00 = (E^2 + B^2)/4 for real field data.

Quadratic forms are sesquilinear (one factor conjugated), which reduces to
the plain bilinear expressions for real field data.  The three-way tensor
equality holds on single-branch data coming from a real spacetime field,
i.e. F real at the given null momentum; the spinor-squared form alone
captures one circular component, so for complex F with unbalanced circular
content the field-tensor form differs.  Tests generate real-F data from a
real transverse polarization vector.

Every function here takes a batch of momenta: the leading axes of the
potential, field-tensor and spinor arrays are the batch shape of ``p``,
and probe vectors broadcast against it, so probes of shape (g, 1, 4) give
one probe per group of a (g, k) batch.  The registry's Maxwell checks draw
one batch of null momenta on both energy branches, the branch as its
leading axis, and call each function once.  Each validation scales its
tolerance by the sample's own largest entry (at least 1), so a batch passes
exactly when each of its samples would pass alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .momentum import FourMomentum, minkowski_dot, momentum_matrix
from .slot_core import _unprimed_stack, world_tensor
from .spinor_core import EPS_LO, EPS_UP, METRIC, build_ivdw, sigma_generators, spinor_from_world

__all__ = [
    "FaradayAtP",
    "PotentialAtP",
    "eb_from_faraday",
    "faraday_from_potential",
    "em_spinor",
    "em_spinor_from_potential",
    "tensor_T_em",
    "stress_form",
    "potential_form",
    "em_norm_integrand",
    "transverse_polarization",
]

_EIJK = np.zeros((3, 3, 3))
_EIJK[0, 1, 2] = _EIJK[1, 2, 0] = _EIJK[2, 0, 1] = 1.0
_EIJK[0, 2, 1] = _EIJK[2, 1, 0] = _EIJK[1, 0, 2] = -1.0

# g^{aa}: a product with it raises (or lowers) a trailing world index
_ETA = np.diag(METRIC)
# sigma^{qr}_{AB}, both world indices up and the second spinor index
# lowered, as a (16, 4) table over (q, r) and (A, B): the generators' two
# raisings are exact sign flips, so F_qr sigma^qr rounds as F^qr sigma_qr
_SIGMA_TABLE = np.einsum("qrxc,cb->qrxb", sigma_generators().sigma, EPS_LO).reshape(16, 4)
_SIGMA_TABLE.setflags(write=False)


@dataclass(frozen=True)
class FaradayAtP:
    """Antisymmetric field tensor at one null momentum (or batch)."""

    f: np.ndarray  # (..., 4, 4) complex antisymmetric
    p: FourMomentum

    def __post_init__(self):
        f = np.asarray(self.f, dtype=complex)
        object.__setattr__(self, "f", f)
        scale = np.maximum(1.0, np.max(np.abs(f), axis=(-2, -1)))
        if not np.all(np.max(np.abs(f + np.swapaxes(f, -1, -2)), axis=(-2, -1)) <= 1e-12 * scale):
            raise ValueError("field tensor must be antisymmetric")


@dataclass(frozen=True)
class PotentialAtP:
    """Four-vector potential in Lorenz gauge at a null momentum."""

    phi: np.ndarray  # (..., 4) complex, contravariant components
    p: FourMomentum

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex)
        object.__setattr__(self, "phi", phi)
        vec = self.p.vec
        scale = np.maximum(1.0, np.maximum(np.max(np.abs(phi), axis=-1), np.max(np.abs(vec), axis=-1)))
        if not np.all(np.abs(minkowski_dot(vec, phi)) <= 1e-10 * scale):
            raise ValueError("potential violates the Lorenz gauge p.phi = 0")


def eb_from_faraday(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse dictionary: E_i = F_{0i}, B_k = -(1/2) e_{ijk} F_{ij}."""
    f = np.asarray(f, dtype=complex)
    e_vec = f[..., 0, 1:]
    b_vec = -0.5 * np.einsum("ijk,...ij->...k", _EIJK, f[..., 1:, 1:])
    return e_vec, b_vec


def faraday_from_potential(pot: PotentialAtP) -> FaradayAtP:
    """Single-mode field tensor F_{ab} = -i (p_a phi_b - p_b phi_a)."""
    pa = pot.p.covec
    phi_lo = pot.phi @ METRIC
    f = -1j * (pa[..., :, None] * phi_lo[..., None, :] - pa[..., None, :] * phi_lo[..., :, None])
    return FaradayAtP(f=f, p=pot.p)


def em_spinor(far: FaradayAtP) -> np.ndarray:
    """phi_{AB} = (i/2) F^{qr} sigma_{qr AB}; symmetric for antisymmetric F.

    One product of each sample's 16 entries F_qr with the (16, 4) table of
    sigma^{qr}_{AB}.
    """
    batch = far.f.shape[:-2]
    phi = 0.5j * (far.f.reshape(batch + (16,)) @ _SIGMA_TABLE).reshape(batch + (2, 2))
    scale = np.maximum(1.0, np.max(np.abs(phi), axis=(-2, -1)))
    if not np.all(np.max(np.abs(phi - np.swapaxes(phi, -1, -2)), axis=(-2, -1)) <= 1e-12 * scale):
        raise AssertionError("field spinor is not symmetric")
    return phi


def em_spinor_from_potential(pot: PotentialAtP, ordering: str = "first") -> np.ndarray:
    """phi_{AB} = -i p_{AA'} phi_B^{A'}; 'second' contracts the other way.

    Both orderings agree when the Lorenz gauge holds, which the potential
    type enforces.
    """
    p_ll = momentum_matrix(pot.p, "ll")
    phi_mixed = spinor_from_world(pot.phi @ METRIC, 1) @ EPS_UP.T  # phi_B^{A'}
    if ordering == "first":
        return -1j * (p_ll @ np.swapaxes(phi_mixed, -1, -2))
    if ordering == "second":
        return -1j * (phi_mixed @ np.swapaxes(p_ll, -1, -2))
    raise ValueError("ordering must be 'first' or 'second'")


def tensor_T_em(phi_ab: np.ndarray) -> np.ndarray:
    """World form of phi_{AB} phibar_{A'B'}, a real rank-2 tensor."""
    return world_tensor(_unprimed_stack(phi_ab, 2), build_ivdw().up[:, None], 2)


def stress_form(far: FaradayAtP) -> np.ndarray:
    """(1/2)((1/4) g_{ab} F.Fbar - F_{ac} Fbar_b^c), sesquilinear in F.

    The cross term is one product per sample, and F.Fbar = g^{aa} F_ac
    Fbar_a^c is its diagonal summed with the metric.
    """
    f = far.f
    cross = f @ np.swapaxes(np.conj(f) * _ETA, -1, -2)  # F_ac Fbar_b^c
    scalar = np.diagonal(cross, axis1=-2, axis2=-1) @ _ETA
    out = 0.5 * (0.25 * scalar[..., None, None] * METRIC - cross)
    scale = np.maximum(1.0, np.max(np.abs(out), axis=(-2, -1)))
    if not np.all(np.max(np.abs(out.imag), axis=(-2, -1)) <= 1e-12 * scale):
        raise AssertionError("stress tensor has non-negligible imaginary part")
    return out.real


def potential_form(pot: PotentialAtP) -> np.ndarray:
    """-(1/2) p_a p_b phi_c phibar^c."""
    pa = pot.p.covec
    phi_sq = minkowski_dot(pot.phi, np.conj(pot.phi)).real
    return -0.5 * phi_sq[..., None, None] * pa[..., :, None] * pa[..., None, :]


def em_norm_integrand(far: FaradayAtP, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """t1^a t2^b T_ab / ((t1.p)(t2.p)) with T the field-tensor (stress) form.

    On real F it equals the spin-1 probe norm of phi_AB; see the module note.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    t1p = minkowski_dot(t1, far.p.vec)
    t2p = minkowski_dot(t2, far.p.vec)
    if not min(np.min(np.abs(t1p)), np.min(np.abs(t2p))) >= 1e-12:
        raise ValueError("division by vanishing t.p")
    return (t1[..., None, :] @ stress_form(far) @ t2[..., :, None])[..., 0, 0] / (t1p * t2p)


def transverse_polarization(p: FourMomentum, v: np.ndarray) -> np.ndarray:
    """The 4-vectors v, shape batch + (4,), moved along the reference
    direction (1,0,0,0) until p.v = 0, as a new array; valid for any momentum
    off the cone tip.  Real v gives a real-F potential 1j * v."""
    v = np.array(v, dtype=np.result_type(v, float))
    v[..., 0] -= minkowski_dot(p.vec, v) / p.p0
    return v
