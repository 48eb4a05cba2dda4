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
one batch of null momenta per energy branch and call each function once
per branch.  Each validation scales its tolerance by the sample's own
largest entry (at least 1), so a batch passes exactly when each of its
samples would pass alone.
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
    "random_transverse_polarization",
]

_EIJK = np.zeros((3, 3, 3))
_EIJK[0, 1, 2] = _EIJK[1, 2, 0] = _EIJK[2, 0, 1] = 1.0
_EIJK[0, 2, 1] = _EIJK[2, 1, 0] = _EIJK[1, 0, 2] = -1.0


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
    """phi_{AB} = (i/2) F^{qr} sigma_{qr AB}; symmetric for antisymmetric F."""
    sg = sigma_generators()
    # both world indices down, second spinor index lowered
    sig_ll = np.einsum("qrxc,cb->qrxb", sg.sigma_low, EPS_LO)
    f_up = np.einsum("...qr,qc,rd->...cd", far.f, METRIC, METRIC)
    phi = 0.5j * np.einsum("...qr,qrab->...ab", f_up, sig_ll)
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
        return -1j * np.einsum("...am,...bm->...ab", p_ll, phi_mixed)
    if ordering == "second":
        return -1j * np.einsum("...bm,...am->...ab", p_ll, phi_mixed)
    raise ValueError("ordering must be 'first' or 'second'")


def tensor_T_em(phi_ab: np.ndarray) -> np.ndarray:
    """World form of phi_{AB} phibar_{A'B'}, a real rank-2 tensor."""
    return world_tensor(_unprimed_stack(phi_ab, 2), build_ivdw().up[:, None], 2)


def stress_form(far: FaradayAtP) -> np.ndarray:
    """(1/2)((1/4) g_{ab} F.Fbar - F_{ac} Fbar_b^c), sesquilinear in F."""
    f = far.f
    fbar = np.conj(f)
    f_up = np.einsum("...qr,qc,rd->...cd", f, METRIC, METRIC)
    scalar = np.einsum("...qr,...qr->...", fbar, f_up)
    fbar_mixed = np.einsum("...bc,cd->...bd", fbar, METRIC)  # Fbar_b^c
    cross = np.einsum("...ac,...bc->...ab", f, fbar_mixed)
    out = 0.5 * (0.25 * np.einsum("...,ab->...ab", scalar, METRIC) - cross)
    scale = np.maximum(1.0, np.max(np.abs(out), axis=(-2, -1)))
    if not np.all(np.max(np.abs(out.imag), axis=(-2, -1)) <= 1e-12 * scale):
        raise AssertionError("stress tensor has non-negligible imaginary part")
    return out.real


def potential_form(pot: PotentialAtP) -> np.ndarray:
    """-(1/2) p_a p_b phi_c phibar^c."""
    pa = pot.p.covec
    phi_sq = minkowski_dot(pot.phi, np.conj(pot.phi))
    out = -0.5 * np.einsum("...,...a,...b->...ab", phi_sq, pa, pa)
    return out.real


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
    return np.einsum("...ab,...a,...b->...", stress_form(far), t1, t2) / (t1p * t2p)


def random_transverse_polarization(rng: np.random.Generator, p: FourMomentum) -> np.ndarray:
    """Real 4-vector with p.psi = 0; the reference direction (1,0,0,0) fixes
    the projection, so the result is valid for any momentum off the cone tip."""
    shape = np.asarray(p.p0).shape
    v = rng.normal(size=shape + (4,))
    alpha = minkowski_dot(p.vec, v) / p.p0
    v[..., 0] -= alpha
    return v
