"""Gamma matrices assembled from the index-conversion tables, and the spin-1/2
bridge between bispinors and the two-component field pair.

Bispinor block order is (psi_B, xi_{B'}), both lower.  The gamma matrices
are stored as gamma[q][alpha, beta] acting on columns, with the off-diagonal
blocks built from the g tables; all block transposes needed to keep row
indices first are applied here, in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .massive_bw import BWFieldAtP
from .momentum import FourMomentum
from .spinor_core import EPS_LO, EPS_UP, build_ivdw, levi_civita4, world_from_spinor

__all__ = [
    "GammaSet",
    "build_gammas",
    "pack_bispinor",
    "unpack_bispinor",
    "dirac_residual",
    "dirac_adjoint",
    "dirac_current",
    "dirac_current_matrix_route",
    "norm_bilinear_integrand",
]


@dataclass(frozen=True)
class GammaSet:
    """Four gamma matrices with the derived generators and pseudoscalar."""

    gamma: np.ndarray  # (4, 4, 4)
    sigma: np.ndarray  # (4, 4, 4, 4) = (gamma_q gamma_r - gamma_r gamma_q) / 4i
    gamma5: np.ndarray  # (4, 4)


@lru_cache(maxsize=1)
def build_gammas() -> GammaSet:
    """gamma_q = sqrt2 * offdiag(g_{qA}^{B'}, -g_q^B_{A'}) in block form.

    Built once and shared; the arrays are read-only so no caller can alter
    the cached set.
    """
    g = build_ivdw()
    gamma = np.zeros((4, 4, 4), dtype=complex)
    for q in range(4):
        upper_right = np.sqrt(2.0) * (g.lo[q] @ EPS_UP.T)  # rows A, cols B'
        lower_left = -np.sqrt(2.0) * (g.up[q] @ EPS_LO).T  # rows A', cols B
        gamma[q, :2, 2:] = upper_right
        gamma[q, 2:, :2] = lower_left
    sigma = np.einsum("qab,rbc->qrac", gamma, gamma)
    sigma = (sigma - np.transpose(sigma, (1, 0, 2, 3))) / 4j
    e = levi_civita4()
    gamma5 = (1j / 24.0) * np.einsum(
        "abcd,aij,bjk,ckl,dlm->im", e, gamma, gamma, gamma, gamma
    )
    for arr in (gamma, sigma, gamma5):
        arr.setflags(write=False)
    return GammaSet(gamma=gamma, sigma=sigma, gamma5=gamma5)


def pack_bispinor(f: BWFieldAtP) -> np.ndarray:
    """The two components of a spin-1/2 field as a read-only 4-column.

    The stack (2, 2) + batch is (psi_B, xi_{B'}) components first, so the
    bispinor is a view of it, shape batch + (4,).
    """
    if f.n != 1:
        raise ValueError("bispinor packing needs a spin-1/2 field")
    nb = f.stack.ndim - 2
    psi = f.stack.reshape((4,) + f.stack.shape[2:]).transpose(tuple(range(1, nb + 1)) + (0,))
    psi.flags.writeable = False
    return psi


def unpack_bispinor(psi: np.ndarray, p: FourMomentum) -> BWFieldAtP:
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != 4:
        raise ValueError("bispinor must have 4 trailing components")
    return BWFieldAtP.from_components(1, p, {(0,): psi[..., :2], (1,): psi[..., 2:]})


def dirac_residual(psi: np.ndarray, p: FourMomentum, mass: float) -> float:
    """Largest entry of (p^q gamma_q - m) psi."""
    gam = build_gammas().gamma
    slash = np.einsum("...q,qab->...ab", p.vec, gam)
    lhs = np.einsum("...ab,...b->...a", slash, np.asarray(psi, dtype=complex))
    return float(np.max(np.abs(lhs - mass * psi)))


_ADJOINT_BLOCK = np.block([[np.zeros((2, 2)), EPS_UP.T], [-EPS_UP.T, np.zeros((2, 2))]])
_ADJOINT_BLOCK.setflags(write=False)


def dirac_adjoint(psi: np.ndarray) -> np.ndarray:
    """Adjoint row built from the epsilon-block object: (-xibar^B, psibar^{B'}).

    The conjugate bispinor, each block raised with eps, is conj(psi) times
    the off-diagonal epsilon block matrix _ADJOINT_BLOCK.
    """
    return np.conj(np.asarray(psi, dtype=complex)) @ _ADJOINT_BLOCK


def dirac_current(psi: np.ndarray) -> np.ndarray:
    """Spinor form j_a = sqrt2 g_a^{AA'} (psi_A psibar_{A'} + xi_{A'} xibar_A)."""
    psi = np.asarray(psi, dtype=complex)
    u, v = psi[..., :2], psi[..., 2:]
    pair = np.einsum("...i,...j->...ij", u, np.conj(u)) + np.einsum(
        "...i,...j->...ij", np.conj(v), v
    )
    j = np.sqrt(2.0) * world_from_spinor(pair, 1)
    scale = max(1.0, float(np.max(np.abs(j))))
    if not np.max(np.abs(j.imag)) <= 1e-12 * scale:
        raise AssertionError("current has non-negligible imaginary part")
    return j.real


def dirac_current_matrix_route(psi: np.ndarray) -> np.ndarray:
    """j_q = adjoint(psi) gamma_q psi, as the 16 products adj_a psi_b of each
    sample times the (16, 4) table of gamma_q^{ab}; must match the spinor form."""
    psi = np.asarray(psi, dtype=complex)
    pairs = dirac_adjoint(psi)[..., :, None] * psi[..., None, :]
    table = build_gammas().gamma.reshape(4, 16).T
    return (pairs.reshape(psi.shape[:-1] + (16,)) @ table).real


def norm_bilinear_integrand(psi: np.ndarray, p: FourMomentum, mass: float) -> np.ndarray:
    """sign * m^{-2} p^a (adjoint gamma_a psi) per sample: the current has a
    lower world index, so the contraction is a plain component sum."""
    return p.sign * np.einsum("...a,...a->...", p.vec, dirac_current_matrix_route(psi)) / mass**2
