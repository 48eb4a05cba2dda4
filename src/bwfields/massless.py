"""Massless spin-n/2 fields with only unprimed indices.

Fields are generated either from a symmetric upper primed potential
spinor, psi = (-i)^n p x ... x p xi, or from a scalar amplitude against the
canonical frame direction, psi = (-+i)^n pi x ... x pi f.  Both take a
plain array, the momentum and the rank: ``field_from_potential(xi, p, n)``
and ``field_from_amplitude(f, p, n)``.  The intrinsic spin vector built
from the momentum acts slot-wise; on these fields the slot sum is an exact
eigenoperator with eigenvalue -(n/2) p^a, which is the helicity statement
for the unprimed index convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .momentum import FourMomentum, spin_frame, momentum_matrix
from .slot_core import (
    StackField,
    _contract_slot,
    _kernel,
    _unprimed_stack,
    contract_probes,
    outer_power,
    probe_kernel,
    probe_norm,
)
from .spinor_core import EPS_UP, build_ivdw

__all__ = [
    "MasslessFieldAtP",
    "field_from_potential",
    "eta_canonical",
    "field_from_amplitude",
    "pl_matrices",
    "apply_spin_vector",
    "helicity",
    "norm_primed_integrand",
    "potential_route_integrand",
    "amplitude_norm_integrand",
]

HELICITY_SIGN = -1  # eigenvalue of the slot-summed spin vector is -(n/2) p^a


@dataclass(frozen=True)
class MasslessFieldAtP(StackField):
    """Totally symmetric rank-n lower unprimed field at a null momentum.

    ``stack`` is the one-bit stack, shape (1, 2)*n + batch; ``psi`` is a
    read-only batch-first view of it, shape batch + (2,)*n.
    """

    bits: ClassVar[int] = 1

    def __post_init__(self):
        super().__post_init__()
        if self.p.mass != 0.0:
            raise ValueError("field lives on the null shell")

    @classmethod
    def from_psi(cls, n: int, p: FourMomentum, psi: np.ndarray) -> "MasslessFieldAtP":
        """Stack a batch-first array of shape batch + (2,)*n into a new array."""
        return cls(n=n, p=p, stack=np.array(_unprimed_stack(psi, n)))

    @cached_property
    def psi(self) -> np.ndarray:
        return self._batch_first((0,) * self.n)


def _potential_stack(xi: np.ndarray, p: FourMomentum, n: int) -> tuple[np.ndarray, int]:
    """xi as a one-bit stack whose batch axes also fit p's, and their number."""
    xi = np.asarray(xi, dtype=complex)
    nb = len(np.broadcast_shapes(xi.shape[: xi.ndim - n], np.shape(p.p0)))
    return _unprimed_stack(xi, n, nb), nb


def field_from_potential(xi: np.ndarray, p: FourMomentum, n: int) -> MasslessFieldAtP:
    """psi_{A_1..A_n} = (-i)^n p_{A_1A'_1} .. p_{A_nA'_n} xi^{A'_1..A'_n} for a
    symmetric upper primed potential xi, shape batch + (2,)*n."""
    if p.mass != 0.0:
        raise ValueError("potential construction needs a null momentum")
    stack, nb = _potential_stack(xi, p, n)
    # new index A at slot k from p_{AA'} xi^{..A'..}
    kernel = _kernel((momentum_matrix(p, "ll"),), nb)
    for k in range(n):
        stack = _contract_slot(stack, kernel, k)
    return MasslessFieldAtP(n=n, p=p, stack=(-1j) ** n * stack)


def eta_canonical(p: FourMomentum, n: int, gauge_shift: complex = 0.0) -> np.ndarray:
    """Frame direction eta^{A'_1..A'_n} = omegabar x ... x omegabar.

    ``gauge_shift`` moves omega along the pi direction, which changes eta
    but not its contraction against n copies of the momentum.
    """
    fr = spin_frame(p)
    omega = fr.omega
    if gauge_shift != 0.0:
        pi_up = np.einsum("AB,...B->...A", EPS_UP, fr.pi)
        omega = omega + gauge_shift * pi_up
    return outer_power(np.conj(omega), n)


def field_from_amplitude(f_values: np.ndarray, p: FourMomentum, n: int) -> MasslessFieldAtP:
    """psi = (-+i)^n pi x ... x pi f, the single-degree-of-freedom form."""
    if p.mass != 0.0:
        raise ValueError("amplitude construction needs a null momentum")
    outer = outer_power(spin_frame(p).pi, n)
    factor = (-1j * p.sign) ** n
    return MasslessFieldAtP.from_psi(n, p, factor * np.asarray(f_values)[(...,) + (None,) * n] * outer)


def pl_matrices(p: FourMomentum) -> np.ndarray:
    """Intrinsic spin vector on an unprimed index at fixed momentum,
    S^a_X{}^Y as [..., a, X, Y], from the antisymmetrized g sandwiches."""
    g = build_ivdw()
    # S^a_X^Y = -1/2 (p_{XA'} g^{aYA'} - g^a_{XA'} p^{YA'})
    t1 = np.einsum("...xm,aym->...axy", momentum_matrix(p, "ll"), g.up_w)
    t2 = np.einsum("axm,...ym->...axy", g.lo_w, momentum_matrix(p, "uu"))
    return -0.5 * (t1 - t2)


def apply_spin_vector(field: MasslessFieldAtP) -> np.ndarray:
    """Slot-summed action sum_k S^a(slot k) psi, as a stack with the world
    index a as its last batch axis: shape (1, 2)*n + batch + (4,)."""
    stack = field.stack[..., None]
    kernel = _kernel((pl_matrices(field.p),), stack.ndim - 2 * field.n)
    return sum(_contract_slot(stack, kernel, k) for k in range(field.n))


def helicity(field: MasslessFieldAtP) -> tuple[float, float]:
    """One action of the spin vector, two readings: the max violation of
    (slot sum S^a) psi = -(n/2) p^a psi, and the least-squares eigenvalue h
    in (slot sum S^a) psi = h p^a psi."""
    lhs = apply_spin_vector(field)
    rhs = field.stack[..., None] * field.p.vec
    residual = float(np.max(np.abs(lhs - HELICITY_SIGN * (field.n / 2.0) * rhs)))
    eigenvalue = np.sum(np.conj(rhs) * lhs) / np.sum(np.abs(rhs) ** 2)
    return residual, float(eigenvalue.real)


# ---------------------------------------------------------------------------
# Norm integrands
# ---------------------------------------------------------------------------


def norm_primed_integrand(field: MasslessFieldAtP, ts: list[np.ndarray]) -> np.ndarray:
    """(t_1..t_n . T) / prod_k (t_k . p) with T = psi psibar."""
    return probe_norm(field, ts)


def potential_route_integrand(xi: np.ndarray, p: FourMomentum, n: int) -> np.ndarray:
    """p_{b_1}..p_{b_n} U^{b_1..b_n}; equals the probe form pointwise.

    The probe contraction of xibar with p_{AA'} = p_b g^b_{AA'} on every slot.
    """
    stack, nb = _potential_stack(xi, p, n)
    kernel = probe_kernel(momentum_matrix(p, "ll"), 1, nb)
    return contract_probes(np.conj(stack), [kernel] * n)


def amplitude_norm_integrand(f_values: np.ndarray) -> np.ndarray:
    """|f(p)|^2, the single-degree-of-freedom norm density."""
    return np.abs(np.asarray(f_values)) ** 2
