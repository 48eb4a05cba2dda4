"""Massless spin-n/2 fields with only unprimed indices.

Fields are generated either from a symmetric primed potential spinor,
psi = (-i)^n p x ... x p xi, or from a scalar amplitude against the
canonical frame direction, psi = (-+i)^n pi x ... x pi f.  The intrinsic
spin vector built from the momentum acts slot-wise; on these fields the
slot sum is an exact eigenoperator with eigenvalue -(n/2) p^a, which is
the helicity statement for the unprimed index convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .momentum import FourMomentum, spin_frame, minkowski_dot, momentum_matrix
from .spinor_core import EPS_UP, build_ivdw, dual, sigma_generators

__all__ = [
    "MasslessFieldAtP",
    "HertzPotentialAtP",
    "PLMatrices",
    "field_from_potential",
    "eta_canonical",
    "field_from_amplitude",
    "pl_matrices",
    "apply_spin_vector",
    "helicity_residual",
    "helicity_eigenvalue",
    "massless_equation_residual",
    "tensor_U",
    "tensor_T_massless",
    "norm_primed_integrand",
    "potential_route_integrand",
    "amplitude_norm_integrand",
    "fd_spacetime_residual_massless",
]

_L = "abcdefghijklmnopqrst"

HELICITY_SIGN = -1  # eigenvalue of the slot-summed spin vector is -(n/2) p^a


@dataclass(frozen=True)
class MasslessFieldAtP:
    """Totally symmetric rank-n lower unprimed field at a null momentum."""

    n: int
    p: FourMomentum
    psi: np.ndarray  # (..., 2)*n

    def __post_init__(self):
        if self.p.mass != 0.0:
            raise ValueError("field lives on the null shell")


@dataclass(frozen=True)
class HertzPotentialAtP:
    """Totally symmetric rank-n upper primed potential spinor."""

    n: int
    xi: np.ndarray  # (..., 2)*n


def _contract_slot_sum_first(arr: np.ndarray, mat: np.ndarray, k: int, n: int) -> np.ndarray:
    s = list(_L[:n])
    s[k] = "y"
    sin = "".join(s)
    s[k] = "z"
    sout = "".join(s)
    return np.einsum(f"...{sin},...zy->...{sout}", arr, mat)


def field_from_potential(xi: HertzPotentialAtP, p: FourMomentum) -> MasslessFieldAtP:
    """psi_{A_1..A_n} = (-i)^n p_{A_1A'_1} .. p_{A_nA'_n} xi^{A'_1..A'_n}."""
    if p.mass != 0.0:
        raise ValueError("potential construction needs a null momentum")
    n = xi.n
    p_ll = momentum_matrix(p, "ll")
    out = np.asarray(xi.xi, dtype=complex)
    for k in range(n):
        # new index A at slot k from p_{AA'} xi^{..A'..}
        out = _contract_slot_sum_first(out, p_ll, k, n)
    return MasslessFieldAtP(n=n, p=p, psi=(-1j) ** n * out)


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
    ob = np.conj(omega)
    letters = _L[:n]
    subs = [f"...{letters[k]}" for k in range(n)]
    return np.einsum(",".join(subs) + f"->...{letters}", *(ob for _ in range(n)))


def field_from_amplitude(f_values: np.ndarray, p: FourMomentum, n: int) -> MasslessFieldAtP:
    """psi = (-+i)^n pi x ... x pi f, the single-degree-of-freedom form."""
    if p.mass != 0.0:
        raise ValueError("amplitude construction needs a null momentum")
    pi = spin_frame(p).pi
    letters = _L[:n]
    subs = [f"...{letters[k]}" for k in range(n)]
    outer = np.einsum(",".join(subs) + f"->...{letters}", *(pi for _ in range(n)))
    factor = (-1j * p.sign) ** n
    return MasslessFieldAtP(n=n, p=p, psi=factor * np.asarray(f_values)[(...,) + (None,) * n] * outer)


@dataclass(frozen=True)
class PLMatrices:
    """Intrinsic spin vector at fixed momentum for both index characters.

    ``unprimed[..., a, X, Y]`` stores S^a_X{}^Y and ``primed`` the primed
    counterpart; built from the antisymmetrized g sandwiches.
    """

    unprimed: np.ndarray  # (..., 4, 2, 2)
    primed: np.ndarray  # (..., 4, 2, 2)


def pl_matrices(p: FourMomentum) -> PLMatrices:
    g = build_ivdw()
    p_ll = momentum_matrix(p, "ll")
    p_uu = momentum_matrix(p, "uu")
    # S^a_X^Y = -1/2 (p_{XA'} g^{aYA'} - g^a_{XA'} p^{YA'})
    t1 = np.einsum("...xm,aym->...axy", p_ll, g.up_w)
    t2 = np.einsum("axm,...ym->...axy", g.lo_w, p_uu)
    unprimed = -0.5 * (t1 - t2)
    # S^a_{X'}^{Y'} = +1/2 (p_{AX'} g^{aAY'} - g^a_{AX'} p^{AY'})
    t3 = np.einsum("...im,ain->...amn", p_ll, g.up_w)
    t4 = np.einsum("aim,...in->...amn", g.lo_w, p_uu)
    primed = 0.5 * (t3 - t4)
    return PLMatrices(unprimed=unprimed, primed=primed)


def pl_from_dual_route(p: FourMomentum) -> PLMatrices:
    """Same matrices via contraction of the momentum with the dual generators."""
    sg = sigma_generators()
    star = dual(sg.sigma)
    star_bar = dual(sg.sigma_bar)
    unprimed = np.einsum("...b,baxy->...axy", p.covec, star)
    primed = np.einsum("...b,baxy->...axy", p.covec, star_bar)
    return PLMatrices(unprimed=unprimed, primed=primed)


def apply_spin_vector(field: MasslessFieldAtP, pl: PLMatrices | None = None) -> np.ndarray:
    """Slot-summed action, shape (..., 4) + (2,)*n: sum_k S^a(slot k) psi."""
    if pl is None:
        pl = pl_matrices(field.p)
    n = field.n
    total = None
    for k in range(n):
        s = list(_L[:n])
        s[k] = "y"
        sin = "".join(s)
        s[k] = "z"
        sout = "".join(s)
        term = np.einsum(f"...{sin},...wzy->...w{sout}", field.psi, pl.unprimed)
        total = term if total is None else total + term
    return total


def _momentum_times_field(field: MasslessFieldAtP) -> np.ndarray:
    slots = _L[: field.n]
    return np.einsum(f"...w,...{slots}->...w{slots}", field.p.vec, field.psi)


def helicity_residual(field: MasslessFieldAtP) -> float:
    """Max violation of (slot sum S^a) psi = -(n/2) p^a psi."""
    lhs = apply_spin_vector(field)
    rhs = HELICITY_SIGN * (field.n / 2.0) * _momentum_times_field(field)
    return float(np.max(np.abs(lhs - rhs)))


def helicity_eigenvalue(field: MasslessFieldAtP) -> float:
    """Least-squares eigenvalue h in (slot sum S^a) psi = h p^a psi."""
    lhs = apply_spin_vector(field)
    rhs = _momentum_times_field(field)
    num = np.sum(np.conj(rhs) * lhs)
    den = np.sum(np.abs(rhs) ** 2)
    return float((num / den).real)


def massless_equation_residual(field: MasslessFieldAtP) -> float:
    """Max over slots of |p^{AA'} psi_{..A..}| (the momentum-space equation)."""
    p_uu = momentum_matrix(field.p, "uu")
    n = field.n
    worst = 0.0
    for k in range(n):
        s = list(_L[:n])
        s[k] = "y"
        sin = "".join(s)
        s[k] = "z"
        sout = "".join(s)
        val = np.einsum(f"...{sin},...yz->...{sout}", field.psi, p_uu)
        worst = max(worst, float(np.max(np.abs(val))))
    return worst


# ---------------------------------------------------------------------------
# Norm integrands
# ---------------------------------------------------------------------------


def tensor_U(xi: HertzPotentialAtP) -> np.ndarray:
    """Upper-index world tensor U^{b_1..b_n} = xi xibar, real entries."""
    g = build_ivdw().lo_w
    n = xi.n
    world = _L[:n]
    iw = _L[n: 2 * n]
    jw = _L[2 * n: 3 * n]
    ops = [np.conj(xi.xi), xi.xi]
    subs = [f"...{iw}", f"...{jw}"]
    for k in range(n):
        ops.append(g)
        subs.append(f"{world[k]}{iw[k]}{jw[k]}")
    out = np.einsum(",".join(subs) + f"->...{world}", *ops)
    scale = max(1.0, float(np.max(np.abs(out))))
    if not np.max(np.abs(out.imag)) <= 1e-12 * scale:
        raise AssertionError("potential tensor has non-negligible imaginary part")
    return out.real


def tensor_T_massless(field: MasslessFieldAtP) -> np.ndarray:
    """Lower-index world tensor psi psibar, real entries."""
    g = build_ivdw().up
    n = field.n
    world = _L[:n]
    iw = _L[n: 2 * n]
    jw = _L[2 * n: 3 * n]
    ops = [field.psi, np.conj(field.psi)]
    subs = [f"...{iw}", f"...{jw}"]
    for k in range(n):
        ops.append(g)
        subs.append(f"{world[k]}{iw[k]}{jw[k]}")
    out = np.einsum(",".join(subs) + f"->...{world}", *ops)
    scale = max(1.0, float(np.max(np.abs(out))))
    if not np.max(np.abs(out.imag)) <= 1e-12 * scale:
        raise AssertionError("field tensor has non-negligible imaginary part")
    return out.real


def norm_primed_integrand(field: MasslessFieldAtP, ts: list[np.ndarray]) -> np.ndarray:
    """(t_1..t_n . T) / prod_k (t_k . p) with T = psi psibar."""
    n = field.n
    if len(ts) != n:
        raise ValueError("need one probe vector per tensor slot")
    num = tensor_T_massless(field)
    den = 1.0
    for k, t in enumerate(ts):
        t = np.asarray(t, dtype=float)
        tp = minkowski_dot(t, field.p.vec)
        if not np.min(np.abs(tp)) >= 1e-12:
            raise ValueError("division by vanishing t.p")
        rest = _L[: n - 1 - k]
        tsub = "z" if t.ndim == 1 else "...z"
        num = np.einsum(f"...z{rest},{tsub}->...{rest}", num, t)
        den = den * tp
    return num / den


def potential_route_integrand(xi: HertzPotentialAtP, p: FourMomentum) -> np.ndarray:
    """p_{b_1}..p_{b_n} U^{b_1..b_n}; equals the probe form pointwise."""
    U = tensor_U(xi)
    out = U
    for k in range(xi.n):
        rest = _L[: xi.n - 1 - k]
        out = np.einsum(f"...z{rest},...z->...{rest}", out, p.covec)
    return out


def amplitude_norm_integrand(f_values: np.ndarray) -> np.ndarray:
    """|f(p)|^2, the single-degree-of-freedom norm density."""
    return np.abs(np.asarray(f_values)) ** 2


# ---------------------------------------------------------------------------
# Spacetime finite-difference residual for one null mode
# ---------------------------------------------------------------------------


def _mode_value(field: MasslessFieldAtP, x: np.ndarray, flip_frequency: bool) -> np.ndarray:
    p0 = field.p.p0 if not flip_frequency else -field.p.p0
    phase = np.exp(1j * (field.p.spatial @ x[1:] - p0 * x[0]))
    return phase * field.psi


def fd_spacetime_residual_massless(
    field: MasslessFieldAtP, x: np.ndarray, h: float, exact: bool = False, flip_frequency: bool = False
) -> float:
    """Central-difference residual of nabla^A_{A'} psi_{..A..} = 0 at x."""
    if h <= 0:
        raise ValueError("step must be positive")
    if np.asarray(field.p.p0).shape != ():
        raise ValueError("spacetime residual expects a single-momentum field")
    x = np.asarray(x, dtype=float)
    g = build_ivdw()
    n = field.n
    if exact:
        p0 = field.p.p0 if not flip_frequency else -field.p.p0
        pa = np.concatenate([[p0], -field.p.spatial])
        grad = -1j * pa[(slice(None),) + (None,) * n] * _mode_value(field, x, flip_frequency)
    else:
        cols = []
        for a in range(4):
            xp = x.copy()
            xp[a] += h
            xm = x.copy()
            xm[a] -= h
            cols.append(
                (_mode_value(field, xp, flip_frequency) - _mode_value(field, xm, flip_frequency)) / (2 * h)
            )
        grad = np.stack(cols, axis=0)
    nabla_ll = np.einsum("aij,a...->ij...", g.lo_w, grad)
    nabla_ul = np.einsum("iB,Bj...->ij...", EPS_UP, nabla_ll)
    worst = 0.0
    for k in range(n):
        s = list(_L[:n])
        s[k] = "y"
        sin = "".join(s)
        s[k] = "z"
        sout = "".join(s)
        val = np.einsum(f"yz{sin}->{sout}", nabla_ul)
        worst = max(worst, float(np.max(np.abs(val))))
    return worst
