"""Closed-form spatially homogeneous equilibrium and the conserved masses.

The two linear invariants of the system are

    m1 = integral of u over the bulk  + integral of z over the surface,
    m2 = integral of w over the surface + integral of z over the surface.

Given (m1, m2) and the measures, the homogeneous equilibrium solves

    u_inf |Omega| + z_inf |Gamma| = m1
    w_inf |Gamma| + z_inf |Gamma| = m2
    z_inf = kappa u_inf w_inf

with kappa = 1 in the literal closure mode and kappa = delta_K'/delta_K in
rate-balance mode (the value at which the mass-action rate vanishes).  The
two modes agree when delta_K = delta_K'.  In the masses Z = z_inf |Gamma|,
U = m1 - Z = u_inf |Omega| and W = m2 - Z = w_inf |Gamma| the closure reads
Z |Omega| / kappa = U W, one quadratic whose unique root Z below min(m1, m2)
is the equilibrium.  Z, U and W are each computed without cancellation, by
the product-of-roots form where a sum of the roots would cancel, with no
square of a mass (it overflows past 1e154) and, for a product, on mantissas
and exponents apart: z, u and w come out whenever they are representable,
for masses and measures from 1e-300 to 1e300.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import sys

from .errors import NonpositiveMass, NoPositiveRoot, UndefinedClosure
from .geometry import EvolvingGeometry
from .mesh import ReferenceMesh, integrate_bulk, integrate_surface
from .model import ModelParams


class EquilibriumMode(enum.Enum):
    PAPER_LITERAL = "paper_literal"
    RATE_BALANCE = "rate_balance"


@dataclasses.dataclass(frozen=True)
class Equilibrium:
    u_inf: float
    w_inf: float
    z_inf: float
    m1: float
    m2: float
    mode: EquilibriumMode


def conserved_masses(state, geom: EvolvingGeometry, mesh: ReferenceMesh):
    """(m1, m2) of a state, by moving-domain quadrature at state.t."""
    m1 = integrate_bulk(mesh, geom, state.t, state.u_hat) + \
        integrate_surface(mesh, geom, state.t, state.z_hat)
    m2 = integrate_surface(mesh, geom, state.t, state.w_hat) + \
        integrate_surface(mesh, geom, state.t, state.z_hat)
    return m1, m2


def closure_kappa(params: ModelParams, mode: EquilibriumMode) -> float:
    """kappa of z = kappa u w: 1, or delta_K'/delta_K (positive, finite) in rate balance."""
    if mode is EquilibriumMode.PAPER_LITERAL:
        return 1.0
    kappa = params.delta_k_prime / params.delta_k
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise UndefinedClosure(f"rate_balance needs delta_k_prime / delta_k = {kappa} positive "
                               "and finite; use paper_literal", key="equilibrium_mode")
    return kappa


def check_positive(**inputs) -> None:
    """Masses and measures must be finite and positive; the first that is not is named."""
    for key, value in inputs.items():
        if not 0.0 < value < math.inf:
            raise NonpositiveMass(f"must be finite and > 0, got {value}", key=key)


def _ratio(numerators, denominators) -> float:
    """A product of positive finite numbers over another, on mantissas and
    exponents apart, so that no partial product overflows or underflows."""
    mantissa, exponent = 1.0, 0
    for x in numerators:
        m, e = math.frexp(x)
        mantissa, exponent = mantissa * m, exponent + e
    for x in denominators:
        m, e = math.frexp(x)
        mantissa, exponent = mantissa / m, exponent - e
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def solve_equilibrium(m1: float, m2: float, area_omega: float, length_gamma: float,
                      params: ModelParams, mode: EquilibriumMode = EquilibriumMode.RATE_BALANCE) -> Equilibrium:
    check_positive(m1=m1, m2=m2, area=area_omega, length=length_gamma)
    kappa = closure_kappa(params, mode)

    # Z^2 - (m1 + m2 + c) Z + m1 m2 = 0 with c = |O| / kappa; its discriminant
    # r^2 = (m1 - m2)^2 + c (c + 2 (m1 + m2)) is a sum of positive terms
    c = area_omega / kappa
    d = m1 - m2
    r = math.hypot(d, math.sqrt(c) * math.sqrt(c + 2.0 * (m1 + m2)))
    z_inf = _ratio((2.0, m1, m2), (length_gamma, m1 + m2 + c + r))
    # U = (r + d - c) / 2 and W = (r - d - c) / 2, with U W = c Z
    u_inf = (_ratio((0.5 * (r + (d - c)),), (area_omega,)) if d >= c
             else _ratio((2.0, c, m1), (area_omega, r + (c - d))))
    w_inf = (_ratio((0.5 * (r - (d + c)),), (length_gamma,)) if -d >= c
             else _ratio((2.0, c, m2), (length_gamma, r + (c + d))))
    # a root below the normal range has lost its digits
    if not all(sys.float_info.min <= v < math.inf for v in (z_inf, u_inf, w_inf)):
        raise NoPositiveRoot(
            f"no admissible root: z={z_inf}, u={u_inf}, w={w_inf} for m1={m1}, m2={m2}"
        )
    return Equilibrium(u_inf=u_inf, w_inf=w_inf, z_inf=z_inf, m1=m1, m2=m2, mode=mode)
