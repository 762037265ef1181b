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
two modes agree when delta_K = delta_K'.  Substituting the linear relations
into the closure gives one quadratic in z_inf whose unique root below
min(m1, m2)/|Gamma| is the equilibrium; it is computed through the
product-of-roots form to avoid cancellation.
"""

from __future__ import annotations

import dataclasses
import enum
import math

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


def solve_equilibrium(m1: float, m2: float, area_omega: float, length_gamma: float,
                      params: ModelParams, mode: EquilibriumMode = EquilibriumMode.RATE_BALANCE) -> Equilibrium:
    check_positive(m1=m1, m2=m2, area=area_omega, length=length_gamma)
    kappa = closure_kappa(params, mode)

    # z^2 - (A + B + C) z + A B = 0 with A = m1/|G|, B = m2/|G|, C = |O|/(kappa |G|)
    a = m1 / length_gamma
    b = m2 / length_gamma
    c = area_omega / (kappa * length_gamma)
    s = a + b + c
    disc = s * s - 4.0 * a * b
    if disc < 0.0:
        raise NoPositiveRoot(f"negative discriminant {disc} for m1={m1}, m2={m2}")
    # smaller root via product of roots: stable for all parameter sizes
    z_inf = 2.0 * a * b / (s + math.sqrt(disc))
    u_inf = (m1 - z_inf * length_gamma) / area_omega
    w_inf = m2 / length_gamma - z_inf
    if not (0.0 < z_inf and u_inf > 0.0 and w_inf > 0.0):
        raise NoPositiveRoot(
            f"no admissible root: z={z_inf}, u={u_inf}, w={w_inf} for m1={m1}, m2={m2}"
        )
    return Equilibrium(u_inf=u_inf, w_inf=w_inf, z_inf=z_inf, m1=m1, m2=m2, mode=mode)
