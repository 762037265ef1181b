"""Analytic flow maps and velocity fields for an evolving annulus.

The computational domain is an annulus whose inner boundary is the active
surface; the outer wall never moves.  Every preset is one map: a radial map,
linear in r, that carries the inner circle to radius R(t) and keeps the
outer wall, then a rigid turn by a(t); on top of it the surface material
slips along the circle with a wind s(t).  Only the five scalar laws a, a',
R, R' and s read the kind, and every other quantity is one formula in them.
A kind makes its laws live and leaves the rest at rest (a = 0, R = r_inner0,
s = 0):

  fixed         none: the identity map, all velocities zero
  rotation      a(t) = (omega/delta)(1 - e^{-delta t}) (omega*t when delta = 0);
                areas and lengths are preserved exactly
  breathing     R(t) = r_inner0 (1 + amplitude sin(omega t) e^{-delta t})
  surface_wind  s(t) = wind e^{-delta t}; the domain itself is fixed

Conventions used throughout the package:

  * reference coordinates are polar (r, theta) on the t = 0 annulus,
  * the outward normal of the bulk on the inner circle points toward the
    origin (into the hole); all boundary-flux signs follow from this,
  * V_p is the coordinate (parametrization) velocity that moves the grid,
    V_Omega = V_p and V_Gamma = V_p + s(t) tau are the material velocities of
    the bulk and surface species (tau = e_theta), and the relative fluxes are
    J_Omega = V_Omega - V_p, J_Gamma = V_Gamma - V_p, j = (V_Omega - V_Gamma) . nu.

All evaluators are pure functions of (t, x) at a scalar t and vectorize over
trailing point batches; geometries are immutable and safe to share.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .errors import InvalidPreset, PointOutsideDomain

_ON_SURFACE_RTOL = 1e-9


class GeometryKind(enum.Enum):
    FIXED = "fixed"
    ROTATION = "rotation"
    BREATHING = "breathing"
    SURFACE_WIND = "surface_wind"


@dataclasses.dataclass(frozen=True)
class GeometryPreset:
    """Parameters selecting one member of the motion family.

    Velocity parameters that a kind does not use are ignored (treated as 0).
    """

    kind: GeometryKind
    r_inner0: float
    r_outer0: float
    amplitude: float = 0.0
    omega: float = 0.0
    delta: float = 0.0
    wind_speed: float = 0.0


@dataclasses.dataclass(frozen=True)
class VelocitySample:
    """Velocities and derived fluxes at one evaluation point."""

    v_p: np.ndarray
    v_omega: np.ndarray
    v_gamma: np.ndarray
    j_omega: np.ndarray
    j_gamma: np.ndarray
    j: float | None  # (V_Omega - V_Gamma) . nu, defined only on the surface


@dataclasses.dataclass(frozen=True)
class KinematicsReport:
    max_normal_residual: float  # max |(V_p - V_Gamma) . nu| over samples
    min_jacobian: float
    max_area_drift: float       # max |area(t) - area(0)|
    max_length_drift: float
    b_holds: bool               # both drifts within tolerance on the grid
    times: tuple


def _perp(y):
    """y turned by a quarter counterclockwise: |y| e_theta."""
    return np.stack([-y[..., 1], y[..., 0]], axis=-1)


class EvolvingGeometry:
    """Closed-form evolving annulus built from a validated preset."""

    def __init__(self, preset: GeometryPreset):
        self.preset = preset
        self.kind = preset.kind
        self.r_inner0 = float(preset.r_inner0)
        self.r_outer0 = float(preset.r_outer0)

    # -- scalar motion laws: the only evaluators that read the kind --------

    def rotation_angle(self, t):
        p = self.preset
        if self.kind is not GeometryKind.ROTATION:
            return np.zeros_like(np.asarray(t, dtype=float))
        if p.delta == 0.0:
            return p.omega * np.asarray(t, dtype=float)
        return (p.omega / p.delta) * (1.0 - np.exp(-p.delta * np.asarray(t, dtype=float)))

    def rotation_rate(self, t):
        p = self.preset
        if self.kind is not GeometryKind.ROTATION:
            return 0.0
        return p.omega * np.exp(-p.delta * t)

    def inner_radius(self, t):
        """Radius of the surface circle at time t."""
        p = self.preset
        if self.kind is GeometryKind.BREATHING:
            return self.r_inner0 * (1.0 + p.amplitude * np.sin(p.omega * t) * np.exp(-p.delta * t))
        return self.r_inner0 * np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else self.r_inner0

    def inner_radius_rate(self, t):
        p = self.preset
        if self.kind is not GeometryKind.BREATHING:
            return 0.0
        return self.r_inner0 * p.amplitude * np.exp(-p.delta * t) * (
            p.omega * np.cos(p.omega * t) - p.delta * np.sin(p.omega * t)
        )

    def wind_speed(self, t):
        """Speed s(t) of the surface material along the unit tangent tau,
        relative to the grid: J_Gamma = s(t) tau."""
        p = self.preset
        if self.kind is not GeometryKind.SURFACE_WIND:
            return 0.0
        return p.wind_speed * math.exp(-p.delta * t)

    # -- the radial map and its turn ---------------------------------------

    def _slope(self, inner):
        return (self.r_outer0 - inner) / (self.r_outer0 - self.r_inner0)

    def radial_slope(self, t):
        """d rho / d r of the radial map."""
        return self._slope(self.inner_radius(t))

    def radial_map(self, t, r):
        """(radius_map(t, r), radial_slope(t), inner_radius(t)), from one
        reading of the inner-radius law."""
        r = np.asarray(r, dtype=float)
        inner = self.inner_radius(t)
        slope = self._slope(inner)
        # r_inner0 + (r - r_inner0) is not r bit for bit on every annulus
        if self.kind is not GeometryKind.BREATHING:
            return r, slope, inner
        return inner + (r - self.r_inner0) * slope, slope, inner

    def radius_map(self, t, r):
        """Physical radius of a point at reference radius r."""
        if self.kind is not GeometryKind.BREATHING:
            return np.asarray(r, dtype=float)
        return self.radial_map(t, r)[0]

    def _turn(self, t):
        """The rigid turn by a(t), a 2 x 2 matrix."""
        a = float(self.rotation_angle(t))
        return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])

    def flow_map(self, t, x):
        """Phi_t applied to reference points x, shape (..., 2)."""
        x = np.asarray(x, dtype=float)
        r = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
        y = x * np.where(r > 0, self.radius_map(t, r) / np.maximum(r, 1e-300), 0.0)[..., None]
        return (self._turn(t) @ y[..., None])[..., 0]

    def flow_map_jacobian(self, t, x):
        """D Phi_t at reference points x, shape (..., 2, 2): the turn times
        the radial Jacobian, rho'(r) along e_r and rho / r along e_theta."""
        x = np.asarray(x, dtype=float)
        r = np.maximum(np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2), 1e-300)
        er = x / r[..., None]
        tangential = (self.radius_map(t, r) / r)[..., None, None]
        outer = er[..., :, None] * er[..., None, :]
        radial = tangential * np.eye(2) + (self.radial_slope(t) - tangential) * outer
        return self._turn(t) @ radial

    def jacobian_det_ref(self, t, r):
        """det D Phi_t as a function of the reference radius."""
        rho, slope, _ = self.radial_map(t, r)
        return rho * slope / np.asarray(r, dtype=float)

    # -- velocities ----------------------------------------------------------

    def v_parametrization(self, t, y):
        """V_p at physical points y: the wall's rate R'(t) shared out
        linearly in radius, plus the rigid turn at rate a'(t)."""
        y = np.asarray(y, dtype=float)
        rho = np.sqrt(y[..., 0] ** 2 + y[..., 1] ** 2)
        rad = self.inner_radius_rate(t) * (self.r_outer0 - rho) / (self.r_outer0 - self.inner_radius(t))
        return y * (rad / np.maximum(rho, 1e-300))[..., None] + self.rotation_rate(t) * _perp(y)

    def v_bulk(self, t, y):
        """Material velocity of the bulk species: it rides with the grid."""
        return self.v_parametrization(t, y)

    def v_surface(self, t, y):
        """Material velocity of the surface species (points y on the surface):
        V_p plus the wind s(t) along tau = e_theta."""
        y = np.asarray(y, dtype=float)
        rho = np.sqrt(y[..., 0] ** 2 + y[..., 1] ** 2)
        wind = self.wind_speed(t) / np.maximum(rho, 1e-300)
        return self.v_parametrization(t, y) + _perp(y) * wind[..., None]

    def normal(self, t, y):
        """Outward normal of the bulk on the surface: points into the hole."""
        y = np.asarray(y, dtype=float)
        rho = np.sqrt(y[..., 0] ** 2 + y[..., 1] ** 2)
        return -y / np.maximum(rho, 1e-300)[..., None]

    def surface_stretch(self, t, theta):
        """|d/dtheta Phi_t(gamma0(theta))| on the reference circle."""
        return np.full_like(np.asarray(theta, dtype=float), self.inner_radius(t))

    # -- divergences and deformation ---------------------------------------

    def div_vp_bulk(self, t, rho_phys):
        """div V_p at physical radius rho_phys; the turn is divergence-free."""
        rho_phys = np.asarray(rho_phys, dtype=float)
        return self.inner_radius_rate(t) * (self.r_outer0 - 2.0 * rho_phys) / (
            rho_phys * (self.r_outer0 - self.inner_radius(t)))

    def div_vp_surface(self, t):
        """Tangential divergence of V_p on the surface circle."""
        return self.inner_radius_rate(t) / self.inner_radius(t)

    def b_tensor_tangential(self, t):
        """Quadratic form of B(V_p) = (div_G V_p) I - 2 D(V_p) on unit tangents.

        On a curve the deformation tensor satisfies tau . D(V_p) tau =
        div_G V_p, so the form collapses to -div_G V_p for every preset here.
        """
        return -self.div_vp_surface(t)

    @property
    def metric_is_static(self):
        """True when measures/transmissibilities do not depend on t."""
        return self.kind is not GeometryKind.BREATHING

    @property
    def surface_slip_active(self):
        """Whether J_Gamma can be nonzero."""
        return self.kind is GeometryKind.SURFACE_WIND


def check_annulus(r_inner0: float, r_outer0: float, error=InvalidPreset) -> None:
    """The annulus rule: r_outer0 > r_inner0 > 0 and a finite area; raises `error`."""
    if not (r_outer0 > r_inner0 > 0.0):
        raise error(f"need r_outer0 > r_inner0 > 0, got ({r_inner0}, {r_outer0})", key="r_inner0")
    if not math.isfinite(math.pi * (r_outer0 * r_outer0 - r_inner0 * r_inner0)):
        raise error(f"the annulus area overflows at r_outer0 = {r_outer0}", key="r_outer0")


def build_geometry(preset: GeometryPreset) -> EvolvingGeometry:
    """Validate a preset and return its evaluator bundle."""
    check_annulus(preset.r_inner0, preset.r_outer0)
    if preset.delta < 0.0:
        raise InvalidPreset(f"velocity decay rate must be >= 0, got {preset.delta}", key="delta")
    if preset.kind is GeometryKind.BREATHING:
        bound = 1.0 - preset.r_inner0 / preset.r_outer0
        if not abs(preset.amplitude) < bound:
            raise InvalidPreset(
                f"breathing amplitude |{preset.amplitude}| must be < 1 - r_inner0/r_outer0 = {bound:g} "
                "or the annulus collapses", key="amplitude")
    return EvolvingGeometry(preset)


def velocities_at(geom: EvolvingGeometry, t: float, x) -> VelocitySample:
    """All velocities and relative fluxes at one physical point.

    The slip j = (V_Omega - V_Gamma) . nu is populated only when x lies on
    the surface circle; elsewhere it is None.
    """
    x = np.asarray(x, dtype=float)
    rho = float(np.sqrt(x[0] ** 2 + x[1] ** 2))
    inner = float(geom.inner_radius(t))
    tol = _ON_SURFACE_RTOL * geom.r_outer0 + 1e-12
    if rho < inner - tol or rho > geom.r_outer0 + tol:
        raise PointOutsideDomain(
            f"|x| = {rho:g} outside [{inner:g}, {geom.r_outer0:g}] at t = {t:g}"
        )
    v_p = geom.v_parametrization(t, x)
    v_o = geom.v_bulk(t, x)
    v_g = geom.v_surface(t, x)
    j = None
    if abs(rho - inner) <= 1e-9 * max(1.0, geom.r_outer0):
        nu = geom.normal(t, x)
        j = float(np.dot(v_o - v_g, nu))
    return VelocitySample(v_p=v_p, v_omega=v_o, v_gamma=v_g,
                          j_omega=v_o - v_p, j_gamma=v_g - v_p, j=j)


def measures(geom: EvolvingGeometry, t: float, n_r: int = 256, n_theta: int = 256):
    """(area of the bulk, length of the surface) at time t.

    Midpoint quadrature over an internal reference grid with the appropriate
    Jacobian factors; for every preset in the family the radial map is affine
    so the result agrees with the closed forms to rounding.
    """
    dr = (geom.r_outer0 - geom.r_inner0) / n_r
    r_c = geom.r_inner0 + (np.arange(n_r) + 0.5) * dr
    jac = geom.jacobian_det_ref(t, r_c)
    area = float(np.sum(r_c * jac) * dr * 2.0 * math.pi)
    dth = 2.0 * math.pi / n_theta
    th_c = (np.arange(n_theta) + 0.5) * dth
    length = float(np.sum(geom.surface_stretch(t, th_c)) * dth)
    return area, length


def check_kinematics(geom: EvolvingGeometry, t_grid, tol: float,
                     n_theta: int = 64, n_r: int = 32) -> KinematicsReport:
    """Sampled compatibility report over a time grid.

    Checks the normal-velocity compatibility (V_p - V_Gamma) . nu = 0 on the
    surface, positivity of det D Phi_t, and whether area and length stay at
    their t = 0 values within tol (the constant-measure hypothesis).
    Violations are reported, never raised.
    """
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("t_grid must be nonempty")
    theta = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    r_ref = geom.r_inner0 + (np.arange(n_r) + 0.5) * ((geom.r_outer0 - geom.r_inner0) / n_r)
    area0, len0 = measures(geom, t_grid[0])
    max_resid = 0.0
    min_jac = math.inf
    max_da = 0.0
    max_dl = 0.0
    for t in t_grid:
        inner = float(geom.inner_radius(t))
        pts = np.stack([inner * np.cos(theta), inner * np.sin(theta)], axis=-1)
        nu = geom.normal(t, pts)
        diff = geom.v_parametrization(t, pts) - geom.v_surface(t, pts)
        max_resid = max(max_resid, float(np.max(np.abs(np.sum(diff * nu, axis=-1)))))
        min_jac = min(min_jac, float(np.min(geom.jacobian_det_ref(t, r_ref))))
        area, length = measures(geom, t)
        max_da = max(max_da, abs(area - area0))
        max_dl = max(max_dl, abs(length - len0))
    return KinematicsReport(
        max_normal_residual=max_resid,
        min_jacobian=min_jac,
        max_area_drift=max_da,
        max_length_drift=max_dl,
        b_holds=(max_da <= tol and max_dl <= tol),
        times=tuple(t_grid),
    )
