"""Fixed reference discretization: polar finite-volume grid on the annulus
plus an aligned periodic cell ring on the inner circle.

Bulk cells are indexed flat as i * n_theta + k (i radial, k angular); the
surface cell k sits exactly under the innermost bulk ring at the same angular
slot, which makes the bulk-surface coupling a 1:1 face map.  Cell-centered
midpoint quadrature gives exact polar cell areas at t = 0 and second-order
moving-domain integrals through the Jacobian factors supplied by the
geometry.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import InvalidResolution, LengthMismatch
from .geometry import EvolvingGeometry

MIN_N_R = 4
MIN_N_THETA = 8
# the cell budget: a 2048 x 2048 mesh, 32 MB per bulk field
MAX_CELLS = 1 << 22


@dataclasses.dataclass(frozen=True)
class ReferenceMesh:
    n_r: int
    n_theta: int
    r_inner0: float
    r_outer0: float
    dr: float
    dtheta: float
    r_centers: np.ndarray       # (n_r,)
    theta_centers: np.ndarray   # (n_theta,)
    r_faces: np.ndarray         # (n_r + 1,)
    theta_faces: np.ndarray     # (n_theta + 1,)
    bulk_ref_measures: np.ndarray   # (n_r * n_theta,), exact polar cell areas
    surf_ref_measures: np.ndarray   # (n_theta,), reference arc lengths

    @property
    def n_bulk(self):
        return self.n_r * self.n_theta

    @property
    def n_surf(self):
        return self.n_theta

    def cell_index(self, i, k):
        return i * self.n_theta + k

    @property
    def cell_r(self):
        """Reference radius of every bulk cell, flat (n_bulk,)."""
        return np.repeat(self.r_centers, self.n_theta)

    @property
    def cell_theta(self):
        """Reference angle of every bulk cell, flat (n_bulk,)."""
        return np.tile(self.theta_centers, self.n_r)


def check_resolution(n_r: int, n_theta: int) -> None:
    """Reject a grid below MIN_N_R x MIN_N_THETA or above MAX_CELLS; allocates nothing."""
    for key, n, least in (("n_r", n_r, MIN_N_R), ("n_theta", n_theta, MIN_N_THETA)):
        if n < least:
            raise InvalidResolution(f"must be >= {least}, got {n}", key=key)
    if n_r * n_theta > MAX_CELLS:
        raise InvalidResolution(f"{n_r} x {n_theta} cells is above MAX_CELLS = {MAX_CELLS}", key="n_r")


def build_mesh(n_r: int, n_theta: int, r_inner0: float, r_outer0: float) -> ReferenceMesh:
    check_resolution(n_r, n_theta)
    if not (r_outer0 > r_inner0 > 0.0):
        raise InvalidResolution(f"radii must satisfy 0 < r_inner0 < r_outer0, got ({r_inner0}, {r_outer0})")
    dr = (r_outer0 - r_inner0) / n_r
    dtheta = 2.0 * math.pi / n_theta
    r_faces = r_inner0 + dr * np.arange(n_r + 1)
    r_centers = 0.5 * (r_faces[:-1] + r_faces[1:])
    theta_faces = dtheta * np.arange(n_theta + 1)
    theta_centers = 0.5 * (theta_faces[:-1] + theta_faces[1:])
    # r_c * dr * dtheta equals the exact polar area (r_{i+1}^2 - r_i^2)/2 * dtheta
    bulk = np.repeat(r_centers * dr * dtheta, n_theta)
    surf = np.full(n_theta, r_inner0 * dtheta)
    return ReferenceMesh(
        n_r=n_r, n_theta=n_theta, r_inner0=r_inner0, r_outer0=r_outer0,
        dr=dr, dtheta=dtheta,
        r_centers=r_centers, theta_centers=theta_centers,
        r_faces=r_faces, theta_faces=theta_faces,
        bulk_ref_measures=bulk, surf_ref_measures=surf,
    )


def moving_ring_measures(mesh: ReferenceMesh, geom: EvolvingGeometry, t: float) -> np.ndarray:
    """Moving cell area of each ring, (n_r,): reference measure times
    det D Phi_t at the center, which depends on the radius only."""
    jac = geom.jacobian_det_ref(t, mesh.r_centers)
    return mesh.bulk_ref_measures[::mesh.n_theta] * jac


def moving_bulk_measures(mesh: ReferenceMesh, geom: EvolvingGeometry, t: float) -> np.ndarray:
    """Moving cell areas, flat (n_bulk,)."""
    return np.repeat(moving_ring_measures(mesh, geom, t), mesh.n_theta)


def moving_surface_measures(mesh: ReferenceMesh, geom: EvolvingGeometry, t: float) -> np.ndarray:
    """Moving surface cell lengths: stretch G(t, theta_k) times dtheta."""
    return geom.surface_stretch(t, mesh.theta_centers) * mesh.dtheta


def integrate_bulk(mesh: ReferenceMesh, geom: EvolvingGeometry, t: float, field) -> float:
    field = np.asarray(field, dtype=float)
    if field.shape != (mesh.n_bulk,):
        raise LengthMismatch(f"bulk field has shape {field.shape}, expected ({mesh.n_bulk},)")
    return float(np.dot(field, moving_bulk_measures(mesh, geom, t)))


def integrate_surface(mesh: ReferenceMesh, geom: EvolvingGeometry, t: float, field) -> float:
    field = np.asarray(field, dtype=float)
    if field.shape != (mesh.n_surf,):
        raise LengthMismatch(f"surface field has shape {field.shape}, expected ({mesh.n_surf},)")
    return float(np.dot(field, moving_surface_measures(mesh, geom, t)))
