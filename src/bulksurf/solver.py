"""Conservative time integration of the coupled bulk-surface system in
reference coordinates.

Unknowns are physical concentrations stored against fixed reference cells;
the moving cell measure (reference measure times the flow-map Jacobian)
multiplies the time derivative, so the pair "material derivative plus
dilation" is discretized as d/dt(mass in cell) and the two linear invariants

    m1 = bulk mass of u + surface mass of z
    m2 = surface mass of w + surface mass of z

are conserved by construction, up to the linear-solver residual.

Scheme summary (both steppers are first order in time):

  * diffusion: two-point fluxes through mapped faces, implicit,
  * advection of the relative surface flux J_Gamma: donor-cell upwind,
    explicit in the IMEX stepper and implicit in the backward-Euler stepper.
    The bulk species ride with the grid in every preset (V_Omega = V_p, so
    J_Omega = 0) and no bulk advection is assembled; it returns only with a
    preset that has bulk slip,
  * bulk-surface exchange: the combined boundary flux (diffusive plus slip)
    on the inner circle is imposed directly as the reaction rate times the
    face arc, with the bulk trace taken as the innermost cell value; the
    same flux number feeds the u, w and z equations, which is what makes
    conservation exact,
  * reaction splitting in the IMEX stepper (mass action): the binding flux
    u w / delta_K is implicit in the trace factor u, the unbinding flux
    z / delta_K' is implicit in z, gains are carried by those same implicit
    flux values.  u and z are then unconditionally nonnegative (the coupled
    matrix restricted to them is an M-matrix) and w is nonnegative under the
    step bound dt <= delta_K / max(u trace), which is folded into the CFL
    check,
  * no flux is assembled at the fixed outer wall,
  * every preset is rotationally symmetric, so the operators are ring
    coefficients; every linear system is solved by an rFFT in theta, one
    radial tridiagonal system per mode, plus a Woodbury update over the
    surface slots for the binding term or Newton's Jacobian.

The outer-boundary condition is homogeneous no-flux: the only choice
consistent with conservation of m1 when the outer wall is fixed.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (CflViolation, LinearSolveFailure, NewtonDivergence,
                     NonfiniteField, SingularJacobian, UnknownCase, ValidationError, rekeyed)
from .geometry import EvolvingGeometry, GeometryKind, GeometryPreset, build_geometry
from .mesh import (ReferenceMesh, build_mesh, moving_bulk_measures, moving_ring_measures,
                   moving_surface_measures)
from .model import MassAction, ModelParams

_RESIDUAL_TOL = 1e-10
# a CFL-adaptive run stops when the step it may take falls below this
# fraction of time.dt: past it the run would take millions of steps
_MIN_CFL_STEP = 1e-6
# the step budget: t_final / dt steps at least (a CFL step never exceeds dt);
# MAX_STEPS of them take about an hour even at 4 x 8 (0.33 ms per step)
MAX_STEPS = 10 ** 7


@dataclasses.dataclass
class State:
    """Cell-averaged fields in reference coordinates at time t."""

    t: float
    u_hat: np.ndarray  # (n_r * n_theta,)
    w_hat: np.ndarray  # (n_theta,)
    z_hat: np.ndarray  # (n_theta,)

    def copy(self):
        return State(self.t, self.u_hat.copy(), self.w_hat.copy(), self.z_hat.copy())


@dataclasses.dataclass(frozen=True)
class Sources:
    """Optional injected source terms (used by manufactured solutions).

    bulk(t, r, theta), surface_w(t, theta), surface_z(t, theta) are volume
    densities; robin(t, theta) is added to the exchange flux on the inner
    boundary (per unit arc length).
    """

    bulk: Optional[Callable] = None
    surface_w: Optional[Callable] = None
    surface_z: Optional[Callable] = None
    robin: Optional[Callable] = None


@dataclasses.dataclass(frozen=True)
class DiscreteOperators:
    """Diffusion operators and moving measures at one time level, as ring
    coefficients: every preset is rotationally symmetric, so a face's
    transmissibility and a cell's measure depend on its ring only.  The
    stiffness returns the net diffusive flux into each cell (not divided by
    the cell measure); its CSR views are built on demand, by no step.
    """

    t: float
    n_theta: int
    radial: np.ndarray          # (n_r - 1,) faces between rings, includes delta_Omega
    angular: np.ndarray         # (n_r,) angular faces of each ring, includes delta_Omega
    surface: tuple              # surface faces for (w, z), include delta_Gamma, delta_Gamma'
    ring_measures: np.ndarray   # (n_r,) moving bulk cell measure of each ring
    surf_measure: float         # moving surface cell measure, also the coupling arc

    bulk_measures = property(lambda self: np.repeat(self.ring_measures, self.n_theta))
    surf_measures = property(lambda self: np.full(self.n_theta, self.surf_measure))
    bulk_stiffness = property(lambda self: _ring_stiffness(self.angular, self.radial, self.n_theta))
    surf_stiffness_w = property(lambda self: _ring_stiffness(self.surface[:1], (), self.n_theta))
    surf_stiffness_z = property(lambda self: _ring_stiffness(self.surface[1:], (), self.n_theta))


def _ring_stiffness(angular, radial, nt):
    """CSR stiffness of rings of nt cells, cells flat as ring * nt + k, from the
    transmissibilities of each ring's angular faces and of the faces between rings."""
    angular, radial = np.asarray(angular, dtype=float), np.asarray(radial, dtype=float)
    n = len(angular) * nt
    inward, outward = np.r_[0.0, radial], np.r_[radial, 0.0]
    # the diagonal adds a cell's faces radial first, as a face-by-face sum does
    diag = np.repeat(-(((inward + outward) + angular) + angular), nt)
    k, ang, rad = np.arange(n) % nt, np.repeat(angular, nt), np.repeat(radial, nt)
    inside = np.where(k < nt - 1, ang, 0.0)[:-1]       # face (k, k + 1) of a ring
    wrap = np.where(k == 0, ang, 0.0)[:n - nt + 1]     # face (nt - 1, 0)
    bands = [(rad, -nt), (wrap, 1 - nt), (inside, -1), (diag, 0), (inside, 1),
             (wrap, nt - 1), (rad, nt)]
    values, offsets = zip(*[(v, o) for v, o in bands if v.size])
    return sp.diags(values, offsets, shape=(n, n), format="csr")


def assemble_operators(geom: EvolvingGeometry, mesh: ReferenceMesh,
                       params: ModelParams, t: float) -> DiscreteOperators:
    """Ring coefficients and moving measures at time t."""
    rings = moving_ring_measures(mesh, geom, t)
    if np.min(rings) <= 0.0 or geom.inner_radius(t) <= 0.0:
        raise SingularJacobian(f"det D Phi_t <= 0 at t = {t:g} (min cell area {np.min(rings):g})")
    slope = geom.radial_slope(t)
    arc = float(moving_surface_measures(mesh, geom, t)[0])
    return DiscreteOperators(
        t=t, n_theta=mesh.n_theta,
        # radial faces: arc of length rho_f * dtheta, centers slope*dr apart
        radial=params.delta_omega * (geom.radius_map(t, mesh.r_faces[1:-1]) * mesh.dtheta)
        / (slope * mesh.dr),
        # angular faces: radial extent slope*dr, centers rho_c*dtheta apart
        angular=params.delta_omega * (slope * mesh.dr) / (geom.radius_map(t, mesh.r_centers)
                                                          * mesh.dtheta),
        surface=(params.delta_gamma / arc, params.delta_gamma_prime / arc),
        ring_measures=rings, surf_measure=arc)


# -- advection ----------------------------------------------------------------


def _surface_face_speed(geom, mesh, t):
    """Tangential J_Gamma speed through the surface faces: the same at every
    face, since every preset is rotationally symmetric."""
    y = geom.flow_map(t, np.array([mesh.r_inner0, 0.0]))
    jg = geom.v_surface(t, y) - geom.v_parametrization(t, y)
    return float(jg[1] * y[0] - jg[0] * y[1]) / math.hypot(y[0], y[1])


def surface_advection(geom, mesh, t, field, q=None):
    """Net upwind J_Gamma inflow per surface cell (of each row of field)."""
    w = np.asarray(field, dtype=float)
    q = _surface_face_speed(geom, mesh, t) if q is None else q
    flux = q * (w if q >= 0.0 else np.roll(w, -1, axis=-1))
    return np.roll(flux, 1, axis=-1) - flux


# -- step control ---------------------------------------------------------------


def cfl_bound(geom: EvolvingGeometry, mesh: ReferenceMesh, params: ModelParams,
              state: State, q=None) -> float:
    """Largest dt the IMEX stepper accepts at this state.

    Advective part: surface cell arc length / |J_Gamma . tau|.  Reaction part
    (mass action): dt <= delta_K / max trace of u, which keeps the receptor
    update nonnegative (surface cell and coupling arc coincide, so their
    ratio drops out).  Infinite when nothing constrains the step.  q, the
    surface face speed at t, may be passed in.
    """
    t = state.t
    bound = math.inf
    if geom.surface_slip_active:
        speed = abs(_surface_face_speed(geom, mesh, t) if q is None else q)
        if speed > 0:
            bound = min(bound, float(geom.surface_stretch(t, 0.0)) * mesh.dtheta / speed)
    if math.isfinite(params.delta_k):
        u_tr = np.max(state.u_hat[: mesh.n_theta])
        if u_tr > 0:
            bound = min(bound, params.delta_k / float(u_tr))
    return bound


def _check_step(state: State, dt: float, geom, mesh, params, check_cfl: bool, q=None):
    """Preconditions of every step: positive dt, a finite state and, when
    check_cfl is set, dt within cfl_bound; returns q as used for the bound."""
    check_steps(dt)
    if not (np.all(np.isfinite(state.u_hat)) and np.all(np.isfinite(state.w_hat))
            and np.all(np.isfinite(state.z_hat))):
        raise NonfiniteField(f"state at t = {state.t:g} contains non-finite values")
    if check_cfl:
        if q is None and geom.surface_slip_active:
            q = _surface_face_speed(geom, mesh, state.t)
        bound = cfl_bound(geom, mesh, params, state, q)
        if dt > bound:
            raise CflViolation(f"dt = {dt:g} exceeds stability bound {bound:g} at t = {state.t:g}")
    return q


def _check_backward_error(residual, x, rhs, row_norm: float, what: str):
    """Normwise backward error max|A x - b| / (||A|| max|x| + max|b|) of a
    solve, given its residual and the row-sum norm of A; never silent on a
    bad solve or a step matrix the Fourier solve does not fit."""
    scale = row_norm * float(np.max(np.abs(x))) + float(np.max(np.abs(rhs)))
    err = float(np.max(np.abs(residual))) / max(scale, 1e-300)
    if not math.isfinite(err) or err > _RESIDUAL_TOL:
        raise LinearSolveFailure(f"{what} backward error {err:.3e} exceeds {_RESIDUAL_TOL:g}")


# -- step assembly over the stacked unknowns (u, w, z) ------------------------------


def _slot_slices(mesh: ReferenceMesh):
    """Positions of the u trace (innermost bulk ring), w and z in the stacked
    vector; entry k of each belongs to surface slot k."""
    nb, ns = mesh.n_bulk, mesh.n_surf
    return slice(0, ns), slice(nb, nb + ns), slice(nb + ns, nb + 2 * ns)


# signs of an exchange flux in the rows (u trace, w, z); equal values conserve m1, m2
_EXCHANGE = (1.0, 1.0, -1.0)
# rings of (u trace, w, z) in the order of the Fourier modes (w, z, u outward)
_SLOT_RINGS = [2, 0, 1]


def _mass_rhs(state: State, dt: float, mesh: ReferenceMesh, m0, m1,
              sources: Sources | None):
    """Cell masses at t plus dt times the injected sources at t + dt; m0 and
    m1 are the (bulk, surface) measures at t and t + dt."""
    (m0b, m0s), (m1b, m1s) = m0, m1
    rhs = np.concatenate([m0b * state.u_hat, m0s * state.w_hat, m0s * state.z_hat])
    if sources is None:
        return rhs
    t1 = state.t + dt
    th = mesh.theta_centers
    trace, at_w, at_z = _slot_slices(mesh)
    for density, at, args, measure in (
            (sources.bulk, slice(0, mesh.n_bulk), (t1, mesh.cell_r, mesh.cell_theta), m1b),
            (sources.surface_w, at_w, (t1, th), m1s),
            (sources.surface_z, at_z, (t1, th), m1s),
            (sources.robin, trace, (t1, th), m1s)):
        if density is not None:
            rhs[at] += dt * np.asarray(density(*args), dtype=float) * measure
    return rhs


def _imex_rhs(state: State, dt: float, geom: EvolvingGeometry, mesh: ReferenceMesh,
              m0, m1, sources: Sources | None, q=None):
    """_mass_rhs plus the explicit upwind surface advection at t (q as in cfl_bound)."""
    rhs = _mass_rhs(state, dt, mesh, m0, m1, sources)
    if geom.surface_slip_active:
        fields = np.stack([state.w_hat, state.z_hat])
        rhs[mesh.n_bulk:] += dt * surface_advection(geom, mesh, state.t, fields, q).ravel()
    return rhs


class _FourierSolve:
    """A step matrix to t + dt, A0 plus slot terms, and its solve.  A0 is the
    measures minus dt times the stiffness of ops, with a Newton step's
    implicit upwind advection at speed q on surface_wind.  A slot term
    (pattern, coeffs) adds per slot the flux coeffs . (u trace, w, z) (None
    or zero skipped), with the pattern's signs, to the rows (u trace, w, z).

    A0 commutes with rotations in theta, so an rFFT splits A0 x = b into
    n_theta // 2 + 1 systems (Hockney), tridiagonal in the order (w, z, u
    rings outward), with bands in closed form (2 (1 - cos 2 pi p / n_theta)
    for the cyclic second difference, a shift for the upwind flux) and one
    LAPACK gtsv call.  Slot terms enter by Woodbury with a capacitance matrix
    of circulant blocks (Buzbee, Dorr, George and Golub), solved mode by mode
    when each coefficient is the same in every slot.  Every solve is checked
    by apply, a matrix-free stencil apart from the Fourier path.
    """

    def __init__(self, ops: DiscreteOperators, dt: float, mesh: ReferenceMesh, q: float = 0.0):
        self.dt, self.mesh, self.responses, self.circulants = dt, mesh, {}, {}
        self.measures = (ops.bulk_measures, ops.surf_measures)
        nr, nt = mesh.n_r, mesh.n_theta
        rings = np.arange(nr + 2)
        self.order, self.back = (rings - 2) % (nr + 2), (rings + 2) % (nr + 2)
        # dt times the couplings: faces around and between rings, surface faces
        # of (w, z) and the advective face flux
        self.ang, self.rad = ang, rad = dt * ops.angular, dt * ops.radial
        self.srf, self.q = dt * np.array(ops.surface), dt * q
        radial_sum = np.concatenate([rad, [0.0]]) + np.concatenate([[0.0], rad])
        self.ring_diag = (ops.ring_measures + 2.0 * ang)[:, None]   # radial part by fluxes
        self.surf_diag = (ops.surf_measure + 2.0 * self.srf + abs(self.q))[:, None]
        self.behind = (self.srf + max(self.q, 0.0))[:, None]    # surface coupling to k - 1
        self.ahead = (self.srf + max(-self.q, 0.0))[:, None]    # and to k + 1
        self.scratch = np.empty((nr, nt))
        # absolute row sums of A0: rings outward, then (u trace, w, z) of a slot
        ring_abs = ops.ring_measures + 2.0 * (radial_sum + 2.0 * ang)
        self.slot_abs = np.concatenate([ring_abs[:1], ops.surf_measure + 4.0 * self.srf
                                        + 2.0 * abs(self.q)])
        self.norm = max(float(np.max(ring_abs)), float(np.max(self.slot_abs)))

        phi = 2.0 * np.pi * np.arange(nt // 2 + 1) / nt
        cyclic = 2.0 * (1.0 - np.cos(phi))[:, None]
        diag = np.empty((len(phi), nr + 2), complex if q else float)
        diag[:, :2] = ops.surf_measure + cyclic * self.srf
        diag[:, 2:] = ops.ring_measures + radial_sum + cyclic * ang
        if q:  # upwind: the donor neighbour sits at k - sign(q)
            diag[:, :2] += abs(self.q) * (1.0 - np.exp(-1j * math.copysign(1.0, q) * phi))[:, None]
        # couplings to the rings before and after, the same in every mode
        lower, upper = np.zeros((2, len(phi), nr + 2), diag.dtype)
        lower[:, 3:] = upper[:, 2:-1] = -rad
        self.bands = (lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1])

    def apply(self, x):
        """A0 x by the five-point stencil of the rings and the upwinded
        three-point stencil of the surface, with no part of the Fourier path."""
        nr, nt = self.mesh.n_r, self.mesh.n_theta
        nb = nr * nt
        u, s = x[:nb].reshape(nr, nt), x[nb:].reshape(2, nt)
        out, tmp = np.empty_like(x), self.scratch
        ou, os_ = out[:nb].reshape(nr, nt), out[nb:].reshape(2, nt)
        np.multiply(self.ring_diag, u, out=ou)
        # neighbours k - 1 and k + 1: flat inside the rings, then across the seam
        np.add(x[:nb - 2], x[2:nb], out=tmp.reshape(-1)[1:-1])
        np.add(u[:, -1], u[:, 1], out=tmp[:, 0])
        np.add(u[:, -2], u[:, 0], out=tmp[:, -1])
        tmp *= self.ang[:, None]
        ou -= tmp
        # radial face fluxes rad_i (u_{i+1} - u_i), out of ring i + 1 into ring i
        np.subtract(u[1:], u[:-1], out=tmp[:-1])
        tmp[:-1] *= self.rad[:, None]
        ou[:-1] -= tmp[:-1]
        ou[1:] += tmp[:-1]
        np.multiply(self.surf_diag, s, out=os_)
        os_[:, 1:] -= self.behind * s[:, :-1]
        os_[:, :1] -= self.behind * s[:, -1:]
        os_[:, :-1] -= self.ahead * s[:, 1:]
        os_[:, -1:] -= self.ahead * s[:, :1]
        return out

    def _solve_modes(self, modes):
        """y with A0 y = modes in every Fourier mode at once; modes is
        (n_theta // 2 + 1, rings) complex, rings in the order (w, z, u outward)."""
        if self.q:
            y, info = sla.lapack.zgtsv(*self.bands, modes.reshape(-1, 1), overwrite_b=1)[3:]
        else:  # real and imaginary parts are two right-hand sides of the real system
            y, info = sla.lapack.dgtsv(*self.bands, modes.view(float).reshape(-1, 2),
                                       overwrite_b=1)[3:]
            y = np.ascontiguousarray(y).view(complex)
        if info > 0:
            raise LinearSolveFailure(
                f"step matrix singular in Fourier mode {(info - 1) // len(self.order)}")
        return y.reshape(modes.shape)

    def _modes(self, b):
        """A0^{-1} b as its modes, (n_theta // 2 + 1, rings) as in _solve_modes."""
        nt, rings = self.mesh.n_theta, len(self.order)
        return self._solve_modes(np.fft.rfft(b.reshape(rings, nt)[self.order], axis=1).T.copy())

    def _field(self, modes):
        """The stacked vector of the given modes."""
        return np.fft.irfft(modes.T, n=self.mesh.n_theta, axis=1)[self.back].ravel()

    def _response(self, pattern):
        """Modes of g = A0^{-1} (slot 0's unit flux with pattern's signs: 1 in
        every mode)."""
        if pattern not in self.responses:
            modes = np.zeros((self.mesh.n_theta // 2 + 1, len(self.order)), complex)
            modes[:, _SLOT_RINGS] = pattern
            self.responses[pattern] = self._solve_modes(modes)
        return self.responses[pattern]

    def _circulants(self, pattern):
        """W_j[m, k] = g[ring of j, m - k] for j in (u trace, w, z)."""
        if pattern not in self.circulants:
            g = np.fft.irfft(self._response(pattern)[:, _SLOT_RINGS].T, n=self.mesh.n_theta, axis=1)
            self.circulants[pattern] = [sla.circulant(row) for row in g]
        return self.circulants[pattern]

    def solve_slots(self, b, terms, what: str):
        """x with (A0 + slot terms) x = b, terms as (pattern, coeffs) pairs."""
        ns, slots = self.mesh.n_surf, _slot_slices(self.mesh)
        terms = [(p, [v if v is not None and v.any() else None for v in c]) for p, c in terms]
        terms = [(p, c) for p, c in terms if any(v is not None for v in c)]

        def flux(c, parts):   # parts: (u trace, w, z) of a vector
            return sum(v * part for v, part in zip(c, parts) if v is not None)

        modes = self._modes(b)
        if terms:   # Woodbury: the correction's modes are the responses times xi's
            ys = [self._response(p) for p, _ in terms]
            try:
                if all(np.ptp(v) == 0.0 for _, c in terms for v in c if v is not None):
                    # coefficients the same in every slot: the capacitance blocks
                    # are circulant, so it is one small system per Fourier mode
                    rows = [[None if v is None else v[0] for v in c] for _, c in terms]

                    def mode_flux(y):
                        return np.stack([flux(r, y[:, _SLOT_RINGS].T) for r in rows], axis=1)

                    cap = np.stack([mode_flux(y) for y in ys], axis=2) + np.eye(len(terms))
                    rhs = mode_flux(modes)[..., None]
                    xi = rhs / cap if len(terms) == 1 else np.linalg.solve(cap, rhs)
                else:
                    cap = np.eye(ns * len(terms))
                    for i, (_, c) in enumerate(terms):
                        for k, (p, _) in enumerate(terms):
                            for v, w in zip(c, self._circulants(p)):
                                if v is not None:
                                    cap[i * ns:(i + 1) * ns, k * ns:(k + 1) * ns] += v[:, None] * w
                    parts = np.fft.irfft(modes[:, _SLOT_RINGS].T, n=ns, axis=1)
                    xi = np.linalg.solve(cap, np.concatenate([flux(c, parts) for _, c in terms]))
                    xi = np.fft.rfft(xi.reshape(-1, ns), axis=1).T[..., None]
            except np.linalg.LinAlgError as exc:
                raise LinearSolveFailure(f"{what}: capacitance solve failed: {exc}") from exc
            modes -= sum(y * xi[:, k] for k, y in enumerate(ys))
        x = self._field(modes)
        # backward error by the stencil; the slot rows' absolute sums grow by the terms'
        residual, slot_abs = self.apply(x) - b, self.slot_abs[:, None]
        for p, c in terms:
            fx, fa = flux(c, [x[at] for at in slots]), sum(np.abs(v) for v in c if v is not None)
            for at, sign in zip(slots, p):
                residual[at] += sign * fx
            slot_abs = slot_abs + np.abs(p)[:, None] * fa
        _check_backward_error(residual, x, b, max(self.norm, float(np.max(slot_abs))), what)
        return x


# the Fourier solve of the latest step: key -> (geometry, mesh, solve), one entry
_kept: dict = {}


def _solve_for(geom: EvolvingGeometry, mesh: ReferenceMesh, params: ModelParams,
               t1: float, dt: float, advect: bool = False):
    """The Fourier solve of the step to t1 = t + dt (see _FourierSolve), kept
    until a step needs another (t1, dt); t1 leaves the key where A0 does not
    depend on it (static metric, no advection)."""
    moving = advect or not geom.metric_is_static
    key = (id(geom), id(mesh), params, t1 if moving else None, dt, advect)
    if key not in _kept:
        _kept.clear()
        q = _surface_face_speed(geom, mesh, t1) if advect else 0.0
        _kept[key] = (geom, mesh, _FourierSolve(assemble_operators(geom, mesh, params, t1),
                                                dt, mesh, q))
    return _kept[key][2]


def step_imex(state: State, dt: float, geom: EvolvingGeometry, mesh: ReferenceMesh,
              params: ModelParams, spec, sources: Sources | None = None,
              check_cfl: bool = True, q=None) -> State:
    """One IMEX step: implicit diffusion and linearized reaction losses,
    explicit upwind advection, dilation absorbed by the moving measures.

    For the mass-action nonlinearity the binding flux, implicit in the u
    trace, and the unbinding flux, implicit in z, enter all three equations
    with identical values, as one exchange term, so m1 and m2 are conserved
    to the linear-solver residual.  Custom nonlinearities are integrated
    with a fully explicit reaction.  q is as in cfl_bound.
    """
    q = _check_step(state, dt, geom, mesh, params, check_cfl, q)
    system = _solve_for(geom, mesh, params, state.t + dt, dt)
    m0 = system.measures if geom.metric_is_static else (
        moving_bulk_measures(mesh, geom, state.t), moving_surface_measures(mesh, geom, state.t))
    rhs = _imex_rhs(state, dt, geom, mesh, m0, system.measures, sources, q)
    arcs, ns = system.measures[1], mesh.n_surf
    slots = _slot_slices(mesh)
    exchange = (None, None, None)
    if getattr(spec, "is_mass_action", False):  # 1 / inf = 0 switches a flux off
        exchange = (dt * arcs * state.w_hat / params.delta_k, None,
                    -dt * arcs / params.delta_k_prime)
    else:
        for at, f in zip(slots, (spec.f1, spec.f2, spec.f3)):
            rhs[at] += dt * np.asarray(f(state.u_hat[:ns], state.w_hat, state.z_hat)) * arcs
    x = system.solve_slots(rhs, [(_EXCHANGE, exchange)], "IMEX step")
    return State(state.t + dt, x[: mesh.n_bulk], x[slots[1]], x[slots[2]])


class ImexStepper:
    """IMEX stepping at a fixed dt: step_imex, whose Fourier solve is set up
    once for all steps on static metrics (see _solve_for)."""

    def __init__(self, geom, mesh, params, spec, dt):
        self.geom, self.mesh, self.params, self.spec, self.dt = geom, mesh, params, spec, dt

    def step(self, state, check_cfl=True, sources=None):
        return step_imex(state, self.dt, self.geom, self.mesh, self.params, self.spec,
                         sources=sources, check_cfl=check_cfl)


def _reaction_terms(spec, u_tr, w, z, scale, eps=1e-7):
    """Slot terms of scale times the reaction Jacobian by (u trace, w, z): one
    exchange flux when its rows (df1, df2, df3) have that form (mass action
    and every registered custom reaction), else one term per row."""
    if getattr(spec, "is_mass_action", False):
        dk, dkp = spec.params.delta_k, spec.params.delta_k_prime   # 1 / inf = 0
        rows = (-w / dk, -u_tr / dk, np.full_like(w, 1.0 / dkp))
        return [(_EXCHANGE, [scale * c for c in rows])]
    out = []
    for f in (spec.f1, spec.f2, spec.f3):
        base = np.asarray(f(u_tr, w, z), dtype=float)
        out.append([scale * ((np.asarray(f(*args)) - base) / eps) for args in
                    ((u_tr + eps, w, z), (u_tr, w + eps, z), (u_tr, w, z + eps))])
    if all(np.array_equal(a, b) and np.array_equal(a, -c) for a, b, c in zip(*out)):
        return [(_EXCHANGE, out[0])]
    return list(zip(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), out))


def step_implicit(state: State, dt: float, geom: EvolvingGeometry, mesh: ReferenceMesh,
                  params: ModelParams, spec, newton_tol: float = 1e-11,
                  max_newton: int = 25, sources: Sources | None = None,
                  return_info: bool = False):
    """Backward-Euler step solved by Newton; stiff-robust alternative.

    Everything (diffusion, advection, reaction) is evaluated at the new time
    level; the reaction fluxes enter all equations with identical values, so
    the conservation contract matches the IMEX stepper.  newton_tol is
    measured against the equation scale (backward-error style).  With
    return_info=True the result is (state, {"iterations", "residuals"}).
    """
    _check_step(state, dt, geom, mesh, params, check_cfl=False)
    t1 = state.t + dt
    system = _solve_for(geom, mesh, params, t1, dt, advect=geom.surface_slip_active)
    m0 = system.measures if geom.metric_is_static else (
        moving_bulk_measures(mesh, geom, state.t), moving_surface_measures(mesh, geom, state.t))
    arcs = system.measures[1]
    trace, at_w, at_z = slots = _slot_slices(mesh)
    base = _mass_rhs(state, dt, mesh, m0, system.measures, sources)

    x = np.concatenate([state.u_hat, state.w_hat, state.z_hat])
    history = []
    for iteration in range(max_newton + 1):
        u_tr, w, z = x[trace], x[at_w], x[at_z]
        resid = system.apply(x) - base
        for at, f in zip(slots, (spec.f1, spec.f2, spec.f3)):
            resid[at] -= dt * np.asarray(f(u_tr, w, z), dtype=float) * arcs
        # residual measured against the equation scale (backward-error style)
        scale = max(1.0, system.norm * float(np.max(np.abs(x))), float(np.max(np.abs(base))))
        norm = float(np.max(np.abs(resid))) / scale
        history.append(norm)
        if not math.isfinite(norm):
            raise NewtonDivergence(f"non-finite Newton residual at t = {t1:g}", history)
        if norm < newton_tol:
            out = State(t1, x[: mesh.n_bulk], x[at_w], x[at_z])
            if return_info:
                return out, {"iterations": iteration, "residuals": history}
            return out
        terms = _reaction_terms(spec, u_tr, w, z, -dt * arcs)
        x = x - system.solve_slots(resid, terms, "Newton step")
    raise NewtonDivergence(
        f"Newton did not reach {newton_tol:g} in {max_newton} iterations at t = {t1:g} "
        f"(last residual {history[-1]:.3e})", history)


# -- manufactured solutions -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MmsCase:
    """Exact reference-frame fields plus matching sources, valid for the
    fixed and rotation presets (the pullback is an isometry for both)."""

    name: str
    exact_u: Callable  # (t, r, theta)
    exact_w: Callable  # (t, theta)
    exact_z: Callable  # (t, theta)
    sources: Sources


def _mms_constant(params: ModelParams, r_in: float, r_out: float) -> MmsCase:
    cu, cw, cz = 2.0, 1.5, 1.0

    def rate(_t):
        return cz / params.delta_k_prime - cu * cw / params.delta_k

    return MmsCase(
        name="constant",
        exact_u=lambda t, r, th: np.full_like(np.asarray(r, dtype=float), cu),
        exact_w=lambda t, th: np.full_like(np.asarray(th, dtype=float), cw),
        exact_z=lambda t, th: np.full_like(np.asarray(th, dtype=float), cz),
        sources=Sources(
            bulk=None,
            surface_w=lambda t, th: np.full_like(np.asarray(th, dtype=float), -rate(t)),
            surface_z=lambda t, th: np.full_like(np.asarray(th, dtype=float), rate(t)),
            robin=lambda t, th: np.full_like(np.asarray(th, dtype=float), -rate(t)),
        ),
    )


def _mms_sinusoidal(params: ModelParams, r_in: float, r_out: float) -> MmsCase:
    # radial profile flat at both walls, so the exact normal derivative
    # vanishes where the scheme imposes its boundary flux and trace
    span = r_out - r_in
    au, aw, az = 0.3, 0.4, 0.3

    def prof(r):
        return np.cos(np.pi * (np.asarray(r, dtype=float) - r_in) / span)

    def dprof(r):
        return -(np.pi / span) * np.sin(np.pi * (np.asarray(r, dtype=float) - r_in) / span)

    def d2prof(r):
        return -((np.pi / span) ** 2) * prof(r)

    def u_exact(t, r, th):
        return 1.0 + au * prof(r) * np.cos(th) * math.exp(-t)

    def w_exact(t, th):
        return 1.0 + aw * np.cos(2.0 * np.asarray(th)) * math.exp(-t)

    def z_exact(t, th):
        return 1.0 + az * np.sin(np.asarray(th)) * math.exp(-t)

    def trace_u(t, th):
        return 1.0 + au * np.cos(np.asarray(th)) * math.exp(-t)

    def rate(t, th):
        return (z_exact(t, th) / params.delta_k_prime
                - trace_u(t, th) * w_exact(t, th) / params.delta_k)

    def src_u(t, r, th):
        r = np.asarray(r, dtype=float)
        lap = (d2prof(r) + dprof(r) / r - prof(r) / r ** 2) * np.cos(th) * math.exp(-t)
        return -au * prof(r) * np.cos(th) * math.exp(-t) - params.delta_omega * au * lap

    def src_w(t, th):
        th = np.asarray(th, dtype=float)
        lap = -4.0 * aw * np.cos(2.0 * th) * math.exp(-t) / r_in ** 2
        return -aw * np.cos(2.0 * th) * math.exp(-t) - params.delta_gamma * lap - rate(t, th)

    def src_z(t, th):
        th = np.asarray(th, dtype=float)
        lap = -az * np.sin(th) * math.exp(-t) / r_in ** 2
        return -az * np.sin(th) * math.exp(-t) - params.delta_gamma_prime * lap + rate(t, th)

    def robin(t, th):
        # exact combined boundary flux is zero (flat profile), so the
        # injected term cancels the scheme's exchange flux at the exact state
        return -rate(t, th)

    return MmsCase(name="sinusoidal", exact_u=u_exact, exact_w=w_exact, exact_z=z_exact,
                   sources=Sources(bulk=src_u, surface_w=src_w, surface_z=src_z, robin=robin))


MMS_CASES = {"constant": _mms_constant, "sinusoidal": _mms_sinusoidal}

MMS_DEFAULT_PARAMS = dict(delta_omega=1.0, delta_gamma=1.0, delta_gamma_prime=1.0,
                          delta_k=1.0, delta_k_prime=1.0)


def manufactured_solution_error(case_id: str, n_r: int, n_theta: int, dt: float,
                                t_final: float, preset: GeometryPreset | None = None,
                                params: ModelParams | None = None,
                                stepper: str = "imex"):
    """Discrete L2 errors (bulk, surface w, surface z) of an exact-solution run.

    The registered cases inject analytic sources so the chosen smooth triple
    is exact; supported presets are fixed and rotation.
    """
    if case_id not in MMS_CASES:
        raise UnknownCase(f"unknown case {case_id!r}; have {sorted(MMS_CASES)}", key="case_id")
    if preset is None:
        preset = GeometryPreset(GeometryKind.FIXED, r_inner0=1.0, r_outer0=2.0)
    if preset.kind not in (GeometryKind.FIXED, GeometryKind.ROTATION):
        raise UnknownCase(f"must be fixed or rotation, got {preset.kind}", key="preset")
    check_steps(dt, t_final)
    params = params or ModelParams(**MMS_DEFAULT_PARAMS)
    geom = build_geometry(preset)
    mesh = build_mesh(n_r, n_theta, preset.r_inner0, preset.r_outer0)
    case = MMS_CASES[case_id](params, preset.r_inner0, preset.r_outer0)
    spec = MassAction(params)

    r, th = mesh.cell_r, mesh.cell_theta
    state = State(0.0,
                  np.asarray(case.exact_u(0.0, r, th), dtype=float),
                  np.asarray(case.exact_w(0.0, mesh.theta_centers), dtype=float),
                  np.asarray(case.exact_z(0.0, mesh.theta_centers), dtype=float))
    step = functools.partial(step_imex, check_cfl=False) if stepper == "imex" else step_implicit
    for _ in range(int(round(t_final / dt))):
        state = step(state, dt, geom, mesh, params, spec, sources=case.sources)
    t = state.t
    mb = moving_bulk_measures(mesh, geom, t)
    ms = moving_surface_measures(mesh, geom, t)
    eu = state.u_hat - case.exact_u(t, r, th)
    ew = state.w_hat - case.exact_w(t, mesh.theta_centers)
    ez = state.z_hat - case.exact_z(t, mesh.theta_centers)
    return (math.sqrt(float(np.dot(eu * eu, mb))),
            math.sqrt(float(np.dot(ew * ew, ms))),
            math.sqrt(float(np.dot(ez * ez, ms))))


# -- transport identity checks ---------------------------------------------------


class TransportKind(enum.Enum):
    BULK = "bulk"
    SURFACE = "surface"
    SURFACE_GRADIENT = "surface_gradient"


def transport_identity_residual(geom: EvolvingGeometry, mesh: ReferenceMesh, t: float,
                                dt: float, u_field, v_field, which: TransportKind) -> float:
    """|centered d/dt of a moving integral minus its transport-formula value|.

    Test fields are functions of the reference coordinates and ride with the
    parametrization, so their material derivatives vanish and the right-hand
    side reduces to the dilation term (div V_p for scalar pairings) or the
    deformation form of B(V_p) for the gradient pairing.
    """
    check_steps(dt)
    if which is TransportKind.BULK:
        r, th = mesh.cell_r, mesh.cell_theta
        uv = np.asarray(u_field(r, th), dtype=float) * np.asarray(v_field(r, th), dtype=float)

        def integral(s):
            return float(np.dot(uv, moving_bulk_measures(mesh, geom, s)))

        lhs = (integral(t + dt) - integral(t - dt)) / (2.0 * dt)
        div = geom.div_vp_bulk(t, geom.radius_map(t, r))
        rhs = float(np.dot(uv * div, moving_bulk_measures(mesh, geom, t)))
        return abs(lhs - rhs)

    th = mesh.theta_centers
    u = np.asarray(u_field(th), dtype=float)
    v = np.asarray(v_field(th), dtype=float)
    if which is TransportKind.SURFACE:
        uv = u * v

        def integral(s):
            return float(np.dot(uv, moving_surface_measures(mesh, geom, s)))

        lhs = (integral(t + dt) - integral(t - dt)) / (2.0 * dt)
        rhs = geom.div_vp_surface(t) * integral(t)
        return abs(lhs - rhs)

    if which is TransportKind.SURFACE_GRADIENT:
        du = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * mesh.dtheta)
        dv = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * mesh.dtheta)

        def integral(s):
            g = geom.surface_stretch(s, th)
            return float(np.sum(du * dv / g) * mesh.dtheta)

        lhs = (integral(t + dt) - integral(t - dt)) / (2.0 * dt)
        rhs = geom.b_tensor_tangential(t) * integral(t)
        return abs(lhs - rhs)

    raise ValueError(f"unknown transport kind {which}")


# -- driver -----------------------------------------------------------------------


def check_steps(dt: float, t_final: float = 0.0) -> None:
    """Reject dt <= 0, t_final < 0 or a t_final / dt above MAX_STEPS steps."""
    if not dt > 0.0:
        raise ValidationError(f"must be > 0, got {dt}", key="dt")
    if not t_final >= 0.0:
        raise ValidationError(f"must be >= 0, got {t_final}", key="t_final")
    if t_final / dt > MAX_STEPS:
        raise ValidationError(f"{t_final:g} / {dt:g} steps is above MAX_STEPS = {MAX_STEPS}", key="dt")


@dataclasses.dataclass(frozen=True)
class Snapshot:
    field: str
    index: int
    t: float
    grid: np.ndarray  # (n_r, n_theta) for the bulk, (1, n_theta) on the surface


@dataclasses.dataclass
class RunResult:
    final_state: State
    records: list
    equilibrium: object
    snapshots: list


def initial_state(cfg, geom: EvolvingGeometry, mesh: ReferenceMesh,
                  params: ModelParams) -> State:
    """Build the t = 0 state from the initial-condition block of a config."""
    from . import config as _config
    from .equilibrium import solve_equilibrium

    ic = cfg.ic
    if ic.profile == "uniform":
        return State(0.0,
                     np.full(mesh.n_bulk, ic.u0),
                     np.full(mesh.n_surf, ic.w0),
                     np.full(mesh.n_surf, ic.z0))
    if ic.profile == "perturbed_equilibrium":
        area0 = float(np.sum(mesh.bulk_ref_measures))
        len0 = float(np.sum(mesh.surf_ref_measures))
        eq = solve_equilibrium(ic.m1, ic.m2, area0, len0, params, cfg.model.equilibrium_mode)
        th = mesh.theta_centers
        mode = ic.mode
        span = mesh.r_outer0 - mesh.r_inner0
        psi = np.cos(np.pi * (mesh.cell_r - mesh.r_inner0) / span)
        u = eq.u_inf * (1.0 + ic.amplitude * np.cos(mode * mesh.cell_theta) * psi)
        w = eq.w_inf * (1.0 - ic.amplitude * np.cos(mode * th))
        z = eq.z_inf * (1.0 + ic.amplitude * np.sin(mode * th))
        return State(0.0, u, w, z)
    if ic.profile == "file":
        u, w, z = _config.load_fields_file(ic.path, mesh.n_r, mesh.n_theta)
        return State(0.0, u, w, z)
    raise ValueError(f"unknown initial-condition profile {ic.profile!r}")


def run(cfg, on_record=None, on_snapshot=None) -> RunResult:
    """Advance from t = 0 to t = T, emitting diagnostics every output interval.

    Deterministic for a fixed config.  Steps use the configured stepper with
    either the fixed dt or a CFL-adaptive dt (safety factor 0.9, capped by
    the configured dt); every output time is hit exactly.
    """
    from .diagnostics import make_record
    from .equilibrium import conserved_masses, solve_equilibrium

    geom = build_geometry(cfg.geometry)
    mesh = build_mesh(cfg.mesh.n_r, cfg.mesh.n_theta, cfg.geometry.r_inner0, cfg.geometry.r_outer0)
    params = cfg.model.params
    spec = cfg.model.make_nonlinearity()
    state = initial_state(cfg, geom, mesh, params)

    m1, m2 = conserved_masses(state, geom, mesh)
    area0 = float(np.sum(moving_bulk_measures(mesh, geom, 0.0)))
    len0 = float(np.sum(moving_surface_measures(mesh, geom, 0.0)))
    # a nonpositive mass is a fault of the initial data: name its ic.* keys
    sources = {"uniform": {"m1": "ic.u0/ic.z0", "m2": "ic.w0/ic.z0"},
               "file": {"m1": "ic.path", "m2": "ic.path"}}.get(cfg.ic.profile, {})
    with rekeyed(lambda key: sources.get(key, key)):
        eq = solve_equilibrium(m1, m2, area0, len0, params, cfg.model.equilibrium_mode)

    records = []
    snapshots = []
    # snapshots go to the callback when one is given; otherwise they are
    # retained on the result (if enabled at all)
    retain = cfg.output.snapshots and on_snapshot is None

    def emit(index):
        rec = make_record(state, geom, mesh, params, eq)
        records.append(rec)
        if on_record is not None:
            on_record(rec)
        if on_snapshot is not None or retain:
            grids = {
                "u": state.u_hat.reshape(mesh.n_r, mesh.n_theta).copy(),
                "w": state.w_hat.reshape(1, mesh.n_theta).copy(),
                "z": state.z_hat.reshape(1, mesh.n_theta).copy(),
            }
            for name, grid in grids.items():
                if on_snapshot is not None:
                    on_snapshot(name, index, state.t, grid)
                else:
                    snapshots.append(Snapshot(name, index, state.t, grid))

    emit(0)
    tcfg = cfg.time
    if tcfg.t_final <= 0.0:
        return RunResult(state, records, eq, snapshots)

    n_out = int(round(tcfg.t_final / tcfg.output_interval))
    if not tcfg.cfl:
        # fixed dt: counted sub-steps (config guarantees divisibility)
        per_interval = int(round(tcfg.output_interval / tcfg.dt))
        if tcfg.stepper == "imex":
            advance = ImexStepper(geom, mesh, params, spec, tcfg.dt).step
        else:
            advance = functools.partial(step_implicit, dt=tcfg.dt, geom=geom, mesh=mesh,
                                        params=params, spec=spec)
        for out_idx in range(1, n_out + 1):
            for _ in range(per_interval):
                state = advance(state)
            state.t = out_idx * tcfg.output_interval  # kill time roundoff
            emit(out_idx)
        return RunResult(state, records, eq, snapshots)

    steps = 0
    for out_idx in range(1, n_out + 1):
        t_target = out_idx * tcfg.output_interval
        while state.t < t_target - 1e-12:
            q = _surface_face_speed(geom, mesh, state.t) if geom.surface_slip_active else None
            bound = cfl_bound(geom, mesh, params, state, q)
            if 0.9 * bound < _MIN_CFL_STEP * tcfg.dt:
                raise CflViolation(
                    f"step {steps + 1} at t = {state.t:g}: stability bound {bound:g} leaves "
                    f"a step below {_MIN_CFL_STEP:g} x time.dt, the run would not finish")
            # dt <= 0.9 * bound here, so step_imex need not evaluate the bound again
            dt = min(tcfg.dt, 0.9 * bound, t_target - state.t)
            if steps >= MAX_STEPS:
                raise CflViolation(f"step {steps + 1} at t = {state.t:g}, dt = {dt:g}: over the "
                                   f"budget of MAX_STEPS = {MAX_STEPS} steps")
            if tcfg.stepper == "imex":
                state = step_imex(state, dt, geom, mesh, params, spec, check_cfl=False, q=q)
            else:
                state = step_implicit(state, dt, geom, mesh, params, spec)
            steps += 1
        state.t = t_target
        emit(out_idx)
    return RunResult(state, records, eq, snapshots)
