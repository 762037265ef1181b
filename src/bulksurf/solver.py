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
    conservation exact.  This exchange rate r = f1 is the solver's only
    reaction form: a reaction with f2 != f1 or f3 != -f1 at a step's state
    is refused (ValidationError on model.nonlinearity),
  * reaction splitting in the IMEX stepper (mass action): the binding flux
    u w / delta_K is implicit in the trace factor u, the unbinding flux
    z / delta_K' is implicit in z, gains are carried by those same implicit
    flux values.  u and z are then unconditionally nonnegative (the coupled
    matrix restricted to them is an M-matrix).  w is not: its row loses
    dt u(t + dt) w(t) / delta_K per unit arc, so it stays nonnegative when
    dt u(t + dt) / delta_K <= m0 / m1 in every slot, m0 and m1 the surface
    cell measures at t and t + dt.  The CFL check's binding bound
    dt <= delta_K / max(u trace at t) (cfl_bound) is that condition only
    while the trace does not grow over the step and the surface cells do
    not grow; on a moving or fast-changing state w can go negative, and
    run then stops at the first record below MIN_FIELD with NegativeField,
  * no flux is assembled at the fixed outer wall,
  * every preset is rotationally symmetric, so the operators are ring
    coefficients; every linear system is solved by an rFFT in theta, one
    radial tridiagonal system per mode, plus a Woodbury update over the
    surface slots for the exchange term, whose capacitance system, one
    unknown per slot, is solved matrix-free by preconditioned GMRES; the
    backward-Euler stepper's Newton iterates on the one exchange flux per
    slot alone, through the same solve, each update an inexact Newton step
    whose GMRES stops at an Eisenstat-Walker forcing term (see
    step_implicit); its acceptance test is the full residual.

The outer-boundary condition is homogeneous no-flux: the only choice
consistent with conservation of m1 when the outer wall is fixed.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import sys
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla

from .errors import (CflViolation, ConservationDrift, LinearSolveFailure, NegativeField,
                     NewtonDivergence, NonfiniteField, SingularJacobian, UnknownCase,
                     ValidationError, rekeyed)
from .geometry import EvolvingGeometry, GeometryKind, GeometryPreset, build_geometry
from .mesh import (ReferenceMesh, build_mesh, moving_bulk_measures, moving_ring_measures,
                   moving_surface_measures)
from .model import MassAction, ModelParams

_RESIDUAL_TOL = 1e-10
# the relative residual, max|r - C xi| / max|r|, at which a capacitance solve stops
_CAPACITANCE_RTOL = 1e-12
# Newton's capacitance solves stop at a forcing term in [_FORCING_MIN,
# _FORCING_MAX] (see _forcing)
_FORCING_MIN, _FORCING_MAX, _FORCING_FLOOR = 1e-12, 1e-2, 1e-3
# a CFL-adaptive run stops when the step it may take falls below this
# fraction of time.dt: past it the run would take millions of steps
_MIN_CFL_STEP = 1e-6
# the step budget: t_final / dt steps at least (a CFL step never exceeds dt);
# MAX_STEPS of them take about an hour even at 4 x 8 (0.33 ms per step)
MAX_STEPS = 10 ** 7
# the relative drift of m1 or m2 from the t = 0 record past which a run stops:
# ten times the 1e-9 the acceptance criteria allow over 2,000 steps
MAX_DRIFT = 1e-8
# the smallest field value a record may hold, the acceptance criterion's
MIN_FIELD = -1e-12


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
    coefficients.  This assumes a rotationally symmetric geometry, as every
    preset is: a face's transmissibility and a cell's measure then depend on
    its ring only, and the operators commute with rotations in theta.  The
    stiffness they define returns the net diffusive flux into each cell (not
    divided by the cell measure); no matrix of it is built.
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


def assemble_operators(geom: EvolvingGeometry, mesh: ReferenceMesh,
                       params: ModelParams, t: float) -> DiscreteOperators:
    """Ring coefficients and moving measures at time t."""
    with np.errstate(invalid="ignore"):  # a motion law past the float range is named below
        rings = moving_ring_measures(mesh, geom, t)
        low, inner = np.min(rings), geom.inner_radius(t)
    if not (low > 0.0 and inner > 0.0):  # NaN fails too
        raise SingularJacobian(f"det D Phi_t is not a positive number at t = {t:g} (min cell "
                               f"area {low:g}, inner radius {inner:g})")
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


def surface_advection(geom, t, field):
    """Net upwind J_Gamma inflow per surface cell (of each row of field) at
    time t: every surface face moves at the wind s(t), geom.wind_speed."""
    w = np.asarray(field, dtype=float)
    q = geom.wind_speed(t)
    flux = q * (w if q >= 0.0 else np.roll(w, -1, axis=-1))
    return np.roll(flux, 1, axis=-1) - flux


# -- step control ---------------------------------------------------------------


def cfl_bound(geom: EvolvingGeometry, mesh: ReferenceMesh, params: ModelParams,
              state: State) -> float:
    """Largest dt the IMEX stepper accepts at this state.

    Advective part: surface cell arc length / |geom.wind_speed(t)|.  Reaction part
    (mass action): dt <= delta_K / max trace of u at t.  The receptor update
    is nonnegative when dt u(t + dt) / delta_K <= m0 / m1 in every slot, with
    the u trace at t + dt, where the binding flux is implicit, and m0 / m1
    the ratio of the surface cell measures at t and t + dt (see the module
    notes).  The bound covers that only while the trace does not grow over
    the step and the surface cells do not grow; elsewhere run's NegativeField
    check on each record is the backstop.  Infinite when nothing constrains
    the step.
    """
    t = state.t
    bound = math.inf
    if geom.surface_slip_active:
        speed = abs(geom.wind_speed(t))
        if speed > 0:
            bound = min(bound, float(geom.surface_stretch(t, 0.0)) * mesh.dtheta / speed)
    if math.isfinite(params.delta_k):
        u_tr = np.max(state.u_hat[: mesh.n_theta])
        if u_tr > 0:
            bound = min(bound, params.delta_k / float(u_tr))
    return bound


def _check_step(state: State, dt: float, geom, mesh, params, spec, check_cfl: bool):
    """Preconditions of every step: positive dt, a finite state, a reaction
    of exchange form at it (f2 = f1 and f3 = -f1, bit for bit; mass action
    is by construction) and, when check_cfl is set, dt within cfl_bound."""
    check_steps(dt)
    if not (np.all(np.isfinite(state.u_hat)) and np.all(np.isfinite(state.w_hat))
            and np.all(np.isfinite(state.z_hat))):
        raise NonfiniteField(f"state at t = {state.t:g} contains non-finite values")
    if not getattr(spec, "is_mass_action", False):
        parts = (state.u_hat[: mesh.n_surf], state.w_hat, state.z_hat)
        f1, f2, f3 = (np.asarray(f(*parts), dtype=float) for f in (spec.f1, spec.f2, spec.f3))
        if not (np.array_equal(f2, f1, equal_nan=True) and np.array_equal(f3, -f1, equal_nan=True)):
            raise ValidationError(
                f"the solver takes one exchange flux, f2 = f1 and f3 = -f1, but "
                f"{getattr(spec, 'name', 'the reaction')!r} differs at t = {state.t:g}",
                key="model.nonlinearity")
    if check_cfl:
        bound = cfl_bound(geom, mesh, params, state)
        if dt > bound:
            raise CflViolation(f"dt = {dt:g} exceeds stability bound {bound:g} at t = {state.t:g}")


def _max_abs(a) -> float:
    """max|a| without the array |a|; NaN when a holds one."""
    return max(float(a.max()), -float(a.min()))


def _check_backward_error(residual, x, rhs, row_norm: float, what: str):
    """Normwise backward error max|A x - b| / (||A|| max|x| + max|b|) of a
    solve, given its residual and the row-sum norm of A; never silent on a
    bad solve or a step matrix the Fourier solve does not fit."""
    scale = row_norm * _max_abs(x) + _max_abs(rhs)
    err = _max_abs(residual) / max(scale, 1e-300)
    if not math.isfinite(err) or err > _RESIDUAL_TOL:
        raise LinearSolveFailure(f"{what} backward error {err:.3e} exceeds {_RESIDUAL_TOL:g}")


# -- step assembly over the stacked unknowns (u, w, z) ------------------------------


def _slot_slices(mesh: ReferenceMesh):
    """Positions of the u trace (innermost bulk ring), w and z in the stacked
    vector; entry k of each belongs to surface slot k."""
    nb, ns = mesh.n_bulk, mesh.n_surf
    return slice(0, ns), slice(nb, nb + ns), slice(nb + ns, nb + 2 * ns)


# signs of the exchange flux in the rows (u trace, w, z); one value in all three
# conserves m1 and m2
_EXCHANGE = (1.0, 1.0, -1.0)
# rings of (u trace, w, z) in the order of the Fourier modes, that of the
# stacked vector (u rings outward, w, z)
_SLOT_RINGS = [0, -2, -1]


def _mass_rhs(state: State, dt: float, mesh: ReferenceMesh, m0, m1,
              sources: Sources | None):
    """Cell masses at t plus dt times the injected sources at t + dt; m0 and
    m1 are the (bulk, surface) measures at t and t + dt."""
    (m0b, m0s), (m1b, m1s) = m0, m1
    trace, at_w, at_z = _slot_slices(mesh)
    rhs = np.empty(mesh.n_bulk + 2 * mesh.n_surf)
    np.multiply(m0b, state.u_hat, out=rhs[: mesh.n_bulk])
    np.multiply(m0s, state.w_hat, out=rhs[at_w])
    np.multiply(m0s, state.z_hat, out=rhs[at_z])
    if sources is None:
        return rhs
    t1 = state.t + dt
    th = mesh.theta_centers
    for density, at, args, measure in (
            (sources.bulk, slice(0, mesh.n_bulk), (t1, mesh.cell_r, mesh.cell_theta), m1b),
            (sources.surface_w, at_w, (t1, th), m1s),
            (sources.surface_z, at_z, (t1, th), m1s),
            (sources.robin, trace, (t1, th), m1s)):
        if density is not None:
            rhs[at] += dt * np.asarray(density(*args), dtype=float) * measure
    return rhs


def _imex_rhs(state: State, dt: float, geom: EvolvingGeometry, mesh: ReferenceMesh,
              m0, m1, sources: Sources | None):
    """_mass_rhs plus the explicit upwind surface advection at t."""
    rhs = _mass_rhs(state, dt, mesh, m0, m1, sources)
    if geom.surface_slip_active:
        fields = np.stack([state.w_hat, state.z_hat])
        rhs[mesh.n_bulk:] += dt * surface_advection(geom, state.t, fields).ravel()
    return rhs


def _gmres(apply, rhs, target: float, max_iter: int):
    """(x, iterations) with ||rhs - x - apply(x)||_2 <= target, by GMRES
    (Saad and Schultz) for (I + K) x = rhs from x = 0, where apply(x) is K x.
    The Arnoldi basis is built on K, whose Krylov spaces are those of I + K,
    so a small K loses no digits to cancellation; it is orthogonalized by
    classical Gram-Schmidt twice and grows as the iterations run, with no
    restart.  Givens rotations track the least-squares residual.  x is None
    when max_iter iterations do not reach target or the residual is not
    finite."""
    beta = math.sqrt(float(np.sum(rhs * rhs)))
    if beta <= target:
        return np.zeros_like(rhs), 0
    basis = np.empty((min(max_iter, 8) + 1, rhs.size))
    basis[0] = rhs.ravel() / beta
    cols, rotations, g = [], [], [beta]
    for j in range(max_iter):
        w, v = apply(basis[j].reshape(rhs.shape)).ravel(), basis[: j + 1]
        h = v @ w
        w -= h @ v
        again = v @ w
        w -= again @ v
        h = (h + again).tolist()
        h[j] += 1.0   # the column of I
        h_next = math.sqrt(float(w @ w))
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        r = math.hypot(h[j], h_next)
        if not (math.isfinite(r) and r > 0.0):
            return None, j + 1
        c, s = h[j] / r, h_next / r
        h[j] = r
        rotations.append((c, s))
        cols.append(h)
        g.append(-s * g[j])
        g[j] *= c
        if abs(g[-1]) <= target:
            upper = np.zeros((j + 1, j + 1))
            for i, col in enumerate(cols):
                upper[: i + 1, i] = col
            return (sla.lapack.dtrtrs(upper, g[:-1])[0] @ v).reshape(rhs.shape), j + 1
        if j + 1 == len(basis):
            basis = np.concatenate([basis, np.empty((min(len(basis), max_iter + 1 - len(basis)),
                                                     rhs.size))])
        basis[j + 1] = w / h_next
    return None, max_iter


class _FourierSolve:
    """A step matrix to t + dt, A0 plus an exchange term, and its solve.  A0
    is the measures minus dt times the stiffness of ops, with a Newton step's
    implicit upwind advection at speed q on surface_wind.  The exchange term
    of coefficients c = (u trace, w, z) (None or zero skipped) adds per slot
    the flux c . (u trace, w, z) to the u trace and w rows and takes it from
    the z row.

    A0 commutes with rotations in theta, so an rFFT splits A0 x = b into
    n_theta // 2 + 1 systems (Hockney), tridiagonal in the order (u rings
    outward, w, z), with bands in closed form (2 (1 - cos 2 pi p / n_theta)
    for the cyclic second difference, a shift for the upwind flux), factored
    once by LAPACK and solved by the factors: pttrf/pttrs (L D L^T) for the
    real modes, which are symmetric positive definite, gttrf/gttrs (LU with
    pivoting) for the upwind ones.  The exchange term enters by Woodbury
    (Buzbee, Dorr, George and Golub): the capacitance system, convolutions
    times per-slot coefficients, is solved by GMRES through the slot
    response, never formed (see _Capacitance).  Every solve is checked by
    apply, a matrix-free stencil apart from the Fourier path.
    """

    def __init__(self, ops: DiscreteOperators, dt: float, mesh: ReferenceMesh, q: float = 0.0):
        self.dt, self.mesh, self.rings = dt, mesh, ops.ring_measures
        self.ring_total = float(np.sum(ops.ring_measures))
        self.measures = (ops.bulk_measures, ops.surf_measures)
        nr, nt = mesh.n_r, mesh.n_theta
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
        diag[:, :nr] = ops.ring_measures + radial_sum + cyclic * ang
        diag[:, nr:] = ops.surf_measure + cyclic * self.srf
        if q:  # upwind: the donor neighbour sits at k - sign(q)
            diag[:, nr:] += abs(self.q) * (1.0 - np.exp(-1j * math.copysign(1.0, q) * phi))[:, None]
        # couplings to the rings before and after, the same in every mode
        lower, upper = np.zeros((2, len(phi), nr + 2), diag.dtype)
        lower[:, 1:nr] = upper[:, :nr - 1] = -rad
        self.bands = (lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1])
        if q:   # the upwind shift makes the modes complex and unsymmetric
            *self.lu, info = sla.lapack.zgttrf(*self.bands)
        else:   # real, symmetric and diagonally dominant: L D L^T, no pivoting
            *self.lu, info = sla.lapack.dpttrf(*self.bands[1:])
            self.e_complex = self.lu[1].astype(complex)   # for the complex right-hand sides
        if info > 0:
            raise LinearSolveFailure(
                f"step matrix singular in Fourier mode {(info - 1) // (nr + 2)}")

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
        (n_theta // 2 + 1, rings), rings in the order (u outward, w, z), and
        takes one real right-hand side when it is real (the slot response).

        In mode 0 the bulk block is M + T, T the radial stiffness, whose null
        vector is 1: 1^T (M + T) = 1^T M, so the bulk mass of y, M y, is that
        of the right-hand side.  The factors miss it by about eps cond(M + T),
        which grows like delta_Omega dt / h^2; it is restored on the null
        vector (Nicolaides' deflation)."""
        nr = self.mesh.n_r
        mass = modes[0, :nr].sum()
        if self.q:
            y = sla.lapack.zgttrs(*self.lu, modes.reshape(-1, 1), overwrite_b=1)[0]
        elif np.iscomplexobj(modes):  # the real factors, U^H D U = L D L^T
            y = sla.lapack.zpttrs(self.lu[0], self.e_complex, modes.reshape(-1, 1),
                                  overwrite_b=1)[0]
        else:
            y = sla.lapack.dpttrs(*self.lu, modes.reshape(-1, 1), overwrite_b=1)[0]
        y = y.reshape(modes.shape)
        y[0, :nr] += (mass - self.rings @ y[0, :nr]) / self.ring_total
        return y

    def _modes(self, b):
        """A0^{-1} b as its modes, (n_theta // 2 + 1, rings) as in _solve_modes."""
        nt = self.mesh.n_theta
        modes = np.empty((nt // 2 + 1, self.mesh.n_r + 2), complex)
        np.fft.rfft(b.reshape(-1, nt), axis=1, out=modes.T)
        return self._solve_modes(modes)

    def _field(self, modes):
        """The stacked vector of the given modes."""
        field = np.empty((self.mesh.n_r + 2, self.mesh.n_theta))
        np.fft.irfft(modes.T, n=self.mesh.n_theta, axis=1, out=field)
        return field.ravel()

    @functools.cached_property
    def response(self):
        """Modes of g = A0^{-1} (slot 0's unit exchange flux: 1 in every
        mode), real without advection."""
        modes = np.zeros((self.mesh.n_theta // 2 + 1, self.mesh.n_r + 2))
        modes[:, _SLOT_RINGS] = _EXCHANGE
        return self._solve_modes(modes)

    def correction(self, xi, rings=slice(None)):
        """Modes of G xi on the given rings, G the response to the slot
        exchange flux, from the modes of xi."""
        return self.response[:, rings] * xi[:, None]

    def solve_slots(self, b, coeffs, what: str):
        """(x, GMRES iterations, preconditioner builds) with (A0 + the
        exchange term of coeffs) x = b, the counts those of its one
        capacitance solve (0 without one)."""
        slots = _slot_slices(self.mesh)
        coeffs = [c if c is not None and c.any() else None for c in coeffs]
        active = any(c is not None for c in coeffs)
        modes, iterations, builds = self._modes(b), 0, 0
        if active:   # Woodbury: the correction's modes are the response times xi's
            parts = np.fft.irfft(modes[:, _SLOT_RINGS], n=self.mesh.n_theta, axis=0).T
            capacitance = _Capacitance(self, what)
            xi, iterations = capacitance.solve(_flux(coeffs, parts), coeffs)
            modes -= self.correction(xi)
            builds = capacitance.builds
        x = self._field(modes)
        # backward error by the stencil; the slot rows' absolute sums grow by |c|
        residual, slot_abs = self.apply(x), self.slot_abs
        residual -= b
        if active:
            fx = _flux(coeffs, [x[at] for at in slots])
            for at, sign in zip(slots, _EXCHANGE):
                residual[at] += sign * fx
            slot_abs = slot_abs[:, None] + sum(np.abs(c) for c in coeffs if c is not None)
        _check_backward_error(residual, x, b, max(self.norm, float(np.max(slot_abs))), what)
        return x, iterations, builds


class _Capacitance:
    """The capacitance solves C xi = r of one Fourier solve's exchange term,
    xi the slot exchange fluxes, r one value per slot; the coefficients may
    change from solve to solve.

    With W_j the convolution by the response to a unit slot flux, read at
    ring j of (u trace, w, z), C xi = xi + sum_j diag(c_j) W_j xi.  GMRES
    solves D^{-1} C M^{-1} v = D^{-1} r, xi = M^{-1} v.  The right
    preconditioner M is C with each c_j replaced by its mean over the slots
    (T. F. Chan): a scalar per Fourier mode, and exact when the c_j are
    uniform; a c_j the same in every slot enters M alone.  The left one,
    D = 1 + (c - mean c) . rho per slot, is C M^{-1} with each convolution
    W_j M^{-1} replaced by rho_j, the Rayleigh quotient of its symmetric part
    at r: the mean over the modes of its real part, weighted by the power
    spectrum of r.  S_j = W_j M^{-1} - rho_j then nearly vanishes on the
    modes the slot data occupy (the lowest, for smooth data).  The operator
    is I + E S, with E = (c - mean c) / D per slot and the convolutions S_j
    of the c_j that vary: one rFFT and one irFFT.

    The means, M, rho and S are built at the first solve with a nonzero r,
    from its coefficients and r, and kept for the later solves (builds
    counts them).  C = M + sum_j diag(c_j - mean_j) W_j holds for any means
    and any rho, so a later solve, which forms c - mean, D and E from its own
    coefficients, still solves the exact C; only the preconditioners lag.
    A solve rebuilds them when a coefficient row is switched on or off, or a
    row uniform at the build has changed, since S holds no convolution for
    it.  Kept: at, the coefficient rows of (u trace, w, z) present (None
    before the first build); vary and uniform, masks over at of the rows
    that differ between the slots and of those that do not; mean, the slot
    means as a column; m, M per Fourier mode; rho and s, the shifts and the
    S_j of the rows that vary.
    """

    def __init__(self, system: _FourierSolve, what: str):
        self.system, self.what = system, what
        self.builds, self.at = 0, None

    def _build(self, at, coef, r, r_max):   # under the errstate of solve
        nt = self.system.mesh.n_theta
        vary = (coef != coef[:, :1]).any(axis=1)
        mean = np.where(vary, coef.mean(axis=1), coef[:, 0])
        g = self.system.response.T[[_SLOT_RINGS[j] for j in at]]   # W_j per mode
        m = 1.0 + mean @ g
        power = np.abs(np.fft.rfft(r / r_max)) ** 2
        power[1:(nt + 1) // 2] *= 2.0   # the modes a full spectrum holds twice
        wm = g[vary] / m
        rho = wm.real @ power / power.sum()
        if not m.all():
            raise LinearSolveFailure(f"{self.what}: capacitance preconditioner singular")
        self.builds += 1
        self.at, self.vary, self.uniform, self.mean = at, vary, ~vary, mean[:, None]
        self.m, self.rho, self.s = m, rho, wm - rho[:, None]

    def solve(self, r, coeffs, rtol=None):
        """(modes of xi, GMRES iterations) with C xi = r to the relative
        residual rtol (_CAPACITANCE_RTOL when None)."""
        nt = self.system.mesh.n_theta
        at = [j for j, c in enumerate(coeffs) if c is not None and c.any()]
        r_max = float(np.abs(r).max())
        if not at or r_max == 0.0:   # C = I, or xi = 0
            return np.fft.rfft(r), 0
        coef = np.stack([coeffs[j] for j in at])             # c_j of each slot
        rebuild = self.at != at or not (coef[self.uniform] == self.mean[self.uniform]).all()
        with np.errstate(divide="ignore", invalid="ignore"):   # a zero is refused below
            if rebuild:
                self._build(at, coef, r, r_max)
            dev = coef[self.vary] - self.mean[self.vary]
            d = 1.0 + self.rho @ dev
        if not d.all():
            raise LinearSolveFailure(f"{self.what}: capacitance preconditioner singular")
        e, s = dev / d, self.s

        def apply(v):   # E S v
            return (e * np.fft.irfft(s * np.fft.rfft(v), n=nt)).sum(axis=0)

        rtol = _CAPACITANCE_RTOL if rtol is None else rtol
        # max|r - C xi| <= max|D| ||D^{-1} (r - C xi)||_2, the norm GMRES minimizes
        v, iterations = _gmres(apply, r / d, rtol * r_max / float(np.abs(d).max()), nt)
        if v is None:
            raise LinearSolveFailure(f"{self.what}: capacitance GMRES did not reach relative "
                                     f"residual {rtol:g} in {iterations} iterations")
        return np.fft.rfft(v) / self.m, iterations


def _flux(coeffs, parts):
    """coeffs . parts over (u trace, w, z), None coefficients skipped."""
    return sum(c * part for c, part in zip(coeffs, parts) if c is not None)


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
        q = geom.wind_speed(t1) if advect else 0.0
        _kept[key] = (geom, mesh, _FourierSolve(assemble_operators(geom, mesh, params, t1),
                                                dt, mesh, q))
    return _kept[key][2]


def step_imex(state: State, dt: float, geom: EvolvingGeometry, mesh: ReferenceMesh,
              params: ModelParams, spec, sources: Sources | None = None,
              check_cfl: bool = True, return_info: bool = False):
    """One IMEX step: implicit diffusion and linearized reaction losses,
    explicit upwind advection, dilation absorbed by the moving measures.

    For the mass-action nonlinearity the binding flux, implicit in the u
    trace, and the unbinding flux, implicit in z, enter all three equations
    with identical values, as one exchange term, so m1 and m2 are conserved
    to the linear-solver residual.  A custom reaction's exchange flux f1 is
    explicit, and so is the advection, by the wind at t.  With return_info
    the result is (state, {"gmres": [n], "setups": k}), n the GMRES
    iterations of the step's one capacitance solve and k its preconditioner
    builds (both 0 when no exchange term is implicit, k 1 otherwise).
    """
    _check_step(state, dt, geom, mesh, params, spec, check_cfl)
    system = _solve_for(geom, mesh, params, state.t + dt, dt)
    m0 = system.measures if geom.metric_is_static else (
        moving_bulk_measures(mesh, geom, state.t), moving_surface_measures(mesh, geom, state.t))
    rhs = _imex_rhs(state, dt, geom, mesh, m0, system.measures, sources)
    arcs, ns = system.measures[1], mesh.n_surf
    slots = _slot_slices(mesh)
    exchange = ()
    if getattr(spec, "is_mass_action", False):  # 1 / inf = 0 switches a flux off
        exchange = (dt * arcs * state.w_hat / params.delta_k, None,
                    -dt * arcs / params.delta_k_prime)
    else:
        fx = dt * np.asarray(spec.f1(state.u_hat[:ns], state.w_hat, state.z_hat)) * arcs
        for at, sign in zip(slots, _EXCHANGE):
            rhs[at] += sign * fx
    x, iterations, builds = system.solve_slots(rhs, exchange, "IMEX step")
    out = State(state.t + dt, x[: mesh.n_bulk], x[slots[1]], x[slots[2]])
    return (out, {"gmres": [iterations], "setups": builds}) if return_info else out


class ImexStepper:
    """IMEX stepping at a fixed dt: step_imex, whose Fourier solve is set up
    once for all steps on static metrics (see _solve_for); gmres and setups
    add up the GMRES iterations and preconditioner builds of the steps'
    capacitance solves."""

    def __init__(self, geom, mesh, params, spec, dt):
        self.geom, self.mesh, self.params, self.spec, self.dt = geom, mesh, params, spec, dt
        self.gmres = self.setups = 0

    def step(self, state):
        state, info = step_imex(state, self.dt, self.geom, self.mesh, self.params, self.spec,
                                return_info=True)
        self.gmres += sum(info["gmres"])
        self.setups += info["setups"]
        return state


def _reaction_terms(spec, u_tr, w, z, scale, eps=1e-7):
    """scale times the derivatives of the exchange rate f1 by (u trace, w, z):
    the coefficients of Newton's exchange term, in closed form for mass
    action and by forward differences for a custom reaction."""
    if getattr(spec, "is_mass_action", False):
        dk, dkp = spec.params.delta_k, spec.params.delta_k_prime   # 1 / inf = 0
        return scale * (-w / dk), scale * (-u_tr / dk), scale * np.full_like(w, 1.0 / dkp)
    value = np.asarray(spec.f1(u_tr, w, z), dtype=float)
    return tuple(scale * ((np.asarray(spec.f1(*args)) - value) / eps) for args in
                 ((u_tr + eps, w, z), (u_tr, w + eps, z), (u_tr, w, z + eps)))


def _forcing(residual: float, newton_tol: float) -> float:
    """eta, the relative residual at which the capacitance solve of a Newton
    update stops, from F, the scaled slot residual of the iterate it starts
    at (Eisenstat and Walker), within [_FORCING_MIN, _FORCING_MAX]: eta = F,
    quadratic forcing (Dembo, Eisenstat and Steihaug), while F^2 is above
    the rebuild threshold 2 newton_tol of step_implicit.  Below it the update
    is expected to be the last, and its linear part, up to F eta, stays in
    the state Newton returns: eta = _FORCING_FLOOR newton_tol / F, at which
    that part is far below newton_tol, and no tighter."""
    if residual * residual > 2.0 * newton_tol:
        eta = residual
    else:
        eta = _FORCING_FLOOR * newton_tol / residual if residual > 0.0 else math.inf
    return max(_FORCING_MIN, min(_FORCING_MAX, eta))


def step_implicit(state: State, dt: float, geom: EvolvingGeometry, mesh: ReferenceMesh,
                  params: ModelParams, spec, newton_tol: float = 1e-11,
                  max_newton: int = 25, sources: Sources | None = None,
                  return_info: bool = False):
    """Backward-Euler step solved by Newton on the surface slots.

    Everything is evaluated at the new time level, and the exchange flux
    enters all equations with identical values, as in the IMEX stepper.  The
    bulk is linear and is eliminated (Lanzkron, Rose and Wilkes): the state
    is x = y - G xi, y = A0^{-1} b the step's one full solve and G the
    response to the slot exchange flux xi.  Newton iterates on
    xi = scale f1(s_y - W xi), n_theta values, each update one capacitance
    solve with the coefficients of _reaction_terms, linearized first at the
    state at t, with m1 and m2 held by construction.  The capacitance
    preconditioners are built at the first update, from its coefficients and
    right-hand side, and kept for the later updates of the step (see
    _Capacitance): each update still solves its own exact linearization.
    The updates are inexact: the GMRES of each stops at the relative
    residual of _forcing, F (the scaled slot residual of the iterate it
    starts from) within [1e-12, 1e-2], or 1e-3 newton_tol / F once
    F^2 <= 2 newton_tol, so the iterates are near those of Newton on the
    whole field, not equal to them.
    x is rebuilt when the slot residual is at most 2 newton_tol and returned
    only when its full residual, by the stencil, is below newton_tol, both
    scaled by max(1, max|b|, ||A0|| max|values|).  With return_info=True the
    result is (state, {"iterations", "residuals", "gmres", "setups"}): the
    capacitance solves, the scaled slot residual after each, the GMRES
    iterations of each and the preconditioner builds of the step (one,
    unless a coefficient row is switched on or off or a row uniform at the
    build changes).
    """
    _check_step(state, dt, geom, mesh, params, spec, check_cfl=False)
    t1 = state.t + dt
    system = _solve_for(geom, mesh, params, t1, dt, advect=geom.surface_slip_active)
    m0 = system.measures if geom.metric_is_static else (
        moving_bulk_measures(mesh, geom, state.t), moving_surface_measures(mesh, geom, state.t))
    scale = -dt * system.measures[1]
    slots = _slot_slices(mesh)
    base = _mass_rhs(state, dt, mesh, m0, system.measures, sources)
    history, floor = [], max(1.0, _max_abs(base))

    def scaled(residual, values):   # max|residual| / max(1, max|b|, ||A0|| max|values|)
        norm = _max_abs(residual) / max(floor, system.norm * _max_abs(values))
        if not math.isfinite(norm):
            raise NewtonDivergence(f"non-finite Newton residual at t = {t1:g}", history + [norm])
        return norm

    def flux(parts):   # scale times the exchange rate of each slot
        return scale * np.asarray(spec.f1(*parts), dtype=float)

    y = system.solve_slots(base, (), "Newton step")[0]
    s_y = np.stack([y[at] for at in slots])
    s = np.stack([state.u_hat[: mesh.n_surf], state.w_hat, state.z_hat])   # at t
    coeffs = _reaction_terms(spec, *s, scale)
    # the first update, from the state at t, solves C xi = scale f1(s) + c . (s_y - s)
    rho = -flux(s) - _flux(coeffs, s_y - s)
    slot_residual, gmres = scaled(rho, s), []
    xi = np.zeros(mesh.n_theta // 2 + 1, complex)
    capacitance = _Capacitance(system, "Newton step")
    for iteration in range(1, max_newton + 1):
        update, used = capacitance.solve(rho, coeffs, _forcing(slot_residual, newton_tol))
        xi -= update
        gmres.append(used)
        # W xi on the slot rings and xi itself, by one inverse FFT
        both = np.fft.irfft(np.column_stack([system.correction(xi, _SLOT_RINGS), xi]),
                            n=mesh.n_theta, axis=0)
        s = s_y - both[:, :3].T
        rho = both[:, 3] - flux(s)
        slot_residual = scaled(rho, s)
        history.append(slot_residual)
        if slot_residual <= 2.0 * newton_tol:   # rebuild x and test its full residual
            x = y - system._field(system.correction(xi))
            resid, parts = system.apply(x) - base, [x[at] for at in slots]
            fx = flux(parts)
            for at, sign in zip(slots, _EXCHANGE):
                resid[at] += sign * fx
            if scaled(resid, x) < newton_tol:
                out = State(t1, x[: mesh.n_bulk], parts[1], parts[2])
                info = {"iterations": iteration, "residuals": history, "gmres": gmres,
                        "setups": capacitance.builds}
                return (out, info) if return_info else out
        coeffs = _reaction_terms(spec, *s, scale)
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
    deformation form of B(V_p) for the gradient pairing.  The centered
    difference reads the geometry at t - dt, which must be >= 0, and at a
    finite t + dt.
    """
    check_steps(dt)
    if not (t - dt >= 0.0 and math.isfinite(t + dt)):
        raise ValidationError(f"must have t - dt >= 0 and t + dt finite, got t = {t}, dt = {dt}",
                              key="t")
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
    steps: int = 0
    newton_total: int = 0   # Newton solves over the run, 0 for IMEX
    newton_max: int = 0     # the most in one step
    gmres_total: int = 0    # GMRES iterations of every capacitance solve over the run
    setups_total: int = 0   # capacitance preconditioner builds over the run


def relative_drift(first, record):
    """Relative drifts of (m1, m2) from the record first to record."""
    return tuple(abs(b - a) / max(abs(a), 1e-300)
                 for a, b in ((first.m1, record.m1), (first.m2, record.m2)))


def initial_state(cfg, geom: EvolvingGeometry, mesh: ReferenceMesh,
                  params: ModelParams) -> State:
    """Build the t = 0 state from the initial-condition block of a config."""
    from . import config as _config
    from .equilibrium import solve_equilibrium

    ic = cfg.ic
    length = float(np.sum(mesh.surf_ref_measures))
    if ic.profile == "uniform":
        state = State(0.0, np.full(mesh.n_bulk, ic.u0), np.full(mesh.n_surf, ic.w0),
                      np.full(mesh.n_surf, ic.z0))
    elif ic.profile == "perturbed_equilibrium":
        # checked before the equilibrium is solved: w and z stay below m2 / length,
        # and the perturbation at most doubles them
        _check_surface_scale(2.0 * ic.m2 / length, length, mesh, params, cfg.time.dt)
        area0 = float(np.sum(mesh.bulk_ref_measures))
        eq = solve_equilibrium(ic.m1, ic.m2, area0, length, params, cfg.model.equilibrium_mode)
        th = mesh.theta_centers
        mode = ic.mode
        span = mesh.r_outer0 - mesh.r_inner0
        psi = np.cos(np.pi * (mesh.cell_r - mesh.r_inner0) / span)
        u = eq.u_inf * (1.0 + ic.amplitude * np.cos(mode * mesh.cell_theta) * psi)
        w = eq.w_inf * (1.0 - ic.amplitude * np.cos(mode * th))
        z = eq.z_inf * (1.0 + ic.amplitude * np.sin(mode * th))
        state = State(0.0, u, w, z)
    elif ic.profile == "file":
        state = State(0.0, *_config.load_fields_file(ic.path, mesh.n_r, mesh.n_theta))
    else:
        raise ValueError(f"unknown initial-condition profile {ic.profile!r}")
    _check_surface_scale(float(max(np.max(state.w_hat), np.max(state.z_hat))), length, mesh,
                         params, cfg.time.dt)
    return state


def _check_surface_scale(density, length, mesh, params, dt):
    """The surface rows of a step hold a density times dt delta / arc (see
    _FourierSolve.apply), four such products in a row: past a sixteenth of
    the float range the step would overflow.  The coupling grows like
    1 / r_inner0, and so does a density made from a surface mass."""
    arc = length / mesh.n_theta
    delta = max(params.delta_gamma, params.delta_gamma_prime)
    product = density * (dt * delta / arc) if arc > 0.0 else math.inf
    if not product <= sys.float_info.max / 16.0:
        raise ValidationError(
            f"{mesh.r_inner0:g} is too small for the initial state: its surface density "
            f"{density:.3g} times the step's coupling dt delta / arc is {product:.3g}, above a "
            "sixteenth of the float range", key="geometry.r_inner0")


def run(cfg, on_record=None, on_snapshot=None) -> RunResult:
    """Advance from t = 0 to t = T, emitting diagnostics every output interval.

    Deterministic for a fixed config.  Steps use the configured stepper with
    either the fixed dt or a CFL-adaptive dt (safety factor 0.9, capped by
    the configured dt); every output time is hit exactly.  A record whose
    m1 or m2 drifts from the first by more than MAX_DRIFT, relative, ends
    the run with ConservationDrift, and one whose smallest u, w or z is
    below MIN_FIELD with NegativeField, after it is emitted; NaN fails both.
    on_snapshot(name, index, t, grid) gets a copy of the u, w and z grids
    of each record; without it, the result keeps them if output.snapshots.
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

    records, snapshots = [], []
    if on_snapshot is None and cfg.output.snapshots:
        def on_snapshot(name, index, t, grid):
            snapshots.append(Snapshot(name, index, t, grid))
    tcfg = cfg.time
    # Newton solves: total, most in one step; GMRES iterations; preconditioner builds
    steps, newton = 0, [0, 0, 0, 0]

    def result():
        return RunResult(state, records, eq, snapshots, steps, *newton)

    def implicit(state, dt):
        state, info = step_implicit(state, dt, geom, mesh, params, spec, return_info=True)
        newton[0] += info["iterations"]
        newton[1] = max(newton[1], info["iterations"])
        newton[2] += sum(info["gmres"])
        newton[3] += info["setups"]
        return state

    def emit(index):
        rec = make_record(state, geom, mesh, params, eq)
        records.append(rec)
        if on_record is not None:
            on_record(rec)
        if on_snapshot is not None:
            for name, field, rows in (("u", state.u_hat, mesh.n_r), ("w", state.w_hat, 1),
                                      ("z", state.z_hat, 1)):
                on_snapshot(name, index, state.t, field.reshape(rows, mesh.n_theta).copy())
        drift = relative_drift(records[0], rec)
        if not all(d <= MAX_DRIFT for d in drift):  # NaN fails this and the next check
            raise ConservationDrift(
                f"step {steps} at t = {state.t:g}: relative drift of m1 {drift[0]:.3e}, "
                f"m2 {drift[1]:.3e}, above {MAX_DRIFT:g}")
        low, name = min((rec.min_u, "u"), (rec.min_w, "w"), (rec.min_z, "z"),
                        key=lambda f: (f[0] == f[0], f[0]))  # NaN first
        if not low >= MIN_FIELD:
            raise NegativeField(f"step {steps} at t = {state.t:g}: min of {name} {low:.3e}, "
                                f"below {MIN_FIELD:g}")

    emit(0)
    if tcfg.t_final <= 0.0:
        return result()

    n_out = int(round(tcfg.t_final / tcfg.output_interval))
    if not tcfg.cfl:
        # fixed dt: counted sub-steps (config guarantees divisibility)
        per_interval = int(round(tcfg.output_interval / tcfg.dt))
        stepper = None
        if tcfg.stepper == "imex":
            stepper = ImexStepper(geom, mesh, params, spec, tcfg.dt)
            advance = stepper.step
        else:
            advance = functools.partial(implicit, dt=tcfg.dt)
        for out_idx in range(1, n_out + 1):
            for _ in range(per_interval):
                state = advance(state)
                steps += 1
            state.t = out_idx * tcfg.output_interval  # kill time roundoff
            emit(out_idx)
        if stepper is not None:
            newton[2:] = stepper.gmres, stepper.setups
        return result()

    for out_idx in range(1, n_out + 1):
        t_target = out_idx * tcfg.output_interval
        while state.t < t_target - 1e-12:
            bound = cfl_bound(geom, mesh, params, state)
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
                state, info = step_imex(state, dt, geom, mesh, params, spec, check_cfl=False,
                                        return_info=True)
                newton[2] += sum(info["gmres"])
                newton[3] += info["setups"]
            else:
                state = implicit(state, dt)
            steps += 1
        state.t = t_target
        emit(out_idx)
    return result()
