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
  * no flux is assembled at the fixed outer wall.

The outer-boundary condition is homogeneous no-flux: the only choice
consistent with conservation of m1 when the outer wall is fixed.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (CflViolation, LinearSolveFailure, NewtonDivergence,
                     NonfiniteField, SingularJacobian, UnknownCase)
from .geometry import EvolvingGeometry, GeometryKind, GeometryPreset, build_geometry
from .mesh import (ReferenceMesh, build_mesh, moving_bulk_measures,
                   moving_surface_measures)
from .model import MassAction, ModelParams

_RESIDUAL_TOL = 1e-10
# a CFL-adaptive run stops when the step it may take falls below this
# fraction of time.dt: past it the run would take millions of steps
_MIN_CFL_STEP = 1e-6


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


@dataclasses.dataclass
class DiscreteOperators:
    """Geometry-dependent operators frozen at one time level.

    Stiffness matrices act on concentration vectors and return the net
    diffusive flux into each cell (not divided by the cell measure), so
    every row and column sums to zero exactly.
    """

    t: float
    bulk_stiffness: sp.csr_matrix      # includes delta_Omega
    surf_stiffness_w: sp.csr_matrix    # includes delta_Gamma
    surf_stiffness_z: sp.csr_matrix    # includes delta_Gamma_prime
    bulk_measures: np.ndarray
    surf_measures: np.ndarray          # also the coupling arcs, index-aligned


def _check_jacobian(geom: EvolvingGeometry, mesh: ReferenceMesh, t: float):
    jac = geom.jacobian_det_ref(t, mesh.r_centers)
    if np.min(jac) <= 0.0 or geom.inner_radius(t) <= 0.0:
        raise SingularJacobian(f"det D Phi_t <= 0 at t = {t:g} (min {np.min(jac):g})")


def _bulk_stiffness(geom, mesh, t, delta):
    nt = mesh.n_theta
    rows, cols, vals = [], [], []

    def add_face(a, b, trans):
        rows.extend([a, a, b, b])
        cols.extend([b, a, a, b])
        vals.extend([trans, -trans, trans, -trans])

    slope = geom.radial_slope(t)
    rho_faces = geom.radius_map(t, mesh.r_faces)
    rho_centers = geom.radius_map(t, mesh.r_centers)
    k = np.arange(nt)
    # radial internal faces: arc of length rho_f * dtheta, centers slope*dr apart
    for i in range(1, mesh.n_r):
        trans = delta * (rho_faces[i] * mesh.dtheta) / (slope * mesh.dr)
        a = (i - 1) * nt + k
        b = i * nt + k
        add_face(a, b, np.full(nt, trans))
    # angular faces: radial extent slope*dr, centers rho_c*dtheta apart
    kp = (k + 1) % nt
    for i in range(mesh.n_r):
        trans = delta * (slope * mesh.dr) / (rho_centers[i] * mesh.dtheta)
        a = i * nt + k
        b = i * nt + kp
        add_face(a, b, np.full(nt, trans))
    n = mesh.n_bulk
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)).tocsr()


def _surface_stiffness(geom, mesh, t, delta):
    nt = mesh.n_theta
    k = np.arange(nt)
    kp = (k + 1) % nt
    g_face = geom.surface_stretch(t, mesh.theta_faces[1:])  # face between k and k+1
    trans = delta / (g_face * mesh.dtheta)
    rows = np.concatenate([k, k, kp, kp])
    cols = np.concatenate([kp, k, k, kp])
    vals = np.concatenate([trans, -trans, trans, -trans])
    return sp.coo_matrix((vals, (rows, cols)), shape=(nt, nt)).tocsr()


def assemble_operators(geom: EvolvingGeometry, mesh: ReferenceMesh,
                       params: ModelParams, t: float) -> DiscreteOperators:
    """Diffusion operators and moving measures at time t."""
    _check_jacobian(geom, mesh, t)
    lb = _bulk_stiffness(geom, mesh, t, params.delta_omega)
    lw = _surface_stiffness(geom, mesh, t, params.delta_gamma)
    lz = _surface_stiffness(geom, mesh, t, params.delta_gamma_prime)
    return DiscreteOperators(
        t=t,
        bulk_stiffness=lb,
        surf_stiffness_w=lw,
        surf_stiffness_z=lz,
        bulk_measures=moving_bulk_measures(mesh, geom, t),
        surf_measures=moving_surface_measures(mesh, geom, t),
    )


# -- advection ----------------------------------------------------------------


def _surface_face_velocities(geom, mesh, t):
    """Tangential J_Gamma speed at the face between surface cells k and k+1."""
    theta_f = mesh.theta_faces[1:]
    x_ref = np.stack([mesh.r_inner0 * np.cos(theta_f), mesh.r_inner0 * np.sin(theta_f)], axis=-1)
    y = geom.flow_map(t, x_ref)
    jg = geom.v_surface(t, y) - geom.v_parametrization(t, y)
    rho = np.sqrt(y[:, 0] ** 2 + y[:, 1] ** 2)
    tau = np.stack([-y[:, 1], y[:, 0]], axis=-1) / rho[:, None]
    return np.sum(jg * tau, axis=-1)


def surface_advection(geom, mesh, t, field):
    """Net upwind J_Gamma inflow per surface cell."""
    w = np.asarray(field, dtype=float)
    q = _surface_face_velocities(geom, mesh, t)
    donor = np.where(q >= 0.0, w, np.roll(w, -1))
    flux = q * donor
    return np.roll(flux, 1) - flux


def _surface_advection_matrix(geom, mesh, t):
    q = _surface_face_velocities(geom, mesh, t)
    nt = mesh.n_theta
    k = np.arange(nt)
    kp = (k + 1) % nt
    donor = np.where(q >= 0.0, k, kp)
    rows = np.concatenate([kp, k])
    cols = np.concatenate([donor, donor])
    vals = np.concatenate([q, -q])
    return sp.coo_matrix((vals, (rows, cols)), shape=(nt, nt)).tocsr()


# -- step control ---------------------------------------------------------------


def cfl_bound(geom: EvolvingGeometry, mesh: ReferenceMesh, params: ModelParams,
              state: State) -> float:
    """Largest dt the IMEX stepper accepts at this state.

    Advective part: min over surface faces of arc length / |J_Gamma . tau|.
    Reaction part (mass action): dt <= delta_K / max trace of u, which keeps
    the receptor update nonnegative (surface cell and coupling arc coincide,
    so their ratio drops out).  Infinite when nothing constrains the step.
    """
    t = state.t
    bound = math.inf
    if geom.surface_slip_active:
        qs = np.abs(_surface_face_velocities(geom, mesh, t))
        if qs.size and np.max(qs) > 0:
            arc = float(np.min(geom.surface_stretch(t, mesh.theta_faces[1:]))) * mesh.dtheta
            bound = min(bound, arc / float(np.max(qs)))
    if math.isfinite(params.delta_k):
        u_tr = np.max(state.u_hat[: mesh.n_theta])
        if u_tr > 0:
            bound = min(bound, params.delta_k / float(u_tr))
    return bound


def _check_step(state: State, dt: float, geom, mesh, params, check_cfl: bool):
    """Preconditions of every step: positive dt, a finite state and, when
    check_cfl is set, dt within cfl_bound."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (np.all(np.isfinite(state.u_hat)) and np.all(np.isfinite(state.w_hat))
            and np.all(np.isfinite(state.z_hat))):
        raise NonfiniteField(f"state at t = {state.t:g} contains non-finite values")
    if check_cfl:
        bound = cfl_bound(geom, mesh, params, state)
        if dt > bound:
            raise CflViolation(f"dt = {dt:g} exceeds stability bound {bound:g} at t = {state.t:g}")


def _row_norm(a) -> float:
    return float(np.max(np.abs(a).sum(axis=1)))


def _check_backward_error(residual, x, rhs, row_norm: float, what: str):
    """Normwise backward error max|A x - b| / (||A|| max|x| + max|b|) of a
    solve, given its residual and the row-sum norm of A; never silent on a
    bad factorization."""
    scale = row_norm * float(np.max(np.abs(x))) + float(np.max(np.abs(rhs)))
    err = float(np.max(np.abs(residual))) / max(scale, 1e-300)
    if not math.isfinite(err) or err > _RESIDUAL_TOL:
        raise LinearSolveFailure(f"{what} backward error {err:.3e} exceeds {_RESIDUAL_TOL:g}")


def _solve_sparse(a_csr, rhs):
    try:
        lu = spla.splu(a_csr.tocsc(), permc_spec="MMD_AT_PLUS_A")
        x = lu.solve(rhs)
    except RuntimeError as exc:  # singular factorization
        raise LinearSolveFailure(f"sparse LU failed: {exc}") from exc
    _check_backward_error(a_csr @ x - rhs, x, rhs, _row_norm(a_csr), "linear solve")
    return x


# -- step assembly over the stacked unknowns (u, w, z) ------------------------------


def _slot_slices(mesh: ReferenceMesh):
    """Positions of the u trace (innermost bulk ring), w and z in the stacked
    vector; entry k of each belongs to surface slot k."""
    nb, ns = mesh.n_bulk, mesh.n_surf
    return slice(0, ns), slice(nb, nb + ns), slice(nb + ns, nb + 2 * ns)


def _exchange(flux):
    """Equation rows (u trace, w, z) of one exchange flux per surface slot.

    The flux is a gain for the u trace and for w and a loss for z; entering
    all three with the same value is what conserves m1 and m2.  flux holds
    per-slot coefficients of the slot unknowns (u trace, w, z), None where
    the flux does not depend on one.
    """
    return flux, flux, tuple(None if c is None else -c for c in flux)


def _slot_matrix(mesh: ReferenceMesh, rows):
    """Sparse matrix over the stacked unknowns holding the per-slot
    coefficients rows[i][j] at equation i and unknown j of every surface
    slot, i and j running over (u trace, w, z); None entries are skipped."""
    n = mesh.n_bulk + 2 * mesh.n_surf
    idx = [np.arange(s.start, s.stop) for s in _slot_slices(mesh)]
    entries = [(idx[i], idx[j], coeff) for i, row in enumerate(rows)
               for j, coeff in enumerate(row) if coeff is not None]
    r, c, v = (np.concatenate(part) for part in zip(*entries))
    return sp.coo_matrix((v, (r, c)), shape=(n, n))


def _step_matrix(ops: DiscreteOperators, dt: float):
    """Moving measures at t + dt minus dt times the stiffness operators."""
    ms = ops.surf_measures
    return (sp.diags(np.concatenate([ops.bulk_measures, ms, ms]))
            - dt * sp.block_diag([ops.bulk_stiffness, ops.surf_stiffness_w,
                                  ops.surf_stiffness_z], format="coo"))


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
              m0, m1, sources: Sources | None):
    """_mass_rhs plus the explicit upwind surface advection at t."""
    rhs = _mass_rhs(state, dt, mesh, m0, m1, sources)
    if geom.surface_slip_active:
        _, at_w, at_z = _slot_slices(mesh)
        rhs[at_w] += dt * surface_advection(geom, mesh, state.t, state.w_hat)
        rhs[at_z] += dt * surface_advection(geom, mesh, state.t, state.z_hat)
    return rhs


def step_imex(state: State, dt: float, geom: EvolvingGeometry, mesh: ReferenceMesh,
              params: ModelParams, spec, sources: Sources | None = None,
              check_cfl: bool = True) -> State:
    """One IMEX step: implicit diffusion and linearized reaction losses,
    explicit upwind advection, dilation absorbed by the moving measures.

    For the mass-action nonlinearity the binding and unbinding fluxes enter
    all three equations with identical values, so m1 and m2 are conserved to
    the linear-solver residual.  Custom nonlinearities are integrated with a
    fully explicit reaction.
    """
    _check_step(state, dt, geom, mesh, params, check_cfl)
    t0, t1 = state.t, state.t + dt
    ops = assemble_operators(geom, mesh, params, t1)
    m0 = (moving_bulk_measures(mesh, geom, t0), moving_surface_measures(mesh, geom, t0))
    arcs = ops.surf_measures
    rhs = _imex_rhs(state, dt, geom, mesh, m0, (ops.bulk_measures, arcs), sources)
    a = _step_matrix(ops, dt)
    if getattr(spec, "is_mass_action", False):
        ns = mesh.n_surf
        k_bind = arcs * state.w_hat / params.delta_k if math.isfinite(params.delta_k) \
            else np.zeros(ns)
        k_unbind = arcs / params.delta_k_prime if math.isfinite(params.delta_k_prime) \
            else np.zeros(ns)
        a = a + dt * _slot_matrix(mesh, _exchange((k_bind, None, -k_unbind)))
    else:
        u_tr = state.u_hat[: mesh.n_surf]
        for at, f in zip(_slot_slices(mesh), (spec.f1, spec.f2, spec.f3)):
            rhs[at] += dt * np.asarray(f(u_tr, state.w_hat, state.z_hat)) * arcs
    x = _solve_sparse(a.tocsr(), rhs)
    _, at_w, at_z = _slot_slices(mesh)
    return State(t1, x[: mesh.n_bulk], x[at_w], x[at_z])


class ImexStepper:
    """IMEX stepping with a cached factorization for static-metric presets.

    For mass-action runs on geometries whose measures and transmissibilities
    do not depend on t, the step matrix is a fixed operator plus a rank
    n_theta reaction update (the binding coefficients follow w^n).  The fixed
    part is factorized once and every step costs one back-substitution plus a
    small dense solve (Woodbury identity); results agree with step_imex to
    rounding.  Anything else falls back to step_imex.
    """

    def __init__(self, geom, mesh, params, spec, dt):
        self.geom, self.mesh, self.params, self.spec, self.dt = geom, mesh, params, spec, dt
        self.fast = geom.metric_is_static and getattr(spec, "is_mass_action", False)
        if not self.fast:
            return
        ops = assemble_operators(geom, mesh, params, 0.0)
        ns = mesh.n_surf
        self.measures = (ops.bulk_measures, ops.surf_measures)
        k_unbind = ops.surf_measures / params.delta_k_prime \
            if math.isfinite(params.delta_k_prime) else np.zeros(ns)
        unbind = _slot_matrix(mesh, _exchange((None, None, -k_unbind)))
        a0 = (_step_matrix(ops, dt) + dt * unbind).tocsc()
        self.a0 = a0.tocsr()
        self.lu = spla.splu(a0, permc_spec="MMD_AT_PLUS_A")
        # binding update: A = A0 + U diag(dt k_bind) V^T, V^T x = trace of u
        self.u = _slot_matrix(mesh, _exchange((np.ones(ns), None, None))).tocsr()[:, :ns]
        self.ainv_u = self.lu.solve(self.u.toarray())
        self.w_cap = self.ainv_u[: ns, :]  # V^T A0^{-1} U
        self.row_norm = _row_norm(self.a0)

    def step(self, state, check_cfl=True, sources=None):
        if not self.fast:
            return step_imex(state, self.dt, self.geom, self.mesh, self.params, self.spec,
                             sources=sources, check_cfl=check_cfl)
        dt, mesh = self.dt, self.mesh
        _check_step(state, dt, self.geom, mesh, self.params, check_cfl)
        rhs = _imex_rhs(state, dt, self.geom, mesh, self.measures, self.measures, sources)
        y0 = self.lu.solve(rhs)
        ns = mesh.n_surf
        if math.isfinite(self.params.delta_k):
            _, arcs = self.measures
            d = dt * arcs * state.w_hat / self.params.delta_k
            cap = np.eye(ns) + d[:, None] * self.w_cap
            xi = np.linalg.solve(cap, d * y0[: ns])
            x = y0 - self.ainv_u @ xi
        else:
            d = np.zeros(ns)
            x = y0
        # backward error of the corrected solve against A0 + U diag(d) V^T
        _check_backward_error(self.a0 @ x + self.u @ (d * x[: ns]) - rhs, x, rhs,
                              self.row_norm, "cached-step")
        _, at_w, at_z = _slot_slices(mesh)
        return State(state.t + dt, x[: mesh.n_bulk], x[at_w], x[at_z])


def _reaction_jacobian_rows(spec, u_tr, w, z, eps=1e-7):
    """Rows (df1, df2, df3), each the derivatives by (u trace, w, z)."""
    if getattr(spec, "is_mass_action", False):
        dk, dkp = spec.params.delta_k, spec.params.delta_k_prime
        inv_k = 1.0 / dk if math.isfinite(dk) else 0.0
        inv_kp = 1.0 / dkp if math.isfinite(dkp) else 0.0
        return _exchange((-w * inv_k, -u_tr * inv_k, np.full_like(w, inv_kp)))
    out = []
    for f in (spec.f1, spec.f2, spec.f3):
        base = np.asarray(f(u_tr, w, z), dtype=float)
        du = (np.asarray(f(u_tr + eps, w, z)) - base) / eps
        dw = (np.asarray(f(u_tr, w + eps, z)) - base) / eps
        dz = (np.asarray(f(u_tr, w, z + eps)) - base) / eps
        out.append((du, dw, dz))
    return tuple(out)


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
    t0, t1 = state.t, state.t + dt
    ops = assemble_operators(geom, mesh, params, t1)
    m0 = (moving_bulk_measures(mesh, geom, t0), moving_surface_measures(mesh, geom, t0))
    arcs = ops.surf_measures
    slots = _slot_slices(mesh)
    trace, at_w, at_z = slots

    # upwind surface advection enters implicitly, next to surface diffusion
    adv_s = _surface_advection_matrix(geom, mesh, t1)
    ops = dataclasses.replace(ops, surf_stiffness_w=ops.surf_stiffness_w + adv_s,
                              surf_stiffness_z=ops.surf_stiffness_z + adv_s)
    fixed = _step_matrix(ops, dt).tocsr()
    base = _mass_rhs(state, dt, mesh, m0, (ops.bulk_measures, arcs), sources)

    x = np.concatenate([state.u_hat, state.w_hat, state.z_hat])
    row_norm = _row_norm(fixed)
    history = []
    for iteration in range(max_newton + 1):
        u_tr, w, z = x[trace], x[at_w], x[at_z]
        resid = fixed @ x - base
        for at, f in zip(slots, (spec.f1, spec.f2, spec.f3)):
            resid[at] -= dt * np.asarray(f(u_tr, w, z), dtype=float) * arcs
        # residual measured against the equation scale (backward-error style)
        scale = max(1.0, row_norm * float(np.max(np.abs(x))), float(np.max(np.abs(base))))
        norm = float(np.max(np.abs(resid))) / scale
        history.append(norm)
        if not math.isfinite(norm):
            raise NewtonDivergence(f"non-finite Newton residual at t = {t1:g}", history)
        if norm < newton_tol:
            out = State(t1, x[: mesh.n_bulk], x[at_w], x[at_z])
            if return_info:
                return out, {"iterations": iteration, "residuals": history}
            return out
        rows = [[-dt * arcs * c for c in row]
                for row in _reaction_jacobian_rows(spec, u_tr, w, z)]
        x = x - _solve_sparse((fixed + _slot_matrix(mesh, rows)).tocsr(), resid)
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
        raise UnknownCase(f"unknown manufactured case {case_id!r}; have {sorted(MMS_CASES)}")
    if preset is None:
        preset = GeometryPreset(GeometryKind.FIXED, r_inner0=1.0, r_outer0=2.0)
    if preset.kind not in (GeometryKind.FIXED, GeometryKind.ROTATION):
        raise UnknownCase(f"manufactured cases support fixed/rotation presets, got {preset.kind}")
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
    n_steps = int(round(t_final / dt))
    if stepper == "imex":
        fast = ImexStepper(geom, mesh, params, spec, dt)
        for _ in range(n_steps):
            state = fast.step(state, check_cfl=False, sources=case.sources)
    else:
        for _ in range(n_steps):
            state = step_implicit(state, dt, geom, mesh, params, spec, sources=case.sources)
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
    if dt <= 0.0:
        raise ValueError("dt must be positive")
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
    from .equilibrium import solve_equilibrium

    geom = build_geometry(cfg.geometry)
    mesh = build_mesh(cfg.mesh.n_r, cfg.mesh.n_theta, cfg.geometry.r_inner0, cfg.geometry.r_outer0)
    params = cfg.model.params
    spec = cfg.model.make_nonlinearity()
    state = initial_state(cfg, geom, mesh, params)

    from .equilibrium import conserved_masses
    m1, m2 = conserved_masses(state, geom, mesh)
    area0 = float(np.sum(moving_bulk_measures(mesh, geom, 0.0)))
    len0 = float(np.sum(moving_surface_measures(mesh, geom, 0.0)))
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
        cached = ImexStepper(geom, mesh, params, spec, tcfg.dt) \
            if tcfg.stepper == "imex" else None
        for out_idx in range(1, n_out + 1):
            for _ in range(per_interval):
                if cached is not None:
                    state = cached.step(state)
                else:
                    state = step_implicit(state, tcfg.dt, geom, mesh, params, spec)
            state.t = out_idx * tcfg.output_interval  # kill time roundoff
            emit(out_idx)
        return RunResult(state, records, eq, snapshots)

    steps = 0
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
            if tcfg.stepper == "imex":
                state = step_imex(state, dt, geom, mesh, params, spec, check_cfl=False)
            else:
                state = step_implicit(state, dt, geom, mesh, params, spec)
            steps += 1
        state.t = t_target
        emit(out_idx)
    return RunResult(state, records, eq, snapshots)
