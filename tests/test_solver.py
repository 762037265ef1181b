"""Steppers, operators, manufactured solutions, transport identities."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy.integrate import solve_ivp

from bulksurf import cli, solver
from bulksurf.config import parse_config
from bulksurf.errors import (CflViolation, LinearSolveFailure, NewtonDivergence,
                             SingularJacobian, UnknownCase, ValidationError)
from bulksurf.geometry import GeometryKind, GeometryPreset, build_geometry
from bulksurf.mesh import (build_mesh, integrate_bulk, integrate_surface,
                           moving_bulk_measures, moving_surface_measures)
from bulksurf.model import CUSTOM_NONLINEARITIES, CustomNonlinearity, MassAction, ModelParams
from bulksurf.solver import (_EXCHANGE, _SLOT_RINGS, ImexStepper, Sources, State, TransportKind,
                             _imex_rhs, _mass_rhs, _reaction_terms, assemble_operators, cfl_bound,
                             manufactured_solution_error, step_imex, step_implicit,
                             surface_advection, transport_identity_residual)
from bulksurf.equilibrium import conserved_masses


def make(kind="fixed", n=12, dk=1.0, dkp=1.0, **kw):
    preset = GeometryPreset(GeometryKind(kind), 1.0, 2.0, **kw)
    geom = build_geometry(preset)
    mesh = build_mesh(n, 2 * n, 1.0, 2.0)
    params = ModelParams(1.0, 1.0, 1.0, dk, dkp)
    return geom, mesh, params, MassAction(params)


def random_state(mesh, seed=0, base=1.0, spread=0.5):
    rng = np.random.default_rng(seed)
    return State(0.0,
                 base + spread * rng.random(mesh.n_bulk),
                 base + spread * rng.random(mesh.n_surf),
                 base + spread * rng.random(mesh.n_surf))


# name -> (geometry kind, preset parameters); the clockwise wind takes q < 0
PRESETS = {"fixed": ("fixed", {}), "rotation": ("rotation", dict(omega=1.0, delta=0.5)),
           "breathing": ("breathing", dict(amplitude=0.15, omega=1.0, delta=0.2)),
           "surface_wind": ("surface_wind", dict(wind_speed=0.4, delta=0.5)),
           "clockwise_wind": ("surface_wind", dict(wind_speed=-0.4, delta=0.5))}


def preset_geometry(name):
    kind, kw = PRESETS[name]
    return build_geometry(GeometryPreset(GeometryKind(kind), 1.0, 2.0, **kw))


def face_velocities(geom, mesh, t):
    """Tangential J_Gamma speed at the face between surface cells k and k + 1,
    evaluated face by face from the geometry."""
    theta_f = mesh.theta_faces[1:]
    x_ref = np.stack([mesh.r_inner0 * np.cos(theta_f), mesh.r_inner0 * np.sin(theta_f)], axis=-1)
    y = geom.flow_map(t, x_ref)
    jg = geom.v_surface(t, y) - geom.v_parametrization(t, y)
    rho = np.sqrt(y[:, 0] ** 2 + y[:, 1] ** 2)
    tau = np.stack([-y[:, 1], y[:, 0]], axis=-1) / rho[:, None]
    return np.sum(jg * tau, axis=-1)


def face_by_face_matrix(geom, mesh, params, t, dt, advect=False):
    """The step matrix to t, dense, as the COO sum of every face's entries from
    the geometry: moving measures minus dt times the diffusive flux, with
    advect also the upwind J_Gamma flux of w and z."""
    nb, ns, nt = mesh.n_bulk, mesh.n_surf, mesh.n_theta
    ms = moving_surface_measures(mesh, geom, t)
    measures = np.concatenate([moving_bulk_measures(mesh, geom, t), ms, ms])
    entries = [(i, i, m) for i, m in enumerate(measures)]

    def face(p, q, trans):
        entries.extend([(p, q, -dt * trans), (q, p, -dt * trans),
                        (p, p, dt * trans), (q, q, dt * trans)])

    slope = geom.radial_slope(t)
    for i in range(mesh.n_r):
        rho_c = geom.radius_map(t, mesh.r_centers[i])
        for k in range(nt):
            cell = i * nt + k
            face(cell, i * nt + (k + 1) % nt,
                 params.delta_omega * slope * mesh.dr / (rho_c * mesh.dtheta))
            if i > 0:
                rho_f = geom.radius_map(t, mesh.r_faces[i])
                face(cell - nt, cell, params.delta_omega * rho_f * mesh.dtheta / (slope * mesh.dr))
    speeds = face_velocities(geom, mesh, t) if advect else np.zeros(nt)
    for first, delta in ((nb, params.delta_gamma), (nb + ns, params.delta_gamma_prime)):
        for k in range(nt):
            kp = (k + 1) % nt
            face(first + k, first + kp,
                 delta / (geom.surface_stretch(t, mesh.theta_faces[k + 1]) * mesh.dtheta))
            donor = first + (k if speeds[k] >= 0.0 else kp)
            entries.extend([(first + kp, donor, -dt * speeds[k]),
                            (first + k, donor, dt * speeds[k])])
    rows, cols, vals = zip(*entries)
    return sp.coo_matrix((vals, (rows, cols)), shape=(nb + 2 * ns,) * 2).toarray()


def ring_stiffness(angular, radial, nt):
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


def stiffness(ops):
    """CSR stiffness of (u, w, z) built from the ring coefficients of ops."""
    nt = ops.n_theta
    return (ring_stiffness(ops.angular, ops.radial, nt), ring_stiffness(ops.surface[:1], (), nt),
            ring_stiffness(ops.surface[1:], (), nt))


def slot_matrix(mesh, pattern, coeffs):
    """Sparse matrix over the stacked unknowns of a slot term: per slot, the
    flux coeffs . (u trace, w, z) (None skipped) times the pattern's signs."""
    nb, ns = mesh.n_bulk, mesh.n_surf
    n = nb + 2 * ns
    idx = [np.arange(ns), nb + np.arange(ns), nb + ns + np.arange(ns)]
    entries = [(idx[i], idx[j], sign * coeff) for i, sign in enumerate(pattern) if sign
               for j, coeff in enumerate(coeffs) if coeff is not None]
    r, c, v = (np.concatenate(part) for part in zip(*entries))
    return sp.coo_matrix((v, (r, c)), shape=(n, n))


def surface_advection_matrix(geom, mesh, t):
    """Net upwind J_Gamma inflow per surface cell as a sparse matrix."""
    q = face_velocities(geom, mesh, t)
    k = np.arange(mesh.n_theta)
    kp = (k + 1) % mesh.n_theta
    donor = np.where(q >= 0.0, k, kp)
    return sp.coo_matrix((np.concatenate([q, -q]), (np.concatenate([kp, k]),
                                                    np.concatenate([donor, donor]))),
                         shape=(mesh.n_theta,) * 2).tocsr()


class TestOperators:
    def test_interior_row_sums_vanish_on_constants(self):
        geom, mesh, params, _ = make()
        ops = assemble_operators(geom, mesh, params, 0.0)
        for mat in stiffness(ops):
            assert np.max(np.abs(mat @ np.ones(mat.shape[0]))) < 1e-12

    def test_rotation_surface_operator_matches_fixed(self):
        geomF, mesh, params, _ = make("fixed")
        geomR, _, _, _ = make("rotation", omega=1.3, delta=0.2)
        opF = assemble_operators(geomF, mesh, params, 0.0)
        for t in (0.0, 0.9, 4.0):
            opR = assemble_operators(geomR, mesh, params, t)
            diff = stiffness(opR)[1] - stiffness(opF)[1]
            assert abs(diff).max() < 1e-14

    def test_breathing_surface_operator_scales_inverse_square(self):
        geom, mesh, params, _ = make("breathing", amplitude=0.2, omega=1.0, delta=0.1)
        opsB = assemble_operators(geom, mesh, params, 0.8)
        rad = float(geom.inner_radius(0.8))
        geomF, _, _, _ = make("fixed")
        opsF = assemble_operators(geomF, mesh, params, 0.0)
        # per unit moving cell measure the operator is the circle operator / R^2
        lhs = stiffness(opsB)[1].toarray() / opsB.surf_measures[:, None]
        rhs = stiffness(opsF)[1].toarray() / opsF.surf_measures[:, None] / rad ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("kind", sorted(PRESETS))
    def test_bulk_stiffness_matches_face_by_face(self, kind):
        """The CSR stiffness built from the ring coefficients against the faces."""
        geom = preset_geometry(kind)
        mesh = build_mesh(8, 16, 1.0, 2.0)
        params = ModelParams(0.7, 1.3, 0.4, 1.0, 0.6)
        for t in (0.0, 0.8):
            ops = assemble_operators(geom, mesh, params, t)
            faces = (face_by_face_matrix(geom, mesh, params, t, 0.0)
                     - face_by_face_matrix(geom, mesh, params, t, 1.0))
            rings = sp.block_diag(stiffness(ops)).toarray()
            assert np.max(np.abs(rings - faces)) <= 1e-14 * np.max(np.abs(faces))

    @pytest.mark.parametrize("kind", sorted(PRESETS))
    def test_step_matrix_matches_coo_sum(self, kind):
        """Every entry of the stencil apply, and the row-sum norm, against the
        step matrix summed face by face, with and without (Newton on
        surface_wind) the upwind advection."""
        geom = preset_geometry(kind)
        mesh = build_mesh(8, 16, 1.0, 2.0)
        params = ModelParams(0.7, 1.3, 0.4, 1.0, 0.6)
        n, dt = mesh.n_bulk + 2 * mesh.n_surf, 0.05
        for t1 in (0.05, 0.8):
            for advect in {False, geom.surface_slip_active}:
                ref = face_by_face_matrix(geom, mesh, params, t1, dt, advect)
                system = solver._solve_for(geom, mesh, params, t1, dt, advect)
                got = np.column_stack([system.apply(e) for e in np.eye(n)])
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
                assert system.norm == pytest.approx(np.max(np.abs(ref).sum(axis=1)), rel=1e-14)

    @pytest.mark.parametrize("n_theta", [16, 17])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_closed_form_bands_match_fft_of_rows(self, name, n_theta):
        """The mode bands from the ring coefficients against the rFFT of the
        slot-0 rows of the face-by-face matrix, in the order (u rings, w, z)."""
        geom = preset_geometry(name)
        mesh = build_mesh(6, n_theta, 1.0, 2.0)
        params = ModelParams(0.7, 1.3, 0.4, 1.0, 0.6)
        nr, nt = mesh.n_r, n_theta
        order = np.arange(nr + 2)
        for advect in {False, geom.surface_slip_active}:
            a = face_by_face_matrix(geom, mesh, params, 0.3, 0.02, advect)
            rows = np.zeros((3, len(order), nt))
            for j, ring in enumerate(order):
                for band, other in enumerate((j - 1, j, j + 1)):
                    if 0 <= other < len(order):
                        rows[band, j] = a[ring * nt, order[other] * nt:(order[other] + 1) * nt]
            eig = np.fft.rfft(rows, axis=2).conj().transpose(0, 2, 1).reshape(3, -1)
            ref = (eig[0, 1:], eig[1], eig[2, :-1])
            got = solver._solve_for(geom, mesh, params, 0.3, 0.02, advect).bands
            for g, r in zip(got, ref):
                assert np.max(np.abs(g - r)) <= 1e-14 * np.max(np.abs(ref[1]))
            if not advect:
                assert all(np.isrealobj(g) for g in got)

    def test_surface_wind_upwind_is_conservative(self):
        geom, mesh, _, _ = make("surface_wind", wind_speed=0.5, delta=0.0)
        field = 1.0 + 0.5 * np.sin(mesh.theta_centers)
        net = surface_advection(geom, 0.3, field)
        assert abs(np.sum(net)) < 1e-14
        assert np.max(np.abs(net)) > 0.0


class TestStepImex:
    def test_uniform_state_without_reaction_is_steady(self):
        geom, mesh, params, spec = make(dk=math.inf, dkp=math.inf)
        st = State(0.0, np.full(mesh.n_bulk, 1.7), np.full(mesh.n_surf, 0.4),
                   np.full(mesh.n_surf, 2.2))
        out = step_imex(st, 0.05, geom, mesh, params, spec)
        assert np.max(np.abs(out.u_hat - 1.7)) < 1e-12
        assert np.max(np.abs(out.w_hat - 0.4)) < 1e-12
        assert np.max(np.abs(out.z_hat - 2.2)) < 1e-12

    def test_ode_equilibrium_is_steady(self):
        geom, mesh, params, spec = make()
        st = State(0.0, np.ones(mesh.n_bulk), np.ones(mesh.n_surf), np.ones(mesh.n_surf))
        out = step_imex(st, 0.05, geom, mesh, params, spec)
        for a, b in ((out.u_hat, 1.0), (out.w_hat, 1.0), (out.z_hat, 1.0)):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_one_step_against_homogeneous_ode_oracle(self):
        # well-mixed masses follow the 3-variable reduction to O(dt^2)
        geom, mesh, params, spec = make(n=8)
        area, length = 3 * math.pi, 2 * math.pi

        def rhs(t, y):
            r = y[2] - y[0] * y[1]
            return [r * length / area, r, -r]

        def one_step_error(dt):
            oracle = solve_ivp(rhs, [0, dt], [2.0, 1.0, 0.0], rtol=1e-12, atol=1e-14).y[:, -1]
            st = State(0.0, np.full(mesh.n_bulk, 2.0), np.ones(mesh.n_surf),
                       np.zeros(mesh.n_surf))
            out = step_imex(st, dt, geom, mesh, params, spec)
            got = (integrate_bulk(mesh, geom, dt, out.u_hat) / area,
                   integrate_surface(mesh, geom, dt, out.w_hat) / length,
                   integrate_surface(mesh, geom, dt, out.z_hat) / length)
            return max(abs(g - o) for g, o in zip(got, oracle))

        e1, e2 = one_step_error(1e-3), one_step_error(5e-4)
        assert e1 < 50 * 1e-3 ** 2      # local truncation error scale
        assert e1 / e2 >= 3.5           # quarters under dt halving

    def test_conservation_all_presets(self):
        for kind, kw in [("fixed", {}), ("rotation", dict(omega=1.0, delta=0.5)),
                         ("breathing", dict(amplitude=0.15, omega=1.0, delta=0.2)),
                         ("surface_wind", dict(wind_speed=0.4, delta=0.5))]:
            geom, mesh, params, spec = make(kind, **kw)
            st = random_state(mesh, seed=3)
            m1a, m2a = conserved_masses(st, geom, mesh)
            for _ in range(100):
                st = step_imex(st, 0.01, geom, mesh, params, spec)
            m1b, m2b = conserved_masses(st, geom, mesh)
            assert abs(m1b - m1a) <= 1e-10 * (1 + abs(m1a))
            assert abs(m2b - m2a) <= 1e-10 * (1 + abs(m2a))

    def test_positivity_long_run_with_zeros(self):
        geom, mesh, params, spec = make("surface_wind", n=8, wind_speed=0.5, delta=0.3)
        rng = np.random.default_rng(5)
        u = rng.random(mesh.n_bulk)
        u[rng.random(mesh.n_bulk) < 0.4] = 0.0
        w = rng.random(mesh.n_surf)
        w[rng.random(mesh.n_surf) < 0.4] = 0.0
        z = rng.random(mesh.n_surf)
        z[rng.random(mesh.n_surf) < 0.4] = 0.0
        st = State(0.0, 3 * u, 2 * w, z)
        stepper = ImexStepper(geom, mesh, params, spec, 0.02)
        lo = 0.0
        for _ in range(10000):
            st = stepper.step(st)
            lo = min(lo, st.u_hat.min(), st.w_hat.min(), st.z_hat.min())
        assert lo >= -1e-12

    @pytest.mark.parametrize("speed", [0.4, -0.4])  # anticlockwise and clockwise wind
    def test_stacked_advection_at_the_wind(self, speed):
        """The wind is every face's speed, and the stacked advection of w and
        z at t is the one of each field, bit for bit."""
        geom, mesh, params, spec = make("surface_wind", n=6, wind_speed=speed, delta=0.5)
        st = random_state(mesh, seed=6)
        for t in (0.0, 0.7):
            faces = face_velocities(geom, mesh, t)
            assert np.max(np.abs(faces - geom.wind_speed(t))) <= 1e-15
        m = (moving_bulk_measures(mesh, geom, 0.0), moving_surface_measures(mesh, geom, 0.0))
        ref = _mass_rhs(st, 0.01, mesh, m, m, None)
        ref[mesh.n_bulk:] += np.concatenate([0.01 * surface_advection(geom, 0.0, f)
                                             for f in (st.w_hat, st.z_hat)])
        assert np.array_equal(_imex_rhs(st, 0.01, geom, mesh, m, m, None), ref)

    def test_cfl_violation_raised(self):
        geom, mesh, params, spec = make("surface_wind", wind_speed=2.0, delta=0.0)
        st = random_state(mesh)
        bound = cfl_bound(geom, mesh, params, st)
        with pytest.raises(CflViolation):
            step_imex(st, 2.0 * bound, geom, mesh, params, spec)

    def test_max_norm_monotone_without_forcing(self):
        # zero reaction, zero velocities: discrete maximum principle
        geom, mesh, params, spec = make(dk=math.inf, dkp=math.inf)
        st = random_state(mesh, seed=11, base=0.5, spread=2.0)
        hi = [np.max(st.u_hat)]
        for _ in range(50):
            st = step_imex(st, 0.02, geom, mesh, params, spec)
            hi.append(np.max(st.u_hat))
        assert all(hi[i + 1] <= hi[i] + 1e-13 for i in range(len(hi) - 1))


def superlu_step(st, dt, geom, mesh, params, spec):
    """The plain IMEX step: the full step matrix, binding term included,
    assembled as one sparse matrix and solved by SuperLU.  The right-hand
    side is assembled here too: the masses at t plus dt times the upwind
    advection at t by surface_advection_matrix, face by face from the
    geometry."""
    ops = assemble_operators(geom, mesh, params, st.t + dt)
    arcs, ns, nb = ops.surf_measures, mesh.n_surf, mesh.n_bulk
    m0s = moving_surface_measures(mesh, geom, st.t)
    rhs = np.concatenate([moving_bulk_measures(mesh, geom, st.t) * st.u_hat,
                          m0s * st.w_hat, m0s * st.z_hat])
    if geom.surface_slip_active:
        advection = surface_advection_matrix(geom, mesh, st.t)
        rhs[nb:] += dt * np.concatenate([advection @ st.w_hat, advection @ st.z_hat])
    a = step_matrix_reference(ops, dt)
    if spec.is_mass_action:
        dk, dkp = params.delta_k, params.delta_k_prime
        k_bind = arcs * st.w_hat / dk if math.isfinite(dk) else np.zeros(ns)
        k_unbind = arcs / dkp if math.isfinite(dkp) else np.zeros(ns)
        a = a + dt * slot_matrix(mesh, _EXCHANGE, (k_bind, None, -k_unbind))
    else:
        for at, f in zip((slice(0, ns), slice(nb, nb + ns), slice(nb + ns, None)),
                         (spec.f1, spec.f2, spec.f3)):
            rhs[at] += dt * f(st.u_hat[:ns], st.w_hat, st.z_hat) * arcs
    x = spla.spsolve(a.tocsc(), rhs)
    return State(st.t + dt, x[:nb], x[nb:nb + ns], x[nb + ns:])


def assert_same_state(got, ref, rtol=1e-12):
    x = np.concatenate([got.u_hat, got.w_hat, got.z_hat])
    y = np.concatenate([ref.u_hat, ref.w_hat, ref.z_hat])
    assert got.t == ref.t
    assert np.max(np.abs(x - y)) <= rtol * np.max(np.abs(y))


REACTIONS = {"mass_action": (1.0, 0.5), "no_binding": (math.inf, 0.7),
             "no_unbinding": (0.3, math.inf), "saturating_binding": (1.0, 1.0)}


def reaction_spec(name, params):
    if name == "saturating_binding":
        return CUSTOM_NONLINEARITIES[name](params)
    return MassAction(params)


def step_matrix_reference(ops, dt, advection=0.0):
    """Measures minus dt times the stiffness (plus a surface advection matrix),
    as the sum of a diagonal and a COO block diagonal of the CSR stiffness."""
    ms = ops.surf_measures
    bulk, surf_w, surf_z = stiffness(ops)
    return (sp.diags(np.concatenate([ops.bulk_measures, ms, ms]))
            - dt * sp.block_diag([bulk, surf_w + advection, surf_z + advection], format="coo"))


def jacobian_rows(spec, u_tr, w, z, eps=1e-7):
    """Rows (df1, df2, df3) of the reaction Jacobian, each the derivatives by
    (u trace, w, z), with the solver's finite differences for custom forms."""
    if spec.is_mass_action:
        dk, dkp = spec.params.delta_k, spec.params.delta_k_prime
        inv_k = 1.0 / dk if math.isfinite(dk) else 0.0
        inv_kp = 1.0 / dkp if math.isfinite(dkp) else 0.0
        row = (-w * inv_k, -u_tr * inv_k, np.full_like(w, inv_kp))
        return row, row, tuple(-c for c in row)
    rows = []
    for f in (spec.f1, spec.f2, spec.f3):
        base = f(u_tr, w, z)
        rows.append(((f(u_tr + eps, w, z) - base) / eps, (f(u_tr, w + eps, z) - base) / eps,
                     (f(u_tr, w, z + eps) - base) / eps))
    return rows


# the Newton tolerance of step_implicit and superlu_newton_step where they are
# compared: the iteration counts compared with them are those at which both
# converge well below the states' difference, which assert_newton_agrees bounds
TIGHT = 1e-13


def reference_system(st, dt, geom, mesh, params, spec, sources=None):
    """The backward-Euler step from st on the whole field, every matrix
    assembled as one sparse matrix: (residual, jacobian), residual(x) the
    residual of the stacked state x and its max norm scaled as step_implicit
    scales it, jacobian(x) the Newton matrix at x, the full reaction
    Jacobian included."""
    t1 = st.t + dt
    ops = assemble_operators(geom, mesh, params, t1)
    nb, ns, arcs = mesh.n_bulk, mesh.n_surf, ops.surf_measures
    slots = (slice(0, ns), slice(nb, nb + ns), slice(nb + ns, None))
    m0 = (moving_bulk_measures(mesh, geom, st.t), moving_surface_measures(mesh, geom, st.t))
    base = _mass_rhs(st, dt, mesh, m0, (ops.bulk_measures, arcs), sources)
    fixed = step_matrix_reference(ops, dt, surface_advection_matrix(geom, mesh, t1)
                                  if geom.surface_slip_active else 0.0).tocsr()
    row_norm = float(np.max(abs(fixed).sum(axis=1)))

    def residual(x):
        resid = fixed @ x - base
        for at, f in zip(slots, (spec.f1, spec.f2, spec.f3)):
            resid[at] -= dt * f(*(x[at] for at in slots)) * arcs
        scale = max(1.0, row_norm * np.max(np.abs(x)), np.max(np.abs(base)))
        return resid, np.max(np.abs(resid)) / scale

    def jacobian(x):
        jac = fixed.copy()
        for unit, row in zip(np.eye(3), jacobian_rows(spec, *(x[at] for at in slots))):
            jac = jac + slot_matrix(mesh, unit, [-dt * arcs * c for c in row])
        return jac

    return residual, jacobian


def superlu_newton_step(st, dt, geom, mesh, params, spec, tol=TIGHT, sources=None):
    """The plain backward-Euler step: Newton on the whole field with every
    linear system solved exactly by SuperLU (see reference_system).  Returns
    the state one Newton update after the scaled residual first falls below
    tol, and the iteration count at which it did: a state just below tol can
    still sit more than 1e-12 from the solution (see assert_newton_agrees)."""
    residual, jacobian = reference_system(st, dt, geom, mesh, params, spec, sources)
    nb, ns = mesh.n_bulk, mesh.n_surf
    x = np.concatenate([st.u_hat, st.w_hat, st.z_hat])
    for iteration in range(26):
        resid, scaled = residual(x)
        x = x - spla.spsolve(jacobian(x).tocsc(), resid)
        if scaled < tol:
            return State(st.t + dt, x[:nb], x[nb:nb + ns], x[nb + ns:]), iteration
    raise AssertionError("reference Newton did not converge")


def assert_newton_agrees(got, ref, tol, st, dt, geom, mesh, params, spec, sources=None):
    """got, the slot Newton's state run to newton_tol = tol, and ref, the
    plain Newton's, both iterates of the backward-Euler step from st, agree
    within a bound that holds by construction.  Each state's scaled residual
    r, r s = max|F| as reference_system measures it (s its scale), is first
    asserted below the tolerance its Newton ran to, tol for got and TIGHT
    for ref, plus 16 eps for the rounding of F, so a state far from the root
    fails here.  Near the root x*, x - x* = J^{-1} F(x) up to second order
    in F, J the Newton Jacobian, so

        max|x_got - x_ref| <= 2 ||J^{-1}|| (r_got s_got + r_ref s_ref)
                              + 16 eps cond(J) max|x_ref|,

    ||.|| the max-row-sum norm and cond(J) = ||J|| ||J^{-1}||, with J at
    x_ref, dense at these meshes and inverted by LU.  The factor 2 covers
    the second-order term, and the last term the rounding of F itself, a few
    eps times ||J|| max|x| in every row."""
    residual, jacobian = reference_system(st, dt, geom, mesh, params, spec, sources)
    x, y = (np.concatenate([s_.u_hat, s_.w_hat, s_.z_hat]) for s_ in (got, ref))
    eps = np.finfo(float).eps
    (f_got, r_got), (f_ref, r_ref) = residual(x), residual(y)
    assert r_got <= tol + 16.0 * eps and r_ref <= TIGHT + 16.0 * eps
    jac = jacobian(y).toarray()
    inverse_norm = float(np.max(np.abs(sla.inv(jac)).sum(axis=1)))
    cond = float(np.max(np.abs(jac).sum(axis=1))) * inverse_norm
    forces = float(np.max(np.abs(f_got))) + float(np.max(np.abs(f_ref)))
    bound = 2.0 * inverse_norm * forces + 16.0 * eps * cond * np.max(np.abs(y))
    assert got.t == ref.t
    assert np.max(np.abs(x - y)) <= bound


def dense_capacitance_reference(system, b, coeffs):
    """x with (A0 + the exchange term of coeffs) x = b by the dense Woodbury
    update: the n_theta x n_theta circulants W_j of the slot response, the
    capacitance I + sum_j diag(c_j) W_j assembled from them and solved by LU."""
    ns = system.mesh.n_surf
    modes = system._modes(b)
    if any(c is not None for c in coeffs):
        circulants = [sla.circulant(row) for row in np.fft.irfft(
            system.response[:, _SLOT_RINGS].T, n=ns, axis=1)]
        cap = np.eye(ns) + sum(c[:, None] * w for c, w in zip(coeffs, circulants) if c is not None)
        parts = np.fft.irfft(modes[:, _SLOT_RINGS].T, n=ns, axis=1)
        rhs = sum(c * part for c, part in zip(coeffs, parts) if c is not None)
        modes = modes - system.response * np.fft.rfft(np.linalg.solve(cap, rhs))[:, None]
    return system._field(modes)


def capacitance_cases(kind, n_theta, delta_k, spread, uniform=False):
    """A Fourier solve and its exchange terms, as (solve, name, right-hand
    side, coefficients): the IMEX exchange and the mass-action Newton term,
    at a random state whose w spans a factor spread, or at a uniform state."""
    geom = preset_geometry(kind)
    mesh = build_mesh(6, n_theta, 1.0, 2.0)
    params = ModelParams(1.0, 0.7, 1.3, delta_k, 0.5)
    st = random_state(mesh, seed=n_theta)
    st.w_hat = 0.4 * (1.0 + (spread - 1.0) * np.random.default_rng(n_theta).random(n_theta))
    st.w_hat[:2] = 0.4, 0.4 * spread
    if uniform:
        st = State(0.0, np.full(mesh.n_bulk, 0.7), np.full(n_theta, 0.4), np.full(n_theta, 0.3))
    dt = min(0.05, 0.9 * cfl_bound(geom, mesh, params, st))
    system = solver._solve_for(geom, mesh, params, dt, dt, geom.surface_slip_active)
    arcs, u_tr = system.measures[1], st.u_hat[:n_theta]
    b = np.concatenate([st.u_hat, st.w_hat, st.z_hat])
    yield system, "imex", b, (dt * arcs * st.w_hat / delta_k, None, -dt * arcs / 0.5)
    yield system, "mass action", b, _reaction_terms(MassAction(params), u_tr, st.w_hat, st.z_hat,
                                                    -dt * arcs)


class TestCapacitance:
    """The matrix-free capacitance solve against the dense Woodbury solve."""

    @pytest.mark.parametrize("spread", [1.0, 10.0])
    @pytest.mark.parametrize("delta_k", [0.01, 1.0])
    @pytest.mark.parametrize("n_theta", [16, 17, 128, 256])
    @pytest.mark.parametrize("kind", ["rotation", "clockwise_wind"])
    def test_matches_dense_reference(self, kind, n_theta, delta_k, spread):
        for system, name, b, coeffs in capacitance_cases(kind, n_theta, delta_k, spread):
            ref = dense_capacitance_reference(system, b, coeffs)
            got = system.solve_slots(b, coeffs, name)[0]
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("n_theta", [16, 17, 128])
    @pytest.mark.parametrize("kind", ["rotation", "clockwise_wind"])
    def test_uniform_coefficients_take_at_most_one_iteration(self, kind, n_theta, monkeypatch):
        """Coefficients the same in every slot make the right preconditioner
        exact, with the unbinding alone (delta_K = inf) or every term."""
        counts, gmres = [], solver._gmres

        def counting(*args):
            x, iterations = gmres(*args)
            counts.append(iterations)
            return x, iterations

        monkeypatch.setattr(solver, "_gmres", counting)
        for delta_k in (math.inf, 0.01, 1.0):
            for system, name, b, coeffs in capacitance_cases(kind, n_theta, delta_k, 1.0, True):
                ref = dense_capacitance_reference(system, b, coeffs)
                got = system.solve_slots(b, coeffs, name)[0]
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name
        assert len(counts) == 6 and max(counts) <= 1

    @pytest.mark.parametrize("n_theta", [16, 17, 128])
    @pytest.mark.parametrize("kind", ["rotation", "clockwise_wind"])
    def test_reused_preconditioner_stays_exact(self, kind, n_theta):
        """A capacitance solve whose preconditioners were built for other
        coefficients and another right-hand side still solves the exact
        system, against the dense Woodbury solve: varying rows that have
        moved (the preconditioners kept), a row uniform at the build that now
        varies and a uniform row whose value has changed (both rebuilt)."""
        rng = np.random.default_rng(n_theta)
        cases = list(capacitance_cases(kind, n_theta, 0.01, 10.0))
        system, _, b, (c_tr, c_w, c_z) = cases[1]   # mass action: every row present
        mean_w = np.full(n_theta, c_w.mean())
        moved = (c_tr * (1.0 + 0.3 * rng.random(n_theta)),
                 c_w * (1.0 + 0.3 * rng.random(n_theta)), c_z)
        for first, coeffs, builds in [((c_tr, c_w, c_z), moved, 1),
                                      ((c_tr, mean_w, c_z), (c_tr, c_w, c_z), 2),
                                      ((c_tr, c_w, c_z), (c_tr, c_w, 1.5 * c_z), 2)]:
            capacitance = solver._Capacitance(system, "test")
            modes = system._modes(b)
            parts = np.fft.irfft(modes[:, _SLOT_RINGS], n=n_theta, axis=0).T
            capacitance.solve(solver._flux(first, 0.5 * parts[::-1]), first)
            xi = capacitance.solve(solver._flux(coeffs, parts), coeffs)[0]
            got = system._field(modes - system.correction(xi))
            ref = dense_capacitance_reference(system, b, coeffs)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert capacitance.builds == builds


def benchmark_start(mesh):
    """The smooth start of the benchmark's run workloads (perfbench's
    workloads.make_fields at angle 0): cosine patterns in theta, flat at
    both walls."""
    th, a = mesh.theta_centers, mesh.cell_theta
    c = np.cos(np.pi * (mesh.cell_r - 1.0))
    u = 2.0 * (1.0 + 0.2 * c * np.cos(a)
               + (0.5 - 0.5 * c) * (0.1 * np.cos(2 * a + 1.0) + 0.05 * np.cos(3 * a + 2.0)))
    return State(0.0, u, 3.0 * (1.0 + 0.2 * np.cos(2 * th + 0.5)), 1.0 + 0.2 * np.cos(th + 2.5))


class TestLeftShift:
    """The left preconditioner's shift, fitted to the power spectrum of the
    right-hand side."""

    def test_smooth_slot_data_take_at_most_four_iterations(self):
        """The breathing-cfl set-up (breathing, omega 2, delta 0.2, amplitude
        0.3; delta_K = delta_K' = 0.01; 64 x 128; CFL dt up to 0.05 with a
        record every 0.05, to t = 0.3) from the benchmark's smooth start:
        every IMEX capacitance solve takes at most 4 GMRES iterations (6 with
        the shift at the midrange of the modes)."""
        geom = build_geometry(GeometryPreset(GeometryKind.BREATHING, 1.0, 2.0, omega=2.0,
                                             delta=0.2, amplitude=0.3))
        mesh = build_mesh(64, 128, 1.0, 2.0)
        params = ModelParams(1.0, 1.0, 1.0, 0.01, 0.01)
        st, counts = benchmark_start(mesh), []
        for t_target in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
            while st.t < t_target - 1e-12:
                dt = min(0.05, 0.9 * cfl_bound(geom, mesh, params, st), t_target - st.t)
                st, info = step_imex(st, dt, geom, mesh, params, MassAction(params),
                                     check_cfl=False, return_info=True)
                counts += info["gmres"]
        assert len(counts) >= 30 and 1 <= max(counts) <= 4

    def test_zero_mode_of_the_right_preconditioner_is_refused(self):
        """A right preconditioner with a zero mode is refused, with no
        RuntimeWarning (a warning fails the test), for uniform and varying
        coefficients: a response of -1/2 in mode 0 against a mean of 2."""
        geom, mesh, params, _ = make(n=6)
        system = solver._FourierSolve(assemble_operators(geom, mesh, params, 0.01), 0.01, mesh)
        response = system.response.copy()
        response[0, _SLOT_RINGS[0]] = -0.5
        system.__dict__["response"] = response
        r = np.random.default_rng(1).random(mesh.n_theta)
        for c in (np.full(mesh.n_theta, 2.0), np.tile([1.0, 3.0], mesh.n_theta // 2)):
            with pytest.raises(LinearSolveFailure, match="capacitance preconditioner singular"):
                solver._Capacitance(system, "test").solve(r, (c, None, None))


class TestFourierSolve:
    """The Fourier IMEX step against SuperLU on the same assembled matrix."""

    @pytest.mark.parametrize("n_theta", [16, 17])
    @pytest.mark.parametrize("reaction", sorted(REACTIONS))
    @pytest.mark.parametrize("kind", sorted(PRESETS))
    def test_matches_superlu(self, kind, reaction, n_theta):
        geom = preset_geometry(kind)
        mesh = build_mesh(6, n_theta, 1.0, 2.0)
        params = ModelParams(1.0, 0.7, 1.3, *REACTIONS[reaction])
        spec = reaction_spec(reaction, params)
        # fixed dt through the stepper that keeps its set-up between steps
        stepper = ImexStepper(geom, mesh, params, spec, 0.02)
        st = random_state(mesh, seed=4)
        for _ in range(3):
            ref = superlu_step(st, 0.02, geom, mesh, params, spec)
            st = stepper.step(st)
            assert_same_state(st, ref)
        # CFL-adaptive dt through step_imex
        for _ in range(3):
            dt = min(0.05, 0.9 * cfl_bound(geom, mesh, params, st))
            ref = superlu_step(st, dt, geom, mesh, params, spec)
            st = step_imex(st, dt, geom, mesh, params, spec)
            assert_same_state(st, ref)

    @settings(max_examples=40)
    @given(kind=st_.sampled_from(sorted(PRESETS)), n_r=st_.integers(4, 9),
           n_theta=st_.integers(8, 21), seed=st_.integers(0, 2 ** 16),
           dt=st_.floats(1e-3, 0.2), delta=st_.tuples(*[st_.floats(0.05, 5.0)] * 5))
    def test_one_step_agrees_and_conserves(self, kind, n_r, n_theta, seed, dt, delta):
        geom = preset_geometry(kind)
        mesh = build_mesh(n_r, n_theta, 1.0, 2.0)
        params = ModelParams(*delta)
        spec = MassAction(params)
        st0 = random_state(mesh, seed=seed, base=0.2, spread=2.0)
        dt = min(dt, 0.9 * cfl_bound(geom, mesh, params, st0))
        st1 = step_imex(st0, dt, geom, mesh, params, spec)
        assert_same_state(st1, superlu_step(st0, dt, geom, mesh, params, spec))
        # one backward-Euler step of the same size, from the same state, within
        # the bound of both states' residuals
        st2 = step_implicit(st0, dt, geom, mesh, params, spec, newton_tol=TIGHT / 100)
        assert_newton_agrees(st2, superlu_newton_step(st0, dt, geom, mesh, params, spec)[0],
                             TIGHT / 100, st0, dt, geom, mesh, params, spec)
        for st in (st1, st2):
            for before, after in zip(conserved_masses(st0, geom, mesh),
                                     conserved_masses(st, geom, mesh)):
                assert abs(after - before) <= 1e-12 * (1 + abs(before))
            assert min(st.u_hat.min(), st.w_hat.min(), st.z_hat.min()) >= -1e-12

    def test_backward_error_check_is_live(self, monkeypatch):
        """A perturbed Fourier solve (its inverse FFT back to the stacked
        vector), or a perturbed stencil, trips the check."""
        for broken in ("_field", "apply"):
            original = getattr(solver._FourierSolve, broken)

            def perturbed(self, arg, original=original):
                x = original(self, arg)
                x[len(x) // 2] += 1e-6 * np.max(np.abs(x))
                return x

            monkeypatch.setattr(solver._FourierSolve, broken, perturbed)
            geom, mesh, params, spec = make("rotation", omega=1.0, delta=0.5)
            st = random_state(mesh, seed=1)
            with pytest.raises(LinearSolveFailure):
                ImexStepper(geom, mesh, params, spec, 0.01).step(st)
            with pytest.raises(LinearSolveFailure, match="Newton step backward error"):
                step_implicit(st, 0.01, geom, mesh, params, spec)
            geom, mesh, params, spec = make("breathing", amplitude=0.15, omega=1.0)
            with pytest.raises(LinearSolveFailure):
                step_imex(st, 0.01, geom, mesh, params, spec)
            with pytest.raises(LinearSolveFailure, match="Newton step backward error"):
                step_implicit(st, 0.01, geom, mesh, params, spec)
            monkeypatch.undo()

    def test_nan_in_the_solved_field_fails_the_check(self, monkeypatch):
        """A NaN in the field a Fourier solve returns fails the backward-error
        check of the IMEX step and of Newton's full solve."""
        field = solver._FourierSolve._field

        def spoiled(self, modes):
            x = field(self, modes)
            x[len(x) // 2] = math.nan
            return x

        monkeypatch.setattr(solver._FourierSolve, "_field", spoiled)
        for kind in ("rotation", "breathing"):
            geom = preset_geometry(kind)
            mesh = build_mesh(6, 12, 1.0, 2.0)
            params = ModelParams(1.0, 0.7, 1.3, 1.0, 0.5)
            st = random_state(mesh, seed=1)
            with pytest.raises(LinearSolveFailure, match="IMEX step backward error nan"):
                ImexStepper(geom, mesh, params, MassAction(params), 0.01).step(st)
            with pytest.raises(LinearSolveFailure, match="IMEX step backward error nan"):
                step_imex(st, 0.01, geom, mesh, params, MassAction(params))
            with pytest.raises(LinearSolveFailure, match="Newton step backward error nan"):
                step_implicit(st, 0.01, geom, mesh, params, MassAction(params))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_no_binding_needs_no_dense_capacitance(self, name, monkeypatch):
        """No step builds an n_theta x n_theta capacitance: with
        scipy.linalg.circulant and every np.linalg solve or inverse of side
        n_theta or more refusing, both steppers step and agree with SuperLU,
        with delta_K = inf (the unbinding alone, the same in every slot),
        with binding, and with a custom exchange."""
        mesh = build_mesh(6, 16, 1.0, 2.0)

        def small_only(original):
            def solve(a, *args, **kwargs):
                if np.shape(a)[-1] >= mesh.n_theta:
                    pytest.fail(f"dense solve of side {np.shape(a)[-1]} in a step")
                return original(a, *args, **kwargs)
            return solve

        monkeypatch.setattr(sla, "circulant", lambda *args: pytest.fail("circulant built"))
        for attr in ("solve", "inv"):
            monkeypatch.setattr(np.linalg, attr, small_only(getattr(np.linalg, attr)))
        geom = preset_geometry(name)
        st = random_state(mesh, seed=3)
        for delta_k in (math.inf, 1.0):
            params = ModelParams(1.0, 0.7, 1.3, delta_k, 0.7)
            for spec in (MassAction(params), reaction_spec("saturating_binding", params)):
                assert_same_state(step_imex(st, 0.02, geom, mesh, params, spec),
                                  superlu_step(st, 0.02, geom, mesh, params, spec))
                assert_newton_agrees(step_implicit(st, 0.02, geom, mesh, params, spec,
                                                   newton_tol=TIGHT),
                                     superlu_newton_step(st, 0.02, geom, mesh, params, spec)[0],
                                     TIGHT, st, 0.02, geom, mesh, params, spec)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_no_sparse_matrix_in_a_step(self, name, monkeypatch):
        """Every stepper steps with scipy.sparse's constructors refusing."""
        def refuse(*args, **kwargs):
            raise AssertionError("sparse matrix built in a step")

        for attr in ("csr_matrix", "coo_matrix", "diags"):
            monkeypatch.setattr(sp, attr, refuse)
        geom = preset_geometry(name)
        mesh = build_mesh(6, 12, 1.0, 2.0)
        params = ModelParams(1.0, 0.7, 1.3, 1.0, 0.5)
        st = random_state(mesh, seed=2)
        for spec in (MassAction(params), reaction_spec("saturating_binding", params)):
            stepper = ImexStepper(geom, mesh, params, spec, 0.01)
            for _ in range(2):
                st = stepper.step(st)
            st = step_imex(st, 0.005, geom, mesh, params, spec)
            st = step_implicit(st, 0.01, geom, mesh, params, spec)
        assert st.t == pytest.approx(0.07)

    def test_no_module_loads_scipy_sparse(self):
        """Importing every bulksurf module, in a fresh interpreter, leaves
        scipy.sparse unloaded."""
        code = ("import importlib, pkgutil, sys, bulksurf\n"
                "for m in pkgutil.iter_modules(bulksurf.__path__):\n"
                "    importlib.import_module('bulksurf.' + m.name)\n"
                "print(sorted(m for m in sys.modules if m.startswith('bulksurf.')))\n"
                "print('scipy.sparse' in sys.modules)")
        package_root = os.path.dirname(os.path.dirname(solver.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout.splitlines()
        assert "'bulksurf.solver'" in out[0] and "'bulksurf.diagnostics'" in out[0]
        assert out[1] == "False"


def newest_solve():
    """The Fourier solve of the most recent step."""
    return next(iter(solver._kept.values()))[2]


class TestNewtonFourier:
    """Newton's linear systems by the Fourier solve against SuperLU on the
    same assembled Newton matrix."""

    @pytest.mark.parametrize("n_theta", [16, 17])
    @pytest.mark.parametrize("reaction", sorted(REACTIONS))
    @pytest.mark.parametrize("kind", sorted(PRESETS))
    def test_matches_superlu(self, kind, reaction, n_theta):
        """The same state as the SuperLU Newton, in its iterations or one
        more; in one fewer only with a full residual below TIGHT by the
        assembled matrix, when the reference's iterate straddles TIGHT (on
        breathing-saturating_binding-17 the reference's second iterate has
        a full residual of 1.06e-13, the slot Newton's 9.9e-14)."""
        geom = preset_geometry(kind)
        mesh = build_mesh(6, n_theta, 1.0, 2.0)
        params = ModelParams(1.0, 0.7, 1.3, *REACTIONS[reaction])
        spec = reaction_spec(reaction, params)

        def step(st, dt):
            ref, ref_iters = superlu_newton_step(st, dt, geom, mesh, params, spec)
            got, info = step_implicit(st, dt, geom, mesh, params, spec, newton_tol=TIGHT / 100,
                                      return_info=True)
            assert_newton_agrees(got, ref, TIGHT / 100, st, dt, geom, mesh, params, spec)
            assert ref_iters >= 1 and max(1, ref_iters - 1) <= info["iterations"] <= ref_iters + 1
            if info["iterations"] < ref_iters:
                residual = reference_system(st, dt, geom, mesh, params, spec)[0]
                assert residual(np.concatenate([got.u_hat, got.w_hat, got.z_hat]))[1] < TIGHT
            return got

        # fixed-dt steps share the kept Fourier solve of their (t + dt, dt) key
        st = random_state(mesh, seed=4)
        for _ in range(3):
            st = step(st, 0.02)
        for _ in range(3):
            dt = min(0.05, 0.9 * cfl_bound(geom, mesh, params, st))
            st = step(st, dt)
            assert newest_solve().dt == dt


class TestSlotNewton:
    """Newton on the surface slots (the bulk eliminated) against the plain
    Newton on the whole field, on the paths test_matches_superlu leaves
    implicit: injected sources, complex responses."""

    @pytest.mark.parametrize("kind", ["fixed", "rotation"])
    def test_sources_match_superlu(self, kind):
        geom = preset_geometry(kind)
        mesh = build_mesh(6, 16, 1.0, 2.0)
        params = ModelParams(**solver.MMS_DEFAULT_PARAMS)
        spec = MassAction(params)
        sources = solver.MMS_CASES["sinusoidal"](params, 1.0, 2.0).sources
        st = random_state(mesh, seed=6)
        for _ in range(3):
            ref, ref_iters = superlu_newton_step(st, 0.02, geom, mesh, params, spec,
                                                 sources=sources)
            start = st
            st, info = step_implicit(st, 0.02, geom, mesh, params, spec, sources=sources,
                                     newton_tol=TIGHT / 100, return_info=True)
            assert_newton_agrees(st, ref, TIGHT / 100, start, 0.02, geom, mesh, params, spec,
                                 sources)
            assert 1 <= ref_iters <= info["iterations"] <= ref_iters + 1

    def test_implicit_manufactured_solutions(self):
        errs = manufactured_solution_error("constant", 8, 16, 0.01, 0.1, stepper="implicit")
        assert max(errs) <= 1e-10
        e1 = manufactured_solution_error("sinusoidal", 16, 32, 4e-3, 0.04, stepper="implicit")
        e2 = manufactured_solution_error("sinusoidal", 32, 64, 1e-3, 0.04, stepper="implicit")
        for a, b in zip(e1, e2):
            assert a / b >= 3.6

    @pytest.mark.parametrize("kind,reaction,dtype", [
        ("rotation", "saturating_binding", float), ("surface_wind", "mass_action", complex),
        ("clockwise_wind", "saturating_binding", complex)])
    def test_slot_columns_and_responses(self, kind, reaction, dtype, monkeypatch):
        """Newton iterates on one exchange flux per slot, for mass action and
        a custom exchange; the wind's upwind step matrix gives a complex slot
        response."""
        shapes, capacitance = [], solver._Capacitance.solve

        def recording(self, r, coeffs, rtol=None):
            shapes.append((r.shape, self.system.response.dtype))
            return capacitance(self, r, coeffs, rtol)

        monkeypatch.setattr(solver._Capacitance, "solve", recording)
        geom = preset_geometry(kind)
        mesh = build_mesh(6, 17, 1.0, 2.0)
        params = ModelParams(1.0, 0.7, 1.3, 1.0, 1.0)
        spec = reaction_spec(reaction, params)
        st = random_state(mesh, seed=8)
        ref, ref_iters = superlu_newton_step(st, 0.02, geom, mesh, params, spec)
        got, info = step_implicit(st, 0.02, geom, mesh, params, spec, newton_tol=TIGHT / 100,
                                  return_info=True)
        assert_newton_agrees(got, ref, TIGHT / 100, st, 0.02, geom, mesh, params, spec)
        assert ref_iters <= info["iterations"] <= ref_iters + 1
        assert info["iterations"] == len(shapes) == len(info["gmres"])
        assert set(shapes) == {((17,), np.dtype(dtype))}

    def test_failed_full_check_takes_another_iteration(self, monkeypatch):
        """A rebuilt state whose full residual fails is not returned: the
        iteration goes on, and the state it returns agrees with the plain
        Newton, one iteration later."""
        geom, mesh, params, spec = make("rotation", omega=1.0, delta=0.5)
        st = random_state(mesh, seed=9)
        ref, ref_iters = superlu_newton_step(st, 0.02, geom, mesh, params, spec)
        calls, field = [], solver._FourierSolve._field

        def spoiled(self, modes):   # call 1 is y, call 2 the first rebuilt state
            x = field(self, modes)
            calls.append(1)
            if len(calls) == 2:
                x[0] += 1e-6
            return x

        monkeypatch.setattr(solver._FourierSolve, "_field", spoiled)
        got, info = step_implicit(st, 0.02, geom, mesh, params, spec, newton_tol=TIGHT / 100,
                                  return_info=True)
        assert_newton_agrees(got, ref, TIGHT / 100, st, 0.02, geom, mesh, params, spec)
        assert info["iterations"] == ref_iters + 1 and len(calls) == 3

    @pytest.mark.parametrize("reaction,cap", [("mass_action", 12), ("saturating_binding", 12)])
    def test_capacitance_failure_names_its_iterations(self, reaction, cap, monkeypatch):
        """A capacitance GMRES that fails inside Newton raises, naming the
        forcing term it was asked for and its cap of one iteration per slot
        (n_theta = 12)."""
        geom, mesh, params, _ = make(n=6)
        spec = reaction_spec(reaction, params)
        asked, forcing = [], solver._forcing

        def recorded(*args):
            asked.append(forcing(*args))
            return asked[-1]

        monkeypatch.setattr(solver, "_forcing", recorded)
        monkeypatch.setattr(solver, "_gmres", lambda apply, rhs, target, cap: (None, cap))
        with pytest.raises(LinearSolveFailure) as exc:
            step_implicit(random_state(mesh, seed=5), 0.01, geom, mesh, params, spec)
        assert len(asked) == 1 and asked[0] != solver._CAPACITANCE_RTOL
        assert str(exc.value) == (f"Newton step: capacitance GMRES did not reach relative "
                                  f"residual {asked[0]:g} in {cap} iterations")

    def test_reaction_not_of_exchange_form_is_refused(self, tmp_path, monkeypatch, capsys):
        """A reaction whose rows are not one exchange flux (receptors turn
        over, complexes decay apart from the exchange) is refused by both
        steppers before any solve, and `bulksurf run` exits 1 naming
        model.nonlinearity."""
        def recycling(params):
            return CustomNonlinearity(lambda u, w, z: z - u * w,
                                      lambda u, w, z: z - u * w + 0.5 * (1.0 - w),
                                      lambda u, w, z: u * w - 1.2 * z,
                                      alpha=2.0, beta=1.0, name="recycling")

        monkeypatch.setitem(CUSTOM_NONLINEARITIES, "recycling", recycling)
        geom, mesh, params, _ = make(n=6)
        spec = recycling(params)
        st = random_state(mesh, seed=5)
        monkeypatch.setattr(solver, "_solve_for", lambda *args, **kw: pytest.fail("solve built"))
        for step in (step_imex, step_implicit):
            with pytest.raises(ValidationError, match="'recycling' differs at t = 0") as exc:
                step(st, 0.01, geom, mesh, params, spec)
            assert exc.value.key == "model.nonlinearity"
        monkeypatch.undo()
        monkeypatch.setitem(CUSTOM_NONLINEARITIES, "recycling", recycling)
        for stepper in ("imex", "implicit"):
            cfg = tmp_path / f"{stepper}.cfg"
            cfg.write_text(f"model.nonlinearity = custom:recycling\ntime.stepper = {stepper}\n"
                           "mesh.n_r = 4\nmesh.n_theta = 8\ntime.t_final = 0.02\n"
                           "time.output_interval = 0.01\noutput.snapshots = false\n"
                           f"output.directory = {tmp_path}/out\n")
            assert cli.main(["run", str(cfg)]) == 1
            assert capsys.readouterr().err.startswith(
                "config error (ValidationError): model.nonlinearity: the solver takes one "
                "exchange flux")

    def test_divergence_carries_each_slot_residual(self):
        geom, mesh, params, spec = make()
        with pytest.raises(NewtonDivergence) as exc:
            step_implicit(random_state(mesh, seed=2), 0.1, geom, mesh, params, spec,
                          newton_tol=1e-30, max_newton=3)
        history = exc.value.residual_history
        assert len(history) == 3 and all(0.0 <= h < math.inf for h in history)
        assert history[0] > history[1] > history[2]

    def test_breathing_fast_bulk_diffusion_holds_m2(self):
        """Implicit steps on breathing with delta_Omega = 1e8 (64 x 128, dt
        0.01 to t = 0.2): one slot flux feeds every row, so m2 holds to
        roundoff (it drifted 4.1e-2 with Newton on the whole field)."""
        cfg = parse_config("geometry.kind = breathing\ngeometry.omega = 1\n"
                           "geometry.amplitude = 0.3\nmodel.delta_omega = 1e8\n"
                           "ic.profile = perturbed_equilibrium\n")
        geom = build_geometry(cfg.geometry)
        mesh = build_mesh(64, 128, 1.0, 2.0)
        params, spec = cfg.model.params, cfg.model.make_nonlinearity()
        st = solver.initial_state(cfg, geom, mesh, params)
        before = conserved_masses(st, geom, mesh)
        for _ in range(20):
            st = step_implicit(st, 0.01, geom, mesh, params, spec)
        after = conserved_masses(st, geom, mesh)
        assert abs(after[1] - before[1]) <= 1e-12 * before[1]


class TestInexactNewton:
    """Newton's capacitance solves stop at their forcing terms: the steps
    still pass the full-residual acceptance and do less GMRES work."""

    @pytest.mark.parametrize("reaction", sorted(REACTIONS))
    @pytest.mark.parametrize("kind", sorted(PRESETS))
    def test_default_tolerance_meets_the_full_residual(self, kind, reaction):
        """At the default newton_tol (1e-11) every step's state has a full
        residual, by the assembled matrix and the three reaction rows, below
        newton_tol, and lies within 1e-9 relative of the tight reference (the
        largest seen on these cases is 5.2e-11)."""
        geom = preset_geometry(kind)
        mesh = build_mesh(6, 16, 1.0, 2.0)
        params = ModelParams(1.0, 0.7, 1.3, *REACTIONS[reaction])
        spec = reaction_spec(reaction, params)
        st = random_state(mesh, seed=4)
        for _ in range(3):
            ref = superlu_newton_step(st, 0.02, geom, mesh, params, spec)[0]
            got, info = step_implicit(st, 0.02, geom, mesh, params, spec, return_info=True)
            residual = reference_system(st, 0.02, geom, mesh, params, spec)[0]
            assert residual(np.concatenate([got.u_hat, got.w_hat, got.z_hat]))[1] < 1e-11
            assert_same_state(got, ref, rtol=1e-9)
            assert len(info["gmres"]) == info["iterations"]
            st = got

    @staticmethod
    def stiff_steps():
        """Stiff binding (delta_K = delta_K' = 0.01) on the fixed preset at
        16 x 32, ten steps of dt 0.01 from a smooth state: the final state
        and the info of each step."""
        geom, mesh, params, spec = make("fixed", n=16, dk=0.01, dkp=0.01)
        th, psi = mesh.theta_centers, np.cos(np.pi * (mesh.cell_r - 1.0))
        st = State(0.0, 2.0 * (1.0 + 0.2 * psi * np.cos(mesh.cell_theta)),
                   3.0 * (1.0 + 0.2 * np.cos(2.0 * th + 0.5)), 1.0 + 0.2 * np.cos(th + 2.5))
        infos = []
        for _ in range(10):
            st, info = step_implicit(st, 0.01, geom, mesh, params, spec, return_info=True)
            infos.append(info)
        return st, infos

    def test_stiff_binding_takes_fewer_gmres_iterations(self, monkeypatch):
        """The stiff steps: the forcing terms take at most 60 % of the GMRES
        iterations of the same steps with every capacitance solve at
        _CAPACITANCE_RTOL (about 40 % here), with the same Newton solves and
        the same states to 1e-12."""
        got, infos = self.stiff_steps()
        monkeypatch.setattr(solver, "_FORCING_MAX", solver._CAPACITANCE_RTOL)
        tight, tight_infos = self.stiff_steps()
        newton = [info["iterations"] for info in infos]
        gmres = [n for info in infos for n in info["gmres"]]
        tight_gmres = [n for info in tight_infos for n in info["gmres"]]
        assert newton == [info["iterations"] for info in tight_infos] and len(gmres) == sum(newton)
        assert set(tight_gmres) != {0} and sum(gmres) <= 0.6 * sum(tight_gmres)
        assert_same_state(got, tight)

    def test_one_preconditioner_build_per_step(self, monkeypatch):
        """The stiff steps build their capacitance preconditioners once per
        step, at its first update, and keep them for the others; against the
        same steps with a build at every update, the Newton solves are the
        same, the states the same to 1e-12 and the GMRES iterations at most
        two more (43 against 41: the first step, which starts farthest from
        its solution, takes 2 and 3 iterations in its last two updates
        instead of 1 and 2; 51 against 51 at 64 x 128)."""
        got, infos = self.stiff_steps()
        solve = solver._Capacitance.solve

        def rebuilding(self, *args):
            self.at = None
            return solve(self, *args)

        monkeypatch.setattr(solver._Capacitance, "solve", rebuilding)
        fresh, fresh_infos = self.stiff_steps()
        newton = [info["iterations"] for info in infos]
        assert [info["setups"] for info in infos] == [1] * 10 and sum(newton) > 10
        assert [info["setups"] for info in fresh_infos] == newton
        assert newton == [info["iterations"] for info in fresh_infos]
        gmres, fresh_gmres = (sum(sum(info["gmres"]) for info in run)
                              for run in (infos, fresh_infos))
        assert gmres <= fresh_gmres + 2
        assert_same_state(got, fresh)


@pytest.mark.parametrize("stepper", ["imex", "implicit"])
def test_fast_bulk_diffusion_holds_m1(stepper):
    """Fixed preset, 64 x 128, dt 0.01 to t = 0.2, a record every step, from
    a perturbed equilibrium: both steppers hold m1 and m2 to 1e-12 for
    delta_Omega up to 1e12, by the mode-0 mass correction of the Fourier
    solve (without it m1 drifted 8.0e-9 at 1e6 and 2.7e-4 at 1e12)."""
    for delta_omega in (1.0, 1e4, 1e6, 1e8, 1e10, 1e12):
        cfg = parse_config(f"model.delta_omega = {delta_omega}\ntime.t_final = 0.2\n"
                           f"time.output_interval = 0.01\ntime.stepper = {stepper}\n"
                           "ic.profile = perturbed_equilibrium\noutput.snapshots = false\n")
        records = solver.run(cfg).records
        assert len(records) == 21
        assert max(max(solver.relative_drift(records[0], r)) for r in records) <= 1e-12, delta_omega


def check_one_solve_per_key(kind, stepper, cfl, monkeypatch):
    """solver.run builds one Fourier solve each time the (t + dt, dt) key
    changes, t dropped where the step matrix does not depend on it, and its
    final state equals the same steps with nothing kept between them."""
    text = "\n".join([f"geometry.kind = {kind}", "geometry.omega = 1.0",
                      "geometry.wind_speed = 0.4", "geometry.delta = 0.5",
                      "geometry.amplitude = 0.1", "mesh.n_r = 6", "mesh.n_theta = 12",
                      "model.delta_k = 0.05", f"time.stepper = {stepper}",
                      f"time.cfl = {cfl}", "time.t_final = 0.06", "time.dt = 0.01",
                      "time.output_interval = 0.02", "ic.profile = perturbed_equilibrium",
                      "ic.amplitude = 0.3"])
    cfg = parse_config(text)
    builds, steps = [], []
    init, step = solver._FourierSolve.__init__, getattr(solver, f"step_{stepper}")
    monkeypatch.setattr(solver._FourierSolve, "__init__",
                        lambda self, *args: builds.append(args[1]) or init(self, *args))
    monkeypatch.setattr(solver, f"step_{stepper}", lambda state, dt, *args, **kw: steps.append(
        (state.t, dt)) or step(state, dt, *args, **kw))
    final = solver.run(cfg).final_state
    monkeypatch.undo()
    geom = build_geometry(cfg.geometry)
    moving = not geom.metric_is_static or (stepper == "implicit" and geom.surface_slip_active)
    assert len(steps) >= 6
    keys = [(t + dt if moving else None, dt) for t, dt in steps]
    assert len(builds) == 1 + sum(a != b for a, b in zip(keys, keys[1:]))
    # the same steps, each building its own solve
    mesh = build_mesh(6, 12, 1.0, 2.0)
    params, spec = cfg.model.params, cfg.model.make_nonlinearity()
    st = solver.initial_state(cfg, geom, mesh, params)
    for t, dt in steps:
        solver._kept.clear()
        st.t = t
        st = step(st, dt, geom, mesh, params, spec)
    for a, b in ((final.u_hat, st.u_hat), (final.w_hat, st.w_hat), (final.z_hat, st.z_hat)):
        assert np.array_equal(a, b)


class TestStepImplicit:
    def test_matches_imex_contracts_on_equilibrium(self):
        geom, mesh, params, spec = make()
        st = State(0.0, np.ones(mesh.n_bulk), np.ones(mesh.n_surf), np.ones(mesh.n_surf))
        out, info = step_implicit(st, 10.0, geom, mesh, params, spec, return_info=True)
        assert info["iterations"] <= 1  # exact root from the start
        assert np.max(np.abs(out.u_hat - 1.0)) < 1e-12

    def test_conservation(self):
        geom, mesh, params, spec = make("breathing", amplitude=0.15, omega=1.0, delta=0.2)
        st = random_state(mesh, seed=21)
        m1a, m2a = conserved_masses(st, geom, mesh)
        for _ in range(20):
            st = step_implicit(st, 0.05, geom, mesh, params, spec)
        m1b, m2b = conserved_masses(st, geom, mesh)
        assert abs(m1b - m1a) <= 1e-10 * (1 + abs(m1a))
        assert abs(m2b - m2a) <= 1e-10 * (1 + abs(m2a))

    def test_dt_halving_first_order_vs_oracle(self):
        # well-mixed bulk, so the homogeneous reduction is exact in space
        preset = GeometryPreset(GeometryKind.FIXED, 1.0, 2.0)
        geom = build_geometry(preset)
        mesh = build_mesh(8, 16, 1.0, 2.0)
        params = ModelParams(1e6, 1.0, 1.0, 1.0, 1.0)
        spec = MassAction(params)
        area, length = 3 * math.pi, 2 * math.pi

        def rhs(t, y):
            r = y[2] - y[0] * y[1]
            return [r * length / area, r, -r]

        ref = solve_ivp(rhs, [0, 1.0], [2.0, 1.0, 0.0], rtol=1e-12, atol=1e-14).y[:, -1]
        errs = []
        dts = [0.2, 0.1, 0.05]
        for dt in dts:
            st = State(0.0, np.full(mesh.n_bulk, 2.0), np.ones(mesh.n_surf),
                       np.zeros(mesh.n_surf))
            for _ in range(round(1.0 / dt)):
                st = step_implicit(st, dt, geom, mesh, params, spec)
            got = (integrate_bulk(mesh, geom, st.t, st.u_hat) / area,
                   integrate_surface(mesh, geom, st.t, st.w_hat) / length,
                   integrate_surface(mesh, geom, st.t, st.z_hat) / length)
            errs.append(max(abs(g - o) for g, o in zip(got, ref)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 0.9

    @pytest.mark.parametrize("kind", ["fixed", "rotation", "surface_wind"])
    def test_static_metric_assembles_once(self, kind, monkeypatch):
        """One Fourier solve per change of dt on a static metric; per step
        where the Newton matrix holds the surface_wind advection."""
        for stepper, cfl in itertools.product(("imex", "implicit"), ("false", "true")):
            check_one_solve_per_key(kind, stepper, cfl, monkeypatch)

    def test_moving_metric_builds_one_solve_per_step(self, monkeypatch):
        for stepper, cfl in itertools.product(("imex", "implicit"), ("false", "true")):
            check_one_solve_per_key("breathing", stepper, cfl, monkeypatch)

    def test_newton_divergence_surfaces(self):
        geom, mesh, params, spec = make()
        st = random_state(mesh, seed=2)
        with pytest.raises(NewtonDivergence) as exc:
            step_implicit(st, 0.1, geom, mesh, params, spec, newton_tol=1e-30, max_newton=2)
        assert len(exc.value.residual_history) >= 1


class TestComparisonPrinciples:
    def test_surface_nonpositive_source_stays_nonpositive(self):
        # pure surface equation, f <= 0 and y0 <= 0 keep y <= 0
        geom, mesh, params, _ = make("surface_wind", wind_speed=0.4, delta=0.2)
        ops0 = assemble_operators(geom, mesh, params, 0.0)
        rng = np.random.default_rng(8)
        y = -rng.random(mesh.n_surf)
        src = -0.3 * rng.random(mesh.n_surf)
        dt = 0.01
        hi = -np.inf
        for k in range(2000):
            t1 = (k + 1) * dt
            ms = moving_surface_measures(mesh, geom, t1)
            a = sp.diags(ms) - dt * stiffness(assemble_operators(geom, mesh, params, t1))[1]
            b = ms * y + dt * surface_advection(geom, k * dt, y) + dt * src * ms
            y = spla.spsolve(a.tocsc(), b)
            hi = max(hi, float(np.max(y)))
        assert hi <= 1e-12

    def test_bulk_nonpositive_data_stays_nonpositive(self):
        # bulk equation with f <= 0 and boundary inflow g <= 0
        geom, mesh, params, _ = make()
        ops = assemble_operators(geom, mesh, params, 0.0)
        rng = np.random.default_rng(12)
        u = -rng.random(mesh.n_bulk)
        g = -0.5 * rng.random(mesh.n_surf)
        dt = 0.02
        mb = ops.bulk_measures
        a = (sp.diags(mb) - dt * stiffness(ops)[0]).tocsc()
        lu = spla.splu(a)
        hi = -np.inf
        for _ in range(500):
            b = mb * u
            b[:mesh.n_surf] += dt * g * ops.surf_measures
            u = lu.solve(b)
            hi = max(hi, float(np.max(u)))
        assert hi <= 1e-12


class TestFrameInvariance:
    def test_rotation_matches_fixed_trajectories(self):
        """A rigid rotation of the annulus, decaying (delta 0.5) or steady
        (delta 0), leaves the reference frame as it is: for both steppers every
        record and the final u are the same doubles as on the fixed annulus."""
        for stepper in ("imex", "implicit"):
            base = ("mesh.n_r = 16\nmesh.n_theta = 32\nic.profile = perturbed_equilibrium\n"
                    f"time.t_final = 2\ntime.stepper = {stepper}\noutput.snapshots = false\n")
            fixed, *rotations = [solver.run(parse_config(base + kind)) for kind in (
                "geometry.kind = fixed\n",
                "geometry.kind = rotation\ngeometry.omega = 1\ngeometry.delta = 0.5\n",
                "geometry.kind = rotation\ngeometry.omega = 5\n")]
            want = np.array([dataclasses.astuple(rec) for rec in fixed.records])
            assert want.shape == (21, 16)
            for rotated in rotations:
                got = np.array([dataclasses.astuple(rec) for rec in rotated.records])
                assert got.tobytes() == want.tobytes()
                assert rotated.final_state.u_hat.tobytes() == fixed.final_state.u_hat.tobytes()


class TestManufacturedSolutions:
    def test_constant_case_exact(self):
        errs = manufactured_solution_error("constant", 8, 16, 0.01, 0.1)
        assert max(errs) <= 1e-10

    def test_sinusoidal_second_order_fixed(self):
        e1 = manufactured_solution_error("sinusoidal", 16, 32, 4e-3, 0.04)
        e2 = manufactured_solution_error("sinusoidal", 32, 64, 1e-3, 0.04)
        for a, b in zip(e1, e2):
            assert a / b >= 3.6  # order about 2 per doubling

    def test_rotation_matches_fixed_errors(self):
        pr = GeometryPreset(GeometryKind.ROTATION, 1.0, 2.0, omega=1.0)
        ef = manufactured_solution_error("sinusoidal", 16, 32, 4e-3, 0.04)
        er = manufactured_solution_error("sinusoidal", 16, 32, 4e-3, 0.04, preset=pr)
        for a, b in zip(ef, er):
            assert a == pytest.approx(b, rel=1e-10)

    def test_unknown_case(self):
        with pytest.raises(UnknownCase):
            manufactured_solution_error("nope", 8, 16, 0.01, 0.1)


class TestBreathingAnalyticSolution:
    """Moving-domain verification of the breathing path, which the
    registered manufactured cases do not cover.

    Exact fields: u*(t, x) = (2 - rho)^2 in physical coordinates (flat at the
    fixed outer wall, so the no-flux condition is exact) and w* = z* = 1 on
    the shrinking/stretching circle; reaction disabled.  Every source term is
    closed form: the material derivative of u* is -2 (2 - rho) V_p . e_rho,
    the dilation terms use the analytic divergences, the polar Laplacian of
    (2 - rho)^2 is 4 - 4/rho, and the exchange flux correction equals the
    exact inward normal derivative 2 delta_Omega (2 - R(t)).
    """

    PRESET = GeometryPreset(GeometryKind.BREATHING, 1.0, 2.0, amplitude=0.2,
                            omega=1.0, delta=0.3)

    def _run_level(self, n, dt, t_final=0.5):
        geom = build_geometry(self.PRESET)
        params = ModelParams(0.7, 0.9, 1.1, math.inf, math.inf)
        spec = MassAction(params)

        def exact_u(t, rho):
            return (2.0 - rho) ** 2

        def src_u(t, r, th):
            rho = geom.radius_map(t, np.asarray(r, dtype=float))
            rad = float(geom.inner_radius(t))
            v_p = geom.inner_radius_rate(t) * (2.0 - rho) / (2.0 - rad)
            material = -2.0 * (2.0 - rho) * v_p
            dilation = exact_u(t, rho) * geom.div_vp_bulk(t, rho)
            laplacian = 4.0 - 4.0 / rho
            return material + dilation - params.delta_omega * laplacian

        def robin(t, th):
            rad = float(geom.inner_radius(t))
            return np.full_like(np.asarray(th, dtype=float),
                                params.delta_omega * 2.0 * (2.0 - rad))

        def src_surface(t, th):
            return np.full_like(np.asarray(th, dtype=float), geom.div_vp_surface(t))

        sources = Sources(bulk=src_u, surface_w=src_surface, surface_z=src_surface,
                          robin=robin)
        mesh = build_mesh(n, 2 * n, 1.0, 2.0)
        rho0 = geom.radius_map(0.0, mesh.cell_r)
        st = State(0.0, exact_u(0.0, rho0), np.ones(mesh.n_surf), np.ones(mesh.n_surf))
        for _ in range(round(t_final / dt)):
            st = step_imex(st, dt, geom, mesh, params, spec, sources=sources,
                           check_cfl=False)
        from bulksurf.mesh import moving_bulk_measures
        rho_t = geom.radius_map(t_final, mesh.cell_r)
        mb = moving_bulk_measures(mesh, geom, t_final)
        err_u = math.sqrt(float(np.dot((st.u_hat - exact_u(t_final, rho_t)) ** 2, mb)))
        err_s = max(float(np.max(np.abs(st.w_hat - 1.0))),
                    float(np.max(np.abs(st.z_hat - 1.0))))
        return err_u, err_s

    def test_second_order_on_moving_domain(self):
        e1 = self._run_level(16, 4e-3)
        e2 = self._run_level(32, 1e-3)
        assert e2[0] < 1e-4 and e2[1] < 1e-4
        assert e1[0] / e2[0] >= 3.6
        assert e1[1] / e2[1] >= 3.6


class TestErrorPaths:
    def test_singular_jacobian_guard(self):
        geom, mesh, params, _ = make("breathing", amplitude=0.2, omega=1.0)

        class Collapsed(type(geom)):
            def jacobian_det_ref(self, t, r):
                return np.zeros_like(np.asarray(r, dtype=float))

        from bulksurf.errors import SingularJacobian
        with pytest.raises(SingularJacobian):
            assemble_operators(Collapsed(geom.preset), mesh, params, 0.5)

    def test_linear_solve_failure_surfaces(self, monkeypatch, tmp_path, capsys):
        # zero measures leave A0 = -dt * stiffness, singular in Fourier mode 0
        from bulksurf import cli
        assemble = solver.assemble_operators

        def zero_measures(*args):
            ops = assemble(*args)
            return dataclasses.replace(ops, ring_measures=0.0 * ops.ring_measures,
                                       surf_measure=0.0)

        geom, mesh, params, spec = make(n=6)
        st = random_state(mesh, seed=5)
        monkeypatch.setattr(solver, "assemble_operators", zero_measures)
        with pytest.raises(LinearSolveFailure, match="singular in Fourier mode 0"):
            step_implicit(st, 0.01, geom, mesh, params, spec)
        with pytest.raises(LinearSolveFailure, match="singular in Fourier mode 0"):
            step_imex(st, 0.01, geom, mesh, params, spec)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mesh.n_r = 6\nmesh.n_theta = 12\noutput.directory = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfg)]) == 2
        assert "singular in Fourier mode 0" in capsys.readouterr().err
        # a capacitance solve that does not converge fails the same way, after
        # its cap of one iteration per slot: IMEX's at _CAPACITANCE_RTOL,
        # Newton's at its forcing term
        monkeypatch.setattr(solver, "assemble_operators", assemble)
        monkeypatch.setattr(solver, "_CAPACITANCE_RTOL", 0.0)
        monkeypatch.setattr(solver, "_FORCING_MIN", 0.0)
        monkeypatch.setattr(solver, "_FORCING_MAX", 0.0)
        solver._kept.clear()
        for step in (step_imex, step_implicit):
            with pytest.raises(LinearSolveFailure, match="capacitance GMRES .* in 12 iterations"):
                step(st, 0.01, geom, mesh, params, spec)
        # (a uniform state's capacitance is solved exactly by its preconditioner)
        cfg.write_text(cfg.read_text() + "ic.profile = perturbed_equilibrium\n")
        assert cli.main(["run", str(cfg)]) == 2
        assert "capacitance GMRES did not reach relative residual 0 in 12 iterations" in \
            capsys.readouterr().err


class TestDissipationAgainstEntropySlope:
    def test_entropy_slope_dominates_dissipation(self):
        # with zero velocities the entropy production carries the full Fisher
        # coefficients while the dissipation functional carries halves, so
        # -dE/dt measured by differencing must dominate the functional (up to
        # first-order stepping bias)
        from bulksurf.diagnostics import entropy_dissipation, relative_entropy
        from bulksurf.equilibrium import solve_equilibrium, EquilibriumMode

        geom, mesh, params, spec = make(n=16)
        area = float(np.sum(mesh.bulk_ref_measures))
        length = float(np.sum(mesh.surf_ref_measures))
        st = State(0.0,
                   1.0 + 0.3 * np.cos(mesh.cell_theta) *
                   np.cos(np.pi * (mesh.cell_r - 1.0)),
                   1.0 + 0.2 * np.cos(2 * mesh.theta_centers),
                   1.0 + 0.2 * np.sin(mesh.theta_centers))
        m1, m2 = conserved_masses(st, geom, mesh)
        eq = solve_equilibrium(m1, m2, area, length, params, EquilibriumMode.RATE_BALANCE)
        dt = 2e-3
        for _ in range(40):
            e_before = relative_entropy(st, eq, geom, mesh)
            d_tilde = entropy_dissipation(st, geom, mesh, params)
            st = step_imex(st, dt, geom, mesh, params, spec)
            slope = (e_before - relative_entropy(st, eq, geom, mesh)) / dt
            assert slope >= 0.8 * d_tilde - 1e-8


class TestTransportIdentities:
    def test_fixed_residual_zero(self):
        geom, mesh, _, _ = make()
        r = transport_identity_residual(
            geom, mesh, 0.5, 1e-3,
            lambda rr, th: 1 + rr * np.cos(th), lambda rr, th: 1 + np.sin(th),
            TransportKind.BULK)
        assert r == 0.0

    def test_rotation_symmetric_fields_residual_zero(self):
        geom, mesh, _, _ = make("rotation", omega=1.0, delta=0.3)
        r = transport_identity_residual(
            geom, mesh, 0.5, 1e-3,
            lambda rr, th: 1 + rr ** 2, lambda rr, th: np.exp(-rr),
            TransportKind.BULK)
        assert r < 1e-12

    def test_breathing_unit_fields_match_length_rate(self):
        # with u = v = 1 the identity is d|Gamma|/dt = integral of div_G V_p
        geom, mesh, _, _ = make("breathing", amplitude=0.2, omega=1.0, delta=0.3)
        t, dt = 0.7, 1e-3
        ones = lambda th: np.ones_like(th)
        resid = transport_identity_residual(geom, mesh, t, dt, ones, ones,
                                            TransportKind.SURFACE)
        assert resid < 1e-6  # pure central-difference error, O(dt^2)
        rate = geom.div_vp_surface(t) * 2 * math.pi * float(geom.inner_radius(t))
        assert rate == pytest.approx(
            2 * math.pi * geom.inner_radius_rate(t), rel=1e-12)

    def test_residuals_converge_under_refinement(self):
        geom, _, _, _ = make("breathing", amplitude=0.2, omega=1.0, delta=0.3)
        for which in TransportKind:
            res = []
            for lvl in range(2):
                mesh = build_mesh(16 * 2 ** lvl, 32 * 2 ** lvl, 1.0, 2.0)
                dt = 1e-2 / 2 ** lvl
                if which is TransportKind.BULK:
                    r = transport_identity_residual(
                        geom, mesh, 0.7, dt,
                        lambda rr, th: 1 + 0.3 * np.cos(th) * rr,
                        lambda rr, th: 1 + 0.2 * np.sin(2 * th), which)
                else:
                    r = transport_identity_residual(
                        geom, mesh, 0.7, dt,
                        lambda th: 1 + 0.3 * np.cos(th),
                        lambda th: 1 + 0.2 * np.cos(th) + 0.1 * np.sin(2 * th), which)
                res.append(r)
            assert math.log2(res[0] / res[1]) >= 0.9


class TestNonfiniteGeometry:
    """Non-finite geometry is named where it happens, as SingularJacobian at
    its t, never as a failed solve or a NaN written out."""

    def test_nan_ring_measure(self, monkeypatch):
        geom, mesh, params, _ = make("fixed")
        rings = solver.moving_ring_measures

        def one_nan(mesh, geom, t):
            out = rings(mesh, geom, t).copy()
            out[3] = math.nan
            return out

        monkeypatch.setattr(solver, "moving_ring_measures", one_nan)
        with pytest.raises(SingularJacobian, match=r"at t = 0\.5 \(min cell area nan"):
            assemble_operators(geom, mesh, params, 0.5)

    def test_nan_inner_radius(self, monkeypatch):
        geom, mesh, params, _ = make("fixed")
        rings = solver.moving_ring_measures(mesh, geom, 0.5)
        monkeypatch.setattr(solver, "moving_ring_measures", lambda mesh, geom, t: rings)
        monkeypatch.setattr(geom, "inner_radius", lambda t: math.nan)
        with pytest.raises(SingularJacobian, match=r"at t = 0\.5 .*inner radius nan\)"):
            assemble_operators(geom, mesh, params, 0.5)

    @pytest.mark.parametrize("stepper", ["imex", "implicit"])
    def test_law_past_the_float_range_stops_the_run(self, stepper, tmp_path, capsys):
        """omega t overflows at t = 1.8, and sin(inf) makes R(t) NaN: the run
        exits 2 naming the geometry and t, with no numpy warning and no NaN in
        the output (it blamed the capacitance GMRES or the Newton backward
        error before)."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("geometry.kind = breathing\ngeometry.omega = 1e308\nmesh.n_r = 4\n"
                            f"mesh.n_theta = 8\ntime.t_final = 2\ntime.stepper = {stepper}\n"
                            f"output.snapshots = false\noutput.directory = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure (SingularJacobian): det D Phi_t is not a positive number at "
            "t = 1.8 (min cell area nan, inner radius nan)\n")
        text = (tmp_path / "out" / "diagnostics.csv").read_text()
        assert "nan" not in text and text.strip().splitlines()[-1].startswith("1.7")
