"""Steppers, operators, manufactured solutions, transport identities."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from bulksurf.errors import CflViolation, NewtonDivergence, UnknownCase
from bulksurf.geometry import GeometryKind, GeometryPreset, build_geometry
from bulksurf.mesh import (build_mesh, integrate_bulk, integrate_surface,
                           moving_surface_measures)
from bulksurf.model import MassAction, ModelParams
from bulksurf.solver import (ImexStepper, Sources, State, TransportKind,
                             assemble_operators, cfl_bound,
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


class TestOperators:
    def test_interior_row_sums_vanish_on_constants(self):
        geom, mesh, params, _ = make()
        ops = assemble_operators(geom, mesh, params, 0.0)
        for mat in (ops.bulk_stiffness, ops.surf_stiffness_w, ops.surf_stiffness_z):
            assert np.max(np.abs(mat @ np.ones(mat.shape[0]))) < 1e-12

    def test_rotation_surface_operator_matches_fixed(self):
        geomF, mesh, params, _ = make("fixed")
        geomR, _, _, _ = make("rotation", omega=1.3, delta=0.2)
        opF = assemble_operators(geomF, mesh, params, 0.0)
        for t in (0.0, 0.9, 4.0):
            opR = assemble_operators(geomR, mesh, params, t)
            diff = (opR.surf_stiffness_w - opF.surf_stiffness_w)
            assert abs(diff).max() < 1e-14

    def test_breathing_surface_operator_scales_inverse_square(self):
        geom, mesh, params, _ = make("breathing", amplitude=0.2, omega=1.0, delta=0.1)
        opsB = assemble_operators(geom, mesh, params, 0.8)
        rad = float(geom.inner_radius(0.8))
        geomF, _, _, _ = make("fixed")
        opsF = assemble_operators(geomF, mesh, params, 0.0)
        # per unit moving cell measure the operator is the circle operator / R^2
        lhs = opsB.surf_stiffness_w.toarray() / opsB.surf_measures[:, None]
        rhs = opsF.surf_stiffness_w.toarray() / opsF.surf_measures[:, None] / rad ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_surface_wind_upwind_is_conservative(self):
        geom, mesh, _, _ = make("surface_wind", wind_speed=0.5, delta=0.0)
        field = 1.0 + 0.5 * np.sin(mesh.theta_centers)
        net = surface_advection(geom, mesh, 0.3, field)
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

    def test_cached_stepper_matches_plain(self):
        geom, mesh, params, spec = make("surface_wind", wind_speed=0.3, delta=0.4)
        st = random_state(mesh, seed=9)
        fast = ImexStepper(geom, mesh, params, spec, 0.01).step(st)
        slow = step_imex(st, 0.01, geom, mesh, params, spec)
        assert np.max(np.abs(fast.u_hat - slow.u_hat)) < 1e-12
        assert np.max(np.abs(fast.w_hat - slow.w_hat)) < 1e-12
        assert np.max(np.abs(fast.z_hat - slow.z_hat)) < 1e-12


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
            a = sp.diags(ms) - dt * assemble_operators(geom, mesh, params, t1).surf_stiffness_w
            b = ms * y + dt * surface_advection(geom, mesh, k * dt, y) + dt * src * ms
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
        a = (sp.diags(mb) - dt * ops.bulk_stiffness).tocsc()
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
        geomF, mesh, params, spec = make("fixed")
        geomR, _, _, _ = make("rotation", omega=1.0, delta=0.5)
        # rotationally symmetric data: radial profile only
        u = 1.0 + 0.3 * np.cos(np.pi * (mesh.cell_r - 1.0))
        stF = State(0.0, u.copy(), np.full(mesh.n_surf, 0.8), np.full(mesh.n_surf, 1.1))
        stR = State(0.0, u.copy(), np.full(mesh.n_surf, 0.8), np.full(mesh.n_surf, 1.1))
        for _ in range(50):
            stF = step_imex(stF, 0.01, geomF, mesh, params, spec)
            stR = step_imex(stR, 0.01, geomR, mesh, params, spec)
        m1F, m2F = conserved_masses(stF, geomF, mesh)
        m1R, m2R = conserved_masses(stR, geomR, mesh)
        assert abs(m1F - m1R) < 1e-10 and abs(m2F - m2R) < 1e-10
        assert np.max(np.abs(stF.u_hat - stR.u_hat)) < 1e-10


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

    def test_linear_solve_failure_surfaces(self):
        from bulksurf.errors import LinearSolveFailure
        from bulksurf.solver import _solve_sparse

        singular = sp.csr_matrix((3, 3))
        with pytest.raises(LinearSolveFailure):
            _solve_sparse(singular, np.ones(3))


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
