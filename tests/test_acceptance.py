"""Acceptance suite: every exit criterion at its stated tolerance.

Runs at desk scale (64 x 128 mesh, horizons up to T = 20).  Four long
simulations are shared across criteria through module-scoped fixtures; each
criterion prints one PASS line when it holds (run with -s to see them).
Criteria:

  1  conservation of both invariants, every preset, 2000 steps, <= 1e-9
  2  positivity >= -1e-12 everywhere; nonpositive-source surface run <= 1e-12
  3  convergence to the algebraic equilibrium at T = 20 within 1e-5;
     the two closure modes agree at delta_K = delta_K'
  4  entropy nonincreasing along the fixed-domain run (slack 1e-8 (1+E))
  5  exponential decay under decaying velocities: mu > 0, r^2 >= 0.99,
     L1 distances at T = 20 below 1e-3
  6  functional-inequality probe positive and seed-stable within 25 percent
  7  entropy lower bound never violated on 1000 random conservative states
  8  surface Poincare constant within 1 percent of 1/R^2 at n_theta = 256
  9  manufactured-solution spatial order >= 1.8 (fixed and rotation);
     temporal order >= 0.9 against the homogeneous reduction oracle
  10 transport identities converge under (dt, h) refinement, order >= 0.9
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from bulksurf.config import parse_config
from bulksurf.diagnostics import (ckp_lower_bound, estimate_poincare_constants,
                                  fit_decay_rate, probe_functional_inequality,
                                  sample_conservative_state)
from bulksurf.equilibrium import EquilibriumMode, solve_equilibrium
from bulksurf.geometry import GeometryKind, GeometryPreset, build_geometry
from bulksurf.mesh import build_mesh, integrate_bulk, integrate_surface
from bulksurf.model import MassAction, ModelParams
from bulksurf.solver import (State, TransportKind, assemble_operators,
                             manufactured_solution_error, run, step_imex,
                             surface_advection, transport_identity_residual)
from test_solver import stiffness

N_R, N_THETA = 64, 128
DT = 0.01
T_FINAL = 20.0

RUN_TEMPLATE = """
geometry.kind = {kind}
geometry.omega = {omega}
geometry.delta = {delta}
geometry.wind_speed = {wind}
geometry.amplitude = {amplitude}
mesh.n_r = 64
mesh.n_theta = 128
time.t_final = 20
time.dt = 0.01
time.output_interval = 0.01
ic.profile = perturbed_equilibrium
ic.m1 = 15
ic.m2 = 10
ic.amplitude = 0.25
ic.mode = 1
output.snapshots = false
"""

PRESET_ARGS = {
    "fixed": dict(kind="fixed", omega=0.0, delta=0.0, wind=0.0, amplitude=0.0),
    "rotation": dict(kind="rotation", omega=1.0, delta=0.5, wind=0.0, amplitude=0.0),
    "breathing": dict(kind="breathing", omega=1.0, delta=0.2, wind=0.0, amplitude=0.15),
    "surface_wind": dict(kind="surface_wind", omega=0.0, delta=0.5, wind=0.25, amplitude=0.0),
}


def _do_run(name):
    cfg = parse_config(RUN_TEMPLATE.format(**PRESET_ARGS[name]))
    return run(cfg)


@pytest.fixture(scope="module")
def fixed_run():
    return _do_run("fixed")


@pytest.fixture(scope="module")
def rotation_run():
    return _do_run("rotation")


@pytest.fixture(scope="module")
def breathing_run():
    return _do_run("breathing")


@pytest.fixture(scope="module")
def wind_run():
    return _do_run("surface_wind")


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


class TestCriterion1Conservation:
    TOL = 1e-9

    def _check(self, result, name):
        recs = result.records
        assert len(recs) == round(T_FINAL / DT) + 1  # one record per step
        m1_0, m2_0 = recs[0].m1, recs[0].m2
        d1 = max(abs(r.m1 - m1_0) for r in recs) / abs(m1_0)
        d2 = max(abs(r.m2 - m2_0) for r in recs) / abs(m2_0)
        assert d1 <= self.TOL and d2 <= self.TOL
        return max(d1, d2)

    def test_fixed(self, fixed_run):
        d = self._check(fixed_run, "fixed")
        _report("1a", f"fixed: max relative drift {d:.2e} <= 1e-9 over 2000 steps")

    def test_rotation(self, rotation_run):
        d = self._check(rotation_run, "rotation")
        _report("1b", f"rotation: max relative drift {d:.2e} <= 1e-9 over 2000 steps")

    def test_breathing(self, breathing_run):
        d = self._check(breathing_run, "breathing")
        _report("1c", f"breathing: max relative drift {d:.2e} <= 1e-9 over 2000 steps")

    def test_surface_wind(self, wind_run):
        d = self._check(wind_run, "surface_wind")
        _report("1d", f"surface_wind: max relative drift {d:.2e} <= 1e-9 over 2000 steps")


class TestCriterion2Positivity:
    def test_all_presets_stay_nonnegative(self, fixed_run, rotation_run, breathing_run,
                                          wind_run):
        lo = math.inf
        for result in (fixed_run, rotation_run, breathing_run, wind_run):
            for r in result.records:
                lo = min(lo, r.min_u, r.min_w, r.min_z)
        assert lo >= -1e-12
        _report("2a", f"min field value over all presets and steps {lo:.2e} >= -1e-12")

    def test_nonpositive_source_surface_equation(self):
        # pure surface equation with f <= 0 and y0 <= 0 stays below 1e-12
        preset = GeometryPreset(GeometryKind.SURFACE_WIND, 1.0, 2.0,
                                wind_speed=0.25, delta=0.5)
        geom = build_geometry(preset)
        mesh = build_mesh(N_R, N_THETA, 1.0, 2.0)
        params = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        ops = assemble_operators(geom, mesh, params, 0.0)
        ms = ops.surf_measures
        rng = np.random.default_rng(1)
        y = -rng.random(mesh.n_surf)
        src = -0.4 * rng.random(mesh.n_surf)
        a = (sp.diags(ms) - DT * stiffness(ops)[1]).tocsc()
        lu = spla.splu(a)
        hi = -math.inf
        for k in range(2000):
            b = ms * y + DT * surface_advection(geom, mesh, k * DT, y) + DT * src * ms
            y = lu.solve(b)
            hi = max(hi, float(np.max(y)))
        assert hi <= 1e-12
        _report("2b", f"nonpositive-source surface run peak {hi:.2e} <= 1e-12 over 2000 steps")


class TestCriterion3Equilibrium:
    def test_fields_reach_algebraic_equilibrium(self, fixed_run):
        st = fixed_run.final_state
        last = fixed_run.records[-1]
        geom = build_geometry(GeometryPreset(GeometryKind.FIXED, 1.0, 2.0))
        mesh = build_mesh(N_R, N_THETA, 1.0, 2.0)
        params = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        area = float(np.sum(mesh.bulk_ref_measures))
        length = float(np.sum(mesh.surf_ref_measures))
        eq = solve_equilibrium(last.m1, last.m2, area, length, params,
                               EquilibriumMode.RATE_BALANCE)
        err = max(float(np.max(np.abs(st.u_hat - eq.u_inf))),
                  float(np.max(np.abs(st.w_hat - eq.w_inf))),
                  float(np.max(np.abs(st.z_hat - eq.z_inf))))
        assert err <= 1e-5
        _report("3a", f"max-norm distance to solve_equilibrium at T=20: {err:.2e} <= 1e-5")

    def test_modes_agree_at_equal_rate_constants(self):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        a = solve_equilibrium(15.0, 10.0, 3 * math.pi, 2 * math.pi, params,
                              EquilibriumMode.PAPER_LITERAL)
        b = solve_equilibrium(15.0, 10.0, 3 * math.pi, 2 * math.pi, params,
                              EquilibriumMode.RATE_BALANCE)
        gap = max(abs(a.u_inf - b.u_inf), abs(a.w_inf - b.w_inf), abs(a.z_inf - b.z_inf))
        assert gap <= 1e-12
        _report("3b", f"closure modes agree at delta_K = delta_K': gap {gap:.2e} <= 1e-12")


class TestCriterion4EntropyMonotonicity:
    def test_entropy_never_increases(self, fixed_run):
        es = [r.entropy for r in fixed_run.records]
        worst = max(es[i + 1] - es[i] - 1e-8 * (1.0 + es[i]) for i in range(len(es) - 1))
        assert worst <= 0.0
        _report("4", f"entropy nonincreasing at every step (worst slack margin {worst:.2e})")


class TestCriterion5ExponentialConvergence:
    def _check(self, result, label):
        series = [(r.t, r.entropy) for r in result.records]
        window = [t for t, e in series if 1e-8 <= e <= 1e-2]
        fit = fit_decay_rate(series, (min(window), max(window)))
        assert fit.mu > 0.0
        assert fit.r_squared >= 0.99
        last = result.records[-1]
        l1 = max(last.l1_u, last.l1_w, last.l1_z)
        assert l1 <= 1e-3
        return fit, l1

    def test_rotation_decay(self, rotation_run):
        fit, l1 = self._check(rotation_run, "rotation")
        _report("5a", f"rotation: mu = {fit.mu:.3f} > 0, r2 = {fit.r_squared:.4f} >= 0.99, "
                      f"L1(T=20) = {l1:.2e} <= 1e-3")

    def test_surface_wind_decay(self, wind_run):
        fit, l1 = self._check(wind_run, "surface_wind")
        _report("5b", f"surface_wind: mu = {fit.mu:.3f} > 0, r2 = {fit.r_squared:.4f} >= 0.99, "
                      f"L1(T=20) = {l1:.2e} <= 1e-3")


class TestCriterion6FunctionalInequality:
    def test_probe_positive_and_seed_stable(self):
        geom = build_geometry(GeometryPreset(GeometryKind.FIXED, 1.0, 2.0))
        mesh = build_mesh(16, 32, 1.0, 2.0)
        params = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        eq = solve_equilibrium(15.0, 10.0, 3 * math.pi, 2 * math.pi, params,
                               EquilibriumMode.RATE_BALANCE)
        lam1, _ = probe_functional_inequality(eq, geom, mesh, params, 10000, 20240801)
        lam2, _ = probe_functional_inequality(eq, geom, mesh, params, 10000, 20240802)
        assert lam1 > 0.0 and lam2 > 0.0
        rel = abs(lam1 - lam2) / lam1
        assert rel <= 0.25
        # archived regression baseline for this mesh/masses/seed combination
        assert lam1 == pytest.approx(35.0618, rel=1e-3)
        _report("6", f"lambda_probe = {lam1:.3f} > 0; second seed within {rel:.1%} <= 25%")


class TestCriterion7CkpBound:
    def test_thousand_random_conservative_states(self):
        geom = build_geometry(GeometryPreset(GeometryKind.FIXED, 1.0, 2.0))
        mesh = build_mesh(24, 48, 1.0, 2.0)
        params = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        area = float(np.sum(mesh.bulk_ref_measures))
        length = float(np.sum(mesh.surf_ref_measures))
        eq = solve_equilibrium(15.0, 10.0, area, length, params,
                               EquilibriumMode.RATE_BALANCE)
        worst = math.inf
        for i in range(1000):
            st = sample_conservative_state(i, 314159, eq, geom, mesh)
            lhs, rhs, _ = ckp_lower_bound(st, eq, geom, mesh)
            worst = min(worst, lhs - rhs)
            assert lhs >= rhs - 1e-10
        _report("7", f"entropy lower bound held on 1000 states (worst margin {worst:.2e})")


class TestCriterion8Poincare:
    def test_unit_circle(self):
        mesh = build_mesh(4, 256, 1.0, 2.0)
        geom = build_geometry(GeometryPreset(GeometryKind.FIXED, 1.0, 2.0))
        c = estimate_poincare_constants(mesh, geom, 0.0)
        assert abs(c.c_pw - 1.0) <= 0.01
        _report("8a", f"c_pw(unit circle, n=256) = {c.c_pw:.6f} within 1% of 1")

    def test_radius_two_circle(self):
        mesh = build_mesh(4, 256, 2.0, 3.0)
        geom = build_geometry(GeometryPreset(GeometryKind.FIXED, 2.0, 3.0))
        c = estimate_poincare_constants(mesh, geom, 0.0)
        assert abs(c.c_pw - 0.25) <= 0.0025
        _report("8b", f"c_pw(radius-2 circle, n=256) = {c.c_pw:.6f} within 1% of 0.25")


class TestCriterion9Discretization:
    def _spatial_order(self, preset):
        errs, hs = [], []
        for level in range(3):
            n = 16 * 2 ** level
            dt = 4e-3 / 4 ** level
            e = manufactured_solution_error("sinusoidal", n, 2 * n, dt, 0.04, preset=preset)
            errs.append(max(e))
            hs.append(1.0 / n)
        return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    def test_spatial_order_fixed(self):
        order = self._spatial_order(GeometryPreset(GeometryKind.FIXED, 1.0, 2.0))
        assert order >= 1.8
        _report("9a", f"manufactured-solution spatial order (fixed) = {order:.2f} >= 1.8")

    def test_spatial_order_rotation(self):
        order = self._spatial_order(
            GeometryPreset(GeometryKind.ROTATION, 1.0, 2.0, omega=1.0))
        assert order >= 1.8
        _report("9b", f"manufactured-solution spatial order (rotation) = {order:.2f} >= 1.8")

    def test_temporal_order_vs_ode_oracle(self):
        # well-mixed bulk: the three-variable reduction is exact in space
        geom = build_geometry(GeometryPreset(GeometryKind.FIXED, 1.0, 2.0))
        mesh = build_mesh(8, 16, 1.0, 2.0)
        params = ModelParams(1e6, 1.0, 1.0, 1.0, 1.0)
        spec = MassAction(params)
        area, length = 3 * math.pi, 2 * math.pi

        def rhs(t, y):
            r = y[2] - y[0] * y[1]
            return [r * length / area, r, -r]

        ref = solve_ivp(rhs, [0, 1.0], [2.0, 1.0, 0.0], rtol=1e-12, atol=1e-14).y[:, -1]
        dts = [0.2, 0.1, 0.05, 0.025]
        errs = []
        for dt in dts:
            st = State(0.0, np.full(mesh.n_bulk, 2.0), np.ones(mesh.n_surf),
                       np.zeros(mesh.n_surf))
            for _ in range(round(1.0 / dt)):
                st = step_imex(st, dt, geom, mesh, params, spec, check_cfl=False)
            got = (integrate_bulk(mesh, geom, st.t, st.u_hat) / area,
                   integrate_surface(mesh, geom, st.t, st.w_hat) / length,
                   integrate_surface(mesh, geom, st.t, st.z_hat) / length)
            errs.append(max(abs(g - o) for g, o in zip(got, ref)))
        order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
        assert order >= 0.9
        _report("9c", f"temporal order against the homogeneous oracle = {order:.2f} >= 0.9")


class TestCriterion10TransportIdentities:
    PRESET = GeometryPreset(GeometryKind.BREATHING, 1.0, 2.0, amplitude=0.2,
                            omega=1.0, delta=0.3)

    def test_residuals_converge(self):
        geom = build_geometry(self.PRESET)
        orders = {}
        for which in TransportKind:
            res = []
            for level in range(3):
                mesh = build_mesh(16 * 2 ** level, 32 * 2 ** level, 1.0, 2.0)
                dt = 1e-2 / 2 ** level
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
            slope = float(np.polyfit(np.log([1.0, 0.5, 0.25]), np.log(res), 1)[0])
            orders[which.value] = slope
            assert slope >= 0.9
        _report("10a", "transport-identity orders " + ", ".join(
            f"{k} = {v:.2f}" for k, v in orders.items()) + " all >= 0.9")

    def test_length_rate_closed_form(self):
        # u = v = 1 reduces the surface identity to d|Gamma|/dt
        geom = build_geometry(self.PRESET)
        mesh = build_mesh(32, 64, 1.0, 2.0)
        t, dt = 0.7, 1e-3
        ones = lambda th: np.ones_like(th)
        resid = transport_identity_residual(geom, mesh, t, dt, ones, ones,
                                            TransportKind.SURFACE)
        closed = 2 * math.pi * geom.inner_radius_rate(t)
        lhs = (integrate_surface(mesh, geom, t + dt, np.ones(mesh.n_surf))
               - integrate_surface(mesh, geom, t - dt, np.ones(mesh.n_surf))) / (2 * dt)
        assert lhs == pytest.approx(closed, abs=10 * dt ** 2)
        assert resid <= 10 * dt ** 2
        _report("10b", f"d|Gamma|/dt matches the closed form (residual {resid:.2e})")
