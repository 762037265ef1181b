"""Geometry: flow maps, velocities, measures, kinematic compatibility."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bulksurf.errors import InvalidPreset, PointOutsideDomain
from bulksurf.geometry import (GeometryKind, GeometryPreset, build_geometry,
                               check_kinematics, measures, velocities_at)
from bulksurf.mesh import build_mesh, moving_bulk_measures
from bulksurf.solver import _surface_face_speed


def preset(kind, **kw):
    return GeometryPreset(GeometryKind(kind), r_inner0=1.0, r_outer0=2.0, **kw)


class TestBuildGeometry:
    def test_fixed_is_identity(self):
        geom = build_geometry(preset("fixed"))
        x = np.array([1.3, 0.0])
        for t in (0.0, 0.7, 5.0):
            assert np.allclose(geom.flow_map(t, x), x)
            assert np.allclose(geom.flow_map_jacobian(t, x), np.eye(2))

    def test_rotation_quarter_turn(self):
        geom = build_geometry(preset("rotation", omega=1.0, delta=0.0))
        out = geom.flow_map(math.pi / 2, np.array([1.0, 0.0]))
        assert np.allclose(out, [0.0, 1.0], atol=1e-14)

    def test_identity_at_time_zero(self):
        for kind, kw in [("fixed", {}), ("rotation", dict(omega=1.0)),
                         ("breathing", dict(amplitude=0.2, omega=1.0)),
                         ("surface_wind", dict(wind_speed=1.0))]:
            geom = build_geometry(preset(kind, **kw))
            x = np.array([[1.5, 0.3], [0.0, -1.2]])
            assert np.allclose(geom.flow_map(0.0, x), x)
            assert np.allclose(geom.flow_map_jacobian(0.0, x),
                               np.broadcast_to(np.eye(2), (2, 2, 2)))

    def test_breathing_radius_law(self):
        geom = build_geometry(preset("breathing", amplitude=0.1, omega=1.0, delta=0.2))
        t = math.pi / 2
        expected = 1.0 + 0.1 * math.sin(t) * math.exp(-0.2 * t)
        assert geom.inner_radius(t) == pytest.approx(expected, rel=1e-14)

    def test_breathing_flow_map_matches_ode_oracle(self):
        # integrate d/dt Phi = V_p(t, Phi) with a fine Runge-Kutta as oracle
        geom = build_geometry(preset("breathing", amplitude=0.1, omega=1.0, delta=0.2))
        x0 = np.array([1.25, 0.6])

        def rhs(t, y):
            return geom.v_parametrization(t, y)

        sol = solve_ivp(rhs, [0.0, math.pi / 2], x0, rtol=1e-11, atol=1e-13)
        assert np.allclose(geom.flow_map(math.pi / 2, x0), sol.y[:, -1], atol=1e-8)

    def test_rotation_flow_map_matches_ode_oracle(self):
        geom = build_geometry(preset("rotation", omega=1.3, delta=0.4))
        x0 = np.array([1.7, -0.2])

        def rhs(t, y):
            return geom.v_parametrization(t, y)

        sol = solve_ivp(rhs, [0.0, 2.0], x0, rtol=1e-11, atol=1e-13)
        assert np.allclose(geom.flow_map(2.0, x0), sol.y[:, -1], atol=1e-8)

    def test_invalid_presets_rejected(self):
        with pytest.raises(InvalidPreset):
            build_geometry(GeometryPreset(GeometryKind.FIXED, r_inner0=2.0, r_outer0=1.0))
        with pytest.raises(InvalidPreset):
            build_geometry(GeometryPreset(GeometryKind.FIXED, r_inner0=0.0, r_outer0=1.0))
        with pytest.raises(InvalidPreset):
            # amplitude 0.6 >= 1 - 1/2 collapses the annulus
            build_geometry(preset("breathing", amplitude=0.6, omega=1.0))
        with pytest.raises(InvalidPreset):
            build_geometry(preset("rotation", omega=1.0, delta=-0.1))


class TestVelocities:
    def test_fixed_all_zero(self):
        geom = build_geometry(preset("fixed"))
        s = velocities_at(geom, 1.0, np.array([1.0, 0.0]))
        for v in (s.v_p, s.v_omega, s.v_gamma, s.j_omega, s.j_gamma):
            assert np.allclose(v, 0.0)
        assert s.j == 0.0

    def test_surface_wind_tangential(self):
        geom = build_geometry(preset("surface_wind", wind_speed=0.5, delta=0.0))
        x = np.array([math.cos(0.3), math.sin(0.3)])
        s = velocities_at(geom, 2.0, x)
        assert np.linalg.norm(s.v_gamma) == pytest.approx(0.5, rel=1e-13)
        assert np.allclose(s.j_gamma, s.v_gamma)
        assert s.j == pytest.approx(0.0, abs=1e-14)  # tangent orthogonal to normal

    def test_breathing_zero_slip(self):
        geom = build_geometry(preset("breathing", amplitude=0.1, omega=1.0, delta=0.2))
        t = 0.8
        rad = float(geom.inner_radius(t))
        x = np.array([rad * math.cos(1.1), rad * math.sin(1.1)])
        s = velocities_at(geom, t, x)
        assert s.j == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(s.j_omega, 0.0) and np.allclose(s.j_gamma, 0.0)

    def test_bulk_rides_with_the_grid_in_every_preset(self):
        # J_Omega = V_Omega - V_p vanishes identically: the solver assembles
        # no bulk advection on the strength of this
        for kind, kw in [("fixed", {}), ("rotation", dict(omega=1.3, delta=0.4)),
                         ("breathing", dict(amplitude=0.2, omega=1.0, delta=0.3)),
                         ("surface_wind", dict(wind_speed=0.5, delta=0.2))]:
            geom = build_geometry(preset(kind, **kw))
            for t in (0.0, 0.45, 1.7, 6.0):
                for r_ref in (1.1, 1.5, 1.9):
                    rho = float(geom.radius_map(t, r_ref))
                    for th in (0.2, 2.5, 4.4):
                        x = np.array([rho * math.cos(th), rho * math.sin(th)])
                        assert np.all(velocities_at(geom, t, x).j_omega == 0.0)

    def test_flux_definitions(self):
        geom = build_geometry(preset("rotation", omega=1.0, delta=0.5))
        x = np.array([1.4, 0.7])
        s = velocities_at(geom, 0.9, x)
        assert np.allclose(s.j_omega, s.v_omega - s.v_p)
        assert np.allclose(s.j_gamma, s.v_gamma - s.v_p)

    def test_point_outside_domain(self):
        geom = build_geometry(preset("fixed"))
        with pytest.raises(PointOutsideDomain):
            velocities_at(geom, 0.0, np.array([0.3, 0.0]))
        with pytest.raises(PointOutsideDomain):
            velocities_at(geom, 0.0, np.array([2.5, 0.0]))

    def test_normal_unit_and_inward(self):
        # outward normal of the bulk points into the hole (toward the center)
        for kind, kw in [("fixed", {}), ("breathing", dict(amplitude=0.2, omega=1.0))]:
            geom = build_geometry(preset(kind, **kw))
            for t in (0.0, 0.9):
                rad = float(geom.inner_radius(t))
                th = np.linspace(0, 2 * math.pi, 17)[:-1]
                pts = np.stack([rad * np.cos(th), rad * np.sin(th)], axis=-1)
                nu = geom.normal(t, pts)
                assert np.max(np.abs(np.linalg.norm(nu, axis=-1) - 1.0)) < 1e-12
                assert np.all(np.sum(nu * pts, axis=-1) < 0.0)


class TestMeasures:
    def test_fixed_annulus(self):
        geom = build_geometry(preset("fixed"))
        area, length = measures(geom, 3.0)
        assert area == pytest.approx(3 * math.pi, rel=1e-12)
        assert length == pytest.approx(2 * math.pi, rel=1e-12)

    def test_rotation_exactly_invariant(self):
        geom = build_geometry(preset("rotation", omega=2.0, delta=0.1))
        a0, l0 = measures(geom, 0.0)
        for t in (0.3, 1.7, 12.0):
            a, l = measures(geom, t)
            assert a == a0 and l == l0

    def test_breathing_closed_forms(self):
        geom = build_geometry(preset("breathing", amplitude=0.1, omega=1.0, delta=0.2))
        t = math.pi / 2
        rad = 1.0 + 0.1 * math.sin(t) * math.exp(-0.2 * t)
        area, length = measures(geom, t)
        assert area == pytest.approx(math.pi * (4.0 - rad ** 2), rel=1e-12)
        assert length == pytest.approx(2 * math.pi * rad, rel=1e-12)


class TestKinematics:
    def test_fixed_all_clean(self):
        rep = check_kinematics(build_geometry(preset("fixed")), [0.0, 1.0, 2.0], tol=1e-12)
        assert rep.max_normal_residual == 0.0
        assert rep.b_holds
        assert rep.min_jacobian == pytest.approx(1.0)

    def test_rotation_tangential_field(self):
        rep = check_kinematics(build_geometry(preset("rotation", omega=1.0, delta=0.3)),
                               np.linspace(0, 4, 9), tol=1e-10)
        assert rep.max_normal_residual < 1e-13
        assert rep.b_holds

    def test_breathing_flags_b_violation(self):
        geom = build_geometry(preset("breathing", amplitude=0.1, omega=1.0, delta=0.2))
        rep = check_kinematics(geom, np.linspace(0, 3, 13), tol=1e-8)
        assert not rep.b_holds
        # quadrature of |area(t) - area(0)| against the closed form
        rads = [float(geom.inner_radius(t)) for t in np.linspace(0, 3, 13)]
        expect = max(abs(math.pi * (4 - r * r) - 3 * math.pi) for r in rads)
        assert rep.max_area_drift == pytest.approx(expect, rel=1e-10)
        assert rep.max_normal_residual < 1e-13  # compatibility still holds

    def test_jacobian_positive_over_horizon(self):
        for kind, kw in [("fixed", {}), ("rotation", dict(omega=1.0)),
                         ("breathing", dict(amplitude=0.45, omega=1.0)),
                         ("surface_wind", dict(wind_speed=2.0))]:
            rep = check_kinematics(build_geometry(preset(kind, **kw)),
                                   np.linspace(0, 20, 41), tol=1e-6)
            assert rep.min_jacobian > 0.0


class TestFlowOdeResidual:
    def test_finite_difference_order(self):
        # ||(Phi_{t+h} - Phi_t)/h - V_p(t, Phi_t)|| = O(h), observed order >= 0.9
        for kind, kw in [("rotation", dict(omega=1.0, delta=0.4)),
                         ("breathing", dict(amplitude=0.2, omega=1.3, delta=0.1))]:
            geom = build_geometry(preset(kind, **kw))
            x = np.array([1.5, 0.4])
            t = 0.6
            errs = []
            for h in (1e-3, 1e-4):
                fd = (geom.flow_map(t + h, x) - geom.flow_map(t, x)) / h
                errs.append(np.linalg.norm(fd - geom.v_parametrization(t, geom.flow_map(t, x))))
            order = math.log10(errs[0] / errs[1])
            assert order >= 0.9


# one member of each kind with every law it makes live switched on
LIVE = [("fixed", {}), ("rotation", dict(omega=1.3, delta=0.4)),
        ("breathing", dict(amplitude=0.2, omega=1.0, delta=0.3)),
        ("surface_wind", dict(wind_speed=0.5, delta=0.2))]


class TestOneMap:
    """What the single map of every preset must keep: the direction of the
    wind, exact identity where the domain does not move, and a Jacobian that
    is the derivative of the map."""

    @pytest.mark.parametrize("r_inner0", [1.0, 0.3])
    @pytest.mark.parametrize("wind", [0.5, -0.5])
    def test_wind_points_along_the_tangent(self, wind, r_inner0):
        """tau = e_theta, counterclockwise: at (r_inner0, 0) it is (0, 1); the
        solver's face speed is s(t) itself."""
        geom = build_geometry(GeometryPreset(GeometryKind.SURFACE_WIND, r_inner0, 3 * r_inner0,
                                             wind_speed=wind, delta=0.3))
        mesh = build_mesh(4, 8, r_inner0, 3 * r_inner0)
        for t in (0.0, 0.7, 2.0):
            s_t = wind * math.exp(-0.3 * t)
            v_gamma = velocities_at(geom, t, np.array([r_inner0, 0.0])).v_gamma
            assert v_gamma[0] == 0.0
            assert v_gamma[1] == pytest.approx(s_t, rel=1e-15)
            assert _surface_face_speed(geom, mesh, t) == s_t

    @pytest.mark.parametrize("kind,kw", [LIVE[0], LIVE[1], LIVE[3]])
    def test_static_presets_exact_on_a_wide_annulus(self, kind, kw):
        # r_inner0 + (r - r_inner0) is not r bit for bit once r_outer0 > 2 r_inner0
        geom = build_geometry(GeometryPreset(GeometryKind(kind), r_inner0=0.3, r_outer0=2.7, **kw))
        mesh = build_mesh(16, 32, 0.3, 2.7)
        r = np.concatenate([mesh.r_centers, mesh.r_faces])
        for t in (0.0, 0.45, 1.7, 6.0):
            assert np.array_equal(geom.radius_map(t, r), r)
            assert np.array_equal(moving_bulk_measures(mesh, geom, t), mesh.bulk_ref_measures)

    @pytest.mark.parametrize("kind,kw", LIVE)
    def test_jacobian_is_the_derivative_of_the_map(self, kind, kw):
        """det D Phi_t equals jacobian_det_ref to 1e-13, relative, and D Phi_t
        equals central differences of Phi_t (step 1e-6, error O(1e-10)) to 1e-8."""
        geom = build_geometry(preset(kind, **kw))
        r = np.array([1.05, 1.3, 1.6, 1.95])
        th = np.array([0.2, 2.5, 4.4])
        x = np.stack([np.outer(r, np.cos(th)), np.outer(r, np.sin(th))], axis=-1)
        h = 1e-6
        for t in (0.45, 1.7, 6.0):
            jac = geom.flow_map_jacobian(t, x)
            det = np.linalg.det(jac)
            ref = geom.jacobian_det_ref(t, r)[:, None]
            assert np.max(np.abs(det - ref) / ref) < 1e-13
            for j, e in enumerate(np.eye(2)):
                fd = (geom.flow_map(t, x + h * e) - geom.flow_map(t, x - h * e)) / (2.0 * h)
                assert np.max(np.abs(fd - jac[..., :, j])) < 1e-8
