"""Reference mesh: exact cell measures, moving-domain quadrature, alignment."""

import math

import numpy as np
import pytest

from bulksurf.errors import InvalidResolution, LengthMismatch
from bulksurf.geometry import GeometryKind, GeometryPreset, build_geometry
from bulksurf.mesh import (build_mesh, bulk_integral, integrate_bulk, integrate_surface,
                           surface_integral)


def geom_of(kind, **kw):
    return build_geometry(GeometryPreset(GeometryKind(kind), 1.0, 2.0, **kw))


class TestBuildMesh:
    def test_counts(self):
        mesh = build_mesh(4, 8, 1.0, 2.0)
        assert mesh.n_bulk == 32
        assert mesh.n_surf == 8

    def test_total_reference_area_exact(self):
        mesh = build_mesh(4, 8, 1.0, 2.0)
        assert abs(np.sum(mesh.bulk_ref_measures) - 3 * math.pi) < 1e-12

    def test_inner_ring_arcs_sum_to_circle(self):
        mesh = build_mesh(64, 128, 1.0, 2.0)
        assert abs(np.sum(mesh.surf_ref_measures) - 2 * math.pi) < 1e-12

    def test_angular_periodicity(self):
        mesh = build_mesh(4, 8, 1.0, 2.0)
        assert (mesh.cell_index(0, 7) + 1) % mesh.n_theta == mesh.cell_index(0, 0)

    def test_resolution_limits(self):
        with pytest.raises(InvalidResolution):
            build_mesh(3, 8, 1.0, 2.0)
        with pytest.raises(InvalidResolution):
            build_mesh(4, 7, 1.0, 2.0)
        with pytest.raises(InvalidResolution):
            build_mesh(4, 8, 2.0, 1.0)


class TestIntegrateBulk:
    def test_constant_field_is_area(self):
        mesh = build_mesh(16, 32, 1.0, 2.0)
        val = integrate_bulk(mesh, geom_of("fixed"), 0.0, np.ones(mesh.n_bulk))
        assert val == pytest.approx(3 * math.pi, rel=1e-12)

    def test_rotation_invariant_exactly(self):
        mesh = build_mesh(8, 16, 1.0, 2.0)
        geom = geom_of("rotation", omega=1.0)
        field = np.linspace(0.5, 2.0, mesh.n_bulk)
        assert integrate_bulk(mesh, geom, 1.7, field) == integrate_bulk(mesh, geom, 0.0, field)

    def test_radial_field_analytic_oracle(self):
        # 2 pi * int_1^2 r^2 dr = 14 pi / 3
        geom = geom_of("fixed")
        exact = 14 * math.pi / 3
        errs = []
        for n in (16, 32, 64):
            mesh = build_mesh(n, 2 * n, 1.0, 2.0)
            errs.append(abs(integrate_bulk(mesh, geom, 0.0, mesh.cell_r) - exact))
        # midpoint-rule constant: error = 2 pi dr^2 / 12 = 1.28e-4 at n = 64
        assert errs[-1] < 2e-4
        # refinement halves h, error drops at rate >= 1.9 over the ladder
        rate = math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])
        assert min(rate) >= 1.9

    def test_breathing_area_refinement(self):
        geom = geom_of("breathing", amplitude=0.1, omega=1.0, delta=0.2)
        t = math.pi / 2
        rad = 1.0 + 0.1 * math.sin(t) * math.exp(-0.2 * t)
        exact = math.pi * (4 - rad ** 2)
        errs = []
        for n in (8, 16, 32):
            mesh = build_mesh(n, 2 * n, 1.0, 2.0)
            errs.append(abs(integrate_bulk(mesh, geom, t, np.ones(mesh.n_bulk)) - exact))
        assert errs[-1] < 1e-10  # affine radial map makes midpoint quadrature exact

    def test_length_mismatch(self):
        mesh = build_mesh(4, 8, 1.0, 2.0)
        with pytest.raises(LengthMismatch):
            integrate_bulk(mesh, geom_of("fixed"), 0.0, np.ones(5))


class TestIntegrateSurface:
    def test_constant_is_circumference(self):
        mesh = build_mesh(8, 16, 1.0, 2.0)
        val = integrate_surface(mesh, geom_of("fixed"), 0.0, np.ones(mesh.n_surf))
        assert val == pytest.approx(2 * math.pi, rel=1e-12)

    def test_breathing_circumference(self):
        geom = geom_of("breathing", amplitude=0.1, omega=1.0, delta=0.2)
        mesh = build_mesh(8, 16, 1.0, 2.0)
        t = 1.3
        rad = float(geom.inner_radius(t))
        val = integrate_surface(mesh, geom, t, np.ones(mesh.n_surf))
        assert val == pytest.approx(2 * math.pi * rad, rel=1e-12)

    def test_odd_field_vanishes(self):
        mesh = build_mesh(8, 32, 1.0, 2.0)
        val = integrate_surface(mesh, geom_of("fixed"), 0.0, np.cos(mesh.theta_centers))
        assert abs(val) < 1e-12

    def test_index_alignment_under_rotation_by_one_cell(self):
        # shifting the field by one angular slot while the geometry rotates by
        # one cell angle leaves the integral unchanged
        mesh = build_mesh(8, 16, 1.0, 2.0)
        geom = geom_of("rotation", omega=1.0)
        t_one_cell = mesh.dtheta  # omega = 1: angle(t) = t
        field = 1.0 + 0.5 * np.sin(3 * mesh.theta_centers)
        a = integrate_surface(mesh, geom, 0.0, field)
        b = integrate_surface(mesh, geom, t_one_cell, np.roll(field, 1))
        assert abs(a - b) < 1e-12

    def test_length_mismatch(self):
        mesh = build_mesh(4, 8, 1.0, 2.0)
        with pytest.raises(LengthMismatch):
            integrate_surface(mesh, geom_of("fixed"), 0.0, np.ones(9))


class TestFixedOrderIntegrals:
    """bulk_integral and surface_integral, the sums behind every record and
    the probe, against math.fsum of the same products: within n eps times
    the sum of their magnitudes (the bound of any order of summation), and,
    bit for bit, the value of a state alone is that of its row in a batch
    of any shape, also where the rows start at odd addresses."""

    @pytest.mark.parametrize("n_r, n_theta", [(4, 8), (5, 17), (64, 128)])
    @pytest.mark.parametrize("batch", [(1,), (5,), (2, 3)])
    def test_against_fsum_and_alone(self, n_r, n_theta, batch):
        rng = np.random.default_rng(n_r * n_theta)
        eps = np.finfo(float).eps
        rings, arcs = rng.uniform(0.5, 2.0, n_r), rng.uniform(0.5, 2.0, n_theta)
        cells = np.repeat(rings, n_theta)
        for field, measures, integral, weights in (
                (rng.standard_normal(batch + (n_r * n_theta,)), rings, bulk_integral, cells),
                (rng.standard_normal(batch + (n_theta,)), arcs, surface_integral, arcs)):
            got = integral(field, measures)
            assert got.shape == batch
            for index in np.ndindex(*batch):
                row = field[index]
                terms = row * weights
                bound = len(terms) * eps * math.fsum(np.abs(terms))
                assert abs(got[index] - math.fsum(terms)) <= bound
                odd = np.empty(row.size + 1)[1:]   # a row starting 8 bytes off
                odd[:] = row
                assert integral(row.copy(), measures) == got[index] == integral(odd, measures)

