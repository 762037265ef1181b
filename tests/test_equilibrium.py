"""Equilibrium algebra and conserved-mass quadrature."""

import decimal
import itertools
import math

import numpy as np
import pytest

from bulksurf.equilibrium import (EquilibriumMode, conserved_masses, solve_equilibrium)
from bulksurf.errors import NonpositiveMass, NoPositiveRoot
from bulksurf.geometry import GeometryKind, GeometryPreset, build_geometry
from bulksurf.mesh import build_mesh
from bulksurf.model import ModelParams
from bulksurf.solver import State


def params(dk=1.0, dkp=1.0):
    return ModelParams(1.0, 1.0, 1.0, dk, dkp)


class TestConservedMasses:
    def setup_method(self):
        self.geom = build_geometry(GeometryPreset(GeometryKind.FIXED, 1.0, 2.0))
        self.mesh = build_mesh(32, 64, 1.0, 2.0)

    def test_unit_fields(self):
        st = State(0.0, np.ones(self.mesh.n_bulk), np.zeros(self.mesh.n_surf),
                   np.ones(self.mesh.n_surf))
        m1, m2 = conserved_masses(st, self.geom, self.mesh)
        assert m1 == pytest.approx(5 * math.pi, rel=1e-12)
        assert m2 == pytest.approx(2 * math.pi, rel=1e-12)

    def test_zero_receptor_complex(self):
        st = State(0.0, np.ones(self.mesh.n_bulk), np.zeros(self.mesh.n_surf),
                   np.zeros(self.mesh.n_surf))
        _, m2 = conserved_masses(st, self.geom, self.mesh)
        assert m2 == 0.0

    def test_cos_squared_analytic(self):
        # int over the unit circle of cos^2 = pi
        st = State(0.0, np.zeros(self.mesh.n_bulk),
                   np.zeros(self.mesh.n_surf), np.cos(self.mesh.theta_centers) ** 2)
        m1, _ = conserved_masses(st, self.geom, self.mesh)
        assert m1 == pytest.approx(math.pi, rel=1e-10)


class TestSolveEquilibrium:
    def test_symmetric_unit_case(self):
        eq = solve_equilibrium(2.0, 2.0, 1.0, 1.0, params(), EquilibriumMode.PAPER_LITERAL)
        assert eq.u_inf == pytest.approx(1.0, rel=1e-12)
        assert eq.w_inf == pytest.approx(1.0, rel=1e-12)
        assert eq.z_inf == pytest.approx(1.0, rel=1e-12)

    def test_closed_form_quadratic_case(self):
        # z^2 - 8z + 8 = 0, positive root below both mass bounds
        eq = solve_equilibrium(4.0, 2.0, 2.0, 1.0, params(), EquilibriumMode.PAPER_LITERAL)
        assert eq.z_inf == pytest.approx(4.0 - 2.0 * math.sqrt(2.0), rel=1e-13)
        assert eq.u_inf == pytest.approx(math.sqrt(2.0), rel=1e-13)
        assert eq.w_inf == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, rel=1e-13)
        # verify by substitution into all three equations
        assert eq.z_inf == pytest.approx(eq.u_inf * eq.w_inf, rel=1e-12)
        assert eq.u_inf * 2.0 + eq.z_inf * 1.0 == pytest.approx(4.0, rel=1e-12)
        assert eq.w_inf + eq.z_inf == pytest.approx(2.0, rel=1e-12)

    def test_rate_balance_against_bisection_oracle(self):
        # kappa = 2: root of 2(2-z)^2 = z in (0, 2)
        def f(z):
            return 2.0 * (2.0 - z) ** 2 - z

        lo, hi = 0.0, 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        eq = solve_equilibrium(2.0, 2.0, 1.0, 1.0, params(dk=1.0, dkp=2.0),
                               EquilibriumMode.RATE_BALANCE)
        assert eq.z_inf == pytest.approx(0.5 * (lo + hi), rel=1e-12)
        assert eq.z_inf == pytest.approx(2.0 * eq.u_inf * eq.w_inf, rel=1e-12)

    def test_modes_agree_when_rates_equal(self):
        a = solve_equilibrium(5.0, 3.0, 2.0, 1.5, params(), EquilibriumMode.PAPER_LITERAL)
        b = solve_equilibrium(5.0, 3.0, 2.0, 1.5, params(), EquilibriumMode.RATE_BALANCE)
        assert a.u_inf == pytest.approx(b.u_inf, abs=1e-12)
        assert a.z_inf == pytest.approx(b.z_inf, abs=1e-12)

    def test_random_tuples_satisfy_system(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            m1, m2 = rng.uniform(0.1, 50.0, 2)
            area, length = rng.uniform(0.1, 20.0, 2)
            eq = solve_equilibrium(m1, m2, area, length, params(),
                                   EquilibriumMode.PAPER_LITERAL)
            assert eq.z_inf == pytest.approx(eq.u_inf * eq.w_inf, rel=1e-10)
            assert eq.u_inf * area + eq.z_inf * length == pytest.approx(m1, rel=1e-10)
            assert (eq.w_inf + eq.z_inf) * length == pytest.approx(m2, rel=1e-10)
            # the rejected (larger) root sits above a mass bound, so it would
            # have made u or w negative
            a, b = m1 / length, m2 / length
            s = a + b + area / length
            z_big = 0.5 * (s + math.sqrt(s * s - 4 * a * b))
            assert z_big > min(a, b)

    def test_scaling_invariance(self):
        eq1 = solve_equilibrium(4.0, 2.0, 2.0, 1.0, params(), EquilibriumMode.PAPER_LITERAL)
        for c in (0.01, 3.0, 1e4):
            eq2 = solve_equilibrium(c * 4.0, c * 2.0, c * 2.0, c * 1.0, params(),
                                    EquilibriumMode.PAPER_LITERAL)
            assert eq2.u_inf == pytest.approx(eq1.u_inf, rel=1e-12)
            assert eq2.w_inf == pytest.approx(eq1.w_inf, rel=1e-12)
            assert eq2.z_inf == pytest.approx(eq1.z_inf, rel=1e-12)

    def test_invariants_of_returned_object(self):
        eq = solve_equilibrium(15.0, 10.0, 3 * math.pi, 2 * math.pi, params(),
                               EquilibriumMode.RATE_BALANCE)
        assert eq.u_inf * 3 * math.pi + eq.z_inf * 2 * math.pi == pytest.approx(15.0, rel=1e-12)
        assert (eq.w_inf + eq.z_inf) * 2 * math.pi == pytest.approx(10.0, rel=1e-12)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(NonpositiveMass):
            solve_equilibrium(0.0, 1.0, 1.0, 1.0, params())
        with pytest.raises(NonpositiveMass):
            solve_equilibrium(1.0, 1.0, -2.0, 1.0, params())

    def test_degenerate_closure_guarded(self):
        # rate balance with the reaction disabled has no defined closure
        from bulksurf.errors import NoPositiveRoot
        with pytest.raises(NoPositiveRoot):
            solve_equilibrium(2.0, 2.0, 1.0, 1.0, params(dk=math.inf),
                              EquilibriumMode.RATE_BALANCE)


def decimal_roots(m1, m2, area, length, kappa):
    """(u, w, z) of the equilibrium by the plain quadratic in z, in decimal
    arithmetic with 1,300 digits and no overflow: enough for its two
    cancellations, in z and in m1 - z |Gamma|, of up to 450 digits each when
    masses and measures span 1e-300 to 1e300."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 1300, 10 ** 6, -10 ** 6
        m1, m2, area, length, kappa = map(decimal.Decimal, (m1, m2, area, length, kappa))
        a, b, c = m1 / length, m2 / length, area / (kappa * length)
        s = a + b + c
        z = (s - (s * s - 4 * a * b).sqrt()) / 2
        return (m1 - z * length) / area, b - z, z


def equation_residuals(eq, m1, m2, area, length, kappa):
    """Relative residuals of u |O| + z |G| = m1, (w + z) |G| = m2 and
    z = kappa u w, evaluated exactly."""
    u, w, z, m1, m2, area, length, kappa = map(
        decimal.Decimal, (eq.u_inf, eq.w_inf, eq.z_inf, m1, m2, area, length, kappa))
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 1300, 10 ** 6, -10 ** 6
        return (abs(u * area + z * length - m1) / m1, abs((w + z) * length - m2) / m2,
                abs(z - kappa * u * w) / z)


class TestExtremeMagnitudes:
    """Masses and measures from 1e-300 to 1e300: no square of a mass may
    overflow (the 4 x 8 run with geometry.r_inner0 = 1e-300 has m2 about
    1e-299 and |Gamma| about 6e-300, and once ended in exit 2)."""

    KAPPAS = (1.0, 0.37, 2.5)

    def check(self, m1, m2, area, length, kappa):
        ref = decimal_roots(m1, m2, area, length, kappa)
        representable = all(decimal.Decimal("1e-300") <= v <= decimal.Decimal("1e300")
                            for v in ref)
        try:
            eq = solve_equilibrium(m1, m2, area, length, params(dkp=kappa),
                                   EquilibriumMode.RATE_BALANCE)
        except NoPositiveRoot:
            assert not representable, (m1, m2, area, length, kappa)
            return False
        assert max(equation_residuals(eq, m1, m2, area, length, kappa)) <= 1e-12
        if representable:
            for got, want in zip((eq.u_inf, eq.w_inf, eq.z_inf), ref):
                assert abs(decimal.Decimal(got) - want) <= decimal.Decimal("1e-12") * want
        return True

    def test_run_with_tiny_inner_radius(self):
        r = 1e-300
        area, length = math.pi * (4.0 - r * r), 2.0 * math.pi * r
        assert self.check(area + length, 2.0 * length, area, length, 1.0)

    def test_decades_from_1e_minus_300_to_1e300(self):
        decades = (1e-300, 1e-150, 1.0, 1e150, 1e300)
        solved = sum(self.check(*values, 1.0) for values in itertools.product(decades, repeat=4))
        assert solved >= 250   # 270 of the 625 have a representable root

    def test_random_log_uniform(self):
        rng = np.random.default_rng(13)
        for values in 10.0 ** rng.uniform(-300.0, 300.0, (300, 4)):
            self.check(*values, float(rng.choice(self.KAPPAS)))
