"""The step kernels against the plain code they replace, bit for bit.

GMRES on 1-D vectors, the capacitance solve with its preconditioner build,
the band assembly of the Fourier solve, the measures of assemble_operators
and of the kept solve, and the radial map of the geometry are each compared
with a test-local copy of their plain form: the same bytes, the same GMRES
iterations and the same preconditioner builds.  The Newton step, which now
keeps its base solve in Fourier modes and forms one full field, is compared
with its plain form too: the same slot iterates bit for bit, and states
that agree within both their residuals.
"""

import math
import types

import numpy as np
import pytest
import scipy.linalg as sla

from bulksurf import solver
from bulksurf.errors import LinearSolveFailure, NewtonDivergence
from bulksurf.geometry import GeometryKind, GeometryPreset, build_geometry
from bulksurf.mesh import (build_mesh, moving_bulk_measures, moving_ring_measures,
                           moving_surface_measures)
from bulksurf.model import MassAction, ModelParams
from bulksurf.solver import _EXCHANGE, _SLOT_RINGS, State, assemble_operators
from test_solver import REACTIONS, TIGHT, assert_newton_agrees, random_state, reaction_spec

PRESETS = {"fixed": ("fixed", {}), "rotation": ("rotation", dict(omega=1.0, delta=0.5)),
           "breathing": ("breathing", dict(amplitude=0.15, omega=1.0, delta=0.2)),
           "surface_wind": ("surface_wind", dict(wind_speed=0.4, delta=0.5)),
           "clockwise_wind": ("surface_wind", dict(wind_speed=-0.4, delta=0.5))}


def geometry(name):
    kind, kw = PRESETS[name]
    return build_geometry(GeometryPreset(GeometryKind(kind), 1.0, 2.0, **kw))


def same(a, b):
    """Equal bit for bit: the same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the plain forms -----------------------------------------------------------------


def plain_gmres(apply, rhs, target, max_iter):
    """GMRES as it was written for right-hand sides of any shape: apply gets
    and returns rhs's shape, every vector is raveled and reshaped."""
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
        h[j] += 1.0
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


class PlainCapacitance:
    """The capacitance solve as it was written: the slot rows of the
    response gathered at every build, np.mean, an errstate around the build,
    fresh arrays for the operator's FFTs, and the coefficients filtered here,
    not by the caller."""

    def __init__(self, system, what):
        self.system, self.what = system, what
        self.builds, self.at = 0, None

    def _build(self, at, coef, r, r_max):
        nt = self.system.mesh.n_theta
        vary = (coef != coef[:, :1]).any(axis=1)
        mean = np.where(vary, coef.mean(axis=1), coef[:, 0])
        g = self.system.response.T[[_SLOT_RINGS[j] for j in at]]
        m = 1.0 + mean @ g
        power = np.abs(np.fft.rfft(r / r_max)) ** 2
        power[1:(nt + 1) // 2] *= 2.0
        wm = g[vary] / m
        rho = wm.real @ power / power.sum()
        if not m.all():
            raise LinearSolveFailure(f"{self.what}: capacitance preconditioner singular")
        self.builds += 1
        self.at, self.vary, self.uniform, self.mean = at, vary, ~vary, mean[:, None]
        self.m, self.rho, self.s = m, rho, wm - rho[:, None]

    def solve(self, r, coeffs, rtol=None):
        nt = self.system.mesh.n_theta
        at = [j for j, c in enumerate(coeffs) if c is not None and c.any()]
        r_max = float(np.abs(r).max())
        if not at or r_max == 0.0:
            return np.fft.rfft(r), 0
        coef = np.stack([coeffs[j] for j in at])
        rebuild = self.at != at or not (coef[self.uniform] == self.mean[self.uniform]).all()
        with np.errstate(divide="ignore", invalid="ignore"):
            if rebuild:
                self._build(at, coef, r, r_max)
            dev = coef[self.vary] - self.mean[self.vary]
            d = 1.0 + self.rho @ dev
        if not d.all():
            raise LinearSolveFailure(f"{self.what}: capacitance preconditioner singular")
        e, s = dev / d, self.s

        def apply(v):
            return (e * np.fft.irfft(s * np.fft.rfft(v), n=nt)).sum(axis=0)

        rtol = solver._CAPACITANCE_RTOL if rtol is None else rtol
        v, iterations = plain_gmres(apply, r / d, rtol * r_max / float(np.abs(d).max()), nt)
        if v is None:
            raise LinearSolveFailure(f"{self.what}: capacitance GMRES did not reach relative "
                                     f"residual {rtol:g} in {iterations} iterations")
        return np.fft.rfft(v) / self.m, iterations


def plain_setup(ops, dt, mesh, q=0.0):
    """The set-up of a Fourier solve as it was written: every band built,
    the lower one too, the sums by concatenation, the symbol per solve."""
    nr, nt = mesh.n_r, mesh.n_theta
    ang, rad = dt * ops.angular, dt * ops.radial
    srf, q = dt * np.array(ops.surface), dt * q
    radial_sum = np.concatenate([rad, [0.0]]) + np.concatenate([[0.0], rad])
    ring_abs = ops.ring_measures + 2.0 * (radial_sum + 2.0 * ang)
    slot_abs = np.concatenate([ring_abs[:1], ops.surf_measure + 4.0 * srf + 2.0 * abs(q)])
    phi = 2.0 * np.pi * np.arange(nt // 2 + 1) / nt
    cyclic = 2.0 * (1.0 - np.cos(phi))[:, None]
    diag = np.empty((len(phi), nr + 2), complex if q else float)
    diag[:, :nr] = ops.ring_measures + radial_sum + cyclic * ang
    diag[:, nr:] = ops.surf_measure + cyclic * srf
    if q:
        diag[:, nr:] += abs(q) * (1.0 - np.exp(-1j * math.copysign(1.0, q) * phi))[:, None]
    lower, upper = np.zeros((2, len(phi), nr + 2), diag.dtype)
    lower[:, 1:nr] = upper[:, :nr - 1] = -rad
    bands = (lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1])
    lu = sla.lapack.zgttrf(*bands) if q else sla.lapack.dpttrf(*bands[1:])
    return types.SimpleNamespace(
        bands=bands, lu=lu[:-1], ring_diag=(ops.ring_measures + 2.0 * ang)[:, None],
        surf_diag=(ops.surf_measure + 2.0 * srf + abs(q))[:, None],
        behind=(srf + max(q, 0.0))[:, None], ahead=(srf + max(-q, 0.0))[:, None],
        slot_abs=slot_abs, norm=max(float(np.max(ring_abs)), float(np.max(slot_abs))))


def plain_response(system):
    """The slot response, its right-hand side set through _SLOT_RINGS."""
    modes = np.zeros((system.mesh.n_theta // 2 + 1, system.mesh.n_r + 2))
    modes[:, _SLOT_RINGS] = _EXCHANGE
    return system._solve_modes(modes)


def plain_step_implicit(state, dt, geom, mesh, params, spec, newton_tol=1e-11, max_newton=25,
                        sources=None, return_info=False):
    """step_implicit as it was written: y = A0^{-1} b formed as a full field
    by solve_slots, with its backward error checked at every step, its slot
    rows and the state at t stacked, and the state rebuilt as y - G xi."""
    solver._check_step(state, dt, geom, mesh, params, spec, check_cfl=False)
    t1 = state.t + dt
    system, m0 = solver._step_solve(geom, mesh, params, state.t, dt,
                                    advect=geom.surface_slip_active)
    nt = mesh.n_theta
    scale = -dt * system.measures[1]
    base = solver._mass_rhs(state, dt, mesh, m0, system.measures, sources)
    history, floor = [], max(1.0, solver._max_abs(base))

    def scaled(residual, values):
        norm = solver._max_abs(residual) / max(floor, system.norm * solver._max_abs(values))
        if not math.isfinite(norm):
            raise NewtonDivergence(f"non-finite Newton residual at t = {t1:g}", history + [norm])
        return norm

    def flux(parts):
        return scale * np.asarray(spec.f1(*parts), dtype=float)

    y = system.solve_slots(base, (), "Newton step")[0]
    s_y = np.stack(solver._slot_parts(y, mesh))
    s = np.stack([state.u_hat[: mesh.n_surf], state.w_hat, state.z_hat])
    coeffs = solver._present(solver._reaction_terms(spec, *s, scale))
    rho = -flux(s) - solver._flux(coeffs, s_y - s)
    slot_residual, gmres = scaled(rho, s), []
    xi = np.zeros(nt // 2 + 1, complex)
    both = np.empty((4, len(xi)), complex)
    capacitance = solver._Capacitance(system, "Newton step")
    for iteration in range(1, max_newton + 1):
        update, used = capacitance.solve(rho, coeffs, solver._forcing(slot_residual, newton_tol))
        xi -= update
        gmres.append(used)
        np.multiply(system.slot_response, xi, out=both[:3])
        both[3] = xi
        values = np.fft.irfft(both, n=nt)
        s = s_y - values[:3]
        rho = values[3] - flux(s)
        slot_residual = scaled(rho, s)
        history.append(slot_residual)
        if slot_residual <= 2.0 * newton_tol:
            x = y - system._field(system.correction(xi))
            resid, parts = system.apply(x), solver._slot_parts(x, mesh)
            resid -= base
            solver._add_exchange(resid, flux(parts), mesh)
            if scaled(resid, x) < newton_tol:
                out = solver.State(t1, x[: mesh.n_bulk], parts[1], parts[2])
                info = {"iterations": iteration, "residuals": history, "gmres": gmres,
                        "setups": capacitance.builds}
                return (out, info) if return_info else out
        coeffs = solver._present(solver._reaction_terms(spec, *s, scale))
    raise NewtonDivergence(
        f"Newton did not reach {newton_tol:g} in {max_newton} iterations at t = {t1:g} "
        f"(last residual {history[-1]:.3e})", history)


# -- the comparisons -----------------------------------------------------------------


def fourier_solve(kind, n_theta, t1=0.3, dt=0.02):
    """A Fourier solve of the step to t1, with the implicit upwind advection
    on the wind presets (the complex, pivoted path)."""
    geom = geometry(kind)
    mesh = build_mesh(6, n_theta, 1.0, 2.0)
    params = ModelParams(1.0, 0.7, 1.3, 0.05, 0.5)
    q = geom.wind_speed(t1)
    return solver._FourierSolve(assemble_operators(geom, mesh, params, t1), dt, mesh, q)


@pytest.mark.parametrize("n", [16, 17, 128])
def test_gmres_matches_the_plain_gmres(n):
    """The same bytes and iterations for operators small and large (past
    the eight basis vectors first allocated), at a tight and a loose target,
    and for the four early returns: a right-hand side within the target, a
    breakdown (K = -I), a non-finite operator and max_iter iterations."""
    rng = np.random.default_rng(n)
    rhs = rng.standard_normal(n)
    for scale in (0.01, 0.5, 3.0):
        k = scale * rng.standard_normal((n, n)) / math.sqrt(n)
        for target in (1e-12, 1e-3):
            got = solver._gmres(lambda x: k.dot(x), rhs, target, n)
            ref = plain_gmres(lambda x: k @ x, rhs, target, n)
            assert same(got[0], ref[0]) and got[1] == ref[1] and got[0] is not None
    assert solver._gmres(lambda x: x, 1e-20 * rhs, 1e-12, n)[1] == 0
    assert same(solver._gmres(lambda x: x, 1e-20 * rhs, 1e-12, n)[0],
                plain_gmres(lambda x: x, 1e-20 * rhs, 1e-12, n)[0])
    wide, unit = 3.0 * rng.standard_normal((n, n)), np.eye(n)[n // 3]
    for apply, b, max_iter, expect in ((lambda x: -x, unit, n, 1),
                                       (lambda x: np.full_like(x, math.nan), rhs, n, 1),
                                       (lambda x: wide @ x, rhs, 3, 3)):
        assert solver._gmres(apply, b, 0.0, max_iter) == (None, expect)
        assert plain_gmres(apply, b, 0.0, max_iter) == (None, expect)


def coefficient_sets(n_theta, rng):
    """Exchange coefficients of one to three rows, uniform and varying, a
    zero row among them; the IMEX term is (varying, None, uniform) and the
    mass-action Newton term (varying, varying, uniform)."""
    varying = [0.3 * (1.0 + rng.random(n_theta)) for _ in range(2)]
    uniform = np.full(n_theta, -0.4)
    return {"one varying": (varying[0], None, None),
            "one uniform": (None, uniform, None),
            "imex": (varying[0], None, uniform),
            "newton": (varying[0], varying[1], uniform),
            "three uniform": (np.full(n_theta, 0.2), np.full(n_theta, 0.5), uniform),
            "zero row": (varying[0], np.zeros(n_theta), uniform)}


@pytest.mark.parametrize("n_theta", [16, 17, 128])
@pytest.mark.parametrize("kind", ["rotation", "clockwise_wind"])
def test_capacitance_matches_the_plain_solve(kind, n_theta):
    """Each coefficient set through four solves of one capacitance, as
    Newton makes them: a first build, moved varying rows with the
    preconditioners kept, a uniform row changed (a rebuild) and a row
    switched off (a rebuild), at the default and a loose rtol; the same
    bytes, iterations and builds as the plain solve."""
    system = fourier_solve(kind, n_theta)
    rng = np.random.default_rng(n_theta)
    for name, coeffs in coefficient_sets(n_theta, rng).items():
        got, ref = solver._Capacitance(system, "test"), PlainCapacitance(system, "test")
        moved = tuple(None if c is None else c * (1.0 + 0.1 * rng.random(n_theta))
                      if np.ptp(c) else c for c in coeffs)
        changed = tuple(None if c is None else c if np.ptp(c) else 1.5 * c for c in moved)
        present = [j for j, c in enumerate(changed) if c is not None]
        fewer = tuple(None if j == present[-1] else c for j, c in enumerate(changed))
        for step, (rows, rtol) in enumerate([(coeffs, None), (moved, 1e-4), (changed, None),
                                             (fewer, 1e-8)]):
            r = rng.standard_normal(n_theta)
            xi, iterations = got.solve(r, solver._present(rows), rtol)
            xi_ref, iterations_ref = ref.solve(r, rows, rtol)
            assert same(xi, xi_ref), (name, step)
            assert (iterations, got.builds) == (iterations_ref, ref.builds), (name, step)


def test_singular_preconditioner_is_refused_as_before():
    """A zero mode of M (a response of -1/2 against a mean of 2) is refused
    with the same message by both forms, for one uniform and one varying
    row, and a zero slot of D too."""
    system = fourier_solve("rotation", 16)
    response = system.response.copy()
    response[0, _SLOT_RINGS[0]] = -0.5
    system.__dict__["response"] = response
    r = np.random.default_rng(1).random(16)
    for c in (np.full(16, 2.0), np.tile([1.0, 3.0], 8)):
        for capacitance in (solver._Capacitance(system, "test"), PlainCapacitance(system, "test")):
            with pytest.raises(LinearSolveFailure, match="^test: capacitance preconditioner "
                                                         "singular$"):
                capacitance.solve(r, (c, None, None))


@pytest.mark.parametrize("n_theta", [16, 17, 128])
@pytest.mark.parametrize("kind", sorted(PRESETS))
def test_setup_matches_the_plain_assembly(kind, n_theta):
    """The bands (one array below and above the diagonal), the factors, the
    stencil's coefficients, the norms and the slot response of a Fourier
    solve, with and without the upwind advection, against the plain set-up."""
    geom = geometry(kind)
    mesh = build_mesh(6, n_theta, 1.0, 2.0)
    params = ModelParams(1.0, 0.7, 1.3, 0.05, 0.5)
    for advect in {False, geom.surface_slip_active}:
        ops = assemble_operators(geom, mesh, params, 0.3)
        q = geom.wind_speed(0.3) if advect else 0.0
        got, ref = solver._FourierSolve(ops, 0.02, mesh, q), plain_setup(ops, 0.02, mesh, q)
        lower, diag, upper = got.bands
        assert lower is upper and np.array_equal(lower, ref.bands[0])
        assert np.array_equal(upper, ref.bands[2]) and same(diag, ref.bands[1])
        assert all(same(a, b) for a, b in zip(got.lu, ref.lu)) and len(got.lu) == len(ref.lu)
        for attr in ("ring_diag", "surf_diag", "behind", "ahead"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr
        assert got.norm == ref.norm and got.slot_norm == float(np.max(ref.slot_abs))
        assert same(got.response, plain_response(got))
        assert same(got.slot_response, got.response.T[_SLOT_RINGS])


@pytest.mark.parametrize("kind", ["rotation", "clockwise_wind"])
def test_backward_error_norm_matches_the_plain_row_sums(kind, monkeypatch):
    """solve_slots checks its solve against the largest absolute row sum of
    the step matrix with the exchange term, the largest slot row sum plus
    the largest coefficient sum, the same number as the largest sum over
    the slots of the plain set-up."""
    norms, check = [], solver._check_backward_error
    monkeypatch.setattr(solver, "_check_backward_error",
                        lambda residual, x, rhs, row_norm, what: norms.append(row_norm)
                        or check(residual, x, rhs, row_norm, what))
    system = fourier_solve(kind, 17)
    ref = plain_setup(assemble_operators(geometry(kind), system.mesh,
                                         ModelParams(1.0, 0.7, 1.3, 0.05, 0.5), 0.3),
                      0.02, system.mesh, geometry(kind).wind_speed(0.3))
    rng = np.random.default_rng(3)
    b = rng.random(system.mesh.n_bulk + 2 * system.mesh.n_surf)
    for coeffs in coefficient_sets(17, rng).values():
        system.solve_slots(b, coeffs, "test")
        plain = max(ref.norm, float(np.max(ref.slot_abs[:, None] + sum(
            np.abs(c) for c in coeffs if c is not None and c.any()))))
        assert norms[-1] == plain
    system.solve_slots(b, (), "test")
    assert norms[-1] == ref.norm


@pytest.mark.parametrize("kind", sorted(PRESETS))
def test_assembly_matches_the_plain_formulas(kind):
    """assemble_operators reads the radial map once for the ring centres and
    the faces between rings: its ring measures and arc are those of the mesh
    functions, and its transmissibilities those of the plain formulas, bit
    for bit."""
    geom = geometry(kind)
    mesh = build_mesh(7, 16, 1.0, 2.0)
    params = ModelParams(0.7, 1.3, 0.4, 1.0, 0.6)
    for t in (0.0, 0.3, 1.7):
        ops = assemble_operators(geom, mesh, params, t)
        slope = geom.radial_slope(t)
        assert same(ops.ring_measures, moving_ring_measures(mesh, geom, t))
        assert ops.surf_measure == float(moving_surface_measures(mesh, geom, t)[0])
        assert same(ops.radial, params.delta_omega * (geom.radius_map(t, mesh.r_faces[1:-1])
                                                      * mesh.dtheta) / (slope * mesh.dr))
        assert same(ops.angular, params.delta_omega * (slope * mesh.dr)
                    / (geom.radius_map(t, mesh.r_centers) * mesh.dtheta))


@pytest.mark.parametrize("kind", sorted(PRESETS))
def test_radial_map_matches_the_plain_formulas(kind):
    """radial_map reads the inner radius once: its radius map, slope and
    inner radius, radius_map (r itself off the breathing kind) and
    jacobian_det_ref, equal the plain formulas in the laws."""
    geom = geometry(kind)
    r = np.linspace(1.0, 2.0, 11)
    for t in (0.0, 0.4, 2.5):
        inner = geom.inner_radius(t)
        slope = (geom.r_outer0 - inner) / (geom.r_outer0 - geom.r_inner0)
        rho = inner + (r - geom.r_inner0) * slope if kind == "breathing" else r
        got = geom.radial_map(t, r)
        assert same(got[0], rho) and got[1] == slope and got[2] == inner
        assert geom.radial_slope(t) == slope and same(geom.radius_map(t, r), rho)
        assert same(geom.jacobian_det_ref(t, r), rho * slope / r)


@pytest.mark.parametrize("stepper", ["imex", "implicit"])
def test_measures_at_t_come_from_the_kept_solve(stepper, monkeypatch):
    """On a moving metric a step from the time its kept solve ended at takes
    the measures at t from it, with no evaluation of the mesh functions, and
    steps to the same bytes as with the measures evaluated; a step from any
    other time evaluates them."""
    geom = geometry("breathing")
    mesh = build_mesh(6, 16, 1.0, 2.0)
    params = ModelParams(1.0, 0.7, 1.3, 1.0, 0.5)
    step = getattr(solver, f"step_{stepper}")
    rng = np.random.default_rng(4)
    st = State(0.0, 1.0 + rng.random(mesh.n_bulk), 1.0 + rng.random(16), 1.0 + rng.random(16))
    solver._kept.clear()
    st1 = step(st, 0.02, geom, mesh, params, MassAction(params))
    kept = dict(solver._kept)
    calls, bulk = [], solver.moving_bulk_measures
    monkeypatch.setattr(solver, "moving_bulk_measures",
                        lambda *args: calls.append(args) or bulk(*args))
    got = step(st1, 0.03, geom, mesh, params, MassAction(params))
    assert calls == []
    solver._kept.clear()
    ref = step(st1, 0.03, geom, mesh, params, MassAction(params))
    assert len(calls) == 1
    for a, b in ((got.u_hat, ref.u_hat), (got.w_hat, ref.w_hat), (got.z_hat, ref.z_hat)):
        assert same(a, b)
    system = next(iter(kept.values()))[2]
    assert system.t1 == st1.t
    assert same(system.measures[0], moving_bulk_measures(mesh, geom, st1.t))
    assert same(system.measures[1], moving_surface_measures(mesh, geom, st1.t))


@pytest.mark.parametrize("reaction", ["mass_action", "saturating_binding"])
@pytest.mark.parametrize("kind", sorted(PRESETS))
def test_newton_step_matches_the_plain_step(kind, reaction):
    """Three backward-Euler steps, each from the plain step's state: the
    slot iterates are the plain step's bit for bit (the same Newton solves,
    slot residuals, GMRES iterations and builds), and the states, x formed
    as the inverse FFT of the modes of y - G xi against y - G xi formed
    from two fields, agree within both their residuals (assert_newton_agrees
    asserts each residual first)."""
    geom = geometry(kind)
    mesh = build_mesh(6, 16, 1.0, 2.0)
    params = ModelParams(1.0, 0.7, 1.3, *REACTIONS[reaction])
    spec = reaction_spec(reaction, params)
    st = random_state(mesh, seed=11)
    for _ in range(3):
        got, info = solver.step_implicit(st, 0.02, geom, mesh, params, spec,
                                         newton_tol=TIGHT / 100, return_info=True)
        ref, ref_info = plain_step_implicit(st, 0.02, geom, mesh, params, spec,
                                            newton_tol=TIGHT / 100, return_info=True)
        assert info == ref_info
        assert_newton_agrees(got, ref, TIGHT / 100, st, 0.02, geom, mesh, params, spec)
        st = ref
