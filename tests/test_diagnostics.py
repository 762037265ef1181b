"""Entropy, dissipation, lower bounds, probe, decay fits, spectral constants."""

import dataclasses
import math
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bulksurf.diagnostics import (PROBE_BLOCK_CELLS, DiagnosticsRecord,
                                  ckp_lower_bound, entropy_dissipation,
                                  entropy_dissipation_parts,
                                  estimate_poincare_constants, fit_decay_rate,
                                  make_record, probe_functional_inequality,
                                  project_to_masses, relative_entropy,
                                  sample_conservative_state)
from bulksurf import diagnostics as diag_mod
from bulksurf.equilibrium import EquilibriumMode, solve_equilibrium
from bulksurf.errors import (DegenerateSampler, InsufficientData, MassMismatch,
                             NonfiniteField, NonpositiveEntropy, ValidationError, WorkerFailure)
from bulksurf.geometry import GeometryKind, GeometryPreset, build_geometry
from bulksurf.mesh import build_mesh, moving_bulk_measures, moving_surface_measures
from bulksurf.model import ModelParams
from bulksurf.solver import State, assemble_operators
from test_solver import stiffness


@pytest.fixture(scope="module")
def setup():
    geom = build_geometry(GeometryPreset(GeometryKind.FIXED, 1.0, 2.0))
    mesh = build_mesh(16, 32, 1.0, 2.0)
    params = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
    eq = solve_equilibrium(15.0, 10.0, 3 * math.pi, 2 * math.pi, params,
                           EquilibriumMode.RATE_BALANCE)
    return geom, mesh, params, eq


def eq_state(mesh, eq):
    return State(0.0, np.full(mesh.n_bulk, eq.u_inf), np.full(mesh.n_surf, eq.w_inf),
                 np.full(mesh.n_surf, eq.z_inf))


def block_size(mesh, n_samples=None, cpus=1):
    """Samples per probe block: PROBE_BLOCK_CELLS // n_bulk, capped at
    ceil(n_samples / cpus) when n_samples is given."""
    size = max(1, PROBE_BLOCK_CELLS // mesh.n_bulk)
    return size if n_samples is None else min(size, -(-n_samples // cpus))


# -- per-sample reference: the probe one state at a time, with np.roll -----------


def _ref_boltzmann(s, s_inf):
    out = np.full_like(s, s_inf)
    pos = s > 0.0
    out[pos] = s[pos] * np.log(s[pos] / s_inf) - s[pos] + s_inf
    return out


def _ref_state(index, seed, eq, geom, mesh, t, raw_sampler=None):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    if raw_sampler is None:
        lo, hi = math.log(0.1), math.log(10.0)
        u = np.exp(rng.uniform(lo, hi, mesh.n_bulk))
        w = np.exp(rng.uniform(lo, hi, mesh.n_surf))
        z = np.exp(rng.uniform(lo, hi, mesh.n_surf))
        grid = u.reshape(mesh.n_r, mesh.n_theta)
        out = grid.copy()
        out[1:] += 0.2 * (grid[:-1] - grid[1:])
        out[:-1] += 0.2 * (grid[1:] - grid[:-1])
        out += 0.2 * (np.roll(grid, 1, axis=1) - grid)
        out += 0.2 * (np.roll(grid, -1, axis=1) - grid)
        u = out.ravel()
        w = w + 0.25 * (np.roll(w, 1) - 2.0 * w + np.roll(w, -1))
        z = z + 0.25 * (np.roll(z, 1) - 2.0 * z + np.roll(z, -1))
    else:
        u, w, z = (np.asarray(f, dtype=float) for f in raw_sampler(index, rng))
    mb = moving_bulk_measures(mesh, geom, t)
    ms = moving_surface_measures(mesh, geom, t)
    iu, iw, iz = float(np.dot(u, mb)), float(np.dot(w, ms)), float(np.dot(z, ms))
    beta = iu * iw + iz * (eq.m1 - eq.m2)
    disc = beta * beta + 4.0 * iw * iz * eq.m2 * iu
    b = 2.0 * eq.m2 * iu / (beta + math.sqrt(disc)) if beta >= 0.0 \
        else (-beta + math.sqrt(disc)) / (2.0 * iw * iz)
    a = eq.m1 / (iu + b * iz)
    return a * u, b * w, a * b * z


def _ref_entropy_dissipation(u, w, z, eq, geom, mesh, params, t, floor_eps=1e-30):
    mb = moving_bulk_measures(mesh, geom, t)
    ms = moving_surface_measures(mesh, geom, t)
    e = float(np.dot(_ref_boltzmann(u, eq.u_inf), mb))
    e += float(np.dot(_ref_boltzmann(w, eq.w_inf), ms))
    e += float(np.dot(_ref_boltzmann(z, eq.z_inf), ms))
    grid = u.reshape(mesh.n_r, mesh.n_theta)
    slope = geom.radial_slope(t)
    dudr = np.empty_like(grid)
    dudr[1:-1] = (grid[2:] - grid[:-2]) / (2.0 * slope * mesh.dr)
    dudr[0] = (grid[1] - grid[0]) / (slope * mesh.dr)
    dudr[-1] = (grid[-1] - grid[-2]) / (slope * mesh.dr)
    dtan = (np.roll(grid, -1, axis=1) - np.roll(grid, 1, axis=1)) / (2.0 * mesh.dtheta)
    dtan /= geom.radius_map(t, mesh.r_centers)[:, None]
    grad_u = (dudr ** 2 + dtan ** 2).ravel()
    stretch = geom.surface_stretch(t, mesh.theta_centers)

    def grad_s(f):
        return ((np.roll(f, -1) - np.roll(f, 1)) / (2.0 * mesh.dtheta * stretch)) ** 2

    d = 0.5 * params.delta_omega * float(np.dot(grad_u / np.maximum(u, floor_eps), mb))
    d += 0.5 * params.delta_gamma * float(np.dot(grad_s(w) / np.maximum(w, floor_eps), ms))
    d += 0.5 * params.delta_gamma_prime * float(
        np.dot(grad_s(z) / np.maximum(z, floor_eps), ms))
    uw = u[: mesh.n_theta] * w
    logratio = np.log(np.maximum(z, floor_eps) / np.maximum(uw, floor_eps))
    d += float(np.dot((z - uw) * logratio, ms))
    return e, d


def reference_probe(eq, geom, mesh, params, n_samples, seed, t=0.0, raw_sampler=None):
    """(ratio, index, E, Dtilde) of every sample with E >= 1e-12."""
    rows = []
    for i in range(n_samples):
        u, w, z = _ref_state(i, seed, eq, geom, mesh, t, raw_sampler)
        e, d = _ref_entropy_dissipation(u, w, z, eq, geom, mesh, params, t)
        if e >= 1e-12:
            rows.append((d / e, i, e, d))
    return rows


def assert_same_worst(found, rows):
    lam, worst = found
    ratio, index, e, d = min(rows)
    assert worst.index == index
    assert lam == worst.ratio
    assert worst.ratio == pytest.approx(ratio, rel=1e-14, abs=0.0)
    assert worst.entropy == pytest.approx(e, rel=1e-14, abs=0.0)
    assert worst.dissipation == pytest.approx(d, rel=1e-14, abs=0.0)


class TestRelativeEntropy:
    def test_zero_at_equilibrium(self, setup):
        geom, mesh, _, eq = setup
        assert relative_entropy(eq_state(mesh, eq), eq, geom, mesh) == pytest.approx(0.0, abs=1e-13)

    def test_scaled_bulk_field_closed_form(self, setup):
        # u = e*u_inf: integrand is u_inf everywhere, so E = u_inf * area
        geom, mesh, _, eq = setup
        st = eq_state(mesh, eq)
        st.u_hat = math.e * st.u_hat
        val = relative_entropy(st, eq, geom, mesh)
        assert val == pytest.approx(eq.u_inf * 3 * math.pi, rel=1e-12)

    def test_single_zero_cell(self, setup):
        # 0 log 0 = 0 leaves exactly u_inf times the cell measure
        geom, mesh, _, eq = setup
        st = eq_state(mesh, eq)
        st.u_hat[7] = 0.0
        cell = moving_bulk_measures(mesh, geom, 0.0)[7]
        assert relative_entropy(st, eq, geom, mesh) == pytest.approx(eq.u_inf * cell, rel=1e-12)

    def test_nonnegative_on_random_states(self, setup):
        geom, mesh, _, eq = setup
        rng = np.random.default_rng(2)
        for _ in range(50):
            st = State(0.0, rng.uniform(0, 4, mesh.n_bulk), rng.uniform(0, 4, mesh.n_surf),
                       rng.uniform(0, 4, mesh.n_surf))
            assert relative_entropy(st, eq, geom, mesh) >= 0.0

    def test_nonfinite_rejected(self, setup):
        geom, mesh, _, eq = setup
        st = eq_state(mesh, eq)
        st.w_hat[0] = math.nan
        with pytest.raises(NonfiniteField):
            relative_entropy(st, eq, geom, mesh)


class TestEntropyDissipation:
    def test_zero_at_detailed_balance(self, setup):
        geom, mesh, params, _ = setup
        st = State(0.0, np.full(mesh.n_bulk, 2.0), np.full(mesh.n_surf, 1.5),
                   np.full(mesh.n_surf, 3.0))  # z = u w exactly
        assert entropy_dissipation(st, geom, mesh, params) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_reaction_term_closed_form(self, setup):
        geom, mesh, params, _ = setup
        u0, w0, z0 = 2.0, 1.0, 3.0
        st = State(0.0, np.full(mesh.n_bulk, u0), np.full(mesh.n_surf, w0),
                   np.full(mesh.n_surf, z0))
        expect = 2 * math.pi * (z0 - u0 * w0) * math.log(z0 / (u0 * w0))
        assert entropy_dissipation(st, geom, mesh, params) == pytest.approx(expect, rel=1e-12)
        assert expect > 0.0

    def test_fisher_term_quadratic_in_perturbation(self, setup):
        # halving the amplitude quarters the Fisher term within 5 percent
        geom, mesh, params, eq = setup

        def fisher(amp):
            st = eq_state(mesh, eq)
            st.u_hat = eq.u_inf * (1.0 + amp * np.cos(mesh.cell_theta))
            return entropy_dissipation_parts(st, geom, mesh, params).fisher_u

        assert fisher(0.1) / fisher(0.05) == pytest.approx(4.0, rel=0.05)

    def test_nonnegative_on_random_states(self, setup):
        geom, mesh, params, _ = setup
        rng = np.random.default_rng(4)
        for _ in range(50):
            st = State(0.0, rng.uniform(0, 3, mesh.n_bulk), rng.uniform(0, 3, mesh.n_surf),
                       rng.uniform(0, 3, mesh.n_surf))
            assert entropy_dissipation(st, geom, mesh, params) >= -1e-10


class TestCkpBound:
    def test_zero_at_equilibrium(self, setup):
        geom, mesh, _, eq = setup
        lhs, rhs, c = ckp_lower_bound(eq_state(mesh, eq), eq, geom, mesh)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert c > 0.0

    def test_mass_preserving_uniform_perturbation(self, setup):
        # shift mass between u and z (and w and z) without changing m1, m2
        geom, mesh, _, eq = setup
        eps = 0.1
        st = eq_state(mesh, eq)
        st.u_hat += eps
        st.z_hat -= eps * (3 * math.pi) / (2 * math.pi)
        st.w_hat += eps * (3 * math.pi) / (2 * math.pi)
        lhs, rhs, _ = ckp_lower_bound(st, eq, geom, mesh)
        assert lhs >= rhs - 1e-10
        assert lhs > 0.0

    def test_random_conservative_states_never_violate(self, setup):
        geom, mesh, _, eq = setup
        for i in range(200):
            st = sample_conservative_state(i, 909, eq, geom, mesh)
            lhs, rhs, _ = ckp_lower_bound(st, eq, geom, mesh)
            assert lhs >= rhs - 1e-10

    def test_mass_mismatch_rejected(self, setup):
        geom, mesh, _, eq = setup
        st = eq_state(mesh, eq)
        st.u_hat *= 1.5
        with pytest.raises(MassMismatch):
            ckp_lower_bound(st, eq, geom, mesh)


class TestDecayFit:
    def test_exact_exponential(self):
        ts = np.linspace(0, 9, 10)
        fit = fit_decay_rate([(t, math.exp(-0.5 * t)) for t in ts], (0.0, 9.0))
        assert fit.mu == pytest.approx(0.5, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_absorbed(self):
        ts = np.linspace(0, 4, 12)
        fit = fit_decay_rate([(t, 3.0 * math.exp(-2.0 * t)) for t in ts], (0.0, 4.0))
        assert fit.mu == pytest.approx(2.0, rel=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_decay_rate([(0.0, 1.0), (1.0, 0.5)], (0.0, 1.0))

    def test_nonpositive_entropy_in_window(self):
        pts = [(float(t), 1.0 - 0.3 * t) for t in range(6)]  # goes nonpositive
        with pytest.raises(NonpositiveEntropy):
            fit_decay_rate(pts, (0.0, 5.0))


class TestProjection:
    def test_exact_masses_and_positivity(self, setup):
        geom, mesh, _, eq = setup
        rng = np.random.default_rng(31)
        from bulksurf.mesh import integrate_bulk, integrate_surface
        for _ in range(50):
            u = rng.uniform(0.05, 5.0, mesh.n_bulk)
            w = rng.uniform(0.05, 5.0, mesh.n_surf)
            z = rng.uniform(0.05, 5.0, mesh.n_surf)
            u, w, z = project_to_masses(u, w, z, eq.m1, eq.m2, geom, mesh)
            assert np.all(u > 0) and np.all(w > 0) and np.all(z > 0)
            m1 = integrate_bulk(mesh, geom, 0.0, u) + integrate_surface(mesh, geom, 0.0, z)
            m2 = integrate_surface(mesh, geom, 0.0, w) + integrate_surface(mesh, geom, 0.0, z)
            assert m1 == pytest.approx(eq.m1, rel=1e-12)
            assert m2 == pytest.approx(eq.m2, rel=1e-12)


class TestProbe:
    def test_positive_and_seed_deterministic(self, setup):
        geom, mesh, params, eq = setup
        lam1, worst1 = probe_functional_inequality(eq, geom, mesh, params, 200, 77)
        lam2, worst2 = probe_functional_inequality(eq, geom, mesh, params, 200, 77)
        assert lam1 > 0.0
        assert lam1 == lam2 and worst1.index == worst2.index

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_the_key_range_is_refused(self, setup, seed):
        """Each sample's Philox key starts with the seed, a uint64."""
        geom, mesh, params, eq = setup
        with pytest.raises(ValidationError) as exc:
            probe_functional_inequality(eq, geom, mesh, params, 3, seed)
        assert exc.value.key == "seed"

    def test_seed_variation_bounded(self, setup):
        geom, mesh, params, eq = setup
        lam1, _ = probe_functional_inequality(eq, geom, mesh, params, 500, 1)
        lam2, _ = probe_functional_inequality(eq, geom, mesh, params, 500, 2)
        assert abs(lam1 - lam2) / lam1 < 0.5  # generous scatter bound at small n

    def test_equilibrium_sample_skipped_and_degenerate(self, setup):
        # constant draw projects exactly onto the equilibrium, E = 0, skipped
        geom, mesh, params, eq = setup

        def constant_sampler(index, rng):
            return (np.ones(mesh.n_bulk), np.ones(mesh.n_surf), np.ones(mesh.n_surf))

        with pytest.raises(DegenerateSampler):
            probe_functional_inequality(eq, geom, mesh, params, 1, 5,
                                        raw_sampler=constant_sampler)


def _forks(monkeypatch):
    """Force 4 usable CPUs; return the list of worker processes started."""
    monkeypatch.setattr(diag_mod.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    started = []
    start = multiprocessing.process.BaseProcess.start

    def recording_start(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
    return started


class TestProbeWorkers:
    """The blocks shared out among forked worker processes."""

    # n = 1, one block, one block + 1, three blocks + 2
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, 0), (1, 1), (3, 2)])
    def test_result_independent_of_worker_count(self, setup, blocks, extra, monkeypatch):
        geom, mesh, params, eq = setup
        n = blocks * block_size(mesh) + extra
        started = _forks(monkeypatch)
        results = set()
        for cpus in (1, 2, 4):
            monkeypatch.setattr(diag_mod.os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)), raising=False)
            n_blocks = -(-n // block_size(mesh, n, cpus))
            before = len(started)
            results.add(probe_functional_inequality(eq, geom, mesh, params, n, 9))
            assert len(started) - before == min(cpus, n_blocks) - 1
        assert len(results) == 1
        assert all(p.exitcode == 0 for p in started)

    def test_small_probe_independent_of_the_cpu_count(self, setup, monkeypatch):
        """Five samples at 64 x 128 (seed 601) in one block of 5, blocks of
        3 + 2 and of 2 + 2 + 1, on 1, 2 and 3 usable CPUs: the same ratio and
        the same worst sample, bit for bit (a batched `@` sum gave
        863.8456786090676 in a block of 4 + 1 and 863.8456786090674 in 3 + 2)."""
        geom, _, params, eq = setup
        mesh = build_mesh(64, 128, 1.0, 2.0)
        started = _forks(monkeypatch)
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(diag_mod, "_usable_cpus", lambda cpus=cpus: cpus)
            results.append(probe_functional_inequality(eq, geom, mesh, params, 5, 601))
        assert len(started) == 0 + 1 + 2
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("n, workers", [(1, 0), (5, 1)])
    def test_small_probes_on_two_cpus(self, setup, n, workers, monkeypatch):
        """The block is capped at ceil(n / CPUs): one sample takes no worker,
        five take one, as with blocks of four."""
        geom, mesh, params, eq = setup
        started = _forks(monkeypatch)
        monkeypatch.setattr(diag_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        probe_functional_inequality(eq, geom, mesh, params, n, 9)
        assert len(started) == workers

    def _sampler(self, mesh, bad):
        """Log-uniform draws; `bad(index)` replaces one sample's draw."""
        def sampler(index, rng):
            got = bad(index)
            if got is not None:
                return got
            return (rng.uniform(0.1, 10.0, mesh.n_bulk), rng.uniform(0.1, 10.0, mesh.n_surf),
                    rng.uniform(0.1, 10.0, mesh.n_surf))
        return sampler

    @pytest.mark.parametrize("what", ["nan", "value_error"])
    def test_error_in_a_workers_block(self, setup, what, monkeypatch):
        geom, mesh, params, eq = setup
        size = block_size(mesh)

        def bad(index):
            if index == size + 1:  # block 1: always a forked worker's
                if what == "nan":
                    return (np.full(mesh.n_bulk, np.nan), np.ones(mesh.n_surf),
                            np.ones(mesh.n_surf))
                raise ValueError(f"raw sampler refused sample {index}")
            return None

        sampler = self._sampler(mesh, bad)
        n = 3 * size + 2
        monkeypatch.setattr(diag_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with pytest.raises(NonfiniteField if what == "nan" else ValueError) as serial:
            probe_functional_inequality(eq, geom, mesh, params, n, 9, raw_sampler=sampler)
        serial = serial.value
        started = _forks(monkeypatch)
        with pytest.raises(type(serial)) as split:
            probe_functional_inequality(eq, geom, mesh, params, n, 9, raw_sampler=sampler)
        assert str(split.value) == str(serial)
        assert len(started) == 3

    def test_all_samples_skipped_is_degenerate(self, setup, monkeypatch):
        geom, mesh, params, eq = setup
        _forks(monkeypatch)

        def constant_sampler(index, rng):
            return (np.ones(mesh.n_bulk), np.ones(mesh.n_surf), np.ones(mesh.n_surf))

        n = 3 * block_size(mesh) + 2
        with pytest.raises(DegenerateSampler, match=f"all {n} probe samples"):
            probe_functional_inequality(eq, geom, mesh, params, n, 5,
                                        raw_sampler=constant_sampler)

    def test_worker_that_dies_unreported_raises(self, setup, monkeypatch):
        geom, mesh, params, eq = setup
        parent = os.getpid()

        def bad(index):
            if os.getpid() != parent:
                os._exit(3)
            return None

        def hung(signum, frame):
            raise TimeoutError("the probe waited on a dead worker")

        started = _forks(monkeypatch)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(WorkerFailure, match="exited with code 3"):
                probe_functional_inequality(eq, geom, mesh, params, 3 * block_size(mesh) + 2, 9,
                                            raw_sampler=self._sampler(mesh, bad))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(started) == 3 and all(p.exitcode is not None for p in started)

    def test_other_thread_running_gives_serial_result(self, setup, monkeypatch):
        geom, mesh, params, eq = setup
        n = 3 * block_size(mesh) + 2
        serial = probe_functional_inequality(eq, geom, mesh, params, n, 9)
        started = _forks(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert probe_functional_inequality(eq, geom, mesh, params, n, 9) == serial
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive() and started == []


PRESETS = {
    "fixed": GeometryPreset(GeometryKind.FIXED, 1.0, 2.0),
    "rotation": GeometryPreset(GeometryKind.ROTATION, 1.0, 2.0, omega=1.0, delta=0.5),
    "breathing": GeometryPreset(GeometryKind.BREATHING, 1.0, 2.0, amplitude=0.3, omega=2.0,
                                delta=0.2),
    "surface_wind": GeometryPreset(GeometryKind.SURFACE_WIND, 1.0, 2.0, wind_speed=0.5),
}


class TestSampleDraws:
    """The re-keyed generator and the roll-free smoothing, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 77, 2 ** 64 - 1])
    def test_rekeyed_stream_is_a_fresh_stream(self, seed):
        lo, hi = math.log(0.1), math.log(10.0)
        indices = [0, 3, 2 ** 40, 3]
        for (index, rng), expected in zip(diag_mod._streams(seed, indices), indices):
            assert index == expected
            fresh = np.random.Generator(np.random.Philox(key=np.array([seed, index],
                                                                      dtype=np.uint64)))
            for n in (515, 17, 17):   # u, w, z as uniform(lo, hi) draws them
                got = np.empty(n)
                rng.random(out=got)
                got *= hi - lo
                got += lo
                assert np.array_equal(got, fresh.uniform(lo, hi, n))
            # leave a partly used buffer and a held 32-bit half for the re-key
            assert rng.integers(0, 2 ** 32, dtype=np.uint32) == \
                fresh.integers(0, 2 ** 32, dtype=np.uint32)

    @pytest.mark.parametrize("shape", [(32,), (3, 8), (2, 5, 16)])
    def test_smooth_surface_matches_the_roll_form(self, shape):
        f = np.exp(np.random.default_rng(4).uniform(-2.3, 2.3, shape))
        rolled = f + 0.25 * (np.roll(f, 1, axis=-1) - 2.0 * f + np.roll(f, -1, axis=-1))
        assert np.array_equal(diag_mod._smooth_surface(f, np.empty_like(f)), rolled)


def _roll_gradient_sq(u, mesh, slope, rho):
    """|grad u|^2 of one state with np.roll, in the reference's operation order."""
    grid = u.reshape(mesh.n_r, mesh.n_theta)
    dudr = np.empty_like(grid)
    dudr[1:-1] = (grid[2:] - grid[:-2]) / (2.0 * slope * mesh.dr)
    dudr[0] = (grid[1] - grid[0]) / (slope * mesh.dr)
    dudr[-1] = (grid[-1] - grid[-2]) / (slope * mesh.dr)
    dtan = (np.roll(grid, -1, axis=1) - np.roll(grid, 1, axis=1)) / (2.0 * mesh.dtheta)
    dtan /= rho[:, None]
    return (dudr ** 2 + dtan ** 2).ravel()


def _roll_smooth(u, mesh):
    """One diffusion application to one state with np.roll, in the
    reference's operation order."""
    grid = u.reshape(mesh.n_r, mesh.n_theta)
    out = grid.copy()
    out[1:] += 0.2 * (grid[:-1] - grid[1:])
    out[:-1] += 0.2 * (grid[1:] - grid[:-1])
    out += 0.2 * (np.roll(grid, 1, axis=1) - grid)
    out += 0.2 * (np.roll(grid, -1, axis=1) - grid)
    return out.ravel()


class TestFlatKernels:
    """The bulk gradient and smoothing run their angular differences over the
    flat cells of a whole block and write the ring seams apart: bit for bit
    the per-state roll forms, for one state and for every row of a batch,
    on meshes where the seams are a large share of the cells."""

    @pytest.mark.parametrize("n_theta", [8, 17, 128])
    @pytest.mark.parametrize("n_r", [4, 64])
    @pytest.mark.parametrize("batch", [(), (1,), (5,), (2, 3)])
    def test_bulk_kernels_match_the_roll_forms(self, n_r, n_theta, batch):
        geom = build_geometry(PRESETS["breathing"])
        mesh = build_mesh(n_r, n_theta, 1.0, 2.0)
        fr = diag_mod._frame(geom, mesh, 0.4)
        u = np.exp(np.random.default_rng(n_r * n_theta).uniform(-2.3, 2.3,
                                                                batch + (mesh.n_bulk,)))
        rows = u.reshape(-1, mesh.n_bulk)
        out, scratch = np.full((2,) + u.shape, np.nan)
        grad = diag_mod._bulk_gradient_sq(u, fr, out, scratch)
        rho = geom.radius_map(0.4, mesh.r_centers)
        expected = [_roll_gradient_sq(row, mesh, geom.radial_slope(0.4), rho) for row in rows]
        assert np.array_equal(grad.reshape(rows.shape), np.array(expected))
        out, scratch = np.full((2,) + u.shape, np.nan)
        smooth = diag_mod._smooth_bulk(u, mesh, out, scratch)
        assert np.array_equal(smooth.reshape(rows.shape),
                              np.array([_roll_smooth(row, mesh) for row in rows]))

    @pytest.mark.parametrize("n", [3, 8, 17])
    @pytest.mark.parametrize("shape", [(1,), (4,), (3, 2)])
    def test_centered_around_each_ring(self, n, shape):
        f = np.random.default_rng(n).uniform(-1.0, 1.0, shape + (n,))
        rolled = np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)
        flat = f.reshape(f.shape[:-2] + (-1,))
        assert np.array_equal(diag_mod._centered(flat, n), rolled.reshape(flat.shape))
        assert np.array_equal(diag_mod._centered(f, n), rolled)


class TestBatchedProbe:
    """The block evaluation against the per-sample reference loop above."""

    @pytest.mark.parametrize("shape", [(8, 16), (16, 33)])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_matches_per_sample_reference(self, preset, shape):
        # t > 0, so that the breathing metric differs from the reference one
        geom = build_geometry(PRESETS[preset])
        mesh = build_mesh(*shape, 1.0, 2.0)
        params = ModelParams(1.0, 0.7, 1.3, 1.0, 1.0)
        eq = solve_equilibrium(15.0, 10.0, float(np.sum(mesh.bulk_ref_measures)),
                               float(np.sum(mesh.surf_ref_measures)), params)
        block = block_size(mesh)
        counts = (1, block - 1, block + 1, 3 * block + 2)
        rows = reference_probe(eq, geom, mesh, params, max(counts), 41, t=0.4)
        for n in counts:
            found = probe_functional_inequality(eq, geom, mesh, params, n, 41, t=0.4)
            assert_same_worst(found, [r for r in rows if r[1] < n])

    def test_single_state_functions_match_reference_exactly(self):
        # one state is the batch-free case: the same arithmetic as before blocks
        geom = build_geometry(PRESETS["breathing"])
        mesh = build_mesh(8, 16, 1.0, 2.0)
        params = ModelParams(1.0, 0.7, 1.3, 1.0, 1.0)
        eq = solve_equilibrium(15.0, 10.0, 3 * math.pi, 2 * math.pi, params)
        for i in range(5):
            st = sample_conservative_state(i, 8, eq, geom, mesh, t=0.4)
            u, w, z = _ref_state(i, 8, eq, geom, mesh, 0.4)
            assert np.array_equal(st.u_hat, u) and np.array_equal(st.w_hat, w)
            assert np.array_equal(st.z_hat, z)
            e, d = _ref_entropy_dissipation(u, w, z, eq, geom, mesh, params, 0.4)
            assert relative_entropy(st, eq, geom, mesh) == e
            assert entropy_dissipation(st, geom, mesh, params) == d

    def test_batch_axis_gives_one_value_per_state(self, setup):
        geom, mesh, params, eq = setup
        states = [sample_conservative_state(i, 4, eq, geom, mesh) for i in range(5)]
        batch = State(0.0, *(np.stack([getattr(st, f) for st in states])
                             for f in ("u_hat", "w_hat", "z_hat")))
        e = relative_entropy(batch, eq, geom, mesh)
        parts = entropy_dissipation_parts(batch, geom, mesh, params)
        assert e.shape == parts.total.shape == (5,)
        for i, st in enumerate(states):
            assert e[i] == pytest.approx(relative_entropy(st, eq, geom, mesh), rel=1e-14)
            assert parts.total[i] == pytest.approx(
                entropy_dissipation(st, geom, mesh, params), rel=1e-14)
        projected = project_to_masses(2.0 * batch.u_hat, batch.w_hat, 3.0 * batch.z_hat,
                                      eq.m1, eq.m2, geom, mesh)
        for i, st in enumerate(states):
            one = project_to_masses(2.0 * st.u_hat, st.w_hat, 3.0 * st.z_hat,
                                    eq.m1, eq.m2, geom, mesh)
            for a, b in zip(projected, one):
                np.testing.assert_allclose(a[i], b, rtol=1e-14)

    def test_raw_sampler_in_blocks(self, setup):
        geom, mesh, params, eq = setup

        def sampler(index, rng):
            return (rng.uniform(0.5, 2.0, mesh.n_bulk), rng.uniform(0.5, 2.0, mesh.n_surf),
                    rng.uniform(0.5, 2.0, mesh.n_surf))

        n = 2 * block_size(mesh) + 3
        found = probe_functional_inequality(eq, geom, mesh, params, n, 3, raw_sampler=sampler)
        assert_same_worst(found, reference_probe(eq, geom, mesh, params, n, 3,
                                                 raw_sampler=sampler))

    def test_one_nonfinite_sample_in_a_block_raises(self, setup):
        geom, mesh, params, eq = setup

        def sampler(index, rng):
            u = np.ones(mesh.n_bulk) + rng.uniform(0.0, 1.0, mesh.n_bulk)
            if index == 5:
                u[3] = math.inf
            return u, np.ones(mesh.n_surf), np.ones(mesh.n_surf)

        assert block_size(mesh) > 10
        with pytest.raises(NonfiniteField):
            probe_functional_inequality(eq, geom, mesh, params, 10, 1, raw_sampler=sampler)

    def test_low_entropy_sample_skipped_and_neighbours_kept(self, setup):
        # sample 3 projects exactly onto the equilibrium; its block neighbours count
        geom, mesh, params, eq = setup

        def sampler(index, rng):
            if index == 3:
                return np.ones(mesh.n_bulk), np.ones(mesh.n_surf), np.ones(mesh.n_surf)
            return (rng.uniform(0.5, 2.0, mesh.n_bulk), rng.uniform(0.5, 2.0, mesh.n_surf),
                    rng.uniform(0.5, 2.0, mesh.n_surf))

        u, w, z = _ref_state(3, 6, eq, geom, mesh, 0.0, sampler)
        assert _ref_entropy_dissipation(u, w, z, eq, geom, mesh, params, 0.0)[0] < 1e-12
        rows = reference_probe(eq, geom, mesh, params, 8, 6, raw_sampler=sampler)
        assert sorted(r[1] for r in rows) == [0, 1, 2, 4, 5, 6, 7]
        found = probe_functional_inequality(eq, geom, mesh, params, 8, 6, raw_sampler=sampler)
        assert_same_worst(found, rows)

    def test_all_skipped_over_several_blocks_is_degenerate(self, setup):
        geom, mesh, params, eq = setup

        def constant_sampler(index, rng):
            return (np.ones(mesh.n_bulk), np.ones(mesh.n_surf), np.ones(mesh.n_surf))

        with pytest.raises(DegenerateSampler):
            probe_functional_inequality(eq, geom, mesh, params, 2 * block_size(mesh) + 1, 5,
                                        raw_sampler=constant_sampler)


def kkt_poincare_constants(mesh, geom, t):
    """The Poincare constants from assembled matrices.  c_pw: the second
    eigenvalue of the dense surface pencil.  c_trpw: the reciprocal of the
    largest eigenvalue of the trace form, built column by column from
    sparse-LU solves of the bulk Neumann stiffness bordered by the measure
    row (a KKT system that pins the bulk-average mode)."""
    ops = assemble_operators(geom, mesh, ModelParams(1.0, 1.0, 1.0, 1.0, 1.0), t)
    bulk, surf, _ = stiffness(ops)
    ms, mb = ops.surf_measures, ops.bulk_measures
    c_pw = scipy.linalg.eigh(-surf.toarray(), np.diag(ms), eigvals_only=True)[1]
    area, n, ns = float(np.sum(mb)), mesh.n_bulk, mesh.n_surf
    kkt = sp.bmat([[-bulk.tocsc(), sp.csc_matrix(mb[:, None])],
                   [sp.csc_matrix(mb[None, :]), None]], format="csc")
    lu = spla.splu(kkt)
    sqrt_ms = np.sqrt(ms)
    s = np.empty((ns, ns))
    for k in range(ns):
        # adjoint of trace-minus-average maps surface data to bulk cells
        y = np.zeros(n + 1)
        y[k] = sqrt_ms[k]
        y[:n] -= mb / area * sqrt_ms[k]
        f = lu.solve(y)[:n]
        s[:, k] = sqrt_ms * (f[:ns] - float(np.dot(mb, f)) / area)
    smax = float(np.max(scipy.linalg.eigvalsh(0.5 * (s + s.T))))
    return c_pw, 1.0 / smax


class TestPoincare:
    @pytest.mark.parametrize("radii", [(1.0, 2.0), (2.0, 3.0), (1.0, 10.0)],
                             ids=["r1-2", "r2-3", "r1-10"])
    @pytest.mark.parametrize("n_theta", [16, 17])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_fourier_modes_match_kkt_reference(self, preset, n_theta, radii):
        """Mode 1 sets c_trpw on the first two annuli, mode 0 on the thick one."""
        r_inner, r_outer = radii
        geom = build_geometry(dataclasses.replace(PRESETS[preset], r_inner0=r_inner,
                                                  r_outer0=r_outer))
        mesh = build_mesh(8, n_theta, r_inner, r_outer)
        for t in (0.0, 0.7):
            c = estimate_poincare_constants(mesh, geom, t)
            c_pw, c_trpw = kkt_poincare_constants(mesh, geom, t)
            assert c.c_pw == pytest.approx(c_pw, rel=1e-10)
            assert c.c_trpw == pytest.approx(c_trpw, rel=1e-10)

    def test_unit_circle_limit(self):
        mesh = build_mesh(4, 256, 1.0, 2.0)
        geom = build_geometry(GeometryPreset(GeometryKind.FIXED, 1.0, 2.0))
        c = estimate_poincare_constants(mesh, geom, 0.0)
        assert c.c_pw == pytest.approx(1.0, rel=0.01)

    def test_radius_two_scaling(self):
        mesh = build_mesh(4, 256, 2.0, 3.0)
        geom = build_geometry(GeometryPreset(GeometryKind.FIXED, 2.0, 3.0))
        c = estimate_poincare_constants(mesh, geom, 0.0)
        assert c.c_pw == pytest.approx(0.25, rel=0.01)

    def test_trace_constant_positive_and_stabilizes(self):
        geom = build_geometry(GeometryPreset(GeometryKind.FIXED, 1.0, 2.0))
        vals = []
        for n in (8, 16, 32):
            mesh = build_mesh(n, 2 * n, 1.0, 2.0)
            c = estimate_poincare_constants(mesh, geom, 0.0)
            assert c.c_trpw > 0.0
            vals.append(c.c_trpw)
        # refinement changes shrink as the estimate approaches its limit
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])

    def test_trace_constant_harmonic_extension_oracle(self):
        # independent oracle on the (1, 2) annulus: for an angular mode m the
        # minimizing profile is the harmonic extension a r^m + b r^-m with a
        # zero outer flux, giving the quotient m (4^m - 1)/(4^m + 1); the
        # infimum over modes is 3/5 at m = 1
        geom = build_geometry(GeometryPreset(GeometryKind.FIXED, 1.0, 2.0))
        mesh = build_mesh(64, 128, 1.0, 2.0)
        c = estimate_poincare_constants(mesh, geom, 0.0)
        assert c.c_trpw == pytest.approx(0.6, rel=0.01)


class TestRecord:
    def test_record_fields_and_csv(self, setup):
        geom, mesh, params, eq = setup
        rec = make_record(eq_state(mesh, eq), geom, mesh, params, eq)
        assert rec.m1 == pytest.approx(eq.m1, rel=1e-12)
        assert rec.entropy == pytest.approx(0.0, abs=1e-12)
        assert rec.area_omega == pytest.approx(3 * math.pi, rel=1e-12)
        row = rec.csv_row()
        assert len(row.split(",")) == 16
        assert isinstance(rec, DiagnosticsRecord)
