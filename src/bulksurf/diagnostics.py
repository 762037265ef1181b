"""Entropy, dissipation, lower bounds, decay fitting and spectral constants.

The relative entropy of a state against the homogeneous equilibrium is the
sum of three Boltzmann integrals s log(s/s_inf) - s + s_inf (one over the
bulk for u, two over the surface for w and z), with the 0 log 0 = 0
convention.  The dissipation functional combines the three Fisher
informations with the exchange term (z - u w) log(z / u w):

    Dtilde = (dO/2) int |grad u|^2/u + (dG/2) int |grad_G w|^2/w
           + (dG'/2) int |grad_G z|^2/z + int (z - u w) log(z/(u w)).

Gradients are centered differences in reference coordinates mapped through
the current metric; logarithms and denominators are floored to keep exact
zeros finite without perturbing desk-scale values.

The entropy-to-L1 lower bound is assembled from the explicit constants of
the Pinsker-type argument (gamma = 0.9 in the convexity inequality for
s log s - s + 1): each species contributes a fluctuation constant
0.9^2 / (4 Mbar^2 measure) and a mean-offset constant
1 / (measure (sqrt(Mbar) + sqrt(s_inf))^2), where Mbar bounds the spatial
average through the conserved masses; combining the two halves of
|s - s_inf| costs a factor 1/2.

Each of these quantities has one formula, written over fields with any
leading batch shape: a single state is the case with no batch axis, and the
Monte-Carlo probe evaluates its samples in blocks, as (block, cells) arrays
held in reused buffers.  The measures and metric factors of one time are
evaluated once (`_Frame`) and shared by every state evaluated there.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading

import numpy as np

from .errors import (DegenerateSampler, EigenFailure, InsufficientData, MassMismatch,
                     NonfiniteField, NonpositiveEntropy, WorkerFailure)
from .equilibrium import Equilibrium
from .geometry import EvolvingGeometry
from .mesh import ReferenceMesh, moving_bulk_measures, moving_surface_measures
from .model import ModelParams, check_samples
from .solver import State, assemble_operators

FLOOR_EPS_DEFAULT = 1e-30

CSV_HEADER = ("t,m1,m2,entropy,dissipation,min_u,min_w,min_z,"
              "max_u,max_w,max_z,l1_u,l1_w,l1_z,area_omega,length_gamma")


@dataclasses.dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    m1: float
    m2: float
    entropy: float
    dissipation: float
    min_u: float
    min_w: float
    min_z: float
    max_u: float
    max_w: float
    max_z: float
    l1_u: float
    l1_w: float
    l1_z: float
    area_omega: float
    length_gamma: float

    def csv_row(self) -> str:
        vals = (self.t, self.m1, self.m2, self.entropy, self.dissipation,
                self.min_u, self.min_w, self.min_z, self.max_u, self.max_w,
                self.max_z, self.l1_u, self.l1_w, self.l1_z,
                self.area_omega, self.length_gamma)
        return ",".join(f"{v:.17g}" for v in vals)


@dataclasses.dataclass(frozen=True)
class InequalityConstants:
    c_pw: float | None = None
    c_trpw: float | None = None


@dataclasses.dataclass(frozen=True)
class DecayFit:
    mu: float
    r_squared: float
    window: tuple
    n_points: int


@dataclasses.dataclass(frozen=True)
class ProbeSample:
    index: int
    ratio: float
    entropy: float
    dissipation: float


@dataclasses.dataclass(frozen=True)
class DissipationParts:
    """Floats for one state; arrays of the batch shape for a batch."""
    fisher_u: float
    fisher_w: float
    fisher_z: float
    reaction: float

    @property
    def total(self):
        return self.fisher_u + self.fisher_w + self.fisher_z + self.reaction


@dataclasses.dataclass(frozen=True)
class _Frame:
    """The moving-mesh data that integrals and gradients at one time need,
    evaluated once and shared by every state (or block of states) there."""
    mesh: ReferenceMesh
    bulk: np.ndarray      # moving cell areas, (n_bulk,)
    surf: np.ndarray      # moving surface cell lengths, (n_theta,)
    slope: float          # d rho / d r of the radial map
    rho_c: np.ndarray     # physical radius of each ring, (n_r,)
    stretch: np.ndarray   # surface stretch G(t, theta_k), (n_theta,)


def _frame(geom: EvolvingGeometry, mesh: ReferenceMesh, t: float) -> _Frame:
    return _Frame(mesh, moving_bulk_measures(mesh, geom, t),
                  moving_surface_measures(mesh, geom, t), geom.radial_slope(t),
                  geom.radius_map(t, mesh.r_centers),
                  geom.surface_stretch(t, mesh.theta_centers))


def _require_finite(fields, what):
    if not all(np.all(np.isfinite(f)) for f in fields):
        raise NonfiniteField(f"{what} evaluation on non-finite state")


def _boltzmann(s, s_inf, out=None):
    """s log(s/s_inf) - s + s_inf elementwise, with 0 log 0 = 0 (and s_inf
    wherever s <= 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(s, s_inf, out=out)
        np.log(out, out=out)
        out *= s
    out -= s
    out += s_inf
    out[s <= 0.0] = s_inf
    return out


def _entropy(u, w, z, eq: Equilibrium, fr: _Frame, scratch=None):
    e = _boltzmann(u, eq.u_inf, scratch) @ fr.bulk
    e += _boltzmann(w, eq.w_inf) @ fr.surf
    e += _boltzmann(z, eq.z_inf) @ fr.surf
    return e


def relative_entropy(state: State, eq: Equilibrium, geom: EvolvingGeometry,
                     mesh: ReferenceMesh):
    """Sum of the three Boltzmann integrals at state.t; nonnegative.  Fields
    with a leading batch axis give one entropy per state."""
    fields = (state.u_hat, state.w_hat, state.z_hat)
    _require_finite(fields, "entropy")
    return _entropy(*fields, eq, _frame(geom, mesh, state.t))


def _centered(f, out=None):
    """f[k+1] - f[k-1] along the periodic last axis."""
    d = np.empty_like(f) if out is None else out
    np.subtract(f[..., 2:], f[..., :-2], out=d[..., 1:-1])
    np.subtract(f[..., 1], f[..., -1], out=d[..., 0])
    np.subtract(f[..., 0], f[..., -2], out=d[..., -1])
    return d


def _bulk_gradient_sq(u, fr: _Frame, out, scratch):
    """|grad u|^2 at bulk cell centers via mapped centered differences,
    written to out; scratch is overwritten."""
    mesh = fr.mesh
    grid = u.shape[:-1] + (mesh.n_r, mesh.n_theta)
    u = u.reshape(grid)
    g = out.reshape(grid)
    h = fr.slope * mesh.dr
    np.subtract(u[..., 2:, :], u[..., :-2, :], out=g[..., 1:-1, :])
    g[..., 1:-1, :] /= 2.0 * h
    g[..., 0, :] = (u[..., 1, :] - u[..., 0, :]) / h
    g[..., -1, :] = (u[..., -1, :] - u[..., -2, :]) / h
    np.square(g, out=g)
    dtan = _centered(u, scratch.reshape(grid))
    dtan /= 2.0 * mesh.dtheta
    dtan /= fr.rho_c[:, None]
    g += np.square(dtan, out=dtan)
    return out


def _surface_fisher(field, fr: _Frame, floor_eps):
    """The surface Fisher sum, (d_s f)^2 / f times the cell length over the
    cells.  Where the square of the gradient leaves the float range, the sum
    is taken of (d_s f sqrt(length / f))^2 instead, which stays finite
    wherever the sum does (tiny inner radii: f near 1e100, lengths near
    1e-100); elsewhere the plain form is kept, bit for bit."""
    ds = _centered(field)
    ds /= 2.0 * fr.mesh.dtheta * fr.stretch
    if np.abs(ds).max() < 1e150 * math.sqrt(min(floor_eps, 1.0)):  # every square / f below 1e300
        return _fisher(np.square(ds, out=ds), field, fr.surf, floor_eps)
    with np.errstate(over="ignore"):
        total = _fisher(np.square(ds), field, fr.surf, floor_eps)
    scaled = ds * (np.sqrt(fr.surf) / np.sqrt(np.maximum(field, floor_eps)))
    return np.where(np.isfinite(total), total, np.sum(scaled * scaled, axis=-1))


def _fisher(grad_sq, s, measures, floor_eps, scratch=None):
    grad_sq /= np.maximum(s, floor_eps, out=scratch)
    return grad_sq @ measures


def _dissipation_parts(u, w, z, fr: _Frame, params: ModelParams, floor_eps: float,
                       scratch=None) -> DissipationParts:
    """The dissipation terms of fields with any leading batch shape; scratch,
    if given, holds two arrays shaped like u and is overwritten."""
    grad, tmp = np.empty((2,) + u.shape) if scratch is None else scratch
    fu = 0.5 * params.delta_omega * _fisher(_bulk_gradient_sq(u, fr, grad, tmp), u, fr.bulk,
                                            floor_eps, tmp)
    fw = 0.5 * params.delta_gamma * _surface_fisher(w, fr, floor_eps)
    fz = 0.5 * params.delta_gamma_prime * _surface_fisher(z, fr, floor_eps)
    uw = u[..., : fr.mesh.n_theta] * w
    logratio = np.log(np.maximum(z, floor_eps) / np.maximum(uw, floor_eps))
    reaction = ((z - uw) * logratio) @ fr.surf
    return DissipationParts(fu, fw, fz, reaction)


def entropy_dissipation_parts(state: State, geom: EvolvingGeometry, mesh: ReferenceMesh,
                              params: ModelParams,
                              floor_eps: float = FLOOR_EPS_DEFAULT) -> DissipationParts:
    """The three Fisher terms and the exchange term, separately.  Fields with
    a leading batch axis give one value per state in each term."""
    fields = (state.u_hat, state.w_hat, state.z_hat)
    _require_finite(fields, "dissipation")
    return _dissipation_parts(*fields, _frame(geom, mesh, state.t), params, floor_eps)


def entropy_dissipation(state: State, geom: EvolvingGeometry, mesh: ReferenceMesh,
                        params: ModelParams, floor_eps: float = FLOOR_EPS_DEFAULT) -> float:
    return entropy_dissipation_parts(state, geom, mesh, params, floor_eps).total


def _masses(state: State, fr: _Frame):
    """(m1, m2) of a state, as conserved_masses gives them."""
    ms = fr.surf
    return (float(np.dot(state.u_hat, fr.bulk)) + float(np.dot(state.z_hat, ms)),
            float(np.dot(state.w_hat, ms)) + float(np.dot(state.z_hat, ms)))


def l1_distances(state: State, eq: Equilibrium, fr: _Frame):
    return (float(np.dot(np.abs(state.u_hat - eq.u_inf), fr.bulk)),
            float(np.dot(np.abs(state.w_hat - eq.w_inf), fr.surf)),
            float(np.dot(np.abs(state.z_hat - eq.z_inf), fr.surf)))


def make_record(state: State, geom: EvolvingGeometry, mesh: ReferenceMesh,
                params: ModelParams, eq: Equilibrium) -> DiagnosticsRecord:
    """Every column of a diagnostics.csv row, all from one frame at state.t."""
    fields = (state.u_hat, state.w_hat, state.z_hat)
    _require_finite(fields, "entropy")
    fr = _frame(geom, mesh, state.t)
    m1, m2 = _masses(state, fr)
    l1u, l1w, l1z = l1_distances(state, eq, fr)
    return DiagnosticsRecord(
        t=state.t, m1=m1, m2=m2,
        entropy=_entropy(*fields, eq, fr),
        dissipation=_dissipation_parts(*fields, fr, params, FLOOR_EPS_DEFAULT).total,
        min_u=float(np.min(state.u_hat)), min_w=float(np.min(state.w_hat)),
        min_z=float(np.min(state.z_hat)),
        max_u=float(np.max(state.u_hat)), max_w=float(np.max(state.w_hat)),
        max_z=float(np.max(state.z_hat)),
        l1_u=l1u, l1_w=l1w, l1_z=l1z,
        area_omega=float(np.sum(fr.bulk)), length_gamma=float(np.sum(fr.surf)),
    )


# -- Pinsker-type lower bound ------------------------------------------------------


def ckp_constant(eq: Equilibrium, area: float, length: float) -> float:
    """Explicit constant in E >= C (sum of squared L1 distances)."""
    gamma2 = 0.9 ** 2
    mbar_u = eq.m1 / area          # bounds the bulk average of u
    mbar_s = eq.m2 / length        # bounds the surface averages of w and z
    cs = [
        gamma2 / (4.0 * mbar_u ** 2 * area),
        gamma2 / (4.0 * mbar_s ** 2 * length),
        1.0 / (area * (math.sqrt(mbar_u) + math.sqrt(eq.u_inf)) ** 2),
        1.0 / (length * (math.sqrt(mbar_s) + math.sqrt(eq.w_inf)) ** 2),
        1.0 / (length * (math.sqrt(mbar_s) + math.sqrt(eq.z_inf)) ** 2),
    ]
    # |s - s_inf|^2 <= 2(|s - sbar|^2 + |sbar - s_inf|^2) costs the 1/2
    return 0.5 * min(cs)


def ckp_lower_bound(state: State, eq: Equilibrium, geom: EvolvingGeometry,
                    mesh: ReferenceMesh):
    """(entropy, bound, constant) with entropy >= bound - 1e-10 guaranteed
    for states carrying the equilibrium's masses."""
    fr = _frame(geom, mesh, state.t)
    m1, m2 = _masses(state, fr)
    if abs(m1 - eq.m1) > 1e-6 * max(1.0, abs(eq.m1)) or \
            abs(m2 - eq.m2) > 1e-6 * max(1.0, abs(eq.m2)):
        raise MassMismatch(
            f"state masses ({m1:g}, {m2:g}) do not match equilibrium ({eq.m1:g}, {eq.m2:g})")
    fields = (state.u_hat, state.w_hat, state.z_hat)
    _require_finite(fields, "entropy")
    lhs = _entropy(*fields, eq, fr)
    c = ckp_constant(eq, float(np.sum(fr.bulk)), float(np.sum(fr.surf)))
    l1u, l1w, l1z = l1_distances(state, eq, fr)
    rhs = c * (l1u ** 2 + l1w ** 2 + l1z ** 2)
    return lhs, rhs, c


# -- decay fitting ---------------------------------------------------------------


def fit_decay_rate(series, window) -> DecayFit:
    """Least-squares exponential rate of an entropy trace on a t-window.

    series is an iterable of (t, E); mu is minus the slope of log E.
    """
    t0, t1 = window
    pts = [(t, e) for (t, e) in series if t0 <= t <= t1]
    if any(e <= 0.0 for _, e in pts):
        raise NonpositiveEntropy(f"window [{t0:g}, {t1:g}] contains nonpositive entropy values")
    if len(pts) < 5:
        raise InsufficientData(f"need >= 5 points with E > 0 in window, got {len(pts)}")
    t = np.array([p[0] for p in pts])
    y = np.log(np.array([p[1] for p in pts]))
    a = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    fit = a @ coef
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DecayFit(mu=float(-coef[0]), r_squared=min(1.0, r2), window=(t0, t1),
                    n_points=len(pts))


# -- random conservative states and the functional-inequality probe ---------------


def _sample_stream(seed, index):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _smooth_bulk(u, mesh, out, scratch):
    """One conservative diffusion application (explicit, positivity-safe),
    written to out; scratch is overwritten.  Each neighbour exchange
    0.2 (u_j - u_i) enters one cell as computed and its neighbour negated."""
    grid = u.shape[:-1] + (mesh.n_r, mesh.n_theta)
    u, s, t = u.reshape(grid), out.reshape(grid), scratch.reshape(grid)
    s[...] = u
    flux = np.subtract(u[..., :-1, :], u[..., 1:, :], out=t[..., 1:, :])
    flux *= 0.2
    s[..., 1:, :] += flux
    s[..., :-1, :] -= flux
    np.subtract(u[..., :-1], u[..., 1:], out=t[..., 1:])
    np.subtract(u[..., -1], u[..., 0], out=t[..., 0])
    t *= 0.2
    s += t
    s[..., :-1] -= t[..., 1:]
    s[..., -1] -= t[..., 0]
    return out


def _smooth_surface(field):
    return field + 0.25 * (np.roll(field, 1, axis=-1) - 2.0 * field + np.roll(field, -1, axis=-1))


def _project(u, w, z, m1, m2, fr: _Frame, out=(None, None, None)):
    iu = u @ fr.bulk
    iw = w @ fr.surf
    iz = z @ fr.surf
    if np.any((iu <= 0.0) | (iw <= 0.0) | (iz <= 0.0)):
        raise ValueError("projection requires positive sampled masses")
    # non-finite draws pass through here and are rejected by the entropy
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = iu * iw + iz * (m1 - m2)
        root = np.sqrt(beta * beta + 4.0 * iw * iz * m2 * iu)
        # the root free of cancellation for either sign of beta
        b = np.where(beta >= 0.0, 2.0 * m2 * iu / (beta + root),
                     (-beta + root) / (2.0 * iw * iz))
        a = m1 / (iu + b * iz)
    return (np.multiply(a[..., None], u, out=out[0]), np.multiply(b[..., None], w, out=out[1]),
            np.multiply((a * b)[..., None], z, out=out[2]))


def project_to_masses(u, w, z, m1, m2, geom, mesh, t=0.0):
    """Multiplicative projection onto the two conservation constraints.

    u and w are scaled by a and b, z by a*b; the pair (a, b) solves the two
    mass equations exactly (one quadratic with a unique positive root), so
    positivity is preserved.  Fields with a leading batch axis are projected
    state by state.
    """
    return _project(u, w, z, m1, m2, _frame(geom, mesh, t))


def _draw_block(indices, seed, eq, fr: _Frame, value_range, raw_sampler, work):
    """Positive states carrying exactly the equilibrium masses, one row per
    index, built in work (three bulk-sized arrays of at least len(indices)
    rows); returns (u, w, z) and the two arrays of work not holding u.

    Row j comes from the stream (seed, indices[j]) alone, so a sample does not
    depend on the block it is drawn in.  Without a raw sampler the draws are
    log-uniform and get one diffusion application before the projection.
    """
    mesh = fr.mesh
    u, other, scratch = work[:, :len(indices)]
    w = np.empty((len(indices), mesh.n_surf))
    z = np.empty((len(indices), mesh.n_surf))
    if raw_sampler is None:
        lo, hi = math.log(value_range[0]), math.log(value_range[1])
        for j, index in enumerate(indices):
            rng = _sample_stream(seed, index)
            u[j] = rng.uniform(lo, hi, mesh.n_bulk)
            w[j] = rng.uniform(lo, hi, mesh.n_surf)
            z[j] = rng.uniform(lo, hi, mesh.n_surf)
        u, other = _smooth_bulk(np.exp(u, out=u), mesh, other, scratch), u
        w = _smooth_surface(np.exp(w, out=w))
        z = _smooth_surface(np.exp(z, out=z))
    else:
        for j, index in enumerate(indices):
            u[j], w[j], z[j] = raw_sampler(index, _sample_stream(seed, index))
    _project(u, w, z, eq.m1, eq.m2, fr, out=(u, w, z))
    return (u, w, z), (other, scratch)


def sample_conservative_state(index, seed, eq, geom, mesh, value_range=(0.1, 10.0), t=0.0):
    """One random positive state carrying exactly the equilibrium masses.

    Cell values are log-uniform in value_range, smoothed by one diffusion
    application, then multiplicatively projected onto the constraints.
    Streams are keyed by (seed, index) so results do not depend on batching.
    """
    (u, w, z), _ = _draw_block([index], seed, eq, _frame(geom, mesh, t), value_range, None,
                               np.empty((3, 1, mesh.n_bulk)))
    return State(t, u[0], w[0], z[0])


# Bulk cell values per block of probe samples: blocks of 4 at 64 x 128 and of
# 64 at 16 x 32.  Larger blocks share numpy's per-call cost among more
# samples; a block's three bulk arrays take 256 kB each.
PROBE_BLOCK_CELLS = 1 << 15


def probe_functional_inequality(eq: Equilibrium, geom: EvolvingGeometry, mesh: ReferenceMesh,
                                params: ModelParams, n_samples: int, rng_seed: int,
                                floor_eps: float = FLOOR_EPS_DEFAULT,
                                value_range=(0.1, 10.0), t: float = 0.0, raw_sampler=None):
    """Monte-Carlo lower estimate of the entropy to dissipation ratio.

    Draws random positive fields obeying both conservation laws and returns
    (min over samples of Dtilde/E, descriptor of the minimizing sample).
    Samples with E < 1e-12 are skipped; if every sample is skipped the probe
    is degenerate.  The estimate is a positivity check and regression
    baseline, not an assertion of any published value.

    Samples are evaluated in blocks of PROBE_BLOCK_CELLS // n_bulk as
    (block, n) arrays.  With n usable CPUs (the process's affinity) and more
    than one block, the calling process evaluates blocks 0, n, 2n, ... and
    n - 1 forked worker processes the others (see `_in_workers`).  Sample i
    draws from its own stream (seed, i) and the worst sample is the least
    (ratio, index), so the result depends neither on the block size nor on
    the number of workers.
    """
    check_samples(n_samples)
    fr = _frame(geom, mesh, t)
    size = min(n_samples, max(1, PROBE_BLOCK_CELLS // mesh.n_bulk))
    starts = range(0, n_samples, size)

    def evaluate(start, work):
        indices = range(start, min(start + size, n_samples))
        fields, scratch = _draw_block(indices, rng_seed, eq, fr, value_range, raw_sampler, work)
        _require_finite(fields, "entropy")
        e = _entropy(*fields, eq, fr, scratch[0])
        kept = e >= 1e-12
        if not kept.any():
            return None
        d = _dissipation_parts(*fields, fr, params, floor_eps, scratch).total
        ratio = np.divide(d, e, out=np.full_like(e, np.inf), where=kept)
        j = int(np.argmin(ratio))
        return ProbeSample(index=indices[j], ratio=float(ratio[j]), entropy=float(e[j]),
                           dissipation=float(d[j]))

    def blocks(k, n):
        # one work array serves all blocks of a worker: freeing and
        # reallocating block-sized temporaries made the heap shrink and regrow,
        # page-faulting tens of thousands of times per probe and doubling its
        # time in some runs
        work = np.empty((3, size, mesh.n_bulk))
        return [s for s in (evaluate(start, work) for start in starts[k::n]) if s is not None]

    found = _in_workers(blocks, len(starts))
    if not found:
        raise DegenerateSampler(f"all {n_samples} probe samples had entropy below 1e-12")
    worst = min(found, key=lambda s: (s.ratio, s.index))
    return worst.ratio, worst


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity to read outside Linux: no workers
        return 1


def _in_workers(part, n_parts):
    """part(0, n) + part(1, n) + ... + part(n - 1, n) for n = min(usable CPUs,
    n_parts): the calling process computes part 0 and one forked worker
    process (fork: numpy is not imported again) each other part, sending its
    list back over a one-way pipe.  An exception raised in a worker's part is
    raised here; a worker that ends without a report raises WorkerFailure.
    No fork is taken while other Python threads run, since a lock one of them
    holds would stay held in the child; the parts then run here in turn."""
    n = min(_usable_cpus(), n_parts)
    if n < 2 or threading.active_count() > 1:
        return part(0, 1)
    import multiprocessing  # here, so that one-block probes never load it

    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for k in range(1, n):
            results, results_in = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_part, args=(part, k, n, results_in))
            proc.start()
            workers.append((proc, results))
            results_in.close()
        found = part(0, n)
        for proc, results in workers:
            try:
                got = results.recv()
            except EOFError:  # the worker ended without a report
                proc.join()
                raise WorkerFailure(
                    f"probe worker {proc.pid} exited with code {proc.exitcode}") from None
            if isinstance(got, Exception):
                raise got
            found += got
        return found
    except BaseException:
        for proc, _ in workers:
            proc.terminate()  # their parts are no longer wanted
        raise
    finally:
        for proc, results in workers:
            results.close()
            proc.join()


def _run_part(part, k, n, results_in):
    """Body of a probe worker: send part(k, n), or the exception it raised."""
    try:
        found = part(k, n)
    except Exception as exc:
        found = exc
    results_in.send(found)


# -- spectral constants -------------------------------------------------------------


def estimate_poincare_constants(mesh: ReferenceMesh, geom: EvolvingGeometry,
                                t: float = 0.0) -> InequalityConstants:
    """Discrete Poincare constants at time t, one Fourier mode in theta at a time.

    The geometry must be rotationally symmetric, as every preset is: the
    operators are then ring coefficients (see DiscreteOperators), both
    quadratic forms below commute with rotations in theta, and Fourier mode p
    is an eigenvector of each, its cyclic second difference
    4 sin^2(pi p / n_theta) times the angular faces.

    c_pw: smallest nonzero eigenvalue of the surface Laplace-Beltrami pencil
    (stiffness against the moving cell measures), that of mode 1.

    c_trpw: reciprocal of the largest eigenvalue of the boundary-trace form
    compressed through the bulk Neumann stiffness, bulk-average mode removed
    (the trace-Poincare quotient).  Per unit surface arc, the eigenvalue of
    mode p >= 1 is the inverse of the conductance from the inner ring to
    ground: each ring's angular faces, times the cyclic term, lead to ground,
    and the radial faces lead outward in series.  That conductance grows with
    p, so mode 1 bounds all p >= 1.  In mode 0 a unit inflow at the inner
    ring drains in proportion to the bulk measure; the flux through a radial
    face is F, the share of the bulk measure outside it, and the eigenvalue
    per unit arc is the sum of F^2 / transmissibility over the radial faces.
    """
    unit = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)  # unit diffusivities: bare Laplacians
    ops = assemble_operators(geom, mesh, unit, t)
    cyclic = 4.0 * math.sin(math.pi / mesh.n_theta) ** 2
    c_pw = cyclic * ops.surface[0] / ops.surf_measure
    # mode 1: the conductance to ground seen from each ring, outermost first
    ang, rad = (cyclic * ops.angular).tolist(), ops.radial.tolist()
    ground = ang[-1]
    for i in reversed(range(len(rad))):
        ground = ang[i] + rad[i] * ground / (rad[i] + ground)
    outside = np.cumsum(ops.ring_measures[::-1])[-2::-1] / np.sum(ops.ring_measures)
    smax = ops.surf_measure * max(1.0 / ground, float(np.sum(outside ** 2 / ops.radial)))
    if not (c_pw > 0.0 and 0.0 < smax < math.inf):
        raise EigenFailure(f"degenerate spectral result (c_pw={c_pw:g}, smax={smax:g})")
    return InequalityConstants(c_pw=c_pw, c_trpw=1.0 / smax)
