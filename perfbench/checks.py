"""Correctness checks of one run's outputs.

Each check compares the program's output with a figure computed here, apart
from the program, or with a property the method must have.  None compares
with a stored copy of earlier output.  Every function returns a list of
failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import math
import os
import re

import numpy as np

from workloads import R_INNER, R_OUTER, grid

CONSERVATION_RTOL = 1e-9
POSITIVITY_FLOOR = -1e-12
GEOMETRY_RTOL = 1e-10
REPORT_RTOL = 1e-9          # report.txt prints 12 significant digits
CONVERGENCE_RTOL = 1e-4     # static-imex final fields against the equilibrium at T = 20
ENTROPY_SLACK = 1e-8        # E may rise by at most 1e-8 (1 + E) per record
PROBE_RTOL = 1e-5           # E and D of the worst sample print 7 significant digits


def masses(u, w, z):
    """(m1, m2) by exact polar cell areas r_c dr dtheta and arcs r_in dtheta."""
    r, _, dr, dth = grid(*u.shape)
    bulk = float(np.sum(u * (r * dr * dth)[:, None]))
    arcs = R_INNER * dth
    return bulk + float(np.sum(z)) * arcs, float(np.sum(w) + np.sum(z)) * arcs


def equilibrium(m1, m2, area, length, kappa):
    """(u, w, z) with z = kappa u w, u area + z length = m1, (w + z) length = m2,
    by bisection on z in (0, min(m1, m2) / length)."""
    def gap(z):
        u = (m1 - z * length) / area
        w = m2 / length - z
        return kappa * u * w - z

    lo, hi = 0.0, min(m1, m2) / length
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    return (m1 - z * length) / area, m2 / length - z, z


def inner_radius(wl, t):
    if wl.key("geometry.kind") != "breathing":
        return R_INNER
    a, om, de = (float(wl.key(k)) for k in ("geometry.amplitude", "geometry.omega",
                                             "geometry.delta"))
    return R_INNER * (1.0 + a * math.sin(om * t) * math.exp(-de * t))


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(b), 1e-300)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def read_grid(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def check_run(wl, fields, out_dir):
    """Conservation, positivity, geometry, equilibrium, and the workload's
    own property (convergence on static-imex, entropy decay on the fixed
    domain with the implicit stepper)."""
    fail = []
    rows = read_csv(os.path.join(out_dir, "diagnostics.csv"))
    t_final = float(wl.key("time.t_final"))
    n_out = round(t_final / float(wl.key("time.output_interval")))
    if len(rows) != n_out + 1 or not _close(rows[-1]["t"], t_final, 1e-12):
        fail.append(f"expected {n_out + 1} rows ending at t = {t_final}, got {len(rows)}")
        return fail

    m1, m2 = masses(*fields)
    for row in rows:
        if not (_close(row["m1"], m1, CONSERVATION_RTOL) and
                _close(row["m2"], m2, CONSERVATION_RTOL)):
            fail.append(f"t = {row['t']}: masses ({row['m1']!r}, {row['m2']!r}) "
                        f"!= ({m1!r}, {m2!r})")
            break
        low = min(row["min_u"], row["min_w"], row["min_z"])
        if low < POSITIVITY_FLOOR:
            fail.append(f"t = {row['t']}: negative field value {low!r}")
            break
        rho = inner_radius(wl, row["t"])
        area, length = math.pi * (R_OUTER ** 2 - rho ** 2), 2.0 * math.pi * rho
        if not (_close(row["area_omega"], area, GEOMETRY_RTOL) and
                _close(row["length_gamma"], length, GEOMETRY_RTOL)):
            fail.append(f"t = {row['t']}: measures ({row['area_omega']!r}, "
                        f"{row['length_gamma']!r}) != ({area!r}, {length!r})")
            break

    kappa = float(wl.key("model.delta_k_prime", "1")) / float(wl.key("model.delta_k", "1"))
    eq = equilibrium(m1, m2, math.pi * (R_OUTER ** 2 - R_INNER ** 2), 2.0 * math.pi * R_INNER,
                     kappa)
    with open(os.path.join(out_dir, "report.txt"), encoding="utf-8") as fh:
        found = re.search(r"equilibrium \(rate_balance\): u = (\S+), w = (\S+), z = (\S+)",
                          fh.read())
    if not found:
        fail.append("report.txt has no rate_balance equilibrium line")
    elif not all(_close(float(v), e, REPORT_RTOL) for v, e in zip(found.groups(), eq)):
        fail.append(f"report equilibrium {found.groups()} != {eq}")

    if wl.key("output.snapshots") == "true":
        snap = os.path.join(out_dir, "snapshots")
        for name, e in zip("uwz", eq):
            final = read_grid(os.path.join(snap, f"{name}_{n_out:06d}.txt"))
            dev = float(np.max(np.abs(final - e))) / e
            if dev > CONVERGENCE_RTOL:
                fail.append(f"final {name} is {dev:.2e} from its equilibrium {e!r}")

    if wl.key("geometry.kind") == "fixed" and wl.key("time.stepper") == "implicit":
        for a, b in zip(rows, rows[1:]):
            if b["entropy"] > a["entropy"] + ENTROPY_SLACK * (1.0 + a["entropy"]):
                fail.append(f"entropy rose from {a['entropy']!r} to {b['entropy']!r} "
                            f"at t = {b['t']}")
                break
    return fail


def check_probe(wl, seed, out_dir):
    """lambda finite and > 0, and equal to D/E of the reported worst sample."""
    with open(os.path.join(out_dir, "probe.txt"), encoding="utf-8") as fh:
        text = fh.read()
    found = re.search(r"lambda_probe = (\S+) over (\d+) samples \(seed (-?\d+)\)\n"
                      r"worst sample: index=(\d+) E=(\S+) Dtilde=(\S+)", text)
    if not found:
        return [f"probe.txt not understood: {text!r}"]
    lam, n, s, _, e, d = found.groups()
    lam, e, d = float(lam), float(e), float(d)
    fail = []
    if (int(n), int(s)) != (wl.probe_samples, seed):
        fail.append(f"probe ran {n} samples with seed {s}")
    if not (math.isfinite(lam) and lam > 0.0):
        fail.append(f"lambda = {lam!r} is not finite and positive")
    elif not _close(lam, d / e, PROBE_RTOL):
        fail.append(f"lambda = {lam!r} but D/E of the worst sample = {d / e!r}")
    return fail


def check_identical(digests, what):
    if len(set(digests)) != 1:
        return [f"{what} differs between invocations of one config"]
    return []
