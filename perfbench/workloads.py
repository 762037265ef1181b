"""Workload definitions and seeded input generation.

Every workload is a config for `bulksurf run` or `bulksurf probe`.  The run
workloads start from a field file (`ic.profile = file`) whose smooth,
positive fields are drawn from the benchmark seed; the probe workload gets
the seed as `probe.seed`.  Nothing else in a config depends on the seed.

Inputs are written by this module, never by the program, so the program
sees only generated inputs.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

R_INNER, R_OUTER = 1.0, 2.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "run" or "probe"
    n_r: int
    n_theta: int
    keys: tuple             # (key, value) config lines besides mesh, ic, probe and output
    probe_samples: int = 0  # n_samples of the probe workload

    @property
    def is_run(self):
        return self.command == "run"

    def key(self, name, default=None):
        return dict(self.keys).get(name, default)


# Sized so that a run holds many invocations (1 to 1.5 s each; static-imex,
# whose factorization cache alone takes 1.3 s, about 3.5 s) and a median over
# them rides out the machine's slow swings in speed.
WORKLOADS = {
    # the paper's large-time setting: area fixed, rigid rotation decaying at
    # rate delta; factor once, back-solve every step; snapshots every interval
    "static-imex": Workload(
        "static-imex", "run", 128, 256,
        (("geometry.kind", "rotation"), ("geometry.omega", "1.0"),
         ("geometry.delta", "0.5"), ("time.t_final", "20"), ("time.dt", "0.2"),
         ("time.output_interval", "1"), ("time.stepper", "imex"),
         ("time.cfl", "false"), ("output.snapshots", "true"))),
    # moving metric: every step reassembles and refactorizes; the binding
    # bound (delta_K = 0.01) sets the adaptive dt
    "breathing-cfl": Workload(
        "breathing-cfl", "run", 64, 128,
        (("geometry.kind", "breathing"), ("geometry.omega", "2.0"),
         ("geometry.delta", "0.2"), ("geometry.amplitude", "0.3"),
         ("model.delta_k", "0.01"), ("model.delta_k_prime", "0.01"),
         ("time.t_final", "0.3"), ("time.dt", "0.05"),
         ("time.output_interval", "0.05"), ("time.stepper", "imex"),
         ("time.cfl", "true"), ("output.snapshots", "false"))),
    # stiff binding on the fixed domain: backward Euler with Newton, one
    # factorization per Newton iteration
    "stiff-implicit": Workload(
        "stiff-implicit", "run", 64, 128,
        (("geometry.kind", "fixed"), ("model.delta_k", "0.01"),
         ("model.delta_k_prime", "0.01"), ("time.t_final", "0.1"),
         ("time.dt", "0.01"), ("time.output_interval", "0.02"),
         ("time.stepper", "implicit"), ("time.cfl", "false"),
         ("output.snapshots", "false"))),
    # diagnostics only: entropy/dissipation probe, no solver
    "probe": Workload(
        "probe", "probe", 64, 128,
        (("geometry.kind", "fixed"), ("ic.m1", "15"), ("ic.m2", "10")),
        probe_samples=1000),
}


def get(name: str, smoke: bool = False) -> Workload:
    """The workload; with `smoke`, on an 8 x 16 mesh and with 50 probe
    samples, so that the benchmark's own tests run every check in seconds."""
    wl = WORKLOADS[name]
    if smoke:
        wl = dataclasses.replace(wl, n_r=8, n_theta=16,
                                 probe_samples=50 if wl.probe_samples else 0)
    return wl


def grid(n_r, n_theta):
    """Reference cell centers (r, theta) and spacings of the program's mesh."""
    dr = (R_OUTER - R_INNER) / n_r
    dth = 2.0 * math.pi / n_theta
    r = R_INNER + (np.arange(n_r) + 0.5) * dr
    th = (np.arange(n_theta) + 0.5) * dth
    return r, th, dr, dth


def make_fields(seed: int, n_r: int, n_theta: int):
    """Smooth positive (u, w, z): a fixed pattern turned by an angle drawn
    from the seed.

    The annulus and every preset are symmetric under rotation, so each seed
    asks for the same work -- the adaptive dt and the Newton iterations follow
    the pattern, not its orientation -- while the values differ cell by cell.
    The higher modes of u vanish on the inner ring, and every radial shape is
    flat at both walls.
    """
    phi = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
    r, th, _, _ = grid(n_r, n_theta)
    a = th - phi
    c = np.cos(math.pi * (r - R_INNER) / (R_OUTER - R_INNER))[:, None]
    u = 2.0 * (1.0 + 0.2 * c * np.cos(a)
               + (0.5 - 0.5 * c) * (0.1 * np.cos(2 * a + 1.0) + 0.05 * np.cos(3 * a + 2.0)))
    w = 3.0 * (1.0 + 0.2 * np.cos(2 * a + 0.5))[None, :]
    z = 1.0 * (1.0 + 0.2 * np.cos(a + 2.5))[None, :]
    return u, w, z


def format_block(name, grid_values):
    rows = [f"# t=0 field={name} n_r={grid_values.shape[0]} n_theta={grid_values.shape[1]}"]
    rows += [",".join(repr(float(v)) for v in row) for row in grid_values]
    return "\n".join(rows) + "\n"


def write_fields(path, u, w, z):
    with open(path, "w", encoding="utf-8") as fh:
        for name, g in (("u", u), ("w", w), ("z", z)):
            fh.write(format_block(name, g))


def config_keys(wl: Workload, *, out_dir: str, ic_path: str = "", seed: int = 0) -> dict:
    """The config of one invocation, as `section.key` -> value text."""
    keys = dict(wl.keys)
    keys.update({"mesh.n_r": str(wl.n_r), "mesh.n_theta": str(wl.n_theta),
                 "output.directory": out_dir})
    if wl.is_run:
        keys.update({"ic.profile": "file", "ic.path": ic_path})
    else:
        keys.update({"probe.n_samples": str(wl.probe_samples), "probe.seed": str(seed)})
    return keys


def render(keys: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())
