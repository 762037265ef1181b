"""Batch command-line entry point.

Subcommands: run, mms, equilibrium, probe, check-assumptions, eig,
transport-check.  Each writes its artifacts under the output directory and
prints a one-line summary; exit codes are 0 (success), 1 (usage or config
error, or an output path that cannot be written), 2 (numerical failure).
Output files are truncated at start so reruns are reproducible byte for
byte.  `run` copies each snapshot grid into a slot of a memory region
shared with one forked writer process, which formats and writes the file
while the parent keeps stepping.  The run waits only when all six slots, two
records, are in flight; the slots it fills count in its resident memory; the
files are byte for byte those of `config.format_snapshot` in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

import numpy as np

from . import config as config_mod
from . import diagnostics as diag_mod
from . import solver as solver_mod
from .equilibrium import EquilibriumMode, closure_kappa, solve_equilibrium
from .errors import BulkSurfError, ParseError, ValidationError, rekeyed
from .geometry import GeometryKind, GeometryPreset, build_geometry
from .mesh import build_mesh, check_resolution
from .model import ModelParams, check_assumptions, make_nonlinearity


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    """An output file or directory could not be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


@contextlib.contextmanager
def _output_errors(where):
    """Turn an OSError of the block into the output error naming `where`."""
    try:
        yield
    except OSError as exc:
        raise _OutputError(f"{where}: {exc}") from exc


def _write(where, out_dir, name, lines):
    """Write `lines` to out_dir/name; `where` names the option that set out_dir."""
    with _output_errors(f"{where} = {out_dir}"):
        with open(os.path.join(_ensure_dir(out_dir), name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}", key="config") from exc
    return config_mod.parse_config(text)


# Shared slots between `bulksurf run` and its snapshot writer: two records of
# (u, w, z).  Grid k goes to slot k % _SLOTS, so with records of three grids
# u lands in slots 0 and 3 only, and w and z touch one page of theirs.
_SLOTS = 6


def _write_snapshots(slots, items, replies, parent_end):
    """Body of the writer process: for each (slot, path, name, t, shape)
    received until the sentinel None, or until EOF if the parent is gone,
    format the grid in that row of `slots`, hand the slot back with a None
    on `replies`, and write the file.  A failed write goes back on `replies`
    and ends the writer."""
    parent_end.close()  # else the writer's own copy would keep EOF from coming
    try:
        while (item := items.recv()) is not None:
            slot, path, name, t, shape = item
            grid = slots[slot, :math.prod(shape)].reshape(shape)
            text = config_mod.format_snapshot(name, t, grid)
            replies.send(None)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except EOFError:
        pass
    except OSError as exc:
        replies.send(exc)


@contextlib.contextmanager
def _snapshot_writer(snap_dir, cells=64 * 128):
    """Yield an `on_snapshot` that hands each grid of at most `cells` values
    to one forked writer process, so that formatting runs beside the time
    steps.  The grids pass through `_SLOTS` slots of one anonymous shared
    mapping, made before the fork: `on_snapshot` copies the grid into the
    next slot and sends only (slot, path, name, t, shape); the writer hands
    the slot back once it has formatted the grid.  The run waits only when
    every slot is in flight, so the writer is at most `_SLOTS` grids, two
    records, behind.  The slot pages the run fills count in its resident
    memory (two u grids, 0.5 MB at 128 x 256).  The files are byte for byte
    those `config.format_snapshot` gives in-process.  On exit the writer
    finishes every file handed to it; a write that failed is raised here as
    its OSError, unless the body itself raised."""
    import mmap
    import multiprocessing  # here, so that runs without snapshots never load it

    buffer = mmap.mmap(-1, 8 * cells * _SLOTS)  # MAP_SHARED: the writer sees the copies
    slots = np.frombuffer(buffer, float).reshape(_SLOTS, cells)
    ctx = multiprocessing.get_context("fork")  # fork: numpy is not imported again
    items_in, items = ctx.Pipe(duplex=False)
    replies, replies_out = ctx.Pipe(duplex=False)
    writer = ctx.Process(target=_write_snapshots, args=(slots, items_in, replies_out, items))
    writer.start()
    items_in.close()
    replies_out.close()
    handed = returned = 0

    def failure():
        writer.join()  # after which `recv` cannot block: no write end is open
        try:
            while (reply := replies.recv()) is None:  # slots handed back
                pass
            return reply
        except EOFError:  # the writer reported nothing
            if writer.exitcode:
                return OSError(f"the snapshot writer exited with code {writer.exitcode}")
            return None

    def on_snapshot(name, index, t, grid):
        nonlocal handed, returned
        grid = np.asarray(grid, dtype=float)
        try:
            if handed - returned == _SLOTS:  # wait until the writer hands the oldest back
                if (reply := replies.recv()) is not None:
                    raise reply
                returned += 1
            slot = handed % _SLOTS
            slots[slot, :grid.size] = grid.ravel()
            items.send((slot, os.path.join(snap_dir, f"{name}_{index:06d}.txt"), name, t,
                        grid.shape))
        except (BrokenPipeError, EOFError) as exc:  # the writer has ended
            raise (failure() or exc) from None
        handed += 1

    try:
        yield on_snapshot
    finally:
        with contextlib.suppress(BrokenPipeError):
            items.send(None)
        items.close()
        exc = failure()
        replies.close()
        del slots
        buffer.close()
    if exc is not None:
        raise exc


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    out_dir = cfg.output.directory
    csv_path = os.path.join(out_dir, "diagnostics.csv")
    with _output_errors(f"output.directory = {out_dir}"):
        _ensure_dir(out_dir)
        snapshots = (_snapshot_writer(_ensure_dir(os.path.join(out_dir, "snapshots")),
                                      cfg.mesh.n_r * cfg.mesh.n_theta)
                     if cfg.output.snapshots else contextlib.nullcontext())
        with snapshots as on_snapshot, open(csv_path, "w", encoding="utf-8") as csv_fh:
            csv_fh.write(diag_mod.CSV_HEADER + "\n")
            csv_fh.flush()

            def on_record(rec):
                csv_fh.write(rec.csv_row() + "\n")
                csv_fh.flush()

            result = solver_mod.run(cfg, on_record=on_record, on_snapshot=on_snapshot)

    recs = result.records
    first, last = recs[0], recs[-1]
    drift1, drift2 = solver_mod.relative_drift(first, last)
    min_all = min(min(r.min_u, r.min_w, r.min_z) for r in recs)
    eq = result.equilibrium
    report = [
        f"steps to t = {last.t:g} with {cfg.time.stepper} stepper",
        f"steps: {result.steps}, Newton solves: {result.newton_total} "
        f"(at most {result.newton_max} in a step), capacitance GMRES iterations: "
        f"{result.gmres_total}, preconditioner builds: {result.setups_total}",
        f"masses: m1 = {last.m1:.12g} (rel drift {drift1:.3e}), "
        f"m2 = {last.m2:.12g} (rel drift {drift2:.3e})",
        f"equilibrium ({eq.mode.value}): u = {eq.u_inf:.12g}, w = {eq.w_inf:.12g}, "
        f"z = {eq.z_inf:.12g}",
        f"entropy: start {first.entropy:.6e}, end {last.entropy:.6e}",
        f"min field value over run: {min_all:.3e}",
        f"L1 distances at end: u {last.l1_u:.3e}, w {last.l1_w:.3e}, z {last.l1_z:.3e}",
    ]
    _write("output.directory", out_dir, "report.txt", report)
    print(f"run: t={last.t:g} E={last.entropy:.3e} drift=({drift1:.1e},{drift2:.1e}) "
          f"-> {csv_path}")
    return 0


def _cmd_mms(args) -> int:
    preset = GeometryPreset(GeometryKind(args.preset), r_inner0=1.0, r_outer0=2.0,
                            omega=1.0 if args.preset == "rotation" else 0.0)
    levels = []  # every level is checked before the first one runs
    for level in range(args.levels):  # a huge --levels passes MAX_CELLS within ~20 levels
        n_r = args.n0 * (2 ** level)
        dt = args.dt0 / (4.0 ** level)  # first-order time: dt ~ h^2 keeps space dominant
        with rekeyed(lambda key: "levels" if level else key):
            check_resolution(n_r, 2 * n_r)
            solver_mod.check_steps(dt, args.t_final)
        levels.append((n_r, dt))
    rows, errs, hs = [], [], []
    for level, (n_r, dt) in enumerate(levels):
        eu, ew, ez = solver_mod.manufactured_solution_error(
            args.case, n_r, 2 * n_r, dt, args.t_final, preset=preset)
        rows.append(f"level {level}: n_r={n_r} n_theta={2 * n_r} dt={dt:g} "
                    f"err_u={eu:.6e} err_w={ew:.6e} err_z={ez:.6e}")
        errs.append(max(eu, ew, ez))
        hs.append(1.0 / n_r)
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0]) if len(errs) > 1 else float("nan")
    rows.append(f"fitted spatial order: {order:.3f}")
    _write("--out", args.out, "mms.txt", rows)
    for row in rows:
        print(row)
    return 0


def _cmd_equilibrium(args) -> int:
    mode = EquilibriumMode.PAPER_LITERAL if args.mode == "paper" else EquilibriumMode.RATE_BALANCE
    params = ModelParams(1.0, 1.0, 1.0, args.delta_k, args.delta_k_prime)
    kappa = closure_kappa(params, mode)
    eq = solve_equilibrium(args.m1, args.m2, args.area, args.length, params, mode)
    res_closure = abs(eq.z_inf - kappa * eq.u_inf * eq.w_inf)
    res_m1 = abs(eq.u_inf * args.area + eq.z_inf * args.length - args.m1)
    res_m2 = abs(eq.w_inf * args.length + eq.z_inf * args.length - args.m2)
    line = (f"u={eq.u_inf:.12g} w={eq.w_inf:.12g} z={eq.z_inf:.12g} "
            f"residuals=({res_closure:.2e},{res_m1:.2e},{res_m2:.2e})")
    _write("--out", args.out, "equilibrium.txt", [line])
    print(line)
    return 0


def _cmd_probe(args) -> int:
    cfg = _load_config(args.config)
    geom = build_geometry(cfg.geometry)
    mesh = build_mesh(cfg.mesh.n_r, cfg.mesh.n_theta, cfg.geometry.r_inner0,
                      cfg.geometry.r_outer0)
    params = cfg.model.params
    area0 = float(np.sum(mesh.bulk_ref_measures))
    len0 = float(np.sum(mesh.surf_ref_measures))
    with rekeyed("ic.{}".format):
        eq = solve_equilibrium(cfg.ic.m1, cfg.ic.m2, area0, len0, params,
                               cfg.model.equilibrium_mode)
    lam, worst = diag_mod.probe_functional_inequality(
        eq, geom, mesh, params, cfg.probe.n_samples, cfg.probe.seed)
    lines = [
        f"lambda_probe = {lam:.12g} over {cfg.probe.n_samples} samples (seed {cfg.probe.seed})",
        f"worst sample: index={worst.index} E={worst.entropy:.6e} "
        f"Dtilde={worst.dissipation:.6e}",
    ]
    _write("output.directory", cfg.output.directory, "probe.txt", lines)
    print(lines[0])
    return 0


def _cmd_check_assumptions(args) -> int:
    params = ModelParams(1.0, 1.0, 1.0, args.delta_k, args.delta_k_prime)
    spec = make_nonlinearity(args.nonlinearity, params)
    box = ((args.lo, args.hi),) * 3
    report = check_assumptions(spec, box, args.n, args.seed, args.tol)
    lines = []
    for res in report.results:
        status = "pass" if res.passed else "FAIL"
        extra = f" C={res.fitted_constant:.6g}" if res.fitted_constant is not None else ""
        lines.append(f"{res.name}: {status} ({res.description}) worst={res.worst_value:.3e} "
                     f"at (u,w,z)={tuple(round(x, 6) for x in res.witness)}{extra}")
    _write("--out", args.out, "assumptions.txt", lines)
    for line in lines:
        print(line)
    return 0 if report.all_passed else 2


def _cmd_eig(args) -> int:
    preset = GeometryPreset(GeometryKind.FIXED, r_inner0=args.r_inner, r_outer0=args.r_outer)
    geom = build_geometry(preset)
    mesh = build_mesh(args.n_r, args.n_theta, args.r_inner, args.r_outer)
    consts = diag_mod.estimate_poincare_constants(mesh, geom, t=0.0)
    line = f"c_pw={consts.c_pw:.12g} c_trpw={consts.c_trpw:.12g}"
    _write("--out", args.out, "eig.txt", [line])
    print(line)
    return 0


def _cmd_transport_check(args) -> int:
    kind = GeometryKind(args.preset)
    preset = GeometryPreset(kind, r_inner0=1.0, r_outer0=2.0, amplitude=args.amplitude,
                            omega=1.0, delta=args.delta,
                            wind_speed=0.5 if kind is GeometryKind.SURFACE_WIND else 0.0)
    geom = build_geometry(preset)
    kinds = solver_mod.TransportKind
    bulk = (lambda rr, th: 1.0 + 0.3 * np.cos(th) * rr, lambda rr, th: 1.0 + 0.2 * np.sin(2 * th))
    surface = (lambda th: 1.0 + 0.3 * np.cos(th),
               lambda th: 1.0 + 0.2 * np.cos(th) + 0.1 * np.sin(2 * th))
    lines = []
    for level in range(args.levels):
        n_r = 16 * (2 ** level)
        mesh = build_mesh(n_r, 2 * n_r, 1.0, 2.0)
        dt = args.dt0 / (2 ** level)
        res = [solver_mod.transport_identity_residual(geom, mesh, args.t, dt, *fields, which)
               for which, fields in ((kinds.BULK, bulk), (kinds.SURFACE, surface),
                                     (kinds.SURFACE_GRADIENT, surface))]
        lines.append(f"level {level}: dt={dt:g} bulk={res[0]:.3e} surface={res[1]:.3e} "
                     f"gradient={res[2]:.3e}")
    _write("--out", args.out, "transport.txt", lines)
    for line in lines:
        print(line)
    return 0


@functools.cache  # built once per process; main only reads it
def _build_parser() -> _Parser:
    parser = _Parser(prog="bulksurf", description=__doc__)
    parser.set_defaults(flags=None)  # owner key -> flag where not --<key>; None: config keys
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)  # the artifact directory of a flag command
    out.add_argument("--out", default="out")

    p = sub.add_parser("run", help="advance a configured simulation")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("mms", help="manufactured-solution refinement study", parents=[out])
    p.add_argument("--case", default="sinusoidal")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--preset", choices=["fixed", "rotation"], default="fixed")
    p.add_argument("--n0", type=int, default=16)
    p.add_argument("--dt0", type=float, default=4e-3)
    p.add_argument("--t-final", type=float, default=0.04, dest="t_final")
    p.set_defaults(func=_cmd_mms, flags=dict(case_id="--case", n_r="--n0", n_theta="--n0", dt="--dt0"))

    p = sub.add_parser("equilibrium", help="solve the homogeneous equilibrium", parents=[out])
    p.add_argument("--m1", type=float, required=True)
    p.add_argument("--m2", type=float, required=True)
    p.add_argument("--area", type=float, required=True)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--mode", choices=["paper", "rate"], default="rate")
    p.add_argument("--delta-k", type=float, default=1.0, dest="delta_k")
    p.add_argument("--delta-k-prime", type=float, default=1.0, dest="delta_k_prime")
    p.set_defaults(func=_cmd_equilibrium, flags=dict(equilibrium_mode="--mode"))

    p = sub.add_parser("probe", help="entropy-dissipation inequality probe")
    p.add_argument("config")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("check-assumptions", help="sampled nonlinearity checks", parents=[out])
    p.add_argument("--nonlinearity", default="mass_action")
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=10.0)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--delta-k", type=float, default=1.0, dest="delta_k")
    p.add_argument("--delta-k-prime", type=float, default=1.0, dest="delta_k_prime")
    p.set_defaults(func=_cmd_check_assumptions, flags=dict(n_samples="--n", sample_box="--lo/--hi"))

    p = sub.add_parser("eig", help="Poincare constants of the discrete operators", parents=[out])
    p.add_argument("--n-r", type=int, default=32, dest="n_r")
    p.add_argument("--n-theta", type=int, default=256, dest="n_theta")
    p.add_argument("--r-inner", type=float, default=1.0, dest="r_inner")
    p.add_argument("--r-outer", type=float, default=2.0, dest="r_outer")
    p.set_defaults(func=_cmd_eig, flags=dict(r_inner0="--r-inner", r_outer0="--r-outer"))

    p = sub.add_parser("transport-check", help="moving-integral transport identities", parents=[out])
    p.add_argument("--preset", default="breathing",
                   choices=["fixed", "rotation", "breathing", "surface_wind"])
    p.add_argument("--t", type=float, default=0.7)
    p.add_argument("--dt0", type=float, default=1e-2)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--amplitude", type=float, default=0.2)
    p.add_argument("--delta", type=float, default=0.3)
    p.set_defaults(func=_cmd_transport_check, flags=dict(n_r="--levels", n_theta="--levels", dt="--dt0"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.flags is None:
            return args.func(args)
        with rekeyed(lambda key: args.flags.get(key, "--" + key.replace("_", "-"))):
            return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError) as exc:
        print(f"config error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except BulkSurfError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
