"""The measured process of one benchmark run.

Usage: python3 perfbench/measure.py SPEC.json

`run.py` starts this in a fresh process with BLAS pinned to one thread and
the checkout's `src` on PYTHONPATH, so that peak memory is this run's own.
It calls the program only through its stable entry points (`bulksurf run` /
`bulksurf probe` via `cli.main`, `config.parse_config`, and `solver.run`
with its `on_record` callback) and prints one JSON line of raw figures.

It first makes one untimed invocation: later ones skip its one-off costs,
and peak memory is read right after it, before the calibration kernel below
first runs.

Set-up is measured apart from the timed invocations.  A run workload is run
for six steps of dt = 1e-14 with one record per step; set-up is the time to
the second record minus the median later record interval, i.e. everything
before the first step began.  A step that short does next to no work:
Newton meets its tolerance before its first solve, and the CFL loop, whose
end test allows an absolute 1e-12, takes no step.  Record intervals are then
nearly equal, and the subtraction adds little noise.  The probe workload is
invoked with 1 and with 5 samples; set-up is the first time minus one
sample's share of the difference.

Every timed invocation and set-up probe is preceded by a calibration kernel
(a fixed mix of sparse LU, numpy and pure-Python work, about 50 ms; run
about once per second that the previous operation took, and averaged) and
its time is reported in reference seconds: wall time times CAL_REF_S over
the kernel's mean time just before.  The machine's speed swings by tens of percent
over tens of seconds; the ratio to an adjacent kernel cancels most of that
(see README).  Raw wall times are reported too.

With trace on, untraced and traced invocations alternate: the traced ones
give the per-layer figures, the difference of the medians the tracing
overhead.  Untraced invocations never pass through a wrapper.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spans import TimedSolves, Tracer
from workloads import render

CAL_REF_S = 0.05    # kernel time that defines one reference second
SETUP_DT = 1e-14
SETUP_STEPS = 6
SETUP_SAMPLES = 5
SETUP_SHARE = 0.2   # of the run spent on set-up probes (at least 3 of them)
SETUP_MAX = 40

# (count name or None, seconds name, span names, spans whose insides are left out)
LAYERS = (
    (None, "config.parse_s", "config.parse", ()),
    (None, "solver.cache_init_s", "solver.cache_init", ()),
    ("solver.factorizations", "solver.factor_s", "solver.factor", ()),
    (None, "solver.backsolve_s", "solver.backsolve", ("solver.cache_init",)),
    (None, "solver.dense_solve_s", "solver.dense_solve", ()),
    ("solver.assemble_calls", "solver.assemble_s", "solver.assemble", ()),
    ("solver.cfl_calls", "solver.cfl_s", "solver.cfl", ()),
    ("mesh.measure_calls", "mesh.measures_s", "mesh.measures", ()),
    ("diagnostics.records", "diagnostics.record_s", "diagnostics.record", ()),
    ("diagnostics.samples", "diagnostics.sample_s", "diagnostics.sample", ()),
    (None, "diagnostics.entropy_s", "diagnostics.entropy", ()),
    (None, "diagnostics.dissipation_s", "diagnostics.dissipation", ()),
    (None, "io.csv_s", "io.csv", ()),
    ("io.snapshots", "io.snapshot_s", "io.snapshot", ()),
)


class Calibration:
    """The calibration kernel: the kinds of work the workloads do -- a sparse
    LU of a 64 x 128 five-point Laplacian, 200 numpy passes over 8192 values,
    and a pure-Python loop -- on fixed inputs, never the program's code."""

    def __init__(self):
        n_r, n_t = 64, 128
        n = n_r * n_t
        off = np.full(n - 1, -1.0)
        off[n_t - 1::n_t] = 0.0
        far = np.full(n - n_t, -1.0)
        self.a = sp.diags([np.full(n, 4.0), off, off, far, far],
                          [0, 1, -1, n_t, -n_t]).tocsc()
        self.x = np.random.default_rng(0).random(n)

    def __call__(self):
        t0 = time.perf_counter()
        spla.splu(self.a, permc_spec="MMD_AT_PLUS_A")
        for _ in range(200):
            (np.roll(self.x, 1) * self.x + np.log(self.x + 1.0)).sum()
        acc = 0
        for i in range(200_000):
            acc += i * i
        return time.perf_counter() - t0


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _bytes_under(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


class Session:
    def __init__(self, spec):
        self.spec = spec
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.calibrate = Calibration()
        from bulksurf import cli, config, solver
        self.cli, self.config, self.solver = cli, config, solver

    def _config(self, name, **changes):
        path = os.path.join(self.spec["work"], name + ".cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render(self.spec["config"] | changes))
        return path

    def _kernel(self, last_wall):
        """Mean kernel time over about one run per second of `last_wall`, the
        previous operation's time: a 50 ms kernel samples speed swings that a
        long operation averages out."""
        reps = max(1, round(last_wall))
        return sum(self.calibrate() for _ in range(reps)) / reps

    def _fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def invoke(self, command, cfg_path):
        """One CLI invocation; its wall time, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main([command, cfg_path])
        except Exception:  # a crash counts as a failed operation
            self._fail(traceback.format_exc())
            return None
        wall = time.perf_counter() - t0
        if rc != 0:
            self._fail(f"bulksurf {command} {cfg_path} exited {rc}")
            return None
        return wall

    # -- set-up ----------------------------------------------------------------

    def _run_setup(self, cfg_path):
        self.attempted += 1
        stamps = []
        t0 = time.perf_counter()
        try:
            with open(cfg_path, encoding="utf-8") as fh:
                cfg = self.config.parse_config(fh.read())
            self.solver.run(cfg, on_record=lambda rec: stamps.append(time.perf_counter()))
        except Exception:
            self._fail(traceback.format_exc())
            return None
        later = [b - a for a, b in zip(stamps[1:], stamps[2:])]
        return stamps[1] - t0 - statistics.median(later)

    def _probe_setup(self, one, many):
        t1 = self.invoke("probe", one)
        tn = self.invoke("probe", many)
        if t1 is None or tn is None:
            return None
        return t1 - (tn - t1) / (SETUP_SAMPLES - 1)

    def setup_times(self):
        if self.spec["command"] == "run":
            h = repr(SETUP_DT)
            path = self._config("setup", **{
                "time.dt": h, "time.output_interval": h,
                "time.t_final": repr(SETUP_STEPS * SETUP_DT), "output.snapshots": "false"})

            def once():
                return self._run_setup(path)
        else:
            one = self._config("setup-1", **{"probe.n_samples": "1"})
            many = self._config("setup-n", **{"probe.n_samples": str(SETUP_SAMPLES)})

            def once():
                return self._probe_setup(one, many)
        t0 = time.perf_counter()
        out = {"setup": [], "setup_raw": []}
        t = 0.0
        for n in range(SETUP_MAX):
            if n >= 3 and time.perf_counter() - t0 > SETUP_SHARE * self.spec["seconds"]:
                break
            cal = self._kernel(t or 0.0)
            t = once()
            if t is not None:
                out["setup"].append(t * CAL_REF_S / cal)
                out["setup_raw"].append(t)
        return out

    # -- timed invocations ---------------------------------------------------------

    def timed_invocations(self, deadline, traced):
        """Invoke the workload until the next invocation would end after
        `deadline`, at least twice; with `traced`, every second one is traced."""
        command = self.spec["command"]
        product = "diagnostics.csv" if command == "run" else "probe.txt"
        out = {"walls": [], "walls_raw": [], "traced_walls": [], "digests": [],
               "bytes": [], "layers": [], "absent": []}
        last_dir = None
        wall = None
        i = 0
        while True:
            out_dir = os.path.join(self.spec["work"], f"out-{i}")
            path = self._config(f"run-{i}", **{"output.directory": out_dir})
            cal = self._kernel(wall or 0.0)
            tracer = install_tracer() if traced and i % 2 == 1 else None
            try:
                wall = self.invoke(command, path)
            finally:
                if tracer is not None:
                    tracer.remove()
            if wall is None:
                shutil.rmtree(out_dir, ignore_errors=True)
            else:
                if tracer is not None:
                    out["traced_walls"].append(wall * CAL_REF_S / cal)
                else:
                    out["walls"].append(wall * CAL_REF_S / cal)
                    out["walls_raw"].append(wall)
                out["digests"].append(_digest(os.path.join(out_dir, product)))
                out["bytes"].append(_bytes_under(out_dir))
                if tracer is not None:
                    out["layers"].append(layer_figures(tracer))
                    out["absent"] = tracer.absent
                if last_dir is not None:
                    shutil.rmtree(last_dir, ignore_errors=True)
                last_dir = out_dir
            i += 1
            if i >= 2 and time.perf_counter() + (wall or 0.0) > deadline:
                break
        out["out_dir"] = last_dir
        return out

    def threads_digest(self):
        """Digest of probe.txt from one more invocation with BULKSURF_THREADS=2."""
        out_dir = os.path.join(self.spec["work"], "out-threads")
        path = self._config("threads", **{"output.directory": out_dir})
        os.environ["BULKSURF_THREADS"] = "2"
        try:
            ok = self.invoke("probe", path) is not None
        finally:
            del os.environ["BULKSURF_THREADS"]
        return _digest(os.path.join(out_dir, "probe.txt")) if ok else None


# -- tracing -----------------------------------------------------------------------


def install_tracer():
    """Wrap the public calls into each layer by name (see README)."""
    import importlib

    tr = Tracer()
    mods = {}
    for name in ("config", "solver", "mesh", "diagnostics", "model"):
        try:
            mods[name] = importlib.import_module(f"bulksurf.{name}")
        except ImportError:
            mods[name] = None

    def wrap(path, attr, span, result=None):
        mod, *rest = path.split(".")
        owner = mods[mod]
        for part in rest:
            owner = getattr(owner, part, None)
        tr.wrap(owner, attr, span, result, label=f"{path}.{attr}")

    wrap("config", "parse_config", "config.parse")
    wrap("config", "load_fields_file", "config.parse")
    wrap("solver.ImexStepper", "__init__", "solver.cache_init")
    wrap("solver.ImexStepper", "step", "solver.step")
    wrap("solver", "step_imex", "solver.step")
    wrap("solver", "step_implicit", "solver.step_implicit")
    wrap("solver.spla", "splu", "solver.factor",
         result=lambda lu: TimedSolves(lu, tr, "solver.backsolve"))
    wrap("solver.np.linalg", "solve", "solver.dense_solve")
    wrap("solver", "assemble_operators", "solver.assemble")
    wrap("solver", "cfl_bound", "solver.cfl")
    wrap("model.MassAction", "f1", "model.reaction")
    for mod in ("mesh", "solver", "diagnostics"):
        wrap(mod, "moving_bulk_measures", "mesh.measures")
        wrap(mod, "moving_surface_measures", "mesh.measures")
    wrap("diagnostics", "make_record", "diagnostics.record")
    wrap("diagnostics", "sample_conservative_state", "diagnostics.sample")
    wrap("diagnostics", "relative_entropy", "diagnostics.entropy")
    wrap("diagnostics", "entropy_dissipation", "diagnostics.dissipation")
    _wrap_callbacks(tr, mods["solver"])
    return tr


def _wrap_callbacks(tr, solver):
    """Time the CSV rows and snapshot files that `bulksurf run` writes from
    the callbacks it hands to `solver.run`."""
    original = getattr(solver, "run", None)
    if original is None:
        tr.absent.append("solver.run")
        return

    def timed(callback, span):
        if callback is None:
            return None

        def inner(*args, **kwargs):
            tr.begin(span)
            try:
                return callback(*args, **kwargs)
            finally:
                tr.end()
        return inner

    def run(cfg, on_record=None, on_snapshot=None, **kwargs):
        return original(cfg, on_record=timed(on_record, "io.csv"),
                        on_snapshot=timed(on_snapshot, "io.snapshot"), **kwargs)

    tr.patch(solver, "run", run)


def layer_figures(tr):
    """Per-layer figures of one traced invocation."""
    fig = {}
    for count_name, secs_name, span, outside in LAYERS:
        calls, secs = tr.total(span, outside)
        if count_name:
            fig[count_name] = calls
        fig[secs_name] = secs
    steps, step_s = tr.total(("solver.step", "solver.step_implicit"))
    fig["solver.steps"] = steps
    fig["solver.step_ms"] = 1e3 * step_s / steps if steps else 0.0
    # a Newton step evaluates the reaction once more than it solves
    implicit_steps, _ = tr.total("solver.step_implicit")
    reaction_evals, _ = tr.total("model.reaction")
    fig["solver.newton_iters"] = max(0, reaction_evals - implicit_steps)
    return fig


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    deadline = time.perf_counter() + spec["seconds"]
    session = Session(spec)
    # one untimed invocation first: later ones skip its one-off costs, and the
    # peak memory is read before the calibration kernel ever runs
    session.invoke(spec["command"], session._config("warm-up", **{
        "output.directory": os.path.join(spec["work"], "out-warm-up")}))
    result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    session.calibrate()
    result.update({"setup": []} if spec["trace"] else session.setup_times())
    result.update(session.timed_invocations(deadline, spec["trace"]))
    if spec["command"] == "probe":
        result["threads_digest"] = session.threads_digest()
    result.update(attempted=session.attempted, failed=session.failed,
                  errors=session.errors[:5])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
