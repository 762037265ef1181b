"""Benchmark of bulksurf: four workloads, end-to-end and per-layer figures.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload static-imex --seed 1 --seconds 20 --trace 0

Workloads: static-imex, breathing-cfl, stiff-implicit, probe (see
workloads.py and README.md).  The run writes its seeded inputs under
.perfbench_work/, measures the workload in a fresh process with BLAS pinned
to one thread (measure.py), checks every output (checks.py), and prints one
JSON object as its last line: `correct`, `attempted`, `failed` and
`metrics` -- the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  A copy of the result goes to .perfbench_results/.
--smoke runs tiny meshes, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "run_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "config.parse_s": "s", "solver.cache_init_s": "s",
    "solver.factorizations": "count", "solver.factor_s": "s",
    "solver.backsolve_s": "s", "solver.dense_solve_s": "s",
    "solver.steps": "count", "solver.step_ms": "ms",
    "solver.assemble_calls": "count", "solver.assemble_s": "s",
    "solver.newton_iters": "count",
    "solver.cfl_calls": "count", "solver.cfl_s": "s",
    "mesh.measure_calls": "count", "mesh.measures_s": "s",
    "diagnostics.records": "count", "diagnostics.record_s": "s",
    "diagnostics.samples": "count", "diagnostics.sample_s": "s",
    "diagnostics.entropy_s": "s", "diagnostics.dissipation_s": "s",
    "io.csv_s": "s", "io.snapshots": "count", "io.snapshot_s": "s",
    "io.bytes_written": "bytes", "trace.overhead_s": "s",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny meshes, for tests")
    return p.parse_args(argv)


def measure(wl, seed, seconds, trace, work):
    """Generate the inputs, run measure.py on them, return its raw figures
    and the generated fields."""
    fields = None
    ic_path = ""
    if wl.is_run:
        fields = workloads.make_fields(seed, wl.n_r, wl.n_theta)
        ic_path = os.path.join(work, "ic.txt")
        workloads.write_fields(ic_path, *fields)
    spec = {
        "command": wl.command, "work": work, "seconds": seconds, "trace": bool(trace),
        "config": workloads.config_keys(wl, out_dir=os.path.join(work, "out"),
                                        ic_path=ic_path, seed=seed),
    }
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("BULKSURF_THREADS", None)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "measure.py"), spec_path],
                          env=env, cwd=work, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), fields


def check(wl, seed, raw, fields):
    fail = []
    if wl.is_run:
        fail += checks.check_run(wl, fields, raw["out_dir"])
        fail += checks.check_identical(raw["digests"], "diagnostics.csv")
    else:
        fail += checks.check_probe(wl, seed, raw["out_dir"])
        fail += checks.check_identical(raw["digests"] + [raw["threads_digest"]],
                                       "probe.txt (BULKSURF_THREADS unset and 2)")
    return fail


def end_to_end(wl, raw):
    setup = statistics.median(raw["setup"])
    run = statistics.median(raw["walls"]) - setup
    if wl.is_run:
        # steps of the configured dt; on breathing-cfl, where dt adapts, the
        # simulated time in units of the largest dt
        work = float(wl.key("time.t_final")) / float(wl.key("time.dt"))
    else:
        work = wl.probe_samples
    return {"setup_s": setup, "run_s": run, "work_per_s": work / run,
            "peak_rss_mb": raw["peak_rss_mb"]}


def per_layer(raw):
    layers = raw["layers"]
    fig = {k: sum(lay[k] for lay in layers) / len(layers) for k in layers[0]}
    fig["io.bytes_written"] = statistics.median(raw["bytes"])
    fig["trace.overhead_s"] = (statistics.median(raw["traced_walls"])
                               - statistics.median(raw["walls"]))
    return fig


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bulksurf", "cli.py")):
        print(f"perfbench: no program source under {ROOT}/src/bulksurf", file=sys.stderr)
        return 2
    wl = workloads.get(args.workload, smoke=args.smoke)
    work = os.path.join(ROOT, ".perfbench_work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        raw, fields = measure(wl, args.seed, args.seconds, args.trace, work)
        if not raw["walls"] or not (raw["setup"] or args.trace) or \
                (args.trace and not raw["layers"]):
            print("perfbench: every invocation failed:\n" + "\n".join(raw["errors"]),
                  file=sys.stderr)
            return 1
        failures = check(wl, args.seed, raw, fields)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        figures, units = per_layer(raw), PER_LAYER
    else:
        figures, units = end_to_end(wl, raw), END_TO_END
    for message in failures + raw["errors"]:
        print(f"perfbench: {message}")
    if raw["absent"]:
        print("perfbench: absent from the program, layer reads 0: " + ", ".join(raw["absent"]))
    result = {"correct": not failures, "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": {k: {"value": figures[k], "unit": u} for k, u in units.items()}}
    results = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(results, exist_ok=True)
    name = f"{wl.name}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "raw": {k: v for k, v in raw.items() if k != "layers"},
                   "layers": raw["layers"]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
