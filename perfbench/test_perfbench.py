"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run every workload on tiny meshes (--smoke), check that the checks
catch broken output, and that tracing survives a missing internal name.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import checks
import measure
import workloads
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_every_check(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("probe", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_fields_are_seeded_smooth_and_positive():
    a = workloads.make_fields(3, 16, 32)
    b = workloads.make_fields(3, 16, 32)
    c = workloads.make_fields(4, 16, 32)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    assert min(float(f.min()) for f in a) > 0.5
    # same levels and amplitudes on every seed: the largest trace of u is fixed
    assert abs(a[0][0].max() - c[0][0].max()) < 1e-2


def test_equilibrium_satisfies_its_equations():
    u, w, z = checks.equilibrium(8.0, 6.0, 3.0, 2.0, 0.5)
    assert abs(z - 0.5 * u * w) < 1e-12
    assert abs(u * 3.0 + z * 2.0 - 8.0) < 1e-12
    assert abs((w + z) * 2.0 - 6.0) < 1e-12


@pytest.fixture()
def smoke_output(tmp_path):
    """One static-imex run on a tiny mesh, through the CLI."""
    from bulksurf import cli
    wl = workloads.get("static-imex", smoke=True)
    fields = workloads.make_fields(5, wl.n_r, wl.n_theta)
    ic = tmp_path / "ic.txt"
    workloads.write_fields(ic, *fields)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(workloads.render(workloads.config_keys(
        wl, out_dir=str(tmp_path / "out"), ic_path=str(ic))))
    assert cli.main(["run", str(cfg)]) == 0
    return wl, fields, tmp_path / "out"


def _tamper(path, column, scale):
    lines = path.read_text().splitlines()
    idx = lines[0].split(",").index(column)
    row = lines[-1].split(",")
    row[idx] = repr(float(row[idx]) * scale) if scale else "-1e-9"
    lines[-1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def test_checks_pass_on_program_output(smoke_output):
    wl, fields, out = smoke_output
    assert checks.check_run(wl, fields, str(out)) == []


@pytest.mark.parametrize("column,scale,message", [
    ("m1", 1 + 1e-8, "masses"),
    ("min_w", 0, "negative"),
    ("length_gamma", 1 + 1e-9, "measures"),
])
def test_checks_catch_broken_output(smoke_output, column, scale, message):
    wl, fields, out = smoke_output
    _tamper(out / "diagnostics.csv", column, scale)
    assert any(message in f for f in checks.check_run(wl, fields, str(out)))


def test_checks_catch_fields_away_from_equilibrium(smoke_output):
    wl, fields, out = smoke_output
    snap = out / "snapshots" / "u_000020.txt"
    lines = snap.read_text().splitlines()
    lines[1] = ",".join(["9.0"] * len(lines[1].split(",")))
    snap.write_text("\n".join(lines) + "\n")
    assert any("final u" in f for f in checks.check_run(wl, fields, str(out)))


def test_tracer_skips_and_reports_a_missing_name():
    def present(x):
        return x + 1

    mod = types.ModuleType("fake")
    mod.present = present
    tr = Tracer()
    tr.wrap(mod, "present", "layer.present")
    tr.wrap(mod, "renamed_away", "layer.gone")
    tr.wrap(None, "anything", "layer.none", label="fake.Gone.anything")
    assert mod.present(1) == 2
    assert tr.total("layer.present")[0] == 1
    assert tr.total("layer.gone") == (0, 0.0)
    assert tr.absent == ["fake.renamed_away", "fake.Gone.anything"]
    tr.remove()
    assert mod.present is present


def test_trace_survives_a_removed_internal(monkeypatch, smoke_output):
    """A wrapped internal that is gone reads as absent; the run still works."""
    from bulksurf import cli, diagnostics, solver
    wl, fields, out = smoke_output
    monkeypatch.delattr(solver, "cfl_bound")
    monkeypatch.setattr(solver.ImexStepper, "step", lambda self, state: solver.step_imex(
        state, self.dt, self.geom, self.mesh, self.params, self.spec, check_cfl=False))
    monkeypatch.delattr(diagnostics, "sample_conservative_state")
    tr = measure.install_tracer()
    try:
        assert cli.main(["run", str(out.parent / "run.cfg")]) == 0
    finally:
        tr.remove()
    assert {"solver.cfl_bound", "diagnostics.sample_conservative_state"} <= set(tr.absent)
    fig = measure.layer_figures(tr)
    assert fig["solver.cfl_calls"] == 0 and fig["solver.steps"] == 100
    assert checks.check_run(wl, fields, str(out)) == []


def test_untraced_invocations_never_install_the_tracer(monkeypatch, smoke_output):
    def refuse():
        raise AssertionError("tracer installed on an untraced run")

    wl, fields, out = smoke_output
    monkeypatch.setattr(measure, "install_tracer", refuse)
    session = measure.Session({
        "command": "run", "work": str(out.parent), "seconds": 0, "trace": False,
        "config": workloads.config_keys(wl, out_dir="", ic_path=str(out.parent / "ic.txt"))})
    raw = session.timed_invocations(deadline=0.0, traced=False)
    assert len(raw["walls"]) == 2 and session.failed == 0
