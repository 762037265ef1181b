"""Input rules: each owner's key reaches the user as the config key or the
flag it came from, any config text parses or fails with a config error, and
every bad input exits 1 with one line."""

import math
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bulksurf import cli
from bulksurf import config as config_mod
from bulksurf import solver as solver_mod
from bulksurf.config import RunConfig, parse_config
from bulksurf.errors import ParseError, ValidationError
from bulksurf.model import MAX_SAMPLES, check_samples

# (config key at fault, config text): one out-of-range value per rule.
# The annulus rule r_outer0 > r_inner0 > 0 is keyed to geometry.r_inner0;
# an area that overflows, to geometry.r_outer0.
OUT_OF_RANGE = [
    ("geometry.kind", "geometry.kind = spiral"),
    ("geometry.r_inner0", "geometry.r_inner0 = 0"),
    ("geometry.r_inner0", "geometry.r_inner0 = 3"),
    ("geometry.r_outer0", "geometry.r_outer0 = 1e300"),
    ("geometry.amplitude", "geometry.kind = breathing\ngeometry.amplitude = 0.6"),
    ("geometry.delta", "geometry.delta = -1"),
    ("mesh.n_r", "mesh.n_r = 3"),
    ("mesh.n_r", "mesh.n_r = 40000"),                    # 5.1e6 cells > MAX_CELLS
    ("mesh.n_theta", "mesh.n_theta = 7"),
    ("model.delta_omega", "model.delta_omega = 0"),
    ("model.delta_gamma", "model.delta_gamma = -1"),
    ("model.delta_gamma_prime", "model.delta_gamma_prime = 0"),
    ("model.delta_k", "model.delta_k = 0"),
    ("model.delta_k_prime", "model.delta_k_prime = -inf"),
    ("model.nonlinearity", "model.nonlinearity = custom:nope"),
    ("model.nonlinearity", "model.nonlinearity = mass"),
    ("model.equilibrium_mode", "model.equilibrium_mode = both"),
    ("model.equilibrium_mode", "model.delta_k = inf"),
    # finite rate constants whose ratio underflows: kappa = 0
    ("model.equilibrium_mode", "model.delta_k = 1e300\nmodel.delta_k_prime = 1e-300"),
    ("time.t_final", "time.t_final = -1"),
    ("time.dt", "time.dt = 0"),
    ("time.dt", "time.dt = 1e-9"),                       # 1e9 steps > MAX_STEPS
    ("time.dt", "time.dt = 0.03"),                       # output_interval / dt = 3.33
    # an interval far below dt once passed as 0 steps per output
    ("time.dt", "time.output_interval = 1e-11"),
    ("time.output_interval", "time.output_interval = 0"),
    ("time.output_interval", "time.output_interval = 0.3"),
    ("time.output_interval", "time.output_interval = 5e-324"),   # t_final / it overflows
    ("time.stepper", "time.stepper = rk4"),
    ("ic.profile", "ic.profile = gaussian"),
    ("ic.u0", "ic.u0 = -1"),
    ("ic.w0", "ic.w0 = -1"),
    ("ic.z0", "ic.z0 = -1"),
    ("ic.m1", "ic.profile = perturbed_equilibrium\nic.m1 = 0"),
    ("ic.m2", "ic.profile = perturbed_equilibrium\nic.m2 = -1"),
    ("ic.amplitude", "ic.profile = perturbed_equilibrium\nic.amplitude = 1"),
    ("ic.mode", "ic.profile = perturbed_equilibrium\nic.mode = 0"),
    ("ic.mode", "ic.profile = perturbed_equilibrium\nic.mode = 128"),
    ("ic.path", "ic.profile = file"),
    ("ic.path", "ic.profile = file\nic.path = /nonexistent/f.txt"),
    ("probe.n_samples", "probe.n_samples = 0"),
    ("probe.n_samples", f"probe.n_samples = {10 ** 12}"),   # > MAX_SAMPLES
    ("probe.seed", "probe.seed = -1"),
    ("probe.seed", f"probe.seed = {2 ** 64}"),    # the Philox key's words are uint64
]


def test_sample_budget_is_inclusive():
    check_samples(MAX_SAMPLES)
    with pytest.raises(ValidationError) as exc:
        check_samples(MAX_SAMPLES + 1)
    assert exc.value.key == "n_samples"


@pytest.mark.parametrize("key, text", OUT_OF_RANGE)
def test_out_of_range_value_names_its_config_key(key, text):
    with pytest.raises(ValidationError) as exc:
        parse_config(text)
    assert exc.value.key == key
    assert str(exc.value).startswith(f"{key}: ")


# Parser fuzz: lines of real schema keys with arbitrary values, mixed with
# arbitrary text.  Parsing only: nothing is built or run.
_VALUES = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["inf", "-inf", "nan", "0", "-0.0", "5e-324", "1e308", "true", "file",
                     "custom:", "custom:saturating_binding", "paper_literal", "breathing"]),
)
_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(sorted(config_mod._SCHEMA)), _VALUES),
    st.text(max_size=30),
)


@settings(max_examples=300)
@example("time.output_interval = 5e-324")
@given(st.lists(_LINES, max_size=8).map("\n".join))
def test_any_text_parses_or_fails_with_a_config_error(text):
    try:
        cfg = parse_config(text)
    except (ParseError, ValidationError):
        return
    assert isinstance(cfg, RunConfig)


EQUILIBRIUM = ["equilibrium", "--m1", "2", "--m2", "2", "--area", "1", "--length", "1"]

BAD_FLAGS = [
    (EQUILIBRIUM + ["--m1", "-1"], "--m1"),
    (EQUILIBRIUM + ["--m1", "inf"], "--m1"),
    (EQUILIBRIUM + ["--m2", "0"], "--m2"),
    (EQUILIBRIUM + ["--area", "0"], "--area"),
    (EQUILIBRIUM + ["--area", "inf"], "--area"),
    (EQUILIBRIUM + ["--delta-k", "-1"], "--delta-k"),
    (EQUILIBRIUM + ["--delta-k", "inf"], "--mode"),
    (["check-assumptions", "--n", "0"], "--n"),
    (["check-assumptions", "--n", "100000000000"], "--n"),     # > MAX_SAMPLES
    (["check-assumptions", "--lo", "-1"], "--lo/--hi"),
    (["check-assumptions", "--delta-k", "0"], "--delta-k"),
    (["check-assumptions", "--nonlinearity", "foo"], "--nonlinearity"),
    (["transport-check", "--dt0", "0"], "--dt0"),
    (["transport-check", "--amplitude", "0.9"], "--amplitude"),
    (["transport-check", "--t", "nan"], "--t"),
    (["transport-check", "--t", "inf"], "--t"),
    (["transport-check", "--t", "-100"], "--t"),
    (["transport-check", "--t", "0.005"], "--t"),         # t - dt0 < 0
    (["check-assumptions", "--seed", "-1"], "--seed"),
    (["mms", "--dt0", "0"], "--dt0"),
    (["mms", "--case", "foo"], "--case"),
    (["eig", "--n-r", "2"], "--n-r"),
    (["eig", "--r-inner", "3"], "--r-inner"),
    (["eig", "--r-outer", "1e300"], "--r-outer"),
]


def _one_line(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("argv, flag", BAD_FLAGS,
                         ids=[" ".join([argv[0], *argv[-2:]]) for argv, _ in BAD_FLAGS])
def test_bad_flag_exits_one_naming_it(argv, flag, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 1
    assert f"): {flag}: " in _one_line(capsys)
    assert list(tmp_path.iterdir()) == []


# (command, config text past a 4 x 8 mesh, key at fault): a mass that is
# not positive is known only once the initial state is; an area that
# overflows is caught before any mesh overflows.  A step's surface rows hold
# a density times dt delta / arc: from ic.m2 = 10 the equilibrium density
# grows like 1 / r_inner0 as the coupling does, and at 5e-324 the coupling
# alone overflows
RUN_FAULTS = [
    ("run", "ic.u0 = 0\nic.w0 = 0\nic.z0 = 0\n", "ic.u0/ic.z0"),
    ("run", "ic.w0 = 0\nic.z0 = 0\n", "ic.w0/ic.z0"),
    ("probe", "ic.m1 = -1\nprobe.n_samples = 3\n", "ic.m1"),
    ("probe", f"probe.seed = {2 ** 64}\nprobe.n_samples = 3\n", "probe.seed"),
    ("probe", f"probe.n_samples = {10 ** 12}\n", "probe.n_samples"),
    ("run", "geometry.r_outer0 = 1e300\n", "geometry.r_outer0"),
] + [("run", f"geometry.r_inner0 = {radius}\nic.profile = {profile}\ntime.stepper = {stepper}\n",
      "geometry.r_inner0")
     for radius, profile in (("1e-200", "perturbed_equilibrium"), ("1e-300", "perturbed_equilibrium"),
                             ("5e-324", "perturbed_equilibrium"), ("5e-324", "uniform"))
     for stepper in ("imex", "implicit")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text, key", RUN_FAULTS, ids=[key for *_, key in RUN_FAULTS])
def test_input_fault_of_a_run_exits_one_naming_its_key(command, text, key, tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(f"mesh.n_r = 4\nmesh.n_theta = 8\n{text}output.directory = {tmp_path}/out\n")
    assert cli.main([command, str(cfg_path)]) == 1
    assert f"): {key}: " in _one_line(capsys)


@pytest.mark.parametrize("below", [False, True], ids=["file", "below a file"])
@pytest.mark.parametrize("command", ["probe", "equilibrium"])
def test_output_directory_naming_a_file_exits_one(command, below, tmp_path, capsys):
    (tmp_path / "f").write_text("")
    out = tmp_path / "f" / "out" if below else tmp_path / "f"
    if command == "probe":
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("mesh.n_r = 4\nmesh.n_theta = 8\nprobe.n_samples = 3\n"
                            f"output.directory = {out}\n")
        argv, where = ["probe", str(cfg_path)], "output.directory"
    else:
        argv, where = EQUILIBRIUM + ["--out", str(out)], "--out"
    assert cli.main(argv) == 1
    assert f"output error: {where} = {out}: " in _one_line(capsys)


@pytest.mark.parametrize("make", [lambda p: p.mkdir(), lambda p: p.write_bytes(b"\xff\n"),
                                  lambda p: None], ids=["directory", "not utf-8", "missing"])
def test_unreadable_config_exits_one_naming_it(make, tmp_path, capsys):
    path = tmp_path / "c.cfg"
    make(path)
    assert cli.main(["run", str(path)]) == 1
    assert f"config: {path}: " in _one_line(capsys)


@pytest.mark.parametrize("stepper", ["imex", "implicit"])
def test_tiny_inner_radius_runs_to_the_end(stepper, tmp_path, capsys):
    """geometry.r_inner0 = 1e-300 passes every rule, and the uniform state
    then has m2 about 1e-299: its equilibrium is representable, so the run
    ends in exit 0 with the masses held, not in an exit 2 naming no key."""
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(f"mesh.n_r = 4\nmesh.n_theta = 8\ngeometry.r_inner0 = 1e-300\n"
                        f"time.stepper = {stepper}\noutput.directory = {tmp_path}/out\n")
    assert cli.main(["run", str(cfg_path)]) == 0
    drift = capsys.readouterr().out.split("drift=(")[1].split(")")[0]
    assert max(float(v) for v in drift.split(",")) <= 1e-12


@pytest.mark.parametrize("stepper", ["imex", "implicit"])
def test_small_inner_radius_under_a_perturbed_equilibrium_holds_the_masses(stepper, tmp_path,
                                                                            capsys):
    """At r_inner0 = 1e-100 the surface densities are near 1e100 and the bulk
    near 1: both steppers run to the end with the masses held (Newton on the
    whole field drifted m1 by 1.4e-5 here), and every dissipation is finite
    (the square of the surface gradient alone would overflow)."""
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(f"mesh.n_r = 4\nmesh.n_theta = 8\ngeometry.r_inner0 = 1e-100\n"
                        f"ic.profile = perturbed_equilibrium\ntime.stepper = {stepper}\n"
                        f"output.directory = {tmp_path}/out\n")
    assert cli.main(["run", str(cfg_path)]) == 0
    drift = capsys.readouterr().out.split("drift=(")[1].split(")")[0]
    assert max(float(v) for v in drift.split(",")) <= 1e-12
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    column = lines[0].split(",").index("dissipation")
    assert len(lines) > 2
    assert all(math.isfinite(float(line.split(",")[column])) for line in lines[1:])


def test_cfl_run_over_the_step_budget_exits_two(tmp_path, monkeypatch, capsys):
    """t_final / dt = 3 steps pass the budget when parsed; the wind caps the
    CFL step near 0.014, so the run would need about 21."""
    monkeypatch.setattr(solver_mod, "MAX_STEPS", 3)
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("mesh.n_r = 4\nmesh.n_theta = 8\n"
                        "geometry.kind = surface_wind\ngeometry.wind_speed = 50\n"
                        "time.cfl = true\ntime.t_final = 0.3\ntime.dt = 0.1\n"
                        f"time.output_interval = 0.3\noutput.directory = {tmp_path}/out\n")
    assert cli.main(["run", str(cfg_path)]) == 2
    err = _one_line(capsys)
    assert "CflViolation" in err and "step 4 at t = 0.0424115, dt = 0.0141372" in err
    assert "MAX_STEPS = 3" in err


@pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64 - 1])
def test_probe_seed_at_the_top_of_its_range_runs(seed, tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(f"mesh.n_r = 4\nmesh.n_theta = 8\nprobe.n_samples = 3\n"
                        f"probe.seed = {seed}\noutput.directory = {tmp_path}/out\n")
    assert cli.main(["probe", str(cfg_path)]) == 0
    assert f"(seed {seed})" in capsys.readouterr().out


# End-to-end fuzz: valid configs at 4 x 8 of at most 20 steps on every preset,
# stepper and dt control, the five deltas log-uniform in [1e-6, 1e12] and the
# rate constants also inf.  CFL runs get a budget of 20 steps.
_DELTA = st.floats(-6.0, 12.0).map(lambda e: 10.0 ** e)
_RATE = st.one_of(_DELTA, st.just(math.inf))
_PRESETS = {"fixed": "", "rotation": "geometry.omega = 1\n",
            "breathing": "geometry.omega = 2\ngeometry.amplitude = 0.3\ngeometry.delta = 0.2\n",
            "surface_wind": "geometry.wind_speed = 0.5\ngeometry.delta = 0.2\n"}


@settings(max_examples=200)
@given(kind=st.sampled_from(sorted(_PRESETS)), stepper=st.sampled_from(["imex", "implicit"]),
       cfl=st.booleans(), deltas=st.tuples(_DELTA, _DELTA, _DELTA, _RATE, _RATE),
       mode=st.sampled_from(["rate_balance", "paper_literal"]),
       profile=st.sampled_from(["uniform", "perturbed_equilibrium"]), steps=st.integers(1, 20))
def test_any_valid_run_exits_cleanly(kind, stepper, cfl, deltas, mode, profile, steps):
    """Each run exits 0, 1 or 2 with no traceback; on exit 0 every record
    holds m1 and m2 to 1e-9 and its fields above -1e-12."""
    keys = ("delta_omega", "delta_gamma", "delta_gamma_prime", "delta_k", "delta_k_prime")
    with tempfile.TemporaryDirectory() as out, mock.patch.object(solver_mod, "MAX_STEPS", 20):
        text = (f"geometry.kind = {kind}\n{_PRESETS[kind]}mesh.n_r = 4\nmesh.n_theta = 8\n"
                + "".join(f"model.{key} = {value!r}\n" for key, value in zip(keys, deltas))
                + f"model.equilibrium_mode = {mode}\ntime.stepper = {stepper}\n"
                f"time.cfl = {str(cfl).lower()}\ntime.dt = 0.01\ntime.t_final = {steps / 100}\n"
                f"time.output_interval = 0.01\nic.profile = {profile}\n"
                f"output.snapshots = false\noutput.directory = {out}\n")
        with open(f"{out}/c.cfg", "w", encoding="utf-8") as fh:
            fh.write(text)
        code = cli.main(["run", f"{out}/c.cfg"])
        assert code in (0, 1, 2)
        if code == 0:
            rows = np.loadtxt(f"{out}/diagnostics.csv", delimiter=",", skiprows=1, ndmin=2)
            drift = np.abs(rows[:, 1:3] - rows[0, 1:3]) / rows[0, 1:3]
            assert drift.max() <= 1e-9 and rows[:, 5:8].min() >= -1e-12, text
