"""Config parsing strictness, run determinism, CLI subcommands and exit codes."""

import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from bulksurf import cli
from bulksurf import diagnostics as diag_mod
from bulksurf import solver as solver_mod
from bulksurf.config import (MAX_CELLS, MAX_STEPS, format_snapshot, load_fields_file,
                             parse_config)
from bulksurf.errors import (CflViolation, ConservationDrift, NonfiniteField, ParseError,
                             ValidationError)
from bulksurf.geometry import GeometryKind
from bulksurf.solver import run


class TestParseConfig:
    def test_empty_config_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.geometry.kind is GeometryKind.FIXED
        assert cfg.mesh.n_r == 64 and cfg.mesh.n_theta == 128
        assert cfg.model.params.delta_omega == 1.0
        assert cfg.time.stepper == "imex"
        assert cfg.ic.profile == "uniform"
        assert cfg.output.directory == "out"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("\n# full line comment\nmesh.n_r = 16  # trailing\n\n")
        assert cfg.mesh.n_r == 16

    def test_below_minimum_resolution(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("mesh.n_r = 3")
        assert "n_r" in str(exc.value)

    def test_duplicate_key_names_both_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_config("mesh.n_r = 8\nmesh.n_r = 16")
        msg = str(exc.value)
        assert "line 2" in msg and "line 1" in msg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("mesh.n_rr = 8")
        assert "unknown config key" in str(exc.value)

    def test_bad_literal_names_line(self):
        with pytest.raises(ParseError) as exc:
            parse_config("time.dt = fast")
        assert exc.value.line == 1

    def test_missing_equals_sign(self):
        with pytest.raises(ParseError):
            parse_config("just some text")

    def test_breathing_amplitude_guard(self):
        text = "geometry.kind = breathing\ngeometry.amplitude = 0.9"
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_inf_sentinel_accepted(self):
        cfg = parse_config("model.delta_k = inf\nmodel.equilibrium_mode = paper_literal")
        assert math.isinf(cfg.model.params.delta_k)

    @pytest.mark.parametrize("key", ["model.delta_k", "model.delta_k_prime"])
    def test_inf_rate_constant_rejected_by_rate_balance(self, key):
        # kappa = delta_k' / delta_k is 0, inf or nan: no rate-balance equilibrium
        with pytest.raises(ValidationError) as exc:
            parse_config(f"{key} = inf")
        assert exc.value.key == "model.equilibrium_mode"

    @pytest.mark.parametrize("line", ["time.dt = nan", "time.t_final = nan",
                                      "time.t_final = inf", "geometry.omega = nan"])
    def test_nonfinite_value_exits_one_naming_the_key(self, line, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("geometry.kind = rotation\nmesh.n_r = 8\nmesh.n_theta = 16\n"
                            f"{line}\noutput.directory = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_path)]) == 1
        assert line.split(" = ")[0] in capsys.readouterr().err

    def test_time_grid_alignment_enforced(self):
        with pytest.raises(ValidationError):
            parse_config("time.t_final = 1.0\ntime.output_interval = 0.3")
        with pytest.raises(ValidationError):
            parse_config("time.dt = 0.03\ntime.output_interval = 0.1")

    def test_ic_file_must_exist(self):
        with pytest.raises(ValidationError):
            parse_config("ic.profile = file\nic.path = /nonexistent/f.txt")

    def test_unknown_nonlinearity(self):
        with pytest.raises(ValidationError):
            parse_config("model.nonlinearity = custom:nope")


# Budget tests parse only: a config over a budget is never run.
OVER_BUDGET = [("time.t_final = 1e9\ntime.dt = 0.001\n", "time.dt"),   # 1e12 steps
               ("mesh.n_r = 200000\nmesh.n_theta = 200000\n", "mesh.n_r")]   # 4e10 cells


class TestBudgets:
    @pytest.mark.parametrize("text, key", OVER_BUDGET)
    def test_over_budget_rejected_naming_the_key(self, text, key):
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert exc.value.key == key and key in str(exc.value)

    @pytest.mark.parametrize("text, key", OVER_BUDGET)
    def test_over_budget_exits_one_within_a_second(self, text, key, tmp_path, capsys):
        cfg_path = _config_file(tmp_path, text)
        start = time.perf_counter()
        assert cli.main(["run", str(cfg_path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert key in capsys.readouterr().err

    def test_budgets_are_inclusive(self):
        side = math.isqrt(MAX_CELLS)
        assert parse_config(f"mesh.n_r = {side}\nmesh.n_theta = {side}").mesh.n_r == side
        with pytest.raises(ValidationError):
            parse_config(f"mesh.n_r = {side}\nmesh.n_theta = {side + 1}")
        steps = f"time.t_final = {MAX_STEPS}\ntime.output_interval = {MAX_STEPS}\ntime.dt = "
        assert parse_config(steps + "1").time.dt == 1.0
        with pytest.raises(ValidationError):
            parse_config(steps + "0.5")


SMALL_RUN = """
mesh.n_r = 8
mesh.n_theta = 16
time.t_final = 0.2
time.dt = 0.02
time.output_interval = 0.1
ic.profile = perturbed_equilibrium
ic.m1 = 15
ic.m2 = 10
ic.amplitude = 0.1
ic.mode = 2
"""


class TestRunDriver:
    def test_t_zero_single_record(self):
        cfg = parse_config(SMALL_RUN.replace("time.t_final = 0.2", "time.t_final = 0"))
        result = run(cfg)
        assert len(result.records) == 1
        assert result.records[0].t == 0.0

    def test_records_at_output_interval(self):
        result = run(parse_config(SMALL_RUN))
        assert [round(r.t, 10) for r in result.records] == [0.0, 0.1, 0.2]

    def test_snapshots_retained_on_result(self):
        result = run(parse_config(SMALL_RUN))
        names = {(s.field, s.index) for s in result.snapshots}
        assert ("u", 0) in names and ("z", 2) in names
        u_last = next(s for s in result.snapshots if s.field == "u" and s.index == 2)
        assert u_last.grid.shape == (8, 16)
        assert np.array_equal(u_last.grid.ravel(), result.final_state.u_hat)
        # disabled retention leaves the list empty
        off = run(parse_config(SMALL_RUN + "output.snapshots = false\n"))
        assert off.snapshots == []

    def test_kept_snapshots_are_copies(self):
        result = run(parse_config(SMALL_RUN))
        u_last = next(s for s in result.snapshots if s.field == "u" and s.index == 2)
        kept = u_last.grid.copy()
        result.final_state.u_hat[:] = -1.0
        assert np.array_equal(u_last.grid, kept)

    def test_entropy_stays_zero_from_equilibrium(self):
        cfg = parse_config(SMALL_RUN.replace("ic.amplitude = 0.1", "ic.amplitude = 0"))
        result = run(cfg)
        assert all(r.entropy <= 1e-10 for r in result.records)

    def test_deterministic_csv_bytes(self):
        rows1 = [r.csv_row() for r in run(parse_config(SMALL_RUN)).records]
        rows2 = [r.csv_row() for r in run(parse_config(SMALL_RUN)).records]
        assert rows1 == rows2

    def test_file_ic_round_trip(self, tmp_path):
        cfg = parse_config(SMALL_RUN)
        res = run(cfg)
        st = res.final_state
        path = tmp_path / "fields.txt"
        text = (format_snapshot("u", st.t, st.u_hat.reshape(8, 16))
                + format_snapshot("w", st.t, st.w_hat.reshape(1, 16))
                + format_snapshot("z", st.t, st.z_hat.reshape(1, 16)))
        path.write_text(text)
        u, w, z = load_fields_file(str(path), 8, 16)
        assert np.array_equal(u, st.u_hat)
        assert np.array_equal(w, st.w_hat)
        assert np.array_equal(z, st.z_hat)
        text2 = SMALL_RUN + f"ic.path = {path}\n"
        text2 = text2.replace("ic.profile = perturbed_equilibrium", "ic.profile = file")
        cfg2 = parse_config(text2)
        result = run(cfg2)
        assert np.allclose(result.records[0].m1, res.records[-1].m1, rtol=1e-12)

    def test_snapshot_rows_match_per_value_format(self, tmp_path):
        special = [0.0, -0.0, 5e-324, 1e308, 1 / 3]
        grids = {"u": np.array([special, special[::-1]]), "w": np.array([special]),
                 "z": np.array([special[1:] + special[:1]])}
        text = "".join(format_snapshot(name, 0.1, grid) for name, grid in grids.items())
        expect = "".join(
            f"# t={0.1:.17g} field={name} n_r={grid.shape[0]} n_theta={grid.shape[1]}\n"
            + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in grid)
            for name, grid in grids.items())
        assert text == expect
        path = tmp_path / "fields.txt"
        path.write_text(text)
        for got, grid in zip(load_fields_file(str(path), 2, 5), grids.values()):
            assert got.tobytes() == grid.ravel().tobytes()   # -0.0 keeps its sign

    def test_cfl_adaptive_mode(self):
        text = SMALL_RUN + "geometry.kind = surface_wind\ngeometry.wind_speed = 0.5\ntime.cfl = true\n"
        result = run(parse_config(text))
        assert result.records[-1].t == pytest.approx(0.2)

    def test_implicit_stepper_through_driver(self):
        res_imex = run(parse_config(SMALL_RUN))
        res_impl = run(parse_config(SMALL_RUN + "time.stepper = implicit\n"))
        assert res_impl.records[-1].t == pytest.approx(0.2)
        # both steppers land on the same masses and nearby fields
        assert res_impl.records[-1].m1 == pytest.approx(res_imex.records[-1].m1, rel=1e-10)
        assert res_impl.records[-1].entropy == pytest.approx(
            res_imex.records[-1].entropy, rel=0.05, abs=1e-8)

    @pytest.mark.parametrize("cfl", ["false", "true"])
    def test_steps_and_newton_solves_on_the_result(self, cfl, monkeypatch):
        solves, gmres, step = [], [], solver_mod.step_implicit

        def counted(*args, **kwargs):
            state, info = step(*args, **kwargs)
            solves.append(info["iterations"])
            gmres.append(sum(info["gmres"]))
            assert len(info["gmres"]) == info["iterations"]
            return state, info

        monkeypatch.setattr(solver_mod, "step_implicit", counted)
        text = SMALL_RUN + f"time.cfl = {cfl}\nmodel.delta_k = 0.05\n"
        res = run(parse_config(text + "time.stepper = implicit\n"))
        assert res.steps == len(solves) >= 10
        assert (res.newton_total, res.newton_max) == (sum(solves), max(solves))
        assert res.gmres_total == sum(gmres) >= 1
        assert min(solves) >= 1
        imex, step_imex = [], solver_mod.step_imex

        def counted_imex(*args, **kwargs):
            state, info = step_imex(*args, **kwargs)
            imex.append(info["gmres"])
            return state, info

        monkeypatch.setattr(solver_mod, "step_imex", counted_imex)
        res = run(parse_config(text))
        assert res.steps == len(imex) >= 10 and {len(g) for g in imex} == {1}
        assert (res.newton_total, res.newton_max) == (0, 0)
        assert res.gmres_total == sum(sum(g) for g in imex) >= 1

    def test_drift_past_the_guard_stops_the_run(self, tmp_path, capsys, monkeypatch):
        """An IMEX stepper that leaks 1e-8 of the bulk per step drifts m1 by
        about 6e-8 in ten steps: the record at t = 0.1 is written, then the
        run exits 2 naming the step, t and both drifts."""
        step = solver_mod.ImexStepper.step

        def leaking(self, state):
            state = step(self, state)
            state.u_hat *= 1.0 - 1e-8
            return state

        monkeypatch.setattr(solver_mod.ImexStepper, "step", leaking)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("mesh.n_r = 8\nmesh.n_theta = 16\ntime.dt = 0.01\n"
                            "time.t_final = 0.2\noutput.snapshots = false\n"
                            f"output.directory = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure (ConservationDrift): step 10 at t = 0.1: "
                              "relative drift of m1 ")
        drifts = err.split("m1 ")[1].split(", above")[0].split(", m2 ")
        assert float(drifts[0]) > solver_mod.MAX_DRIFT >= float(drifts[1])
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()
        assert len(lines) == 3 and lines[2].startswith("0.1")

    # breathing (omega 2, amplitude 0.3, delta 0.2) at 4 x 8 with fast binding,
    # dt 0.01 and a record every 0.01: (stepper, config lines, the error's text)
    NEGATIVE_RUNS = {
        "imex": ("time.cfl = true\ntime.t_final = 0.13\nic.profile = perturbed_equilibrium\n"
                 "model.delta_omega = 1.3858082271398442\nmodel.delta_gamma = 1915.848343969718\n"
                 "model.delta_gamma_prime = 228195.67642923605\n"
                 "model.delta_k = 1.8528865737920914e-06\n"
                 "model.delta_k_prime = 5068.790215765448\n",
                 "step 18 at t = 0.12: min of w -2.796e-02, below -1e-12", 0.12),
        "implicit": ("time.t_final = 0.12\nmodel.delta_omega = 9.664984728022555\n"
                     "model.delta_gamma = 1.3555607086585665e-05\n"
                     "model.delta_gamma_prime = 11637388.902248343\n"
                     "model.delta_k = 3.8003357022725676e-05\n"
                     "model.delta_k_prime = 12.931554975165325\n",
                     "step 4 at t = 0.04: min of w -3.872e-02, below -1e-12", 0.04),
    }

    @pytest.mark.parametrize("stepper", sorted(NEGATIVE_RUNS))
    def test_negative_field_stops_the_run(self, stepper, tmp_path, capsys):
        """A record whose smallest u, w or z is below -1e-12 is written, then
        the run exits 2 naming the step, t and the field (both runs exited 0
        with min w -5.7e-2 and -0.41 before)."""
        text, message, t = self.NEGATIVE_RUNS[stepper]
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("geometry.kind = breathing\ngeometry.omega = 2\n"
                            "geometry.amplitude = 0.3\ngeometry.delta = 0.2\nmesh.n_r = 4\n"
                            "mesh.n_theta = 8\nmodel.equilibrium_mode = paper_literal\n"
                            f"time.stepper = {stepper}\ntime.dt = 0.01\n"
                            f"time.output_interval = 0.01\n{text}output.snapshots = false\n"
                            f"output.directory = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"numerical failure (NegativeField): {message}\n"
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()
        assert float(lines[-1].split(",")[0]) == t

    def test_guard_reads_every_record(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "MAX_DRIFT", -1.0)
        with pytest.raises(ConservationDrift, match="step 0 at t = 0: "):
            run(parse_config(SMALL_RUN))

    @pytest.mark.parametrize("column,message", [
        ("m1", "ConservationDrift): step 10 at t = 0.1: relative drift of m1 nan, m2 "),
        ("min_u", "NegativeField): step 10 at t = 0.1: min of u nan, below -1e-12")],
        ids=["m1", "min_u"])
    def test_nan_record_stops_the_run(self, column, message, tmp_path, capsys, monkeypatch):
        """A record holding NaN fails both checks, as a drift above MAX_DRIFT
        or a field below MIN_FIELD does (both were NaN-blind and the run
        exited 0)."""
        make_record = diag_mod.make_record

        def nan_at_01(state, *args):
            rec = make_record(state, *args)
            return dataclasses.replace(rec, **{column: math.nan}) if state.t == 0.1 else rec

        monkeypatch.setattr(diag_mod, "make_record", nan_at_01)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("mesh.n_r = 8\nmesh.n_theta = 16\ntime.dt = 0.01\n"
                            "time.t_final = 0.2\noutput.snapshots = false\n"
                            f"output.directory = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"numerical failure ({message}")


def field_file_text(fault):
    """A 4 x 8 field file for `ic.path`, with one fault (or none)."""
    grids = {"u": np.full((4, 8), 1.5), "w": np.full((1, 8), 2.0), "z": np.full((1, 8), 0.5)}
    text = "".join(format_snapshot(name, 0.0, grid) for name, grid in grids.items())
    lines = text.splitlines()
    edits = {
        "header without field=": lambda: lines.__setitem__(0, "# t=0 n_r=4 n_theta=8"),
        "header token without =": lambda: lines.__setitem__(0, lines[0] + " junk"),
        "truncated block": lambda: lines.pop(),
        "ragged row": lambda: lines.__setitem__(2, lines[2].rsplit(",", 1)[0]),
        "non-numeric value": lambda: lines.__setitem__(2, "abc," + lines[2].split(",", 1)[1]),
        "n_r=abc": lambda: lines.__setitem__(0, lines[0].replace("n_r=4", "n_r=abc")),
        "n_r=-1": lambda: lines.__setitem__(0, lines[0].replace("n_r=4", "n_r=-1")),
        "negative value": lambda: lines.__setitem__(2, "-5.0," + lines[2].split(",", 1)[1]),
        "nan value": lambda: lines.__setitem__(6, "nan," + lines[6].split(",", 1)[1]),
        "inf value": lambda: lines.__setitem__(8, "inf," + lines[8].split(",", 1)[1]),
    }
    if fault:
        edits[fault]()
    return "\n".join(lines) + "\n"


def _config_file(tmp_path, text):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(text + f"output.directory = {tmp_path}/out\n")
    return cfg_path


WIND_FAILURE = ("mesh.n_r = 8\nmesh.n_theta = 16\n"
                "geometry.kind = surface_wind\ngeometry.wind_speed = 50\n"
                "time.t_final = 1\ntime.dt = 0.5\ntime.output_interval = 0.5\n")


class TestSnapshotWriter:
    def test_writer_bytes_equal_in_process_format(self, tmp_path):
        special = [0.0, -0.0, 5e-324, 1e308, 1 / 3]
        grid = np.array([special, special[::-1]])
        t = 0.1 + 0.2   # 0.30000000000000004 needs all 17 digits
        with cli._snapshot_writer(str(tmp_path)) as on_snapshot:
            on_snapshot("u", 7, t, grid)
        assert (tmp_path / "u_000007.txt").read_bytes() == format_snapshot("u", t, grid).encode()

    def test_run_snapshots_equal_in_process_format(self, tmp_path):
        text = SMALL_RUN.replace("time.t_final = 0.2", "time.t_final = 0.3")
        assert cli.main(["run", str(_config_file(tmp_path, text))]) == 0
        snaps = run(parse_config(text)).snapshots
        snap = tmp_path / "out" / "snapshots"
        assert sorted(os.listdir(snap)) == sorted(f"{s.field}_{s.index:06d}.txt" for s in snaps)
        for s in snaps:
            got = (snap / f"{s.field}_{s.index:06d}.txt").read_bytes()
            assert got == format_snapshot(s.field, s.t, s.grid).encode()
        assert (snap / "u_000003.txt").read_text().startswith("# t=0.30000000000000004 ")

    def test_failure_mid_run_leaves_complete_snapshots(self, tmp_path, monkeypatch, capsys):
        step = solver_mod.ImexStepper.step
        calls = []

        def failing_step(self, state, *args, **kwargs):
            calls.append(state.t)
            if len(calls) == 3:
                raise CflViolation("injected at step 3")
            return step(self, state, *args, **kwargs)

        monkeypatch.setattr(solver_mod.ImexStepper, "step", failing_step)
        text = SMALL_RUN.replace("time.output_interval = 0.1", "time.output_interval = 0.02")
        assert cli.main(["run", str(_config_file(tmp_path, text))]) == 2
        assert "injected at step 3" in capsys.readouterr().err
        snap = tmp_path / "out" / "snapshots"
        assert sorted(os.listdir(snap)) == [f"{n}_{i:06d}.txt" for n in "uwz" for i in range(3)]
        for i in range(3):
            fields = tmp_path / f"fields_{i}.txt"
            fields.write_text("".join((snap / f"{n}_{i:06d}.txt").read_text() for n in "uwz"))
            load_fields_file(str(fields), 8, 16)

    def test_writer_that_dies_unreported_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.config_mod, "format_snapshot", lambda *args: os._exit(3))
        assert cli.main(["run", str(_config_file(tmp_path, SMALL_RUN))]) == 1
        err = capsys.readouterr().err
        assert "output.directory" in err and "exited with code 3" in err
        assert multiprocessing.active_children() == []

    def test_snapshots_off_starts_no_process(self, tmp_path, monkeypatch):
        started = []
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", started.append)
        text = SMALL_RUN + "output.snapshots = false\n"
        assert cli.main(["run", str(_config_file(tmp_path, text))]) == 0
        assert started == []
        assert not (tmp_path / "out" / "snapshots").exists()

    def test_grid_overwritten_after_the_call_is_written_as_handed(self, tmp_path):
        grid = np.full((3, 4), 0.5)
        expected = []
        with cli._snapshot_writer(str(tmp_path)) as on_snapshot:
            for k in range(cli._SLOTS + 3):
                grid[...] = np.arange(12.0).reshape(3, 4) + k / 7
                on_snapshot("u", k, k / 10, grid)
                expected.append(format_snapshot("u", k / 10, grid).encode())
                grid[...] = -1.0
        for k, want in enumerate(expected):
            assert (tmp_path / f"u_{k:06d}.txt").read_bytes() == want

    def test_slot_is_not_reused_before_the_writer_hands_it_back(self, tmp_path, monkeypatch):
        """A writer slower than the run: the run waits for a slot instead of
        overwriting one whose grid is not yet formatted."""
        original = cli.config_mod.format_snapshot

        def slow_format(*args):
            time.sleep(0.02)
            return original(*args)

        monkeypatch.setattr(cli.config_mod, "format_snapshot", slow_format)
        handed = [(name, k, k / 3, np.full((3 if name == "u" else 1, 4), k + 0.25))
                  for k in range(2 * cli._SLOTS) for name in "uwz"]
        with cli._snapshot_writer(str(tmp_path)) as on_snapshot:
            for name, k, t, grid in handed:
                on_snapshot(name, k, t, grid)
        for name, k, t, grid in handed:
            got = (tmp_path / f"{name}_{k:06d}.txt").read_bytes()
            assert got == original(name, t, grid).encode()

    def test_writer_failure_in_a_long_run_exits_one_promptly(self, tmp_path, capsys):
        """The writer fails at the fourth of 60 grids; the run, which keeps
        handing grids over, must not wait for a slot from a writer that has
        ended.  A daemon thread turns a hang into a failure."""
        (tmp_path / "out" / "snapshots" / "u_000001.txt").mkdir(parents=True)
        text = (SMALL_RUN.replace("time.t_final = 0.2", "time.t_final = 0.38")
                .replace("time.output_interval = 0.1", "time.output_interval = 0.02"))
        assert len(run(parse_config(text)).records) == 20
        codes = []
        main = threading.Thread(daemon=True, target=lambda: codes.append(
            cli.main(["run", str(_config_file(tmp_path, text))])))
        main.start()
        main.join(timeout=10)
        assert codes == [1]
        assert "output.directory" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_no_process_left_after_main(self, code, tmp_path, capsys):
        if code == 1:
            (tmp_path / "out" / "snapshots" / "w_000001.txt").mkdir(parents=True)
        text = WIND_FAILURE if code == 2 else SMALL_RUN
        assert cli.main(["run", str(_config_file(tmp_path, text))]) == code
        assert multiprocessing.active_children() == []
        assert (tmp_path / "out" / "snapshots" / "u_000000.txt").is_file()


class TestCli:
    @pytest.mark.parametrize("fault, line", [
        ("header without field=", 1), ("header token without =", 1), ("truncated block", 8),
        ("ragged row", 3), ("non-numeric value", 3), ("n_r=abc", 1), ("n_r=-1", 1),
        ("negative value", None), ("nan value", None), ("inf value", None)])
    def test_field_file_fault_exits_one_naming_ic_path(self, fault, line, tmp_path, capsys):
        """A malformed file names the line at fault (1-based); a bad value
        names its field."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"mesh.n_r = 4\nmesh.n_theta = 8\nic.profile = file\n"
                            f"ic.path = {tmp_path / 'ic.txt'}\ntime.t_final = 0.02\n"
                            f"time.output_interval = 0.02\noutput.directory = {tmp_path}/out\n")
        (tmp_path / "ic.txt").write_text(field_file_text(None))
        assert cli.main(["run", str(cfg_path)]) == 0
        (tmp_path / "ic.txt").write_text(field_file_text(fault))
        capsys.readouterr()
        assert cli.main(["run", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "ic.path" in err and "Traceback" not in err
        assert f"line {line}:" in err if line else "has a negative or non-finite value" in err

    def test_ic_path_naming_a_directory_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"mesh.n_r = 4\nmesh.n_theta = 8\nic.profile = file\n"
                            f"ic.path = {tmp_path}\noutput.directory = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "ic.path" in err and "output.directory" not in err and "Traceback" not in err

    def test_output_directory_naming_a_file_exits_one(self, tmp_path, capsys):
        (tmp_path / "out").write_text("")
        assert cli.main(["run", str(_config_file(tmp_path, SMALL_RUN))]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "output.directory" in err and str(tmp_path / "out") in err

    @pytest.mark.parametrize("blocked", ["u_000000.txt", "z_000001.txt"])
    def test_snapshot_path_taken_by_a_directory_exits_one(self, blocked, tmp_path, capsys):
        """The writer's failure comes back as one line; the files it wrote
        before it are complete."""
        snap = tmp_path / "out" / "snapshots"
        (snap / blocked).mkdir(parents=True)
        assert cli.main(["run", str(_config_file(tmp_path, SMALL_RUN))]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "output.directory" in err and str(snap / blocked) in err
        snaps = run(parse_config(SMALL_RUN)).snapshots
        order = [f"{s.field}_{s.index:06d}.txt" for s in snaps]
        before = order[:order.index(blocked)]
        assert sorted(p.name for p in snap.iterdir() if p.is_file()) == sorted(before)
        for name, s in zip(before, snaps):
            assert (snap / name).read_bytes() == format_snapshot(s.field, s.t, s.grid).encode()

    def test_equilibrium_subcommand(self, tmp_path, capsys):
        code = cli.main(["equilibrium", "--m1", "2", "--m2", "2", "--area", "1",
                         "--length", "1", "--mode", "paper", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "u=1 " in out and "w=1 " in out and "z=1 " in out
        assert (tmp_path / "equilibrium.txt").exists()

    def test_main_twice_with_different_subcommands(self, tmp_path, capsys):
        """One parser serves every call in a process; each call dispatches on
        its own arguments and defaults."""
        assert cli._build_parser() is cli._build_parser()
        assert cli.main(["eig", "--n-r", "8", "--n-theta", "64", "--out", str(tmp_path / "a")]) == 0
        assert "c_pw=" in capsys.readouterr().out
        assert cli.main(["equilibrium", "--m1", "2", "--m2", "2", "--area", "1", "--length", "1",
                         "--mode", "paper", "--out", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert "u=1 " in out and "c_pw=" not in out
        assert sorted(os.listdir(tmp_path / "b")) == ["equilibrium.txt"]
        assert cli.main(["eig", "--n-theta", "-1", "--out", str(tmp_path / "c")]) == 1
        assert "--n-theta" in capsys.readouterr().err

    def test_run_t_zero_writes_one_row(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_RUN.replace("time.t_final = 0.2", "time.t_final = 0")
                            + f"output.directory = {tmp_path}/out\n")
        code = cli.main(["run", str(cfg_path)])
        assert code == 0
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header plus the initial record
        assert lines[0].startswith("t,m1,m2,entropy")

    def test_run_writes_snapshots_and_report(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_RUN + f"output.directory = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_path)]) == 0
        snaps = sorted(os.listdir(tmp_path / "out" / "snapshots"))
        assert "u_000000.txt" in snaps and "z_000002.txt" in snaps
        assert (tmp_path / "out" / "report.txt").exists()
        first = (tmp_path / "out" / "snapshots" / "u_000001.txt").read_text()
        assert first.startswith("# t=0.1") and "n_r=8" in first

    def test_report_counts_steps_and_newton_solves(self, tmp_path):
        """Line 2 of report.txt counts the steps, the Newton solves, the
        GMRES iterations of every capacitance solve, IMEX ones included, and
        the capacitance preconditioner builds: one per step with either
        stepper (per Newton step, and per IMEX solve)."""
        for stepper in ("implicit", "imex"):
            cfg_path = tmp_path / f"{stepper}.cfg"
            cfg_path.write_text(SMALL_RUN + f"time.stepper = {stepper}\noutput.snapshots = false\n"
                                f"output.directory = {tmp_path}/{stepper}\n")
            assert cli.main(["run", str(cfg_path)]) == 0
            res = run(parse_config(cfg_path.read_text()))
            report = (tmp_path / stepper / "report.txt").read_text().splitlines()
            assert report[1] == (f"steps: 10, Newton solves: {res.newton_total} "
                                 f"(at most {res.newton_max} in a step), capacitance GMRES "
                                 f"iterations: {res.gmres_total}, preconditioner builds: 10")
            assert res.gmres_total >= 1 and (res.newton_total >= 10) == (stepper == "implicit")
            assert res.setups_total == 10

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_RUN + f"output.directory = {tmp_path}/out\n"
                            "probe.seed = 7\n")
        assert cli.main(["run", str(cfg_path)]) == 0
        first = (tmp_path / "out" / "diagnostics.csv").read_bytes()
        assert cli.main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "diagnostics.csv").read_bytes() == first

    def test_byte_identical_across_blas_threads(self, tmp_path):
        """A 128 x 256 run, with either stepper, writes the same
        diagnostics.csv and report.txt bytes with BLAS on one thread and on
        two: no reduction that reaches them goes through BLAS, which splits a
        long dot product among its threads (with the records' sums as BLAS
        dot products, the rows at 1 and 2 threads differed in their last
        bits)."""
        code = "import sys\nfrom bulksurf import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=package_root, OPENBLAS_NUM_THREADS=threads)
            for stepper in ("imex", "implicit"):
                out = tmp_path / f"{stepper}-{threads}"
                cfg_path = tmp_path / f"{stepper}-{threads}.cfg"
                cfg_path.write_text(
                    "geometry.kind = rotation\ngeometry.omega = 1\ngeometry.delta = 0.5\n"
                    "mesh.n_r = 128\nmesh.n_theta = 256\nic.profile = perturbed_equilibrium\n"
                    "ic.amplitude = 0.25\nic.mode = 3\ntime.dt = 0.2\ntime.t_final = 0.6\n"
                    f"time.output_interval = 0.2\ntime.stepper = {stepper}\n"
                    f"output.snapshots = false\noutput.directory = {out}\n")
                subprocess.run([sys.executable, "-c", code, "run", str(cfg_path)], env=env,
                               check=True, capture_output=True, timeout=300)
                outputs[threads, stepper] = [(out / name).read_bytes()
                                             for name in ("diagnostics.csv", "report.txt")]
        for stepper in ("imex", "implicit"):
            assert outputs["1", stepper] == outputs["2", stepper], stepper

    def test_usage_error_exit_one(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("mesh.n_r = 3\n")
        assert cli.main(["run", str(cfg_path)]) == 1

    @pytest.mark.parametrize("command", ["run", "probe"])
    @pytest.mark.parametrize("key", ["model.delta_k", "model.delta_k_prime"])
    def test_inf_rate_constant_with_rate_balance_exits_one(self, key, command, tmp_path,
                                                           capsys):
        cfg_path = tmp_path / "c.cfg"
        text = (f"mesh.n_r = 4\nmesh.n_theta = 8\n{key} = inf\nprobe.n_samples = 3\n"
                "time.t_final = 0.02\ntime.output_interval = 0.01\n"
                f"output.directory = {tmp_path}/out\n")
        cfg_path.write_text(text)
        assert cli.main([command, str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "model.equilibrium_mode" in err and "Traceback" not in err
        cfg_path.write_text(text + "model.equilibrium_mode = paper_literal\n")
        assert cli.main([command, str(cfg_path)]) == 0

    def test_numerical_failure_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(
            "mesh.n_r = 8\nmesh.n_theta = 16\n"
            "geometry.kind = surface_wind\ngeometry.wind_speed = 50\n"
            "time.t_final = 1\ntime.dt = 0.5\ntime.output_interval = 0.5\n"
            f"output.directory = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "CflViolation" in err

    def test_partial_output_flushed_on_failure(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(
            "mesh.n_r = 8\nmesh.n_theta = 16\n"
            "geometry.kind = surface_wind\ngeometry.wind_speed = 50\n"
            "time.t_final = 1\ntime.dt = 0.5\ntime.output_interval = 0.5\n"
            f"output.directory = {tmp_path}/out\n")
        cli.main(["run", str(cfg_path)])
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()
        assert len(lines) >= 2  # header and the t = 0 record survived the failure

    def test_collapsed_cfl_bound_stops_the_run(self, tmp_path, capsys):
        # the wind caps the step near 4e-10, which would take billions of steps
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(
            "mesh.n_r = 8\nmesh.n_theta = 16\n"
            "geometry.kind = surface_wind\ngeometry.wind_speed = 1e9\ntime.cfl = true\n"
            f"output.directory = {tmp_path}/out\n")
        start = time.perf_counter()
        assert cli.main(["run", str(cfg_path)]) == 2
        assert time.perf_counter() - start < 20.0
        err = capsys.readouterr().err
        assert "CflViolation" in err and "step 1 at t = 0" in err
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0,")

    def test_check_assumptions_subcommand(self, tmp_path, capsys):
        code = cli.main(["check-assumptions", "--n", "2000", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "A1: pass" in out and "A5: pass" in out

    def test_eig_subcommand(self, tmp_path, capsys):
        code = cli.main(["eig", "--n-r", "8", "--n-theta", "64", "--out", str(tmp_path)])
        assert code == 0
        assert "c_pw=" in capsys.readouterr().out

    def test_probe_ignores_bulksurf_threads(self, tmp_path, monkeypatch, capsys):
        # the variable once capped worker threads and failed on non-integers
        cfg_path = _config_file(tmp_path, "mesh.n_r = 8\nmesh.n_theta = 16\n"
                                          "probe.n_samples = 300\nprobe.seed = 4\n")
        monkeypatch.delenv("BULKSURF_THREADS", raising=False)
        assert cli.main(["probe", str(cfg_path)]) == 0
        unset = (tmp_path / "out" / "probe.txt").read_bytes()
        for value in ("x", "-1", "2"):
            monkeypatch.setenv("BULKSURF_THREADS", value)
            assert cli.main(["probe", str(cfg_path)]) == 0
            assert (tmp_path / "out" / "probe.txt").read_bytes() == unset

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_no_probe_worker_left_after_main(self, code, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        require_finite = diag_mod._require_finite

        def failing_in_workers(fields, what):
            if os.getpid() != parent:
                raise NonfiniteField("injected in a worker")
            require_finite(fields, what)

        if code == 2:
            monkeypatch.setattr(diag_mod, "_require_finite", failing_in_workers)
        monkeypatch.setattr(diag_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        text = "mesh.n_r = 8\nmesh.n_theta = 16\nprobe.n_samples = 600\n"
        cfg_path = _config_file(tmp_path, text + ("probe.seed = x\n" if code == 1 else ""))
        assert cli.main(["probe", str(cfg_path)]) == code
        assert multiprocessing.active_children() == []
        if code == 2:
            assert "NonfiniteField" in capsys.readouterr().err

    def test_probe_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("mesh.n_r = 8\nmesh.n_theta = 16\nprobe.n_samples = 50\n"
                            f"probe.seed = 4\noutput.directory = {tmp_path}/out\n"
                            "ic.m1 = 15\nic.m2 = 10\n")
        assert cli.main(["probe", str(cfg_path)]) == 0
        assert "lambda_probe" in capsys.readouterr().out

    def test_transport_check_subcommand(self, tmp_path, capsys):
        code = cli.main(["transport-check", "--levels", "2", "--out", str(tmp_path)])
        assert code == 0
        assert "bulk=" in capsys.readouterr().out

    def test_mms_subcommand(self, tmp_path, capsys):
        code = cli.main(["mms", "--case", "constant", "--levels", "1", "--n0", "8",
                        "--dt0", "0.01", "--t-final", "0.02", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "err_u=" in out and "nan" not in out
        assert "fitted spatial order: none, 1 of 1 levels" in out  # one level fits no order

    @pytest.mark.parametrize("argv, flag", [
        (["--levels", "8"], "--levels"),                      # level 7: 2048 x 4096 cells
        (["--levels", "1000000000"], "--levels"),
        (["--levels", "4", "--dt0", "1e-7"], "--levels"),     # level 3: above MAX_STEPS
        (["--levels", "3", "--n0", "4096"], "--n0"),          # level 0 already too large
    ])
    def test_mms_checks_every_level_before_the_first_runs(self, argv, flag, tmp_path,
                                                          capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(solver_mod, "manufactured_solution_error",
                            lambda *args, **kw: ran.append(args) or (1.0, 1.0, 1.0))
        start = time.perf_counter()
        assert cli.main(["mms", *argv, "--out", str(tmp_path)]) == 1
        assert time.perf_counter() - start < 1.0 and ran == []
        assert f"config error (ValidationError): {flag}: " in capsys.readouterr().err
