"""Line-oriented run configuration: `section.key = value`, `#` comments.

Parsing is strict: unknown keys and duplicate keys fail before any
computation starts, and every error names the offending line.  Numbers must
be finite; "inf" is accepted only where it disables a reaction constant.  All
keys have documented defaults, so the empty string is a valid config.
Runs are budgeted: a mesh of more than MAX_CELLS bulk cells, or a
t_final / dt of more than MAX_STEPS time steps, is rejected here.

Sections and keys (defaults in parentheses):

  geometry.kind (fixed) | rotation | breathing | surface_wind
  geometry.r_inner0 (1.0)      geometry.r_outer0 (2.0)
  geometry.amplitude (0.0)     geometry.omega (0.0)
  geometry.delta (0.0)         geometry.wind_speed (0.0)
  mesh.n_r (64)                mesh.n_theta (128)
  model.delta_omega (1.0)      model.delta_gamma (1.0)
  model.delta_gamma_prime (1.0)
  model.delta_k (1.0)          model.delta_k_prime (1.0)   ("inf" disables)
  model.nonlinearity (mass_action) | custom:<registered name>
  model.equilibrium_mode (rate_balance) | paper_literal   (rate_balance needs
                               both rate constants finite)
  time.t_final (1.0)           time.dt (0.01)
  time.cfl (false)             time.output_interval (0.1)
  time.stepper (imex) | implicit
  ic.profile (uniform) | perturbed_equilibrium | file
  ic.u0 (1.0)  ic.w0 (1.0)  ic.z0 (1.0)
  ic.m1 (15.0) ic.m2 (10.0) ic.amplitude (0.1) ic.mode (2)
  ic.path ("")
  probe.n_samples (1000)       probe.seed (12345)
  output.directory (out)       output.snapshots (true)
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

from .errors import InvalidPreset, ParseError, ValidationError
from .equilibrium import EquilibriumMode
from .geometry import GeometryKind, GeometryPreset, build_geometry
from .mesh import MIN_N_R, MIN_N_THETA
from .model import CUSTOM_NONLINEARITIES, MassAction, ModelParams

# Run budgets.  MAX_CELLS is a 2048 x 2048 mesh, 32 MB per bulk field.  A run
# takes at least t_final / dt steps (the CFL stepper never exceeds dt), and
# MAX_STEPS of them take about an hour even at 4 x 8 (0.33 ms per step).
MAX_CELLS = 1 << 22
MAX_STEPS = 10 ** 7


@dataclasses.dataclass(frozen=True)
class MeshBlock:
    n_r: int
    n_theta: int


@dataclasses.dataclass(frozen=True)
class ModelBlock:
    params: ModelParams
    nonlinearity: str
    equilibrium_mode: EquilibriumMode

    def make_nonlinearity(self):
        if self.nonlinearity == "mass_action":
            return MassAction(self.params)
        name = self.nonlinearity.split(":", 1)[1]
        return CUSTOM_NONLINEARITIES[name](self.params)


@dataclasses.dataclass(frozen=True)
class TimeBlock:
    t_final: float
    dt: float
    cfl: bool
    output_interval: float
    stepper: str


@dataclasses.dataclass(frozen=True)
class IcBlock:
    profile: str
    u0: float
    w0: float
    z0: float
    m1: float
    m2: float
    amplitude: float
    mode: int
    path: str


@dataclasses.dataclass(frozen=True)
class ProbeBlock:
    n_samples: int
    seed: int


@dataclasses.dataclass(frozen=True)
class OutputBlock:
    directory: str
    snapshots: bool


@dataclasses.dataclass(frozen=True)
class RunConfig:
    geometry: GeometryPreset
    mesh: MeshBlock
    model: ModelBlock
    time: TimeBlock
    ic: IcBlock
    probe: ProbeBlock
    output: OutputBlock


def _to_float(raw):
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {raw!r}")
    return v


def _to_rate(raw):
    """A reaction constant: a number, or inf to switch the reaction off."""
    v = float(raw)
    if math.isnan(v):
        raise ValueError(f"must be a number or inf, got {raw!r}")
    return v


def _to_bool(raw):
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_SCHEMA = {
    "geometry.kind": (str, "fixed"),
    "geometry.r_inner0": (_to_float, 1.0),
    "geometry.r_outer0": (_to_float, 2.0),
    "geometry.amplitude": (_to_float, 0.0),
    "geometry.omega": (_to_float, 0.0),
    "geometry.delta": (_to_float, 0.0),
    "geometry.wind_speed": (_to_float, 0.0),
    "mesh.n_r": (int, 64),
    "mesh.n_theta": (int, 128),
    "model.delta_omega": (_to_float, 1.0),
    "model.delta_gamma": (_to_float, 1.0),
    "model.delta_gamma_prime": (_to_float, 1.0),
    "model.delta_k": (_to_rate, 1.0),
    "model.delta_k_prime": (_to_rate, 1.0),
    "model.nonlinearity": (str, "mass_action"),
    "model.equilibrium_mode": (str, "rate_balance"),
    "time.t_final": (_to_float, 1.0),
    "time.dt": (_to_float, 0.01),
    "time.cfl": (_to_bool, False),
    "time.output_interval": (_to_float, 0.1),
    "time.stepper": (str, "imex"),
    "ic.profile": (str, "uniform"),
    "ic.u0": (_to_float, 1.0),
    "ic.w0": (_to_float, 1.0),
    "ic.z0": (_to_float, 1.0),
    "ic.m1": (_to_float, 15.0),
    "ic.m2": (_to_float, 10.0),
    "ic.amplitude": (_to_float, 0.1),
    "ic.mode": (int, 2),
    "ic.path": (str, ""),
    "probe.n_samples": (int, 1000),
    "probe.seed": (int, 12345),
    "output.directory": (str, "out"),
    "output.snapshots": (_to_bool, True),
}

_GEOMETRY_KINDS = {k.value: k for k in GeometryKind}
_EQ_MODES = {m.value: m for m in EquilibriumMode}


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config; raises ParseError / ValidationError."""
    values = {}
    seen_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'section.key = value', got {raw!r}",
                             line=lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in seen_lines:
            raise ParseError(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen_lines[key]})",
                line=lineno)
        if key not in _SCHEMA:
            raise ValidationError(f"line {lineno}: unknown config key {key!r}", key=key)
        conv, _default = _SCHEMA[key]
        try:
            values[key] = conv(val)
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"line {lineno}: bad value for {key}: {exc}", line=lineno) from exc
        seen_lines[key] = lineno

    def get(key):
        return values.get(key, _SCHEMA[key][1])

    def fail(key, msg):
        raise ValidationError(f"{key}: {msg}", key=key)

    kind_raw = get("geometry.kind")
    if kind_raw not in _GEOMETRY_KINDS:
        fail("geometry.kind", f"must be one of {sorted(_GEOMETRY_KINDS)}, got {kind_raw!r}")
    preset = GeometryPreset(
        kind=_GEOMETRY_KINDS[kind_raw],
        r_inner0=get("geometry.r_inner0"),
        r_outer0=get("geometry.r_outer0"),
        amplitude=get("geometry.amplitude"),
        omega=get("geometry.omega"),
        delta=get("geometry.delta"),
        wind_speed=get("geometry.wind_speed"),
    )
    try:
        build_geometry(preset)
    except InvalidPreset as exc:
        fail(f"geometry.{exc.key}", str(exc))

    n_r, n_theta = get("mesh.n_r"), get("mesh.n_theta")
    if n_r < MIN_N_R:
        fail("mesh.n_r", f"must be >= {MIN_N_R}, got {n_r}")
    if n_theta < MIN_N_THETA:
        fail("mesh.n_theta", f"must be >= {MIN_N_THETA}, got {n_theta}")
    if n_r * n_theta > MAX_CELLS:
        fail("mesh.n_r", f"mesh.n_r x mesh.n_theta = {n_r} x {n_theta} cells is above the "
                         f"budget of MAX_CELLS = {MAX_CELLS}")
    mesh = MeshBlock(n_r=n_r, n_theta=n_theta)

    for k in ("model.delta_omega", "model.delta_gamma", "model.delta_gamma_prime",
              "model.delta_k", "model.delta_k_prime"):
        if not get(k) > 0:
            fail(k, f"must be > 0, got {get(k)}")
    nonlin = get("model.nonlinearity")
    if nonlin != "mass_action":
        if not nonlin.startswith("custom:") or nonlin.split(":", 1)[1] not in CUSTOM_NONLINEARITIES:
            fail("model.nonlinearity",
                 f"must be 'mass_action' or custom:<name> with name in "
                 f"{sorted(CUSTOM_NONLINEARITIES)}, got {nonlin!r}")
    eq_mode_raw = get("model.equilibrium_mode")
    if eq_mode_raw not in _EQ_MODES:
        fail("model.equilibrium_mode", f"must be one of {sorted(_EQ_MODES)}, got {eq_mode_raw!r}")
    if _EQ_MODES[eq_mode_raw] is EquilibriumMode.RATE_BALANCE:
        for k in ("model.delta_k", "model.delta_k_prime"):
            if math.isinf(get(k)):
                fail("model.equilibrium_mode",
                     f"rate_balance needs finite rate constants (kappa = delta_k_prime / "
                     f"delta_k), got {k} = inf; use paper_literal")
    model = ModelBlock(
        params=ModelParams(
            delta_omega=get("model.delta_omega"),
            delta_gamma=get("model.delta_gamma"),
            delta_gamma_prime=get("model.delta_gamma_prime"),
            delta_k=get("model.delta_k"),
            delta_k_prime=get("model.delta_k_prime"),
        ),
        nonlinearity=nonlin,
        equilibrium_mode=_EQ_MODES[eq_mode_raw],
    )

    t_final, dt = get("time.t_final"), get("time.dt")
    interval = get("time.output_interval")
    stepper = get("time.stepper")
    if t_final < 0:
        fail("time.t_final", "must be >= 0")
    if dt <= 0:
        fail("time.dt", "must be > 0")
    if interval <= 0:
        fail("time.output_interval", "must be > 0")
    if t_final / dt > MAX_STEPS:
        fail("time.dt", f"time.t_final / time.dt = {t_final:g} / {dt:g} steps is above the "
                        f"budget of MAX_STEPS = {MAX_STEPS}")
    if stepper not in ("imex", "implicit"):
        fail("time.stepper", f"must be imex or implicit, got {stepper!r}")
    if t_final > 0:
        ratio = t_final / interval
        if abs(ratio - round(ratio)) > 1e-8:
            fail("time.output_interval", "t_final must be an integer multiple of output_interval")
        ratio = interval / dt
        if abs(ratio - round(ratio)) > 1e-8:
            fail("time.dt", "output_interval must be an integer multiple of dt")
    time_block = TimeBlock(t_final=t_final, dt=dt, cfl=get("time.cfl"),
                           output_interval=interval, stepper=stepper)

    profile = get("ic.profile")
    if profile not in ("uniform", "perturbed_equilibrium", "file"):
        fail("ic.profile", f"unknown profile {profile!r}")
    if profile == "uniform":
        for k in ("ic.u0", "ic.w0", "ic.z0"):
            if get(k) < 0:
                fail(k, "must be >= 0")
    if profile == "perturbed_equilibrium":
        for k in ("ic.m1", "ic.m2"):
            if not get(k) > 0:
                fail(k, "must be > 0")
        if not abs(get("ic.amplitude")) < 1.0:
            fail("ic.amplitude", "must satisfy |amplitude| < 1")
        if get("ic.mode") < 1 or get("ic.mode") >= n_theta:
            fail("ic.mode", f"must be in [1, n_theta), got {get('ic.mode')}")
    path = get("ic.path")
    if profile == "file":
        if not path:
            fail("ic.path", "required when ic.profile = file")
        if not os.path.exists(path):
            fail("ic.path", f"file does not exist: {path}")
    ic = IcBlock(profile=profile, u0=get("ic.u0"), w0=get("ic.w0"), z0=get("ic.z0"),
                 m1=get("ic.m1"), m2=get("ic.m2"), amplitude=get("ic.amplitude"),
                 mode=get("ic.mode"), path=path)

    if get("probe.n_samples") < 1:
        fail("probe.n_samples", "must be >= 1")
    probe = ProbeBlock(n_samples=get("probe.n_samples"), seed=get("probe.seed"))
    output = OutputBlock(directory=get("output.directory"), snapshots=get("output.snapshots"))
    return RunConfig(geometry=preset, mesh=mesh, model=model, time=time_block,
                     ic=ic, probe=probe, output=output)


# -- field files (snapshot format, also accepted as custom initial data) -------


def format_snapshot(name: str, t: float, grid: np.ndarray) -> str:
    """Text grid: header line, then one row per radial index, comma separated."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    n_r, n_theta = grid.shape
    lines = [f"# t={t:.17g} field={name} n_r={n_r} n_theta={n_theta}"]
    row_format = ",".join(["%.17g"] * n_theta)
    lines.extend(row_format % tuple(row) for row in grid.tolist())
    return "\n".join(lines) + "\n"


def _parse_blocks(text: str):
    """Blocks of a field file by name; a malformed file raises ParseError."""
    blocks, lines, i = {}, text.splitlines(), 0
    while i < len(lines):
        line, i = lines[i].strip(), i + 1
        if not line:
            continue
        at = i  # the 1-based line at fault, if any
        try:
            if not line.startswith("#"):
                raise ValueError("expected a header '# field=<name> n_r=<rows> ...'")
            header = dict(tok.split("=", 1) for tok in line[1:].split())
            name, n_r = header["field"], int(header["n_r"])
            if not 0 <= n_r <= len(lines) - i:
                raise ValueError(f"block {name!r} needs n_r = {n_r} rows, {len(lines) - i} follow")
            rows = []
            for at, row in enumerate(lines[i:i + n_r], start=i + 1):
                rows.append([float(v) for v in row.split(",")])
                if len(rows[-1]) != len(rows[0]):
                    raise ValueError(f"{len(rows[-1])} values in a row, {len(rows[0])} in the first")
            blocks[name] = np.array(rows, dtype=float)
        except (KeyError, ValueError) as exc:
            raise ParseError(f"line {at}: {type(exc).__name__}: {exc}", line=at) from exc
        i += n_r
    return blocks


def load_fields_file(path: str, n_r: int, n_theta: int):
    """Read (u, w, z) from a three-block snapshot-format file; every value must
    be finite and nonnegative, as the uniform profile requires of its own."""
    def fault(msg):
        return ValidationError(f"ic.path: {path}: {msg}", key="ic.path")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            blocks = _parse_blocks(fh.read())
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        raise fault(exc) from exc
    for name, shape in (("u", (n_r, n_theta)), ("w", (1, n_theta)), ("z", (1, n_theta))):
        grid = blocks.get(name)
        if grid is None or grid.shape != shape:
            raise fault(f"field {name!r} needs a block of shape {shape}, got "
                        f"{'none' if grid is None else grid.shape}")
        if not np.all(np.isfinite(grid)) or np.min(grid) < 0.0:
            raise fault(f"field {name!r} has a negative or non-finite value")
    return blocks["u"].ravel(), blocks["w"].ravel(), blocks["z"].ravel()
