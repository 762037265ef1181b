"""Line-oriented run configuration: `section.key = value`, `#` comments.

Parsing is strict: unknown keys and duplicate keys fail before any
computation starts, and every error names the offending line.  Numbers must
be finite; "inf" is accepted only where it disables a reaction constant.  All
keys have documented defaults, so the empty string is a valid config.

Each range rule lives with the input's owner, which parse_config calls,
naming the config key in its error: `geometry.build_geometry`,
`mesh.check_resolution` (with the cell budget MAX_CELLS), `model.ModelParams`,
`model.make_nonlinearity`, `model.check_samples` (probe.n_samples),
`equilibrium.closure_kappa`, `equilibrium.check_positive` (ic.m1, ic.m2) and
`solver.check_steps` (t_final, dt and the step budget MAX_STEPS).  Only
syntax, the schema, time-grid alignment and the other `ic.*` keys are ruled
here.

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
import functools
import math
import os

import numpy as np

from .errors import ParseError, ValidationError, rekeyed
from .equilibrium import EquilibriumMode, check_positive, closure_kappa
from .geometry import GeometryKind, GeometryPreset, build_geometry
from .mesh import MAX_CELLS, check_resolution  # both budgets are importable from here too
from .model import ModelParams, check_samples, make_nonlinearity
from .solver import MAX_STEPS, check_steps


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
        return make_nonlinearity(self.nonlinearity, self.params)


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
    "model.delta_omega": (float, 1.0),
    "model.delta_gamma": (float, 1.0),
    "model.delta_gamma_prime": (float, 1.0),
    "model.delta_k": (float, 1.0),
    "model.delta_k_prime": (float, 1.0),
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
            raise ValidationError(f"line {lineno}: unknown config key", key=key)
        conv, _default = _SCHEMA[key]
        try:
            values[key] = conv(val)
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"line {lineno}: bad value for {key}: {exc}", line=lineno) from exc
        seen_lines[key] = lineno

    def get(key):
        return values.get(key, _SCHEMA[key][1])

    def fail(key, msg):
        raise ValidationError(msg, key=key)

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
    with rekeyed("geometry.{}".format):
        build_geometry(preset)

    n_r, n_theta = get("mesh.n_r"), get("mesh.n_theta")
    with rekeyed("mesh.{}".format):
        check_resolution(n_r, n_theta)
    mesh = MeshBlock(n_r=n_r, n_theta=n_theta)

    eq_mode_raw, nonlin = get("model.equilibrium_mode"), get("model.nonlinearity")
    if eq_mode_raw not in _EQ_MODES:
        fail("model.equilibrium_mode", f"must be one of {sorted(_EQ_MODES)}, got {eq_mode_raw!r}")
    with rekeyed("model.{}".format):
        params = ModelParams(
            delta_omega=get("model.delta_omega"),
            delta_gamma=get("model.delta_gamma"),
            delta_gamma_prime=get("model.delta_gamma_prime"),
            delta_k=get("model.delta_k"),
            delta_k_prime=get("model.delta_k_prime"),
        )
        make_nonlinearity(nonlin, params)
        closure_kappa(params, _EQ_MODES[eq_mode_raw])
    model = ModelBlock(params=params, nonlinearity=nonlin, equilibrium_mode=_EQ_MODES[eq_mode_raw])

    t_final, dt = get("time.t_final"), get("time.dt")
    interval = get("time.output_interval")
    stepper = get("time.stepper")
    with rekeyed("time.{}".format):
        check_steps(dt, t_final)
    if interval <= 0:
        fail("time.output_interval", "must be > 0")
    if stepper not in ("imex", "implicit"):
        fail("time.stepper", f"must be imex or implicit, got {stepper!r}")
    if t_final > 0:  # inf where a ratio overflows
        for key, what, ratio in (("time.output_interval", "t_final / output_interval", t_final / interval),
                                 ("time.dt", "output_interval / dt", interval / dt)):
            if not (math.isfinite(ratio) and round(ratio) >= 1 and abs(ratio - round(ratio)) <= 1e-8):
                fail(key, f"{what} = {ratio:g} must be a whole number of at least 1")
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
        with rekeyed("ic.{}".format):
            check_positive(m1=get("ic.m1"), m2=get("ic.m2"))
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

    with rekeyed("probe.{}".format):
        check_samples(get("probe.n_samples"))
    probe = ProbeBlock(n_samples=get("probe.n_samples"), seed=get("probe.seed"))
    output = OutputBlock(directory=get("output.directory"), snapshots=get("output.snapshots"))
    return RunConfig(geometry=preset, mesh=mesh, model=model, time=time_block,
                     ic=ic, probe=probe, output=output)


# -- field files (snapshot format, also accepted as custom initial data) -------


# '%.17g' prints v in fixed notation where 1e-4 <= |v| < 1e17: 17 significant
# digits N, 10^16 <= N < 10^17, at a decimal exponent e10 in [-4, 16], less
# the trailing zeros of the fraction.
_POW10 = 10.0 ** np.arange(21)  # each an exact double, as are all up to 10^22
_ROW = 25        # the longest '%.17g', '-2.2250738585072014e-308', and a separator
_CHUNK = 8192    # values per pass, so that temporaries stay small and cached


@functools.cache  # built on first use: runs without snapshots never pay its memory
def _quads():
    """4-digit groups as uint32 words of their ASCII bytes; entry 10000 + g
    is group g with its trailing zeros as NUL, for the last nonzero group."""
    places = np.array([1000, 100, 10, 1], np.uint16)
    digits = (np.arange(10000, dtype=np.uint16)[:, None] // places % 10).astype(np.uint8) + ord("0")
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    return np.concatenate([digits, np.where(trailing, 0, digits)]).view(np.uint32).ravel()


def format_snapshot(name: str, t: float, grid: np.ndarray) -> str:
    """Text grid: header line, then one row per radial index, comma separated.

    Every value is written as '%.17g' % v, byte for byte, so the file reads
    back to the same doubles.  The values that '%.17g' prints in fixed
    notation, 1e-4 <= |v| < 1e17, are formatted exactly in one vectorized
    pass (`_fixed_rows`); only the others (+-0, nan, +-inf, subnormals, |v|
    below 1e-4 or from 1e17 up) are formatted one at a time.  Each value gets
    a NUL-padded row of a byte matrix, and one `bytes.translate` drops the NULs.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    n_r, n_theta = grid.shape
    values = grid.ravel()
    rows = np.zeros((values.size, _ROW), np.uint8)
    for start in range(0, values.size, _CHUNK):
        _format_rows(values[start:start + _CHUNK], rows[start:start + _CHUNK])
    rows[:, -1] = ord(",")
    rows[n_theta - 1::n_theta, -1] = ord("\n")
    header = f"# t={t:.17g} field={name} n_r={n_r} n_theta={n_theta}\n"
    return header + rows.tobytes().translate(None, b"\0").decode("ascii")


def _format_rows(x, rows):
    """Write '%.17g' % v of each v in x into its row of `rows`, NUL padded."""
    ax = np.abs(x)
    fixed = (ax >= 1e-4) & (ax < 1e17)
    if fixed.all():
        _fixed_rows(x, ax, rows)
        return
    at = np.flatnonzero(fixed)
    sub = rows[at]
    _fixed_rows(x[at], ax[at], sub)
    rows[at] = sub
    others = x[~fixed].tolist()
    text = b"".join([(b"%.17g" % v).ljust(_ROW - 1, b"\0") for v in others])
    rows[~fixed, :-1] = np.frombuffer(text, np.uint8).reshape(len(others), _ROW - 1)


def _two_product(a, b):
    """(hi, lo) with hi = fl(a b) and hi + lo = a b exactly (Dekker)."""
    hi = a * b
    split = 134217729.0 * a  # 2^27 + 1
    a_hi = split - (split - a)
    a_lo = a - a_hi
    split = 134217729.0 * b
    b_hi = split - (split - b)
    b_lo = b - b_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _fixed_rows(x, ax, rows):
    """Rows of the values with 1e-4 <= |x| < 1e17, as '%.17g' prints them.

    The digits are N = round-half-even(|x| 10^(16 - e10)).  The exact product
    is the double-double hi + lo, 10^(16 - e10) being an exact double.  e10
    comes from log10, corrected by one where the product falls outside
    [10^16, 10^17).  Inside, hi >= 10^16 > 2^53 is an even integer, so
    N = hi + rint(lo), ties to even as in '%.17g'.
    """
    e10 = np.clip(np.floor(np.log10(ax)), -4, 16).astype(np.int64)
    hi, lo = _two_product(ax, _POW10[16 - e10])
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    if below.any() or above.any():
        at = np.flatnonzero(below | above)
        e10[at] += np.where(above[at], 1, -1)
        hi[at], lo[at] = _two_product(ax[at], _POW10[16 - e10[at]])
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10 ** 17  # rounded up to the next power of ten
    n[carry] = 10 ** 16
    e10 += carry

    lead = n // 10 ** 16
    rest = n - lead * 10 ** 16
    upper = rest // 10 ** 8
    lower = (rest - upper * 10 ** 8).astype(np.uint32)
    upper = upper.astype(np.uint32)
    groups = (upper // 10000, upper % 10000, lower // 10000, lower % 10000)
    words = np.empty((x.size, 6), np.uint32)
    words[:, 5] = 0
    quads, zeros_after = _quads(), np.ones(x.size, bool)  # all later groups zero: strip
    for j in (3, 2, 1, 0):
        words[:, 1 + j] = quads[groups[j] + 10000 * zeros_after]
        zeros_after &= groups[j] == 0
    digits = words.view(np.uint8)[:, 3:21]  # 17 digits, trailing zeros NUL, then NUL
    digits[:, 0] = lead + ord("0")

    rows[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    present = np.flatnonzero(np.bincount(e10 + 4)) - 4
    if present.size == 1:
        _place(rows, digits, present[0])
        return
    for k in present:
        at = np.flatnonzero(e10 == k)
        sub = rows[at]
        _place(sub, digits[at], k)
        rows[at] = sub


def _place(rows, digits, e10):
    """Lay out the digits of a decimal exponent e10 after the sign column."""
    if e10 < 0:
        lead = b"0." + b"0" * (-e10 - 1)
        rows[:, 1:1 + len(lead)] = np.frombuffer(lead, np.uint8)
        rows[:, 1 + len(lead):19 + len(lead)] = digits
        return
    # integer digits with their zeros, then the point if a fraction digit is left
    np.maximum(digits[:, :e10 + 1], ord("0"), out=rows[:, 1:e10 + 2])
    rows[:, e10 + 2] = (digits[:, e10 + 1] != 0) * np.uint8(ord("."))
    rows[:, e10 + 3:20] = digits[:, e10 + 1:]


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
        return ValidationError(f"{path}: {msg}", key="ic.path")

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
