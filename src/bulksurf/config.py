"""Line-oriented run configuration: `section.key = value`, `#` comments.

Parsing is strict: unknown keys and duplicate keys fail before any
computation starts, and every error names the offending line.  Numbers must
be finite; "inf" is accepted only where it disables a reaction constant.  All
keys have documented defaults, so the empty string is a valid config.

Each range rule lives with the input's owner, which parse_config calls,
naming the config key in its error: `geometry.build_geometry`,
`mesh.check_resolution` (with the cell budget MAX_CELLS), `model.ModelParams`,
`model.make_nonlinearity`, `model.check_samples` (probe.n_samples),
`diagnostics.check_seed` (probe.seed),
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

from .diagnostics import check_seed
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
        check_seed(get("probe.seed"))
    probe = ProbeBlock(n_samples=get("probe.n_samples"), seed=get("probe.seed"))
    output = OutputBlock(directory=get("output.directory"), snapshots=get("output.snapshots"))
    return RunConfig(geometry=preset, mesh=mesh, model=model, time=time_block,
                     ic=ic, probe=probe, output=output)


# -- field files (snapshot format, also accepted as custom initial data) -------


# '%.17g' prints v in fixed notation where 1e-4 <= |v| < 1e17: 17 significant
# digits N, 10^16 <= N < 10^17, at a decimal exponent e10 in [-4, 16], less
# the trailing zeros of the fraction.
_POW10 = 10.0 ** np.arange(23)  # each an exact double, up to 10^22
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
    """Blocks of a field file by name; a malformed file raises ParseError.

    The values of all blocks are read together by `_read_grids`, in
    vectorized passes, each bit for bit as float() reads it.  A file it
    cannot read -- a bad header, ragged, blank or non-numeric rows -- is read
    again block by block and row by row, which raises at the line at fault.
    """
    lines = text.splitlines()
    try:
        found = list(_block_rows(lines))
        grids = _read_grids([lines[i:i + n_r] for _, i, n_r in found])
    except ParseError:
        grids = None
    if grids is None:
        return {name: _rows_one_by_one(lines, i, n_r) for name, i, n_r in _block_rows(lines)}
    return {name: grid for (name, _, _), grid in zip(found, grids)}


def _block_rows(lines):
    """Yield (name, index of the first row, row count) of each block."""
    i = 0
    while i < len(lines):
        line, i = lines[i].strip(), i + 1
        if not line:
            continue
        try:
            if not line.startswith("#"):
                raise ValueError("expected a header '# field=<name> n_r=<rows> ...'")
            header = dict(tok.split("=", 1) for tok in line[1:].split())
            name, n_r = header["field"], int(header["n_r"])
            if not 0 <= n_r <= len(lines) - i:
                raise ValueError(f"block {name!r} needs n_r = {n_r} rows, {len(lines) - i} follow")
        except (KeyError, ValueError) as exc:
            raise ParseError(f"line {i}: {type(exc).__name__}: {exc}", line=i) from exc
        yield name, i, n_r
        i += n_r


def _rows_one_by_one(lines, i, n_r):
    """The block of n_r rows from lines[i], one float() at a time."""
    rows = []
    for at, row in enumerate(lines[i:i + n_r], start=i + 1):
        try:
            rows.append([float(v) for v in row.split(",")])
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{len(rows[-1])} values in a row, {len(rows[0])} in the first")
        except ValueError as exc:
            raise ParseError(f"line {at}: {type(exc).__name__}: {exc}", line=at) from exc
    return np.array(rows, dtype=float)


# A value in the fast grammar, D+(.D*)? with at most 23 digits, f of them
# after the point, is read as M / 10^f with the M of its digits below 10^19:
# the form in which repr() and '%.17g' write 1e-4 <= v < 1e16.  The digits
# sit right-aligned in a window of three little-endian uint64 words, the
# integer digits moved one byte right over the point; a word of 8 ASCII
# digits becomes its value in three multiply-shift steps (SWAR).  M / 10^f
# is then rounded to the nearest double by Clinger's fast path (M <= 2^53:
# one IEEE division by an exact power of ten) or by Eisel-Lemire's product
# with the high word of 5^-f, which on smooth field data decides all but
# about one in 500 (see _eisel_lemire).  Those, and every other token --
# signed, with an exponent, longer -- are left to float(), as the writer
# leaves every value outside fixed notation to '%.17g'.
_PASS = 4096      # tokens per pass: its (n, 3) word arrays, 96 KB, stay in cache
_PAD = b"\0" * 24  # before and after the tokens, so that every window is in bounds
# Tables from Python arithmetic, not numpy's: numpy operations at import
# raised the peak memory of runs that read no field file by about 0.3 MB.
# row a: the three words with the bytes of columns a..23 set, for 0 <= a <= 24
_BYTE_ROWS = [[sum(0xFF << 8 * b for b in range(8) if 8 * k + b >= a) for k in range(3)]
              for a in range(25)]
_DIGIT_BYTES, _HIGH, _ZERO, _LOW = (
    np.array([[word & part for word in row] for row in _BYTE_ROWS], np.uint64)
    for part in (2**64 - 1, 0xF0F0F0F0F0F0F0F0, 0x3030303030303030, 0x0F0F0F0F0F0F0F0F))
_U64 = np.uint64


@functools.cache  # built on first use: runs without a field file never pay for it
def _powers_of_five():
    """The high uint64 words of 5^-f, f in [0, 22], normalized to 128 bits
    and truncated, rounded up first where inexact (fast_float's table)."""
    table = []
    for f in range(23):
        p = 5 ** f
        c = (1 << (p.bit_length() + 127)) // p + 1 if f else 1 << 127
        table.append(c >> 64)
    return np.array(table, np.uint64)


def _read_grids(blocks):
    """For each list of rows, a (rows, n) array of its values, n per row,
    each as float() reads it; None if a block's rows differ in length or
    float() rejects a value."""
    rows = [row for block in blocks for row in block]
    try:
        data = b",".join([_PAD, *[row.encode("ascii") for row in rows], _PAD])
    except UnicodeEncodeError:  # float() reads digits beyond ASCII too: one by one
        return None
    buf = np.frombuffer(data, np.uint8)
    seps = np.flatnonzero(buf == ord(","))
    row_ends = np.searchsorted(seps, np.cumsum([len(_PAD)] + [len(row) + 1 for row in rows]))
    windows = np.lib.stride_tricks.sliding_window_view(buf, 24)
    values = np.empty(seps.size - 1)  # value j lies between separators j and j + 1
    for k in range(0, values.size, _PASS):
        at = seps[k:k + _PASS + 1]
        values[k:k + _PASS], undecided = _read_pass(buf, windows, at[:-1] + 1, at[1:])
        j = k + np.flatnonzero(undecided)
        try:
            values[j] = [float(data[a + 1:b]) for a, b in zip(seps[j].tolist(), seps[j + 1].tolist())]
        except ValueError:
            return None
    grids, first = [], 0
    for block in blocks:
        ends_here = row_ends[first:first + len(block) + 1]
        n_cols = np.diff(ends_here)
        if n_cols.size and n_cols.min() != n_cols.max():
            return None
        grids.append(values[ends_here[0]:ends_here[-1]].reshape(len(block), -1) if block else np.empty(0))
        first += len(block)
    return grids


def _read_pass(buf, windows, starts, ends):
    """Doubles of the tokens buf[starts:ends] and a mask of those left to float()."""
    n = starts.size
    odd = np.zeros(n, bool)  # outside the fast grammar
    dot_at = starts[0] + np.flatnonzero(buf[starts[0]:ends[-1]] == ord("."))
    if dot_at.size == n and np.all((dot_at >= starts) & (dot_at < ends)):
        dot = dot_at  # one point in every token
    else:
        tok = np.searchsorted(starts, dot_at, "right") - 1
        odd |= np.bincount(tok, minlength=n) > 1
        dot = ends.copy()  # no point: as if one followed the digits
        dot[tok] = dot_at
    n_int = dot - starts
    n_frac = np.maximum(ends - dot - 1, 0)
    odd |= (n_int < 1) | (n_int + n_frac > 23)

    # the 24 bytes up to the last digit: the fraction in place, the integer
    # digits taken one byte further left, so that the point drops out
    words = windows[dot + n_frac - 23].view("<u8")
    shifted = words << _U64(8)
    shifted.ravel()[1:] |= words.ravel()[:-1] >> _U64(56)
    words ^= shifted
    words &= _DIGIT_BYTES.take(24 - n_frac, axis=0, mode="clip")
    words ^= shifted
    v, not_digits = _digits(words, np.where(odd, 24, 24 - n_frac - n_int))
    odd |= ((not_digits[:, 0] | not_digits[:, 1] | not_digits[:, 2]) != 0) | (v[:, 0] >= 1000)
    m = v[:, 0] * _U64(10**16) + v[:, 1] * _U64(10**8) + v[:, 2]

    values = m.astype(float)  # exact where m <= 2^53; one rounding below
    values /= _POW10.take(n_frac, mode="clip")
    slow = np.flatnonzero((m > _U64(2**53)) & ~odd)
    if slow.size:
        bits, undecided = _eisel_lemire(m[slow], n_frac[slow])
        values[slow] = bits.view(float)
        odd[slow[undecided]] = True
    return values, odd


def _digits(words, first):
    """Values of (n, 3) words of ASCII digits from column `first` on, less
    significant to the right, the bytes before read as 0; and per word, nonzero
    where a byte from `first` on is not a digit.  Overwrites `words`."""
    not_digits = words + _U64(0x0606060606060606)  # a digit keeps its high nibble 3
    not_digits &= words
    not_digits &= _HIGH.take(first, axis=0)
    not_digits ^= _ZERO.take(first, axis=0)
    words &= _LOW.take(first, axis=0)  # each lane below: 10^k times itself plus the next lane
    words *= _U64(2561)
    words >>= _U64(8)
    words &= _U64(0x00FF00FF00FF00FF)
    words *= _U64(6553601)
    words >>= _U64(16)
    words &= _U64(0x0000FFFF0000FFFF)
    words *= _U64(42949672960001)
    words >>= _U64(32)
    return words, not_digits


def _mul_high(a, b):
    """The high 64 bits of the 128-bit products a b of uint64 arrays, from
    32-bit halves (Warren, Hacker's Delight, mulhu)."""
    a0, a1 = a & _U64(0xFFFFFFFF), a >> _U64(32)
    b0, b1 = b & _U64(0xFFFFFFFF), b >> _U64(32)
    t = a1 * b0 + ((a0 * b0) >> _U64(32))
    return a1 * b1 + (t >> _U64(32)) + ((a0 * b1 + (t & _U64(0xFFFFFFFF))) >> _U64(32))


def _eisel_lemire(w, f):
    """Bits of the doubles nearest w / 10^f, for 0 < w < 10^19 and 0 <= f <= 22
    (all normal), and a mask of those left undecided.

    fast_float's compute_float (Lemire, Softw. Pract. Exp. 51, 2021) on the
    first limb alone: the normalized w times the high word of the truncated
    128-bit 5^-f.  It decides every value but two kinds, which are left to
    float(): those whose product leaves the low nine bits of the top word all
    ones, where the second limb could carry into the mantissa (as it mostly
    does for an exact quotient with f >= 1, whose product falls just short),
    and the candidates of fast_float's ties-to-even rule: f <= 4, a low word
    of at most 1, and the rounding bit set on an even mantissa.
    """
    e = np.frexp(w.astype(float))[1]  # bit length, or one more where w rounds up
    lz = 64 - e + ((w >> (e - 1).astype(np.uint64)) == 0)
    w = w << lz.astype(np.uint64)
    hi5 = _powers_of_five()[f]
    hi, lo = _mul_high(w, hi5), w * hi5
    upper = hi >> _U64(63)
    m = hi >> (upper + _U64(9))  # 54 bits: the mantissa and a rounding bit
    undecided = (((hi & _U64(0x1FF)) == _U64(0x1FF))
                 | ((lo <= _U64(1)) & (f <= 4) & ((m & _U64(3)) == _U64(1))))
    power2 = ((-217706 * f) >> 16) + 1086 - lz + upper.astype(np.int64)
    m = (m + (m & _U64(1))) >> _U64(1)  # in [2^52, 2^53]: 2^53 carries into the exponent
    return ((power2 - 1).astype(np.uint64) << _U64(52)) + m, undecided


def load_fields_file(path: str, n_r: int, n_theta: int):
    """Read (u, w, z) from a three-block snapshot-format file; every value must
    be finite and nonnegative, as the uniform profile requires of its own.

    Values are read exactly as Python's float() reads them, in vectorized
    passes (`_read_grids`)."""
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
