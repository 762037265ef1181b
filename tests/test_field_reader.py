"""Field files: `config._parse_blocks` reads every value bit for bit as
float() reads it, and a malformed file fails with the same message and line.

The reference is the row-at-a-time loop that the vectorized reader replaced.
Values are compared as uint64 bit patterns, so -0.0 and 0.0 differ.
"""

import decimal
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bulksurf import config
from bulksurf.config import _PASS, _parse_blocks, load_fields_file
from bulksurf.errors import ParseError


def reference_parse_blocks(text: str):
    """Blocks of a field file by name: one float() per value, row by row."""
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


def block_text(tokens, n_cols=100, name="u", newline="\n"):
    rows = [",".join(tokens[k:k + n_cols]) for k in range(0, len(tokens), n_cols)]
    return newline.join([f"# t=0 field={name} n_r={len(rows)} n_theta={n_cols}", *rows]) + newline


def assert_same_blocks(text):
    got, want = _parse_blocks(text), reference_parse_blocks(text)
    assert list(got) == list(want)
    for name in want:
        assert got[name].shape == want[name].shape
        bad = np.flatnonzero(got[name].view(np.uint64) != want[name].view(np.uint64))
        if bad.size:
            pairs = [(want[name].flat[j], got[name].flat[j]) for j in bad[:5]]
            pytest.fail(f"{name}: {bad.size} values differ (float, reader): {pairs}")


def assert_reads_like_float(tokens):
    """Grids of the tokens, whole rows of 100 and then one row, as float() reads them."""
    tokens = list(tokens)
    whole = len(tokens) - len(tokens) % 100
    if whole:
        assert_same_blocks(block_text(tokens[:whole]))
    if len(tokens) > whole:
        assert_same_blocks(block_text(tokens[whole:], n_cols=len(tokens) - whole))


def random_doubles(n, seed):
    """Finite doubles of every binade and both signs, subnormals included."""
    bits = np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    values = bits.view(float)
    return values[np.isfinite(values)].tolist()


def midpoint_tokens(values, digits=19):
    """The exact midpoint of each double and the next one up (up to 768
    digits, read by float()), and that midpoint cut to `digits` significant
    digits, down and up: the roundings that need every bit of the product."""
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 800
        for v in values:
            mid = (decimal.Decimal(v) + decimal.Decimal(np.nextafter(v, np.inf))) / 2
            step = decimal.Decimal(1).scaleb(mid.adjusted() - digits + 1)
            out += [str(mid), str(mid.quantize(step, decimal.ROUND_FLOOR)),
                    str(mid.quantize(step, decimal.ROUND_CEILING))]
    return out


# mantissas whose 128-bit product needs the second limb of the power of five
SECOND_LIMB = ["758113681179049387e-23", "227196308558083189e-44", "515014942274978608e-150",
               "186632670598084780e-1", "682606705981251886e-82", "60536329703693096e-301",
               "53867931616970135e-1", "53238743478465756e-211", "31326873186655063e131",
               "34296294756298356e185", "88430133783125495e-1", "2562630098775933e75"]

EDGES = [
    "0", "-0", "0.0", "-0.0", "0.000", "00000", "0e0", "-0e-5", "0e999", "0.0000000000000000000001",
    "5.", "-5.", "0.5", "0.0001", "0.00012345678901234567", "000123.4500", "1", "-1",
    "1e0", "1E5", "1e+05", "1e-05", "1.5e0005", "1.5E-00000005", "12.5e-3",
    "1e22", "1e23", "1e-22", "1e-23", "9007199254740992", "9007199254740993",
    "9007199254740994", "9007199254740995", "4503599627370497.5", "18014398509481986",
    "9223372036854775807", "9223372036854775808", "18446744073709551615", "9999999999999999999",
    "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e308",
    "2.2250738585072014e-308", "2.2250738585072011e-308", "2.2250738585072012e-308",
    "2.225073858507201e-308", "4.9406564584124654e-324", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "1e-320", "1e-324", "1e-400", "1e400", "1e-342", "1e-343",
    "1e308", "1e309", "123456789e-350", "0.1", "0.2", "0.3", "1.0000000000000002",
    "0.30000000000000004", "2.675", "1.0000000000000001", "0.99999999999999989",
]

FALLBACK = [
    " 1.5", "1.5 ", "\t2", "+1", "+0.5", "1_0", "1_000.25", "nan", "-nan", "NaN", "inf", "-inf",
    "Infinity", "-INFINITY", "١٢٣", "１.５", "1 ", ".5", "-.5",
    "12345678901234567890", "123456789012345678901234567890", "0.1234567890123456789012345",
    "1.5e123456789", "1e-000000000001", "00000000000000000000000001",
]


@pytest.mark.parametrize("style", ["repr", "%.17g", "%.16e", "%.15g", "%.19g"])
def test_random_doubles_of_every_binade(style):
    values = random_doubles(20000, seed=len(style))
    assert_reads_like_float([repr(v) if style == "repr" else style % v for v in values])


@pytest.mark.parametrize("digits", range(15, 20))
def test_mantissas_of_15_to_19_digits(digits):
    rng = np.random.default_rng(digits)
    mantissa = rng.integers(10 ** (digits - 1), 10 ** digits, 5000, dtype=np.uint64).astype(str)
    point = rng.integers(0, digits + 1, 5000)
    exponent = rng.integers(-40, 40, 5000)
    tokens = [f"{m[:p]}.{m[p:]}" if p else m for m, p in zip(mantissa.tolist(), point.tolist())]
    tokens = [f"{t}e{e}" if e % 3 else t for t, e in zip(tokens, exponent.tolist())]
    assert_reads_like_float([t if t[0] != "." else "0" + t for t in tokens])


def test_integers_around_powers_of_two():
    tokens = [str(2**k + d) for k in (53, 54, 63) for d in range(-64, 65) if 2**k + d < 10**19]
    assert_reads_like_float(tokens)
    assert _parse_blocks(block_text(["9007199254740993"]))["u"][0, 0] == 2.0**53  # a tie: to even


def test_midpoints_between_adjacent_doubles():
    values = random_doubles(400, seed=3) + np.random.default_rng(4).uniform(0.5, 8.0, 400).tolist()
    assert_reads_like_float(midpoint_tokens([abs(v) for v in values if v != 0.0]))


def test_edges_second_limb_and_fallback_tokens():
    tokens = EDGES + SECOND_LIMB + FALLBACK
    assert_reads_like_float(tokens)
    assert_same_blocks("".join(block_text([t], name=f"b{k}") for k, t in enumerate(tokens)))


def fixed_notation_doubles(n, seed):
    """Positive doubles of every binade from 1e-4 up to 1e17, random bits."""
    rng = np.random.default_rng(seed)
    bits = (rng.integers(1009, 1080, n).astype(np.uint64) << np.uint64(52)) | rng.integers(
        0, 2**52, n, dtype=np.uint64)
    values = bits.view(float)
    return values[(values >= 1e-4) & (values < 1e17)].tolist()


def float_calls(monkeypatch, tokens):
    """How many of the tokens the reader leaves to float(); each must read
    bit for bit as float() reads it."""
    left, read_pass = [], config._read_pass

    def counted(*args):
        values, to_float = read_pass(*args)
        left.append(int(to_float.sum()))
        return values, to_float

    with monkeypatch.context() as patch:
        patch.setattr(config, "_read_pass", counted)
        assert_reads_like_float(tokens)
    assert left
    return sum(left)


def test_fast_grammar_is_read_without_float(monkeypatch):
    """Unsigned plain decimals with up to 23 digits, 19 of them significant,
    are decided by the vectorized passes: all whose digits M are at most 2^53
    (Clinger), and of the others all but a few in 1,000 with five or more
    fraction digits (Eisel-Lemire's first limb).  The first limb falls short
    of an exact quotient's low bits, which few fraction digits often make.
    Tie candidates, products that would need the second limb, and signed and
    exponent tokens are left to float()."""
    values = fixed_notation_doubles(20000, seed=11)
    plain = [repr(v) for v in values if v < 1e16] + ["%.17g" % v for v in values] + [
        "0.0000000000000000000001", "5.", "0.00012345678901234567", "9999999999999999999"]
    assert all("e" not in t for t in plain)
    clinger = [t for t in plain if int(t.replace(".", "")) <= 2**53]
    assert float_calls(monkeypatch, clinger) == 0
    past = [t for t in plain if int(t.replace(".", "")) > 2**53]
    assert float_calls(monkeypatch, past) <= len(past) // 10
    long = [t for t in past if len(t.partition(".")[2]) >= 5]
    assert len(long) > 10000 and float_calls(monkeypatch, long) <= len(long) // 100
    undecided = ["-0", "-2.5", "1E5", "1e-05", *SECOND_LIMB,
                 "9007199254740993", "4503599627370497.5",  # ties
                 "18663267059808478.0", "5386793161697013.5", "8843013378312549.5"]  # second limb
    assert float_calls(monkeypatch, undecided) == len(undecided)


def test_fallback_tokens_in_every_pass_keep_their_place():
    """Tokens left to float() sit in each pass of a grid larger than one pass."""
    values = np.random.default_rng(8).uniform(0.5, 6.0, 3 * _PASS + 17)
    tokens = [repr(v) for v in values.tolist()]
    for k, token in zip(range(5, len(tokens), _PASS // 3), FALLBACK * 5):
        tokens[k] = token
    assert_reads_like_float(tokens)


def test_crlf_rows_and_several_blocks():
    tokens = [repr(v) for v in np.random.default_rng(9).uniform(0.5, 6.0, 60).tolist()]
    text = (block_text(tokens[:40], n_cols=10, name="u", newline="\r\n")
            + block_text(tokens[40:50], name="w", newline="\r\n")
            + "\n\n" + block_text(tokens[50:], name="z") + block_text([], n_cols=3, name="e"))
    assert_same_blocks(text)
    assert _parse_blocks(text)["e"].shape == (0,)


def smooth_fields(seed, n_r, n_theta):
    """Positive fields like a workload's initial data, turned by a seeded angle."""
    phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    r = 1.0 + (np.arange(n_r) + 0.5) / n_r
    a = (np.arange(n_theta) + 0.5) * 2.0 * np.pi / n_theta - phi
    c = np.cos(np.pi * (r - 1.0))[:, None]
    u = 2.0 * (1.0 + 0.2 * c * np.cos(a) + (0.5 - 0.5 * c) * 0.1 * np.cos(2 * a + 1.0))
    return u, 3.0 * (1.0 + 0.2 * np.cos(2 * a + 0.5))[None, :], (1.0 + 0.2 * np.cos(a + 2.5))[None, :]


@pytest.mark.parametrize("seed", [1, 7, 1499])
@pytest.mark.parametrize("shape", [(64, 128), (128, 256)])
def test_workload_style_files(seed, shape, tmp_path):
    text = "".join(block_text([repr(v) for v in grid.ravel().tolist()], grid.shape[1], name)
                   for name, grid in zip("uwz", smooth_fields(seed, *shape)))
    assert_same_blocks(text)
    path = tmp_path / "fields.txt"
    path.write_text(text)
    for got, grid in zip(load_fields_file(str(path), *shape), smooth_fields(seed, *shape)):
        assert got.tobytes() == grid.ravel().tobytes()


_TOKEN = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(allow_nan=False).map(lambda v: "%.17g" % v),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.12e" % v),
    st.integers(-10**20, 10**20).map(str),
    st.tuples(st.integers(0, 10**19), st.integers(0, 19), st.integers(-350, 320)).map(
        lambda t: f"{str(t[0])[:t[1]] or '0'}.{str(t[0])[t[1]:]}e{t[2]}"),
    st.sampled_from(EDGES + SECOND_LIMB + FALLBACK),
)


@settings(max_examples=100)
@given(st.integers(1, 6), st.integers(1, 30), st.data())
def test_grids_mixing_fast_and_fallback_tokens(n_r, n_theta, data):
    tokens = data.draw(st.lists(_TOKEN, min_size=n_r * n_theta, max_size=n_r * n_theta))
    assert_same_blocks(block_text(tokens, n_cols=n_theta))


GOOD = block_text(["1.5"] * 8, n_cols=4) + block_text(["2.5"] * 4, n_cols=4, name="w")
MALFORMED = [
    "# t=0 n_r=1 n_theta=1\n1.0\n",                       # header without field=
    "# field=u n_r=1 junk\n1.0\n",                        # header token without =
    "# field=u n_r=3 n_theta=1\n1.0\n2.0\n",              # truncated block
    "# field=u n_r=2 n_theta=2\n1.0,2.0\n3.0\n",          # ragged row
    "# field=u n_r=2 n_theta=2\n1.0,2.0\n3.0,4.0,5.0\n",  # a longer row
    "# field=u n_r=2 n_theta=2\nabc,2.0\n3.0,4.0\n",      # non-numeric value
    "# field=u n_r=abc n_theta=1\n1.0\n",                 # n_r=abc
    "# field=u n_r=-1 n_theta=1\n1.0\n",                  # n_r=-1
    "1.0,2.0\n",                                          # no header
    "# field=u n_r=2 n_theta=1\n1.0\n\n",                 # blank row
    "# field=u n_r=2 n_theta=2\n1.0,2.0\n3.0,\n",         # empty value
    "# field=u n_r=1 n_theta=2\n1.0,2.0,\n",              # trailing comma
    "# field=u n_r=1 n_theta=2\n1.0;2.0\n",               # wrong separator
    "# field=u n_r=1 n_theta=2\n1.0,1e\n",                # exponent without digits
    "# field=u n_r=1 n_theta=2\n1.0,1.2.3\n",             # two points
    "# field=u n_r=1 n_theta=2\n1.0,1e5e5\n",             # two exponents
    "# field=u n_r=1 n_theta=2\n1.0,-\n",                 # a sign alone
    "# field=u n_r=1 n_theta=2\n1.0,١x\n",           # not ASCII, not a number
    "# field=u n_r=1 n_theta=2\n1.0,2\x003\n",            # a NUL inside a value
    GOOD + "# field=z n_r=1 n_theta=2\n1.0,x\n",          # a fault in the third block
    "# field=u n_r=1 n_theta=2\n1.0,x\n# field=w n_r=5\n",  # a bad value before a bad header
    "# field=u n_r=2 n_theta=2\n1.0,2.0\n3.0\n# junk\n",  # a ragged row before a bad header
    GOOD + "# field=z n_r=9 n_theta=2\n1.0,2.0\n",        # a bad header after good blocks
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_files_fail_as_before(text):
    with pytest.raises(ParseError) as want:
        reference_parse_blocks(text)
    with pytest.raises(ParseError) as got:
        _parse_blocks(text)
    assert (str(got.value), got.value.line) == (str(want.value), want.value.line)


def test_power_table_is_built_on_first_use():
    code = ("from bulksurf import config\n"
            "assert config._powers_of_five.cache_info().currsize == 0\n"
            "config._parse_blocks('# field=u n_r=1\\n2.3456789012345678\\n')\n"
            "assert config._powers_of_five.cache_info().currsize == 1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
