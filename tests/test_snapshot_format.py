"""Snapshot formatting: `format_snapshot` writes every value as '%.17g' % v,
byte for byte, and a field file it writes reads back to the same doubles.

The fixed corpus below holds about 120,000 values; the property tests add
mixed grids.  The reference is the row-at-a-time formatter that
`format_snapshot` replaced.
"""

import decimal
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bulksurf.config import _CHUNK, format_snapshot, load_fields_file


def reference_format_snapshot(name, t, grid):
    """One '%.17g' per value, one row at a time."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    n_r, n_theta = grid.shape
    lines = [f"# t={t:.17g} field={name} n_r={n_r} n_theta={n_theta}"]
    row_format = ",".join(["%.17g"] * n_theta)
    lines.extend(row_format % tuple(row) for row in grid.tolist())
    return "\n".join(lines) + "\n"


def assert_formats_exactly(grid):
    got, want = format_snapshot("u", 0.5, grid), reference_format_snapshot("u", 0.5, grid)
    if got != want:
        pairs = zip(grid.ravel().tolist(), got.split("\n", 1)[1].replace("\n", ",").split(","),
                    want.split("\n", 1)[1].replace("\n", ",").split(","))
        bad = [(v.hex(), g, w) for v, g, w in pairs if g != w]
        pytest.fail(f"{len(bad)} values differ (value, got, want): {bad[:5]}")


def as_rows(values, n_theta=100):
    """The values as a grid, padded with 1.0 to whole rows."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.ones(-values.size % n_theta)]).reshape(-1, n_theta)


def both_signs(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def raw_bit_patterns():
    """Every class of double: nan, inf, zeros, subnormals, all exponents."""
    return np.random.default_rng(1).integers(0, 2 ** 64, 60_000, dtype=np.uint64).view(float)


def powers_of_ten_neighbours():
    """10^k for k = -5 ... 18 and 25 neighbours on each side: where log10
    misjudges the decimal exponent, and the 1e-4 and 1e17 edges."""
    centre = np.array([float(f"1e{k}") for k in range(-5, 19)])
    values, up, down = [centre], centre, centre
    for _ in range(25):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        values += [up, down]
    return both_signs(np.concatenate(values))


def large_integers():
    """Integers in [2^53, 2^57), where the digits need no fraction."""
    return np.random.default_rng(2).integers(2 ** 53, 2 ** 57, 20_000).astype(float)


def all_decades():
    return both_signs(10.0 ** np.random.default_rng(3).uniform(-5.0, 18.0, 15_000))


def halfway_ties():
    """Doubles with exactly 18 significant digits, the last a 5, each halfway
    between two 17-digit decimals: A / 2^b with A odd has the digits of A 5^b."""
    rng = np.random.default_rng(4)
    ties = [123456789012345.625]
    for b in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** b), min((10 ** 18 - 1) // 5 ** b, 2 ** 53 - 1)
        ties += [a / 2 ** b for a in (int(a) | 1 for a in rng.integers(lo, hi, 150)) if a <= hi]
    return both_signs(ties)


def specials():
    tiny = np.finfo(float).tiny
    return both_signs([0.0, np.nan, np.inf, 5e-324, tiny, np.nextafter(tiny, 0.0),
                       1e-4, np.nextafter(1e-4, 0.0), 1e17, np.nextafter(1e17, 0.0),
                       np.finfo(float).max, 0.1, 1 / 3, 2.5, 1.0])


CORPUS = {f.__name__: f for f in (raw_bit_patterns, powers_of_ten_neighbours, large_integers,
                                   all_decades, halfway_ties, specials)}


@pytest.mark.parametrize("source", CORPUS)
def test_corpus_formats_as_percent_17g(source):
    assert_formats_exactly(as_rows(CORPUS[source]()))


def test_corpus_size_and_ties():
    assert sum(CORPUS[source]().size for source in CORPUS) >= 100_000
    ties = halfway_ties()
    fixed = ties[(np.abs(ties) >= 1e-4) & (np.abs(ties) < 1e17)]
    assert fixed.size >= 2_000
    for v in ties.tolist():
        digits = decimal.Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, v
    assert format_snapshot("u", 0.0, [123456789012345.625]).endswith("\n123456789012345.62\n")


def test_chunk_edges():
    """Grids longer than one pass, with rows that cross passes and a last
    pass that holds only values printed one at a time."""
    values = 1.0 + np.arange(37 * 445) / 7.0   # 2 * _CHUNK + 81 values
    values[_CHUNK - 3:_CHUNK + 3] = [0.0, -1e-300, 5.0, 1e20, -0.0, np.nan]
    values[2 * _CHUNK:] = 0.0
    assert_formats_exactly(values.reshape(-1, 37))
    assert_formats_exactly(np.zeros((2, 5)))


# either path: fixed notation, or anything a double can be
_ANY = st.one_of(st.floats(min_value=1e-4, max_value=1e17, exclude_max=True),
                 st.floats(max_value=-1e-4, min_value=-1e17, exclude_min=True),
                 st.floats(),
                 st.sampled_from([0.0, -0.0, 5e-324, 9.999999999999999e-05, 1e17, 1e300]))


@settings(max_examples=300)
@given(arrays(float, st.tuples(st.integers(1, 5), st.integers(1, 40)), elements=_ANY))
def test_mixed_grids_format_as_percent_17g(grid):
    assert_formats_exactly(grid)


# what a field file may hold: finite and nonnegative, from both paths
_STORED = st.one_of(st.floats(min_value=1e-4, max_value=1e17, exclude_max=True),
                    st.floats(min_value=0.0, max_value=1e-4, exclude_max=True),
                    st.floats(min_value=1e17, allow_infinity=False),
                    st.sampled_from([0.0, -0.0]))


@settings(max_examples=150)
@given(st.tuples(st.integers(1, 4), st.integers(1, 12)), st.data())
def test_field_file_round_trips_bit_for_bit(shape, data):
    grids = {"u": data.draw(arrays(float, shape, elements=_STORED)),
             "w": data.draw(arrays(float, (1, shape[1]), elements=_STORED)),
             "z": data.draw(arrays(float, (1, shape[1]), elements=_STORED))}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fields.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(format_snapshot(name, 0.25, grid) for name, grid in grids.items()))
        loaded = load_fields_file(path, *shape)
    for got, grid in zip(loaded, grids.values()):
        assert got.tobytes() == grid.ravel().tobytes()
