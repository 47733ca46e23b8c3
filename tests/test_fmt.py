from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quatcurves import _fmt
from quatcurves._fmt import BLOCK, fnum, ftable

TINY, HUGE = np.finfo(float).tiny, np.finfo(float).max
# Signed zeros, the smallest subnormal, the float range ends, and 0.1 and
# 2/3, whose 17th significant digit rounds up.
EDGE_VALUES = [-0.0, 0.0, 5e-324, HUGE, -HUGE, TINY, 0.1, 2.0 / 3.0, 1.0, -1e300]


def reference(table) -> str:
    """The per-value rendering that ``ftable`` replaces."""
    return "".join(",".join(fnum(x) for x in row) + "\n" for row in table)


def test_edge_values_round_up():
    assert fnum(0.1) == "1.0000000000000001e-01"
    assert fnum(2.0 / 3.0) == "6.6666666666666663e-01"


@pytest.mark.parametrize("shape", [(1, 10), (10, 1), (2, 5), (5, 2)])
def test_edge_values_match_fnum(shape):
    table = np.reshape(EDGE_VALUES, shape)
    assert ftable(table) == reference(table)


def test_wide_range_matches_fnum():
    rng = np.random.default_rng(7)
    table = rng.uniform(-1.0, 1.0, (300, 7)) * 10.0 ** rng.uniform(-307.0, 307.0, (300, 7))
    assert ftable(table) == reference(table)
    assert ftable(np.asfortranarray(table)) == reference(table)


def _message(fn, arg) -> str:
    with pytest.raises(ValueError) as raised:
        fn(arg)
    return str(raised.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cell", [(0, 0), (1, 2), (2, 3)])
def test_non_finite_cell_raises_fnum_error(bad, cell):
    table = np.arange(12.0).reshape(3, 4)
    table[cell] = bad
    assert _message(ftable, table) == _message(fnum, bad)


def test_first_non_finite_in_row_major_order():
    # Column-major storage, so the first bad value in memory is not the first row-major one.
    table = np.zeros((3, 3), order="F")
    table[2, 0] = np.nan
    table[0, 2] = -np.inf
    assert _message(ftable, table) == _message(fnum, -np.inf)


# -- the table kernel against the per-value rendering ---------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(
    table=st.tuples(st.integers(1, 30), st.integers(1, 25)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.one_of(
            FINITE, st.floats(-1e3, 1e3), st.sampled_from(EDGE_VALUES)))),
    fortran=st.booleans(),
)
def test_any_finite_table_matches_fnum(table, fortran):
    if fortran:
        table = np.asfortranarray(table)
    assert ftable(table) == reference(table)


def test_exact_ties_round_half_even():
    # Both values are exact in binary and end in a 5 at the 18th digit.
    ties = np.array([[123456789012345.625, 123456789012345.375]])
    assert ftable(ties) == "1.2345678901234562e+14,1.2345678901234538e+14\n"
    assert ftable(ties) == reference(ties)


@pytest.fixture
def fnum_calls(monkeypatch):
    """The values ``ftable`` hands to ``fnum``, in order."""
    calls = []
    monkeypatch.setattr(_fmt, "fnum", lambda x: calls.append(x) or fnum(x))
    return calls


def test_near_ties_go_to_fnum(fnum_calls):
    # |x| * 10**(16 - e) lies within 4e-16 of a half for each of these, closer
    # than the kernel's product can resolve; without the tie margin the kernel
    # misrounds every one of them.
    near = np.array([[4.9102966142601843e-08, 4.910296614260184e-09, 4.8677287764934085e-09,
                      -4.95286445202696e-09, 4.974148370910348e-09, 0.5]])
    assert ftable(near) == reference(near)
    assert fnum_calls == list(near[0, :5])


def test_power_of_ten_neighbours_match_fnum():
    powers = np.array([float(f"1e{k}") for k in range(-99, 100)])
    table = np.stack([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)], axis=1)
    table = np.concatenate([table, -table], axis=1)
    assert ftable(table) == reference(table)


@pytest.mark.parametrize("value", [1e98, 1e99, 1e100, 1e-98, 1e-99, 1e-100])
def test_exponent_range_edges_match_fnum(fnum_calls, value):
    table = np.array([[np.nextafter(value, 0.0), value, np.nextafter(value, np.inf), -value]])
    assert ftable(table) == reference(table)
    # The kernel writes every value with a two-digit exponent, fnum the others.
    two_digits = [Fraction(10) ** -99 <= abs(Fraction(x)) < Fraction(10) ** 100 for x in table[0]]
    assert fnum_calls == [x for x, fast in zip(table[0], two_digits) if not fast]


def test_rounding_into_the_next_decade():
    # Each of these doubles lies just below its power of ten, and its 17
    # digits round up to 1.0000000000000000 of the next exponent.
    values = np.array([[1e-79, 1e-78, 1e-73, 1e-70, 1e-14, 1e98]])
    powers = [Fraction(10) ** k for k in (-79, -78, -73, -70, -14, 98)]
    assert all(Fraction(value) < power for value, power in zip(values[0], powers))
    assert ftable(values) == reference(values)
    assert [text[:18] for text in ftable(values).split(",")] == ["1.0000000000000000"] * 6


@pytest.mark.parametrize("shape", [(BLOCK // 7 + 3, 7), (3, BLOCK + 5), (BLOCK + 1, 1)])
def test_tables_across_blocks_match_fnum(shape):
    rng = np.random.default_rng(11)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-120, 120, shape)
    table[::5, -1] = 5e-324  # a fallback cell at the end of many rows
    assert ftable(table) == reference(table)


def test_scaled_error_is_under_a_third_of_the_tie_margin():
    # _scaled's bound, read exactly: for each power of ten and its neighbours,
    # 40 drawn mantissas per exponent and the same with the 27 bits that the
    # cut drops all set, ph is an integer, y = a * 10**(16 - e) lies in
    # [1e16, 1e17), and ph + pl is within TIE_MARGIN / 3 of y.
    rng = np.random.default_rng(35)
    exponents = np.arange(_fmt.E_MIN, _fmt.E_MAX + 1)
    powers = np.array([float(f"1e{e}") for e in exponents])
    drawn = (rng.uniform(1.0, 10.0, (40, exponents.size)) * powers).ravel()
    low_bits = (drawn.view(np.int64) | ((1 << 27) - 1)).view(np.float64)
    a = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
                        drawn, low_bits])
    a = a[(a >= 1e-99) & (a < 1e100)]
    e = np.floor(np.log10(a)).astype(int)
    e -= [Fraction(x) < Fraction(10) ** int(k) for x, k in zip(a, e)]
    e += [Fraction(x) >= Fraction(10) ** int(k + 1) for x, k in zip(a, e)]
    ph, pl = _fmt._scaled(a, e + _fmt._J, _fmt._tables())
    margin = Fraction(_fmt.TIE_MARGIN) / 3
    for x, k, high, low in zip(a, e, ph, pl):
        y = Fraction(x) * Fraction(10) ** int(16 - k)
        assert high.is_integer() and 10**16 <= y < 10**17, x
        assert abs(y - Fraction(high) - Fraction(low)) < margin, x
