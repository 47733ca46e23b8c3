import numpy as np
import pytest

from quatcurves._fmt import fnum, ftable

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
