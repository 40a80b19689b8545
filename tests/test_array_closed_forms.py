"""The closed forms on arrays: one call over a whole m grid gives the same
bits as one float call per point, a bad entry is rejected by value before
any arithmetic, and a float argument still returns a Python float.

Every test here turns warnings into errors, so a RuntimeWarning from
arithmetic on a bad entry (a NaN, a negative square root) would fail it
before validation could raise."""

import numpy as np
import pytest

from powerlaw_amm.il import (
    il_hold,
    il_powerlaw_exact,
    il_proposed_scaled,
    il_traditional,
)
from powerlaw_amm.pool import PoolError, depleted_reserves, retention_ratio

pytestmark = pytest.mark.filterwarnings("error")

# Price falls and rises alike; 2001 points per exponent.
M_GRID = np.logspace(-2.0, 3.0, 2001)

# Each array-capable closed form as a function of (m, n); il_powerlaw_exact
# takes eps = m - 1, so an array eps has the same bad entries as m.
CLOSED_FORMS = {
    "retention_ratio": retention_ratio,
    "depleted_reserves": lambda m, n: depleted_reserves(10_000.0, m, n),
    "il_traditional": lambda m, n: il_traditional(m),
    "il_proposed_scaled": il_proposed_scaled,
    "il_powerlaw_exact": lambda m, n: il_powerlaw_exact(m - 1.0, n),
    "il_hold": il_hold,
}
FORMS = pytest.mark.parametrize("form", list(CLOSED_FORMS.values()), ids=list(CLOSED_FORMS))


@FORMS
@pytest.mark.parametrize("n", range(1, 9))
def test_array_call_matches_float_calls_bit_for_bit(form, n):
    # Fails if the power moves to numpy's vectorised power, which rounds
    # differently from libm pow on a few percent of points.
    got = form(M_GRID, n)
    want = np.array([form(m, n) for m in M_GRID.tolist()])
    assert got.dtype == np.float64 and got.shape == M_GRID.shape
    assert got.tobytes() == want.tobytes()


@FORMS
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
def test_bad_entry_is_named(form, bad):
    m = np.array([2.0, 3.0, 0.5, bad, 5.0, -7.0])
    with pytest.raises(PoolError, match=rf"multiplier .*got {bad!r} at index 3"):
        form(m, 4)


@FORMS
def test_float_argument_returns_a_float(form):
    assert type(form(2.0, 4)) is float
    assert type(form(0.25, 1)) is float


def test_empty_array_gives_empty_array():
    assert retention_ratio(np.array([]), 4).shape == (0,)
