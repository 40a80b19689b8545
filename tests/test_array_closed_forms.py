"""The closed forms on arrays: one call over a whole m grid gives the same
bits as one float call per point, their array power is libm pow over the
whole float range, a bad entry is rejected by value before any
arithmetic, and a float argument, or a 0-d array, returns a Python float.

Every test here turns warnings into errors, so a RuntimeWarning from
arithmetic on a bad entry (a NaN, a negative square root) would fail it
before validation could raise."""

import sys

import numpy as np
import pytest

from powerlaw_amm.il import (
    il_hold,
    il_powerlaw_exact,
    il_powerlaw_taylor,
    il_proposed_scaled,
    il_traditional,
)
from powerlaw_amm.pool import FLOAT_MAX, PoolError, _pow, depleted_reserves, retention_ratio

pytestmark = pytest.mark.filterwarnings("error")

# Price falls and rises alike; 2001 points per exponent.
M_GRID = np.logspace(-2.0, 3.0, 2001)

# Every exponent the closed forms raise m to: -1/(n+1) (depleted_reserves,
# il_powerlaw_exact), 1/2 - 1/(n+1) (retention_ratio) and n/(n+1) (il_hold).
EXPONENTS = {
    f"{name}-n{n}": e
    for n in range(1, 9)
    for name, e in [("depleted", -1.0 / (n + 1)), ("retention", 0.5 - 1.0 / (n + 1)), ("hold", n / (n + 1))]
}

# The whole accepted range (0, FLOAT_MAX]: 20000 bit patterns drawn
# uniformly over the positive finite doubles, so each binade (subnormals
# too) gets its share, plus the smallest subnormal and normal, the
# neighbours of 1 and the largest float.
INF_BITS = np.float64(np.inf).view(np.uint64)
FULL_RANGE = np.concatenate(
    [
        np.random.default_rng(35).integers(1, INF_BITS, 20_000, dtype=np.uint64).view(float),
        [5e-324, sys.float_info.min, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), FLOAT_MAX],
    ]
)

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
    # Fails if the power moves to np.power's SIMD loop, or if a numpy release
    # gives np.float_power one: either rounds differently from libm pow on a
    # few percent of points.
    got = form(M_GRID, n)
    want = np.array([form(m, n) for m in M_GRID.tolist()])
    assert got.dtype == np.float64 and got.shape == M_GRID.shape
    assert got.tobytes() == want.tobytes()


@FORMS
@pytest.mark.parametrize(
    "bad",
    [np.nan, np.inf, 0.0, -1.0, np.float32(np.nan), np.float32(np.inf)],
    ids=["nan", "inf", "zero", "negative", "float32-nan", "float32-inf"],
)
def test_bad_entry_is_named(form, bad):
    # a float32 entry makes a float32 array, bounded like a float64 one
    m = np.array([2.0, 3.0, 0.5, bad, 5.0, -7.0], dtype=np.result_type(bad))
    with pytest.raises(PoolError, match=rf"multiplier .*got {float(bad)!r} at index 3"):
        form(m, 4)


@FORMS
def test_float_argument_returns_a_float(form):
    assert type(form(2.0, 4)) is float
    assert type(form(0.25, 1)) is float


def test_empty_array_gives_empty_array():
    assert retention_ratio(np.array([]), 4).shape == (0,)


@pytest.mark.parametrize("e", list(EXPONENTS.values()), ids=list(EXPONENTS))
def test_array_power_is_libm_pow_over_the_whole_range(e):
    want = np.array([b**e for b in FULL_RANGE.tolist()])
    assert _pow(FULL_RANGE, e).tobytes() == want.tobytes()


# All seven closed forms by their own argument: m, or eps for the eps forms.
SCALAR_FORMS = {
    "retention_ratio": (retention_ratio, 2.0),
    "depleted_reserves": (lambda m, n: depleted_reserves(10_000.0, m, n), 2.0),
    "il_hold": (il_hold, 0.25),
    "il_traditional": (lambda m, n: il_traditional(m), 2.0),
    "il_proposed_scaled": (il_proposed_scaled, 2.0),
    "il_powerlaw_taylor": (il_powerlaw_taylor, 0.1),
    "il_powerlaw_exact": (il_powerlaw_exact, 1.0),
}


@pytest.mark.parametrize("form, x", list(SCALAR_FORMS.values()), ids=list(SCALAR_FORMS))
def test_zero_d_array_gives_the_float_call(form, x):
    got = form(np.array(x), 4)
    assert type(got) is float
    assert got.hex() == form(x, 4).hex()


def test_closed_forms_do_not_depend_on_avx512(run_without_avx512):
    # np.float_power has no SIMD loop today; the bits must hold on numpy's
    # baseline kernels too
    run_without_avx512("-k", "not avx512", __file__)
