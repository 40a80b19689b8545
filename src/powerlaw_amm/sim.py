"""Deterministic, seeded simulations.

- run_drs_simulation: static-rebate vs dynamic-rebate daily-volume experiment.
- sweep_retention / sweep_il: grid evaluations of the retention and
  impermanent-loss curves, by default over the SweepGridConfig() grid. Each
  returns a numpy structured array, one record per (n, m) row in n-major
  order, built from one array call of a closed form per column and
  exponent; table["col"] is a column and row["m"] a cell.
- run_market_loop: integrated pool + fee-engine market loop driven by a
  seeded synthetic trade stream. Only the draws, the size and the swap run
  per trade; period volumes, fees, rebates, running sums, trader volumes
  and the settlement are numpy arrays at each epoch close, summed left to
  right, with the bits of per-trade arithmetic. Each EpochReport holds its
  payouts as arrays of trader ids and amounts; the CLI names the traders
  "t{id}".

Randomness contract: every run derives its generator from
numpy.random.default_rng(SeedSequence([seed, replication_index])) (PCG64;
normal variates via numpy's ziggurat). The market loop draws, per period, a
Poisson trade count, then per trade a side, a trader and a standard normal
(size), in that order. The side and the trader are read from the
generator's raw PCG64 words (bit_generator.random_raw) and equal numpy's
calls on the same stream. The trade buys X when its word is below 2**63,
which is Generator.random() < 0.5. The trader is
Generator.integers(num_traders), numpy's bounded draw (Lemire's method) on
32-bit halves of words: the low half first, the high half kept for the
next trader draw; a half u is rejected while (u * num_traders) mod 2**32
is below (2**32 - num_traders) % num_traders, and the trader is
(u * num_traders) >> 32; one trader draws nothing. The DRS experiment
gives each replication its own generator and one (days-1, 2) normal draw,
then runs the recurrence across a block of replications at once as numpy
arrays, with the same elementwise operations in the same order as one
replication at a time. A block is one (block, days, 2) volume array,
DRS_BLOCK_CELLS cells per arm and DRS_BLOCK_CELLS // days replications,
[:, t, 0] the static arm and [:, t, 1] the dynamic arm: each replication's
generator writes its standard normals straight into its future days, the
block is scaled by noise_std once, and each day's step reads that day's
noise and overwrites it with the day's volume. The scaled draws are
normal(0.0, noise_std)'s bits: numpy's normal is loc + scale * z on the
same standard normal z, and the loc of 0.0 only turns a -0.0 product into
+0.0, which the recurrence, adding the noise to a nonzero term, cannot
tell apart. The rebate series is rebuilt from replication 0's dynamic
volumes after the run.
A block's generators are seeded at once: _seed_words runs SeedSequence's
hash (O'Neill's seed_seq: the same 32-bit multiplies, xors and shifts, in
the same order, with the same constants) on uint32 arrays holding one lane
per replication, and gives each replication the four PCG64 seed words
SeedSequence([seed, rep]).generate_state(4, np.uint64) would; numpy's PCG64
takes them through its ISeedSequence interface and seeds itself as usual.
The generators are therefore the ones replication_rng(seed, rep) builds,
which the market loop still calls. Identical (config, seed) pairs produce
bit-identical outputs within this implementation.

Validation happens once, at the boundary. Each config dataclass
(DrsSimConfig, TradeStreamConfig, MarketLoopConfig, SweepGridConfig) owns
every rule for its fields: its __post_init__ applies the package's field
type rule, pool._check_fields (integers for int fields, finite numbers,
held as Python floats, for float fields, an instance of its class for a
nested config), then its own
range rules; MarketLoopConfig applies the pool's exponent, reserve and
pool-state rules to n, x_reserve and y_reserve and checks that the median
trade is a positive float, and SweepGridConfig the exponent rule to each
entry of n_values, naming its index, holds each entry as the Python int it
checked, and refuses an m_max whose grid point np.logspace rounds past the
float range. The kernels then run on checked inputs: the market loop
calls the swap kernels (pool._buy_x, pool._sell_x) per trade on plain
floats, and the fee kernels (fees._rebate, fees._split) once per epoch
close on arrays of its periods and trades, and the settlement kernel
(fees._settle) once per epoch on its traders' volumes; the DRS recurrence
calls fees._rebate on float arrays once per day.
drs_noise_free_series iterates the recurrence apart from the simulator,
through the public dynamic_rebate, as the oracle it must match.
"""

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import il as il_mod
from . import pool as pool_mod
from .fees import (
    REBATE_CAP,
    REBATE_FLOOR,
    REWARD_FRACTION,
    FeeSchedule,
    RebateContext,
    _fold,
    _rebate,
    _settle,
    _split,
    classify_regime,
    dynamic_rebate,
)
from .pool import FLOAT_MAX, Pool, PoolError, TradeTooLarge, _buy_x, _sell_x, spot_price
from .pool import _check_exponent, _check_fields, _nonnegative

# The loops call the kernels, yet these names must stay: bench/tracing.py
# reads each from this module, with no default, to time it, so deleting one
# makes every --trace 1 benchmark run raise AttributeError.
from .fees import EpochLedger, compute_fee, settle_epoch, split_fee  # noqa: F401
from .pool import swap_x_for_y, swap_y_for_x  # noqa: F401

# ---------------------------------------------------------------------------
# Dynamic rebate system: static vs dynamic daily volumes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DrsSimConfig:
    days: int = 100
    initial_volume: float = 1e6
    target_volume: float = 1e6
    static_rebate: float = 0.35
    sensitivity: float = 0.05
    noise_std: float = 0.01
    seed: int = 0
    replications: int = 1
    volume_floor: float = 1.0

    def __post_init__(self):
        _check_fields(self)
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if not (self.initial_volume > 0 and self.target_volume > 0):
            raise ValueError("initial_volume and target_volume must be positive")
        # numpy's normal rejects a scale whose sign bit is set, -0.0 too
        if math.copysign(1.0, self.noise_std) < 0:
            raise ValueError(f"noise_std must be nonnegative and not -0.0, got {self.noise_std}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        # the seeding kernel, _seed_words, holds a replication index in one
        # 32-bit word
        if not 1 <= self.replications <= 2**32:
            raise ValueError(f"replications must be in [1, 2**32], got {self.replications}")
        if self.volume_floor <= 0:
            raise ValueError("volume_floor must be positive")


def _equal_fields(self, other):
    """__eq__ of a dataclass with array fields, compared element for element."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(a, b) for a, b in zip(vars(self).values(), vars(other).values()))


@dataclass(frozen=True)
class DrsSimResult:
    """One DRS run; two are equal when every field is, the series element for element."""

    static_series: np.ndarray
    dynamic_series: np.ndarray
    rho_series: np.ndarray
    summary: dict

    __eq__ = _equal_fields


# Cells per arm in run_drs_simulation's (block, days, 2) volume array: a
# block holds DRS_BLOCK_CELLS // days replications, so a long run gets a
# narrower block rather than more memory.
DRS_BLOCK_CELLS = 5 * 2**13


def replication_rng(seed: int, replication: int) -> "np.random.Generator":
    """Child generator for one replication: SeedSequence([seed, replication])."""
    return np.random.default_rng(np.random.SeedSequence([seed, replication]))


# O'Neill's seed_seq hash as numpy's SeedSequence implements it: 32-bit
# words, a pool of four words, and these constants.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class _HashMix:
    """seed_seq's hashmix and its running constant. Each hashed word xors
    the constant in, steps the constant by mult and is multiplied by the
    stepped constant, then folded. The constants do not depend on the data,
    so call(values, k) hashes k words at once: values broadcast to k rows,
    row i taking the i-th of the next k steps."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, values: np.ndarray, k: int) -> np.ndarray:
        consts = [self.const]
        for _ in range(k):
            consts.append(consts[-1] * self.mult & _MASK32)
        self.const = consts[-1]
        column = np.array(consts, dtype=np.uint32)[:, None]
        values = (values ^ column[:-1]) * column[1:]
        return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _seed_words(seed: int, first: int, count: int) -> np.ndarray:
    """PCG64 seed words of replications first .. first + count - 1: a
    (count, 4) uint64 array whose row i equals
    SeedSequence([seed, first + i]).generate_state(4, np.uint64).

    SeedSequence([seed, rep]) hashes the entropy words of seed (its
    little-endian 32-bit words, at least one) followed by rep (one word, as
    rep < 2**32). Here each word is a row of count uint32 lanes, one lane
    per replication, wrapping mod 2**32 as the C code does; the steps that
    update several pool words from the same source word run as one array
    operation, in the order of the scalar loops.
    """
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    n = len(seed_words)
    entropy = np.zeros((max(n + 1, _POOL_SIZE), count), dtype=np.uint32)
    entropy[:n] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[n] = np.arange(first, first + count)
    # mix_entropy: fill the pool (zero-padded), mix each word into every
    # other one, then mix in the entropy words the pool had no room for
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = hashmix(entropy[:_POOL_SIZE], _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], _POOL_SIZE - 1))
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, hashmix(word, _POOL_SIZE))
    # generate_state: eight 32-bit words cycling over the pool, paired
    # little-endian into four 64-bit words
    state = _HashMix(_INIT_B, _MULT_B)(np.tile(pool, (2, 1)), 8).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | (state[1::2] << 32)).T)


class _SeedWords:
    """One replication's precomputed seed words behind numpy's ISeedSequence
    interface, so numpy's own PCG64 seeding turns them into the generator
    SeedSequence([seed, rep]) would give. _replication_rngs registers the
    class as an ISeedSequence when it runs, which keeps numpy.random out of
    this module's import."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("_SeedWords holds PCG64's four uint64 seed words only")
        return self.words


def _replication_rngs(seed: int, first: int, count: int):
    """Yield replication_rng(seed, rep) for rep in first .. first + count - 1,
    each a Generator(PCG64) seeded from one _seed_words pass over them all."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    for words in _seed_words(seed, first, count):
        yield Generator(PCG64(_SeedWords(words)))


def _log_change_vol(logs) -> float:
    """Standard deviation of the changes of a series of logs; 0.0 for fewer
    than two points (one change has a deviation of exactly 0.0). Callers
    take each log once, with math.log (libm), so the result does not depend
    on which SIMD kernel numpy's log dispatches to.

    The bits are np.std's: numpy's variance is this same sequence (an
    add.reduce of the changes, their deviations, an add.reduce of the
    squared deviations) and its sqrt is correctly rounded, as math.sqrt is,
    without np.std's per-call dispatch."""
    if len(logs) < 2:
        return 0.0
    logs = np.asarray(logs)
    d = logs[1:] - logs[:-1]  # np.diff's subtraction, without its per-call overhead
    dev = d - d.sum() / d.size
    return math.sqrt((dev * dev).sum() / d.size)


# numpy's overflow warnings are off for the whole run: an overflow that matters
# raises ValueError (see the docstring), and one that does not (volume/target
# past the float range only clamps the rebate to its floor) leaves the outputs
# finite and correct.
@np.errstate(over="ignore", invalid="ignore")
def run_drs_simulation(cfg: DrsSimConfig) -> DrsSimResult:
    """Run the static-vs-dynamic rebate experiment.

    Replications run a block at a time as the rows of one (block, days, 2)
    array, [:, :, 0] the static and [:, :, 1] the dynamic volumes, each day
    one elementwise step of each arm's recurrence across the block. Day 0
    holds the initial volume; days 1..days-1 are updates. Each replication's
    generator, the one replication_rng(seed, rep) gives, built a block at a
    time by _replication_rngs, writes its (days-1, 2) standard normals
    straight into its days 1..days-1, in the order normal(0.0, noise_std,
    (days-1, 2)) draws them; the block is then scaled by noise_std at once,
    which gives normal's bits (see the module docstring). Column 0 drives
    the static arm (turned into the growth factor 1 + e once per block),
    column 1 the dynamic arm. The step for day t reads day t's noise and
    overwrites it with day t's volume. The dynamic arm's rebate is evaluated
    on the previous day's volume into a one-day scratch row.

    The stored series come from replication 0; its rho_series is rebuilt
    after the run from its dynamic volumes with the same rebate kernel, so
    it holds the bits the recurrence used. The summary additionally
    aggregates final/initial ratios and the dynamic-beats-static fraction
    across all replications. A run whose volumes overflow a float (a
    replication's mean volume or a summary value not finite) raises
    ValueError rather than return inf or NaN.
    """
    days, reps = cfg.days, cfg.replications
    width = max(1, min(reps, DRS_BLOCK_CELLS // days))
    volumes = np.empty((width, days, 2))  # [:, :, 0] static, [:, :, 1] dynamic
    rho = np.empty(width)  # one day's rebates across the block
    volumes[:, 0] = cfg.initial_volume
    floor, target, k, static_rebate = (
        cfg.volume_floor, cfg.target_volume, cfg.sensitivity, cfg.static_rebate
    )
    final_static = np.empty(reps)
    final_dynamic = np.empty(reps)
    beats = 0
    for start in range(0, reps, width):
        stop = min(start + width, reps)
        rows = stop - start
        v, r = volumes[:rows], rho[:rows]
        # each replication's standard normals wait in the days they drive:
        # column 0 in the static arm, column 1 in the dynamic arm
        for row, rng in zip(v, _replication_rngs(cfg.seed, start, rows)):
            rng.standard_normal(out=row[1:])
        np.multiply(v[:, 1:], cfg.noise_std, out=v[:, 1:])
        s, d = v[:, :, 0], v[:, :, 1]
        # the static arm's factor 1 + e, once per block, in place of its noise
        np.add(1.0, s[:, 1:], out=s[:, 1:])
        # Column views of day t-1 and day t; each step reads day t's noise and
        # overwrites it with day t's volume, keeping the operands and order of
        # max(v * ((1 + k*(rho - static_rebate)) + e), floor).
        for s0, s1, d0, d1 in zip(s.T, s.T[1:], d.T, d.T[1:]):
            np.maximum(s0 * s1, floor, out=s1)
            _rebate(d0, target, REBATE_CAP, out=r)
            np.maximum(d0 * ((1.0 + k * (r - static_rebate)) + d1), floor, out=d1)
        final_static[start:stop] = s[:, -1] / cfg.initial_volume
        final_dynamic[start:stop] = d[:, -1] / cfg.initial_volume
        static_means, dynamic_means = np.mean(s, axis=1), np.mean(d, axis=1)
        bad = ~(np.isfinite(static_means) & np.isfinite(dynamic_means))
        if bad.any():
            raise ValueError(f"DRS volumes overflow a float in replication {start + bad.argmax()}")
        beats += int(np.count_nonzero(dynamic_means > static_means))
        if start == 0:
            static0, dynamic0 = s[0].copy(), d[0].copy()
    # replication 0's rebates, from the volumes they were evaluated on
    rho0 = np.empty(days)
    rho0[0] = _rebate(cfg.initial_volume, target, REBATE_CAP)
    rho0[1:] = _rebate(dynamic0[:-1], target, REBATE_CAP)
    summary = {
        "days": cfg.days,
        "replications": cfg.replications,
        "mean_volume_static": float(np.mean(static0)),
        "mean_volume_dynamic": float(np.mean(dynamic0)),
        "final_ratio_static": float(final_static[0]),
        "final_ratio_dynamic": float(final_dynamic[0]),
        "volatility_static": _log_change_vol([math.log(v) for v in static0.tolist()]),
        "volatility_dynamic": _log_change_vol([math.log(v) for v in dynamic0.tolist()]),
        "mean_final_ratio_static": float(np.mean(final_static)),
        "mean_final_ratio_dynamic": float(np.mean(final_dynamic)),
        "dynamic_beats_static_fraction": beats / cfg.replications,
    }
    for name, value in summary.items():
        if not math.isfinite(value):
            raise ValueError(f"DRS summary value {name} overflows a float: {value}")
    return DrsSimResult(
        static_series=static0,
        dynamic_series=dynamic0,
        rho_series=rho0,
        summary=summary,
    )


def drs_noise_free_series(cfg: DrsSimConfig) -> np.ndarray:
    """Closed-form (deterministic) dynamic-arm path with the noise switched
    off: the same recurrence iterated without random terms, on Python
    floats. This is the oracle the seeded simulator must match exactly when
    noise_std == 0. A volume past the float range raises ValueError, as the
    simulator's does."""
    vol = cfg.initial_volume
    vols = [vol]
    for t in range(1, cfg.days):
        rho = dynamic_rebate(RebateContext(vol, cfg.target_volume))
        step = 1.0 + cfg.sensitivity * (rho - cfg.static_rebate)
        vol = max(vol * step, cfg.volume_floor)
        if vol > FLOAT_MAX:
            raise ValueError(f"DRS noise-free volume overflows a float on day {t}")
        vols.append(vol)
    return np.array(vols)


def drs_geometric_upper_bound(cfg: DrsSimConfig) -> float:
    """Upper bound on the noise-free dynamic arm's final/initial volume
    ratio, for every config: the recurrence with each day's step replaced by
    the largest one a rebate in [REBATE_FLOOR, REBATE_CAP] gives, clamped at
    0, and the volume floor kept. It runs the simulator's float operations
    on operands at least as large, and rounding is monotone, so the bound
    holds in floating point too. A bound past the float range raises
    ValueError."""
    k, static_rebate = cfg.sensitivity, cfg.static_rebate
    step = max(1.0 + k * (REBATE_CAP - static_rebate), 1.0 + k * (REBATE_FLOOR - static_rebate), 0.0)
    vol = cfg.initial_volume
    for _ in range(1, cfg.days):
        vol = max(vol * step, cfg.volume_floor)
    bound = vol / cfg.initial_volume
    if not bound <= FLOAT_MAX:
        raise ValueError(f"DRS geometric bound with step {step!r} over {cfg.days - 1} days overflows a float")
    return bound


# ---------------------------------------------------------------------------
# Retention and impermanent-loss sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepGridConfig:
    """A sweep grid: m_points price multipliers log-spaced from m_min to
    m_max, crossed with a non-empty list of exponents. A one-point grid
    needs m_min == m_max, since it holds m_min only. The default is 200
    points from 1 to 100 and n = 1..5. An m_max near the largest float can
    put the last grid point past the float range, as np.logspace rounds
    10**log10(m_max); that is a ValueError naming m_max."""

    m_min: float = 1.0
    m_max: float = 100.0
    m_points: int = 200
    n_values: list = field(default_factory=lambda: [1, 2, 3, 4, 5])

    def __post_init__(self):
        _check_fields(self)
        if not 0 < self.m_min <= self.m_max:
            raise ValueError(f"need 0 < m_min <= m_max, got m_min={self.m_min}, m_max={self.m_max}")
        if self.m_points < 1:
            raise ValueError("m_points must be >= 1")
        if self.m_points == 1 and self.m_min != self.m_max:
            raise ValueError(
                f"m_points is 1, so m_min must equal m_max, got m_min={self.m_min}, m_max={self.m_max}"
            )
        if not isinstance(self.n_values, list):
            raise ValueError(f"n_values must be a list of integers, got {self.n_values!r}")
        if not self.n_values:
            raise ValueError("n_values must hold at least one exponent, got []")
        n_values = [_check_exponent(n, f"n_values[{i}]: exponent", ValueError)
                    for i, n in enumerate(self.n_values)]
        object.__setattr__(self, "n_values", n_values)
        # the grid rises to its last point, so that point bounds all others
        with np.errstate(over="ignore"):
            top = self.m_grid()[-1]
        if top > FLOAT_MAX:
            raise ValueError(f"m_max {self.m_max} puts the last grid point past the float range: got {top}")

    def m_grid(self) -> np.ndarray:
        return np.logspace(np.log10(self.m_min), np.log10(self.m_max), self.m_points)


def _sweep(m_grid, n_values, columns: dict) -> np.ndarray:
    """The sweep table over m_grid x n_values, n-major: a structured array
    with fields m, n and one float field per entry of columns, whose value
    maps (m array, n) to that column. Each column is one closed-form call per
    exponent over the whole m grid."""
    if m_grid is None or n_values is None:
        grid = SweepGridConfig()
        m_grid = grid.m_grid() if m_grid is None else m_grid
        n_values = grid.n_values if n_values is None else n_values
    m_grid = np.asarray(m_grid, dtype=float)
    dtype = [("m", float), ("n", int)] + [(name, float) for name in columns]
    table = np.empty(len(n_values) * m_grid.size, dtype=dtype)
    for rows, n in zip(table.reshape(len(n_values), m_grid.size), n_values):
        rows["m"] = m_grid
        rows["n"] = n
        for name, column in columns.items():
            rows[name] = column(m_grid, n)
    return table


def sweep_retention(m_grid=None, n_values=None) -> np.ndarray:
    """Structured array of (m, n, retention_ratio, depleted_fraction) rows
    over the grid."""
    return _sweep(
        m_grid,
        n_values,
        {
            "retention_ratio": lambda m, n: pool_mod.retention_ratio(m, n),
            "depleted_fraction": lambda m, n: pool_mod.depleted_reserves(1.0, m, n),
        },
    )


def sweep_il(m_grid=None, n_values=None) -> np.ndarray:
    """Structured array of (m, n, il_traditional, il_scaled, il_exact) rows
    over the grid."""
    return _sweep(
        m_grid,
        n_values,
        {
            "il_traditional": lambda m, n: il_mod.il_traditional(m),
            "il_scaled": lambda m, n: il_mod.il_proposed_scaled(m, n),
            # 1 - m**(-1/(n+1)) on m itself: il_powerlaw_exact(m - 1.0, n)
            # forms 1 + (m - 1), which is not m below m = 0.5
            "il_exact": lambda m, n: 1.0 - pool_mod.depleted_reserves(1.0, m, n),
        },
    )


# ---------------------------------------------------------------------------
# Integrated pool + fee-engine market loop
# ---------------------------------------------------------------------------

# The largest Poisson mean numpy's Generator.poisson takes
# (int64 max - 10 * sqrt(int64 max)); above it numpy raises "lam value too large".
_POISSON_LAM_MAX = 2**63 - 1 - math.sqrt(2**63 - 1) * 10


@dataclass(frozen=True)
class TradeStreamConfig:
    """Synthetic order flow: Poisson trade counts per period (exponential
    inter-arrivals), fair coin for side, log-normal sizes by stablecoin value
    with a median of size_median_frac times the Y reserve y: a sell's median
    X input is that over the price n*y/x, size_median_frac*x/n."""

    trades_per_period: float = 10.0
    size_median_frac: float = 0.001
    size_sigma: float = 1.0
    num_traders: int = 20

    def __post_init__(self):
        _check_fields(self)
        if not 0 <= self.trades_per_period <= _POISSON_LAM_MAX:
            raise ValueError(
                f"trades_per_period must be in [0, {_POISSON_LAM_MAX:.17g}], numpy's largest"
                f" Poisson mean, got {self.trades_per_period}"
            )
        if not (self.size_median_frac > 0 and self.size_sigma >= 0):
            raise ValueError("size_median_frac must be positive and size_sigma nonnegative")
        # the trader draw, _trader_ids, draws from 32-bit values
        if not 1 <= self.num_traders <= 2**32:
            raise ValueError(f"num_traders must be in [1, 2**32], got {self.num_traders}")


@dataclass(frozen=True)
class MarketLoopConfig:
    x_reserve: float = 10_000.0
    y_reserve: float = 100_000.0
    n: int = 4
    epochs: int = 5
    periods_per_epoch: int = 30
    target_volume: float = 1_000.0  # per-period rebate target
    vol_window: int = 30
    seed: int = 0
    stream: TradeStreamConfig = field(default_factory=TradeStreamConfig)
    schedule: FeeSchedule = field(default_factory=FeeSchedule)

    def __post_init__(self):
        _check_fields(self)
        for name, value in (("x_reserve", self.x_reserve), ("y_reserve", self.y_reserve)):
            _nonnegative(value, name, ValueError)
        _check_exponent(self.n, "n: exponent", ValueError)
        if self.epochs < 1 or self.periods_per_epoch < 1:
            raise ValueError("epochs and periods_per_epoch must be >= 1")
        if self.target_volume <= 0:
            raise ValueError("target_volume must be positive")
        if self.vol_window < 2:
            raise ValueError("vol_window must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        try:
            spot_price(Pool(self.x_reserve, self.y_reserve, self.n))
        except PoolError as exc:
            raise ValueError(f"x_reserve and y_reserve: {exc}") from None
        median = self.stream.size_median_frac * self.y_reserve
        if not 0.0 < median <= FLOAT_MAX:
            raise ValueError(
                f"stream.size_median_frac {self.stream.size_median_frac} times y_reserve"
                f" {self.y_reserve} is a median trade of {median}, outside (0, inf)"
            )


@dataclass(frozen=True)
class EpochReport:
    """One epoch's books. traders (int64 ids) and payouts (float64) are
    arrays in payout order, the epoch's first-trade order; both are empty
    when the epoch executed no trade, and its fees and reward pool are then
    0.0, so no epoch leaves a pool unpaid. Two reports are equal when every
    field is, the arrays element for element."""

    epoch_id: int
    fees: float
    volume: float
    reward_pool: float
    traders: np.ndarray
    payouts: np.ndarray

    __eq__ = _equal_fields


@dataclass(frozen=True)
class MarketLoopResult:
    total_volume: float
    total_fees: float
    lp_total: float
    rebate_total: float
    protocol_total: float  # raw protocol share, before the reward carve-out
    protocol_net: float  # protocol share after funding reward pools
    rewards_distributed: float
    rejected_trades: int
    executed_trades: int
    final_pool: Pool
    sigma_series: list
    epoch_reports: list


# Generator.random() is (word >> 11) * 2**-53 of one PCG64 word, so
# random() < 0.5 exactly when the word is below 2**63.
_HALF_WORD = 1 << 63


def _trader_ids(raw, num_traders: int):
    """An iterator of the values Generator.integers(num_traders) returns,
    drawn from raw, the generator's bit_generator.random_raw.

    For a range of at most 2**32 numpy draws 32-bit values: the halves of
    PCG64's 64-bit words, low half first, the high half kept for the next
    32-bit draw, which in the market loop is the next trader draw. A half u
    gives m = u * num_traders, rejected while m mod 2**32 is below
    (2**32 - num_traders) % num_traders (Lemire's method); the value is
    m >> 32. With one trader numpy draws nothing.
    """
    if num_traders == 1:
        while True:
            yield 0
    n = num_traders
    threshold = (2**32 - n) % n
    while True:
        word = raw()
        m = (word & _MASK32) * n
        if m & _MASK32 >= threshold:
            yield m >> 32
        m = (word >> 32) * n
        if m & _MASK32 >= threshold:
            yield m >> 32


def _trader_volumes(traders: array, volumes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids, sums): the distinct trader ids (int64) in first-trade order and
    each one's volumes added in trade order, the keys and values a per-trade
    volumes[t] = volumes.get(t, 0.0) + v builds, with its bits, as
    np.bincount adds each trader's weights in input order from 0.0. The sums
    index the distinct traders (np.unique's inverse), not raw ids, which
    reach 2**32 - 1. The first trades come from np.minimum.at on the
    inverse: np.unique's return_index sorts stably, at several times the
    cost."""
    ids, which = np.unique(np.frombuffer(traders, dtype=np.int64), return_inverse=True)
    first = np.full(ids.size, len(volumes))
    np.minimum.at(first, which, np.arange(len(volumes)))
    sums = np.bincount(which, weights=volumes, minlength=ids.size)
    order = np.argsort(first)
    return ids[order], sums[order]


def run_market_loop(cfg: MarketLoopConfig) -> MarketLoopResult:
    """Drive a pool through a seeded trade stream with regime-aware fees,
    dynamic rebates, and per-epoch volume rewards.

    Per period: classify the regime from trailing realized volatility (stdev
    of per-period log price changes over vol_window periods); the period's
    trades pay the regime's gamma on their stablecoin value, and its fees are
    split with the rebate ratio derived from the previous period's volume,
    capped by the regime's rho_max. At each epoch close, a tenth of the
    epoch's fees moves from the protocol share into the reward pool and
    settles pro-rata to trader volume.

    The config, the initial pool state included, is validated once, up
    front; the trade loop then keeps the reserves and the price as plain
    floats and calls the swap kernels directly. Per trade it draws the
    side, the trader and the size, swaps, and appends the trader and the
    volume to the epoch's buffers; per period it records gamma, rho_max and
    the count of trades executed by its close. The swap kernels get the
    rate gamma and withhold gamma times their input (Y on a buy, X on a
    sell). At the epoch close the buffers become arrays and one index gives
    each trade its period: np.bincount over it gives the period volumes,
    one fees._rebate call each period's rebate from the volume before it,
    one fees._split call the fee buckets of every executed trade (its
    period's gamma times its stablecoin value), each running sum is a left
    fold (fees._fold) from its running value, and the epoch's per-trader
    volumes (_trader_volumes, in first-trade order) settle through one
    fees._settle call into the EpochReport's traders and payouts arrays.
    Every bit equals adding, splitting and recording one trade at a time
    and settling an EpochLedger. A trade above the input cap is rejected
    and counted. A
    PoolError stops the run if a trade would drain a reserve (the
    kernel's), if a size leaves (0, inf), an overflowing exp included
    (naming the stream fields), or if the total volume, the bound of every
    other sum, passes the largest float at an epoch close (naming y_reserve
    and stream.size_median_frac).
    """
    rng = replication_rng(cfg.seed, 0)
    x, y, n = cfg.x_reserve, cfg.y_reserve, cfg.n
    price = spot_price(Pool(x, y, n))
    stream = cfg.stream
    size_frac, size_sigma = stream.size_median_frac, stream.size_sigma
    raw = rng.bit_generator.random_raw
    next_trader = _trader_ids(raw, stream.num_traders).__next__
    normal, exp = rng.standard_normal, math.exp
    # one log price per period close, for sigma
    log_prices = np.empty(cfg.epochs * cfg.periods_per_epoch + 1)
    log_prices[0] = math.log(price)
    closes = 0
    sigma_series = []
    epoch_reports = []

    total_volume = total_fees = lp_total = rebate_total = protocol_total = 0.0
    rewards_distributed = 0.0
    drawn = executed = 0
    last_period_volume = cfg.target_volume  # neutral start: rebate begins at 0.4

    for epoch_id in range(cfg.epochs):
        traders, volumes = array("q"), array("d")  # per executed trade
        add_trader, add_volume = traders.append, volumes.append
        gammas, rho_maxes, ends = [], [], []  # per period; ends: trades executed by its close
        for _ in range(cfg.periods_per_epoch):
            sigma = _log_change_vol(log_prices[max(0, closes + 1 - cfg.vol_window) : closes + 1])
            sigma_series.append(sigma)
            params = cfg.schedule.params_for(classify_regime(sigma, cfg.schedule))
            gamma = params.gamma
            gammas.append(gamma)
            rho_maxes.append(params.rho_max)
            n_trades = int(rng.poisson(stream.trades_per_period))
            drawn += n_trades
            for _ in range(n_trades):
                buy_side = raw() < _HALF_WORD
                trader = next_trader()
                volume = math.inf  # the size an exp that overflows leaves
                try:
                    # both sides sized by stablecoin value, median 0.1% of Y
                    volume = size_frac * y * exp(size_sigma * normal())
                    if buy_side:
                        x, y, price, _ = _buy_x(x, y, n, volume, gamma)
                    else:
                        x, y, price, _ = _sell_x(x, y, n, volume / price, gamma)
                except TradeTooLarge:
                    continue
                except (OverflowError, PoolError):
                    # the kernel names its argument (dy_in, dx_in); a size
                    # outside (0, inf) comes from the stream
                    size = volume if buy_side else volume / price
                    if 0.0 < size <= FLOAT_MAX:
                        raise
                    raise PoolError(
                        f"trade size {size} leaves (0, inf): stream.size_median_frac {size_frac}"
                        f" and stream.size_sigma {size_sigma} are too extreme"
                    ) from None
                add_trader(trader)
                add_volume(volume)
            ends.append(len(volumes))
            closes += 1
            log_prices[closes] = math.log(price)
        v = np.frombuffer(volumes)
        total_volume = _fold(total_volume, v)  # inf past the float range, reported here
        if not total_volume <= FLOAT_MAX:
            raise PoolError(
                f"total volume {total_volume} overflows a float: y_reserve {cfg.y_reserve} and"
                f" stream.size_median_frac {size_frac} make trades too large to sum"
            )
        executed += v.size
        ids, sums = _trader_volumes(traders, v)
        period = np.searchsorted(ends, np.arange(v.size), "right")  # each trade's period
        period_volumes = np.bincount(period, weights=v, minlength=len(ends))
        # a period's rebate follows the volume of the period before it; a
        # volume / target past the float range clamps it to its floor
        preceding = np.array([last_period_volume, *period_volumes[:-1]])
        with np.errstate(over="ignore"):
            rho = _rebate(preceding, cfg.target_volume, np.array(rho_maxes))
        last_period_volume = period_volumes[-1]
        fees = np.array(gammas)[period] * v
        lp, rebate, protocol = _split(fees, rho[period])
        # each term is at most its volume, so these sums stay finite
        total_fees = _fold(total_fees, fees)
        lp_total = _fold(lp_total, lp)
        rebate_total = _fold(rebate_total, rebate)
        protocol_total = _fold(protocol_total, protocol)
        epoch_volume = _fold(0.0, v)
        epoch_fees = _fold(0.0, fees)
        # free this epoch's arrays before the next epoch's buffers grow
        del v, period, fees, lp, rebate, protocol
        reward_pool = REWARD_FRACTION * epoch_fees  # 0.0 with no trade: nothing to carry
        rewards_distributed += reward_pool
        epoch_reports.append(
            EpochReport(
                epoch_id=epoch_id,
                fees=epoch_fees,
                volume=epoch_volume,
                reward_pool=reward_pool,
                traders=ids,
                payouts=_settle(sums, reward_pool, epoch_id),
            )
        )

    return MarketLoopResult(
        total_volume=total_volume,
        total_fees=total_fees,
        lp_total=lp_total,
        rebate_total=rebate_total,
        protocol_total=protocol_total,
        protocol_net=protocol_total - rewards_distributed,
        rewards_distributed=rewards_distributed,
        rejected_trades=drawn - executed,
        executed_trades=executed,
        final_pool=Pool(x, y, n),
        sigma_series=sigma_series,
        epoch_reports=epoch_reports,
    )
