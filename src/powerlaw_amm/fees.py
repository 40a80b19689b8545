"""Fee computation, regime classification, tripartite splitting, dynamic
rebates, and epoch-based volume reward accounting.

Every trade fee F = gamma * V is split three ways: 30% to liquidity
providers, rho in [0.3, 0.4] back to the trader as a rebate, and the
remainder to protocol reserves. A tenth of each epoch's fees is carved out
of the protocol share and paid back to traders pro-rata to their epoch
volume.

Validation happens at the public boundary: the dataclass constructors,
compute_fee, classify_regime, dynamic_rebate, split_fee and the EpochLedger
methods read each number as a float by the pool's rule (pool._real) and
reject NaN, infinite and out-of-range arguments; an EpochLedger built from
a volumes dict checks each volume by record's rule. The dataclasses
(RegimeParams, FeeSchedule, RebateContext) first apply the package's field
type rule, pool._check_fields, so every number they hold is finite. The
rebate and split arithmetic lives once, in the kernels _rebate and _split,
which assume checked inputs; the public functions and the simulators call
them. Both are elementwise: the DRS experiment applies _rebate to a block of
volumes, and the market loop's epoch close applies _rebate to its periods'
volumes with each period's regime cap (the cap min(REBATE_CAP, rho_max) is
np.minimum, so rho_max may be an array) and _split to its trades' fees.
Settlement lives once too, in the array kernel _settle: settle_epoch hands
it a ledger's volumes, and the market loop its epoch's per-trader volume
array. Every sum of a settlement is _fold, a left fold with the bits of a
loop of +=.
"""

from dataclasses import dataclass, field

import numpy as np

from .pool import FLOAT_MAX, _check_fields, _nonnegative, _real

REGIMES = ("low", "moderate", "high")

LP_SHARE = 0.3
REBATE_FLOOR = 0.3
REBATE_CAP = 0.4
REWARD_FRACTION = 0.1  # share of epoch fees routed to the volume reward pool


@dataclass(frozen=True)
class RegimeParams:
    gamma: float
    rho_max: float

    def __post_init__(self):
        _check_fields(self)
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not REBATE_FLOOR <= self.rho_max < 1.0:
            raise ValueError(f"rho_max must be in [{REBATE_FLOOR}, 1), got {self.rho_max}")


@dataclass(frozen=True)
class FeeSchedule:
    """Volatility thresholds and per-regime fee parameters.

    Defaults: high vol charges 1% with a 40% rebate cap, moderate 0.5%/35%,
    low 0.3%/30%. Thresholds are per-period return stdevs, finite and
    nonnegative.
    """

    sigma_low: float = 0.01
    sigma_high: float = 0.05
    low: RegimeParams = field(default_factory=lambda: RegimeParams(0.003, 0.30))
    moderate: RegimeParams = field(default_factory=lambda: RegimeParams(0.005, 0.35))
    high: RegimeParams = field(default_factory=lambda: RegimeParams(0.010, 0.40))

    def __post_init__(self):
        _check_fields(self)
        if self.sigma_low < 0 or self.sigma_high < 0:
            raise ValueError("sigma_low and sigma_high must be nonnegative")
        if not self.sigma_low < self.sigma_high:
            raise ValueError(
                f"sigma_low must be below sigma_high, got {self.sigma_low} >= {self.sigma_high}"
            )

    def params_for(self, regime: str) -> RegimeParams:
        if regime not in REGIMES:
            raise ValueError(f"unknown regime {regime!r}")
        return getattr(self, regime)


@dataclass(frozen=True)
class FeeSplit:
    total: float
    lp_share: float
    rebate_share: float
    protocol_share: float


@dataclass(frozen=True)
class RebateContext:
    current_volume: float
    target_volume: float

    def __post_init__(self):
        _check_fields(self)
        if self.current_volume < 0:
            raise ValueError(f"current_volume must be nonnegative, got {self.current_volume}")
        if self.target_volume <= 0:
            raise ValueError(f"target_volume must be positive, got {self.target_volume}")


def compute_fee(volume: float, gamma: float) -> float:
    """F = gamma * V."""
    volume = _nonnegative(volume, "volume", ValueError)
    gamma = gamma if type(gamma) is float else _real(gamma, "gamma", ValueError)
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    return gamma * volume


def classify_regime(sigma: float, schedule: FeeSchedule) -> str:
    """Map realized volatility to a regime tag. Both thresholds are inclusive
    on the moderate side."""
    sigma = _nonnegative(sigma, "volatility", ValueError)
    if sigma < schedule.sigma_low:
        return "low"
    if sigma > schedule.sigma_high:
        return "high"
    return "moderate"


def _rebate(volume, target: float, rho_max, out=None):
    """Kernel of dynamic_rebate: 0.4 + 0.1*(1 - volume/target) clamped to
    [REBATE_FLOOR, min(REBATE_CAP, rho_max)], elementwise over a volume
    array and a rho_max array that broadcasts with it, and written to out if
    given. A float volume gives a numpy float64, which scalar callers turn
    into a float. Assumes nonnegative volumes, a finite positive target and
    rho_max >= REBATE_FLOOR. A volume/target past the float range clamps to
    the floor, with numpy's overflow warning for an array: array callers
    run it under np.errstate(over="ignore")."""
    raw = 0.4 + 0.1 * (1.0 - volume / target)
    return np.minimum(np.maximum(raw, REBATE_FLOOR), np.minimum(REBATE_CAP, rho_max), out=out)


def dynamic_rebate(ctx: RebateContext, rho_max: float | None = None) -> float:
    """Volume-responsive rebate ratio 0.4 + 0.1*(1 - V/V_max), clamped.

    Without a regime cap the clamp is [0.3, 0.4]; with one, the upper bound is
    min(0.4, rho_max), and rho_max must lie in [0.3, 1).
    """
    if rho_max is None:
        rho_max = REBATE_CAP
    elif type(rho_max) is not float:
        rho_max = _real(rho_max, "rho_max", ValueError)
    if not REBATE_FLOOR <= rho_max < 1.0:
        raise ValueError(f"rho_max must be in [{REBATE_FLOOR}, 1), got {rho_max}")
    return float(_rebate(ctx.current_volume, ctx.target_volume, rho_max))


def _split(fee: float, rho: float) -> tuple[float, float, float]:
    """Kernel of split_fee: (lp, rebate, protocol) shares of a checked fee.
    The protocol share is the remainder fee - lp - rebate in floating point,
    so the parts sum to the fee only to within a few units in its last
    place: those of split_fee(0.142, 0.38) sum to 0.14199999999999996."""
    lp = LP_SHARE * fee
    rebate = rho * fee
    return lp, rebate, fee - lp - rebate


def split_fee(fee: float, rho: float) -> FeeSplit:
    """Three-way split: LP 0.3F, rebate rho*F, protocol the remainder."""
    fee = _nonnegative(fee, "fee", ValueError)
    rho = rho if type(rho) is float else _real(rho, "rebate ratio", ValueError)
    if not REBATE_FLOOR <= rho <= REBATE_CAP:
        raise ValueError(f"rebate ratio must be in [{REBATE_FLOOR}, {REBATE_CAP}], got {rho}")
    return FeeSplit(fee, *_split(fee, rho))


def _fold(start: float, values) -> float:
    """start + values[0] + values[1] + ..., added left to right as a loop of
    += would add them: np.add.accumulate is that sequential fold (np.sum is
    pairwise, and rounds differently, and the builtin sum compensates the
    rounding from Python 3.12), so a fold has the same bits on every Python.
    A sum past the float range is inf, without a warning: the caller bounds
    it."""
    terms = np.empty(len(values) + 1)
    terms[0] = start
    terms[1:] = values
    with np.errstate(over="ignore"):
        return float(np.add.accumulate(terms, out=terms)[-1])


class EpochLedger:
    """Per-trader volume accumulation for one reward epoch.

    Single-writer: record trades in order, or pass the epoch's trader ->
    volume dict as volumes (default {}), then settle once the epoch closes.
    A given dict is checked by record's rule, every volume finite and
    nonnegative and stored back as its float, in one pass, and then kept.
    Payouts follow first-trade order, which keeps settlement deterministic.
    """

    def __init__(self, epoch_id: int = 0, reward_pool: float = 0.0, volumes: dict | None = None):
        reward_pool = _nonnegative(reward_pool, "reward_pool", ValueError)
        if volumes is None:
            volumes = {}
        for trader, volume in volumes.items():
            volumes[trader] = _nonnegative(volume, f"trade volume of {trader!r}", ValueError)
        self.epoch_id = epoch_id
        self.reward_pool = reward_pool
        self.volumes: dict[str, float] = volumes

    def record(self, trader: str, volume: float):
        volume = _nonnegative(volume, "trade volume", ValueError)
        total = self.volumes.get(trader, 0.0) + volume
        if total > FLOAT_MAX:
            raise ValueError(f"trade volume {volume} overflows the epoch volume of {trader!r}, a float")
        self.volumes[trader] = total

    def add_reward(self, amount: float):
        amount = _nonnegative(amount, "reward amount", ValueError)
        pool = self.reward_pool + amount
        if pool > FLOAT_MAX:
            raise ValueError(f"reward amount {amount} overflows the reward pool {self.reward_pool}, a float")
        self.reward_pool = pool

    @property
    def total_volume(self) -> float:
        """The volumes added left to right (_fold), inf past the float range
        and without a warning; empty, the int 0."""
        if not self.volumes:
            return 0
        return _fold(0.0, list(self.volumes.values()))


def _settle(volumes: np.ndarray, reward_pool: float, epoch_id: int) -> np.ndarray:
    """Kernel of settle_epoch: the payouts of reward_pool pro-rata to a
    float64 array of checked volumes, in the same order, as a float64 array.

    Each payout is volume / total * reward_pool, total the left fold of the
    volumes, except the last: the pool minus the left fold of the others.
    A zero total pays nothing (an empty array). A total, or a fold of the
    payouts before the last, past the largest float is a ValueError naming
    the epoch.
    """
    total = _fold(0.0, volumes)
    if total > FLOAT_MAX:
        raise ValueError(f"epoch {epoch_id}: total volume {total} overflows a float")
    if total <= 0:
        return np.empty(0)
    payouts = volumes / total * reward_pool
    paid = _fold(0.0, payouts[:-1])
    if paid > FLOAT_MAX:
        raise ValueError(f"epoch {epoch_id}: payouts of the reward pool {reward_pool} overflow a float")
    payouts[-1] = reward_pool - paid
    return payouts


def settle_epoch(ledger: EpochLedger) -> list[tuple[str, float]]:
    """Pay reward_pool pro-rata to trader volume, as (trader, payout) pairs
    in first-trade order; the arithmetic is _settle's.

    The last payout is the pool minus the left-to-right sum of the others.
    That sum is rounded, so the payouts sum to the pool only to within
    rounding, and a last payout whose share is below that rounding can come
    out negative: EpochLedger(0, 0.0719, {"t0": 12.5, "t1": 1.89e13, "t2":
    2.9e-12}) pays t2 -1.3877787807814457e-17. A zero-volume ledger settles
    to [] and leaves reward_pool unpaid, for its caller to handle. A ledger
    whose total volume, or whose payouts before the last, sum past the
    largest float is a ValueError naming the epoch.
    """
    volumes = np.array(list(ledger.volumes.values()), dtype=float)
    payouts = _settle(volumes, ledger.reward_pool, ledger.epoch_id)
    return list(zip(ledger.volumes, payouts.tolist()))
