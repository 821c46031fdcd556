"""Domain types, validation, and reward calibration for epoch-based mining markets.

All quantities are plain doubles: hash power in hashes per time unit, fixed
costs in money per time unit, variable costs in money per hash, rewards in
money per epoch.  Hashes behave as a continuous fluid; nothing in the model
counts individual blocks.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import NamedTuple


class ConfigurationError(ValueError):
    """A scenario is structurally invalid; ``errors`` lists every problem found."""

    def __init__(self, *errors: str):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class StalledEpochError(RuntimeError):
    """An epoch with zero active hash power can never complete."""

    def __init__(self, epoch: int):
        super().__init__(f"epoch {epoch} stalled: no active hash power")
        self.epoch = epoch


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _finite(x) -> bool:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:   # an int beyond float range
        return False


def _workload_error(M: float, coin) -> str | None:
    """Why the first epoch workload M*tau or its baseline price w/(M*tau) is
    unusable, or None when both are finite and > 0.

    No later epoch's workload exceeds M*tau, so no later price falls below
    the baseline: a baseline price > 0 keeps every ratio of prices defined."""
    H = M * coin.tau
    if not 0 < H < math.inf:
        return f"M*tau = {M!r}*{coin.tau!r} underflows or overflows: the epoch workload must be > 0 and finite"
    price = coin.w / H
    if price == math.inf:
        return f"w/(M*tau) = {coin.w!r}/{H!r} overflows: the baseline price must be finite"
    if price == 0:
        return f"w/(M*tau) = {coin.w!r}/{H!r} underflows to 0: the baseline price must be > 0"
    return None


def _retarget(coin, H: float, A: float) -> float:
    """The workload that follows an epoch of workload ``H`` and total active
    power ``A``: A*tau, clamped to [H/clamp, H*clamp] when the coin has a
    clamp.  The one place the retarget rule is written: the engine steps by
    it, the closed forms check their cycle against it, and the entry effect
    prices post-entry epochs with it."""
    H_next = A * coin.tau
    if coin.clamp is not None:
        H_next = min(max(H_next, H / coin.clamp), H * coin.clamp)
    return H_next


# Input types subclass a plain NamedTuple and validate in __new__, which
# typing.NamedTuple refuses in its own class body; _make goes through the
# class, so that _replace validates too.
_validating_make = classmethod(lambda cls, fields: cls(*fields))


class MinerParams(NamedTuple("MinerParams", [("id", str), ("m", float), ("fc", float), ("vc", float)])):
    """One miner: hash power ``m`` plus a fixed cost rate ``fc`` (money per
    time unit, paid whether or not it mines) and a variable cost ``vc``
    (money per hash).

    A miner whose total cost rate is zero or overflows is rejected: the
    supply-demand reward calibration and all return-on-cost figures divide by
    the cost scale.
    """

    __slots__ = ()
    _make = _validating_make

    def __new__(cls, id: str, m: float, fc: float, vc: float):
        _require(isinstance(id, str) and id != "", "miner id must be a non-empty string")
        _require(_finite(m) and m > 0, f"hash power must be finite and > 0, got {m!r}")
        _require(_finite(fc) and fc >= 0, f"fixed cost must be finite and >= 0, got {fc!r}")
        _require(_finite(vc) and vc >= 0, f"variable cost must be finite and >= 0, got {vc!r}")
        _require(0 < (cost_rate := fc + vc * m) < math.inf,
                 f"miner '{id}' has total cost rate fc + vc*m = {cost_rate!r}; it must be finite and > 0")
        return super().__new__(cls, id, m, fc, vc)

    @property
    def cost_rate(self) -> float:
        """Total cost per time unit when mining at full power: fc + vc*m."""
        return self.fc + self.vc * self.m


class CoinParams(NamedTuple("CoinParams", [("tau", float), ("epsilon", float), ("w", float),
                                           ("clamp", float | None)])):
    """Coin-level constants: target epoch duration ``tau``, per-miner
    equilibrium margin ``epsilon``, total epoch reward ``w``, and an optional
    retarget clamp.

    ``clamp`` bounds the ratio between consecutive epoch workloads to
    [1/clamp, clamp]; ``None`` leaves the retarget unconstrained.
    """

    __slots__ = ()
    _make = _validating_make

    def __new__(cls, tau: float, epsilon: float, w: float, clamp: float | None = None):
        _require(_finite(tau) and tau > 0, f"tau must be finite and > 0, got {tau!r}")
        _require(_finite(epsilon) and epsilon >= 0, f"epsilon must be finite and >= 0, got {epsilon!r}")
        _require(_finite(w) and w > 0, f"epoch reward must be finite and > 0, got {w!r}")
        if clamp is not None:
            _require(_finite(clamp) and clamp > 1, f"clamp must be a finite ratio > 1, got {clamp!r}")
        return super().__new__(cls, tau, epsilon, w, clamp)


class StrategySchedule(NamedTuple("StrategySchedule", [("miner_id", str), ("powers", tuple[float, ...]),
                                                       ("offset", int)])):
    """Periodic per-epoch active-power sequence for one miner.

    Epoch ``k`` (1-based) uses ``powers[(offset + k - 1) % period]``.  Entries
    are checked against the owning miner's capacity in ``validate_scenario``,
    not here, because the schedule alone does not know the miner.
    """

    __slots__ = ()
    _make = _validating_make

    def __new__(cls, miner_id: str, powers, offset: int = 0):
        powers = tuple(powers)
        for p in powers:
            _require(_finite(p) and p >= 0, f"schedule powers must be finite and >= 0, got {p!r}")
        _require(isinstance(miner_id, str) and miner_id != "", "schedule miner_id must be a non-empty string")
        _require(len(powers) >= 1, "schedule needs at least one epoch entry")
        _require(isinstance(offset, int) and not isinstance(offset, bool) and offset >= 0,
                 f"offset must be an integer >= 0, got {offset!r}")
        return super().__new__(cls, miner_id, tuple(map(float, powers)), offset)

    @property
    def period(self) -> int:
        return len(self.powers)

    def power_at(self, k: int) -> float:
        """Active power in 1-based epoch ``k``."""
        return self.powers[(self.offset + k - 1) % len(self.powers)]


class MinerEpochStats(NamedTuple):
    """Realized per-miner rates within one epoch."""

    miner_id: str
    active_power: float
    revenue_rate: float
    cost_rate: float
    profit_rate: float


class EpochRecord(NamedTuple):
    """Realized state of one epoch: required hashes ``H``, duration ``t``,
    revenue per hash ``rph`` = w/H, per-miner rates, and the total active
    power ``total_active``, the ``ordered_sum`` of the per-miner active
    powers in config order."""

    k: int
    H: float
    t: float
    rph: float
    per_miner: tuple[MinerEpochStats, ...]
    total_active: float


class SimulationTrace(NamedTuple):
    """Epoch records over a finite horizon plus per-miner time-averaged
    profit rates (sum of profit*duration over sum of durations)."""

    records: tuple[EpochRecord, ...]
    utilities: dict[str, float]
    horizon: int


def ordered_sum(values):
    """Sum of ``values`` added left to right from 0, as ``sum()`` added floats
    before Python 3.12 made it compensated.  Every float sum of the model
    uses this one order, so outputs do not depend on the interpreter."""
    return reduce(add, values, 0)


def total_power(miners) -> float:
    """Aggregate hash capacity of a miner set."""
    return ordered_sum(p.m for p in miners)


def calibrate_reward(miners, tau: float, epsilon: float) -> float:
    """Epoch reward at which full participation pays each miner's costs plus
    one ``epsilon`` margin per time unit: w = tau * sum_i (fc_i + vc_i*m_i + epsilon).
    """
    if not miners:
        raise ConfigurationError("cannot calibrate a reward for an empty miner set")
    _require(_finite(tau) and tau > 0, f"tau must be finite and > 0, got {tau!r}")
    _require(_finite(epsilon) and epsilon >= 0, f"epsilon must be finite and >= 0, got {epsilon!r}")
    return tau * ordered_sum(p.cost_rate + epsilon for p in miners)


def validate_scenario(coin, miners, schedules=()) -> list[str]:
    """All structural violations in a scenario; an empty list means valid.

    Checks id uniqueness, schedule wiring, schedule powers against each
    miner's capacity, the first epoch workload M*tau and its price w/(M*tau).
    Field-level invariants are enforced at construction of the individual types.
    """
    errors: list[str] = []
    if not miners:
        errors.append("no miners defined")
    by_id: dict[str, MinerParams] = {}
    for p in miners:
        if p.id in by_id:
            errors.append(f"duplicate miner id '{p.id}'")
        else:
            by_id[p.id] = p
    scheduled: set[str] = set()
    for s in schedules:
        owner = by_id.get(s.miner_id)
        if owner is None:
            errors.append(f"schedule references unknown miner '{s.miner_id}'")
            continue
        if s.miner_id in scheduled:
            errors.append(f"multiple schedules for miner '{s.miner_id}'")
            continue
        scheduled.add(s.miner_id)
        for j, power in enumerate(s.powers):
            if power > owner.m:
                errors.append(
                    f"schedule power {power} exceeds capacity {owner.m} of miner '{s.miner_id}' (entry {j})")
    if coin is not None and miners and (error := _workload_error(total_power(miners), coin)):
        errors.append(error)
    return errors
