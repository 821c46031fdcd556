"""Domain types, validation, and reward calibration for epoch-based mining markets.

All quantities are plain doubles: hash power in hashes per time unit, fixed
costs in money per time unit, variable costs in money per hash, rewards in
money per epoch.  Hashes behave as a continuous fluid; nothing in the model
counts individual blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    unusable, or None when the workload is finite and > 0 and the price finite."""
    H = M * coin.tau
    if not 0 < H < math.inf:
        return f"M*tau = {M!r}*{coin.tau!r} underflows or overflows: the epoch workload must be > 0 and finite"
    if coin.w / H == math.inf:
        return f"w/(M*tau) = {coin.w!r}/{H!r} overflows: the baseline price must be finite"
    return None


@dataclass(frozen=True)
class MinerParams:
    """One miner: hash power ``m`` plus a fixed cost rate ``fc`` (money per
    time unit, paid whether or not it mines) and a variable cost ``vc``
    (money per hash).

    A miner whose total cost rate is zero or overflows is rejected: the
    supply-demand reward calibration and all return-on-cost figures divide by
    the cost scale.
    """

    id: str
    m: float
    fc: float
    vc: float

    def __post_init__(self):
        _require(isinstance(self.id, str) and self.id != "", "miner id must be a non-empty string")
        _require(_finite(self.m) and self.m > 0, f"hash power must be finite and > 0, got {self.m!r}")
        _require(_finite(self.fc) and self.fc >= 0, f"fixed cost must be finite and >= 0, got {self.fc!r}")
        _require(_finite(self.vc) and self.vc >= 0, f"variable cost must be finite and >= 0, got {self.vc!r}")
        _require(0 < self.cost_rate < math.inf,
                 f"miner '{self.id}' has total cost rate fc + vc*m = {self.cost_rate!r}; it must be finite and > 0")

    @property
    def cost_rate(self) -> float:
        """Total cost per time unit when mining at full power: fc + vc*m."""
        return self.fc + self.vc * self.m


@dataclass(frozen=True)
class CoinParams:
    """Coin-level constants: target epoch duration ``tau``, per-miner
    equilibrium margin ``epsilon``, total epoch reward ``w``, and an optional
    retarget clamp.

    ``clamp`` bounds the ratio between consecutive epoch workloads to
    [1/clamp, clamp]; ``None`` leaves the retarget unconstrained.
    """

    tau: float
    epsilon: float
    w: float
    clamp: float | None = None

    def __post_init__(self):
        _require(_finite(self.tau) and self.tau > 0, f"tau must be finite and > 0, got {self.tau!r}")
        _require(_finite(self.epsilon) and self.epsilon >= 0,
                 f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        _require(_finite(self.w) and self.w > 0, f"epoch reward must be finite and > 0, got {self.w!r}")
        if self.clamp is not None:
            _require(_finite(self.clamp) and self.clamp > 1,
                     f"clamp must be a finite ratio > 1, got {self.clamp!r}")


@dataclass(frozen=True)
class StrategySchedule:
    """Periodic per-epoch active-power sequence for one miner.

    Epoch ``k`` (1-based) uses ``powers[(offset + k - 1) % period]``.  Entries
    are checked against the owning miner's capacity in ``validate_scenario``,
    not here, because the schedule alone does not know the miner.
    """

    miner_id: str
    powers: tuple[float, ...]
    offset: int = 0

    def __post_init__(self):
        powers = tuple(self.powers)
        for p in powers:
            _require(_finite(p) and p >= 0, f"schedule powers must be finite and >= 0, got {p!r}")
        object.__setattr__(self, "powers", tuple(float(p) for p in powers))
        _require(isinstance(self.miner_id, str) and self.miner_id != "",
                 "schedule miner_id must be a non-empty string")
        _require(len(self.powers) >= 1, "schedule needs at least one epoch entry")
        _require(isinstance(self.offset, int) and not isinstance(self.offset, bool) and self.offset >= 0,
                 f"offset must be an integer >= 0, got {self.offset!r}")

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
    revenue per hash ``rph`` = w/H, and per-miner rates."""

    k: int
    H: float
    t: float
    rph: float
    per_miner: tuple[MinerEpochStats, ...]

    @property
    def total_active(self) -> float:
        """Total hash power active during this epoch."""
        return sum(s.active_power for s in self.per_miner)


class SimulationTrace(NamedTuple):
    """Epoch records over a finite horizon plus per-miner time-averaged
    profit rates (sum of profit*duration over sum of durations)."""

    records: tuple[EpochRecord, ...]
    utilities: dict[str, float]
    horizon: int


def total_power(miners) -> float:
    """Aggregate hash capacity of a miner set."""
    return sum(p.m for p in miners)


def calibrate_reward(miners, tau: float, epsilon: float) -> float:
    """Epoch reward at which full participation pays each miner's costs plus
    one ``epsilon`` margin per time unit: w = tau * sum_i (fc_i + vc_i*m_i + epsilon).
    """
    if not miners:
        raise ConfigurationError("cannot calibrate a reward for an empty miner set")
    _require(_finite(tau) and tau > 0, f"tau must be finite and > 0, got {tau!r}")
    _require(_finite(epsilon) and epsilon >= 0, f"epsilon must be finite and >= 0, got {epsilon!r}")
    return tau * sum(p.cost_rate + epsilon for p in miners)


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
