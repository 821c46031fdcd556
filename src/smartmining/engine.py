"""Deterministic epoch-by-epoch simulation of the difficulty retarget.

Epoch k requires H_k hashes; with total active power A_k it lasts
t_k = H_k / A_k, and the retarget sets H_{k+1} = (H_k / t_k) * tau, which is
exactly A_k * tau.  Every downstream quantity (revenue per hash, per-miner
rates) is a pure function of H_k and the active powers, so identical inputs
reproduce bit-identical traces.
"""

from __future__ import annotations

import math
from itertools import islice

from .model import (
    ConfigurationError,
    EpochRecord,
    MinerEpochStats,
    SimulationTrace,
    StalledEpochError,
    total_power,
    validate_scenario,
)

# Relative agreement required between consecutive periods before a steady
# cycle is trusted (on H and t).
_CYCLE_RTOL = 1e-12


def step_epoch(k: int, H: float, active, coin, miners) -> tuple[EpochRecord, float]:
    """Advance one epoch and return (record, next workload).

    ``active`` maps miner id to this epoch's active power; miners absent from
    the map mine at full capacity.  The next workload is A*tau, clamped to
    [H/clamp, H*clamp] when the coin defines a clamp.

    Raises StalledEpochError when no power is active: the epoch would never
    complete and the utility of the run is undefined.  Raises ValueError for
    k < 1, an active power outside [0, m], or a workload or a duration that
    is not > 0 (a duration can underflow to 0 after a tiny retarget).
    """
    if k < 1:
        raise ValueError(f"epoch index must be >= 1, got {k}")
    if H <= 0:
        raise ValueError(f"epoch workload must be > 0, got {H}")
    powers = [active.get(p.id, p.m) for p in miners]
    for p, mhat in zip(miners, powers):
        if not 0 <= mhat <= p.m:
            raise ValueError(f"active power {mhat} outside [0, {p.m}] for miner '{p.id}'")
    A = sum(powers)
    if A <= 0:
        raise StalledEpochError(k)
    t = H / A
    if t <= 0:
        raise ValueError(f"epoch duration must be > 0, got {t}")
    rph = coin.w / H
    per = tuple([MinerEpochStats(p.id, mhat, (revenue := rph * mhat), (cost := p.fc + p.vc * mhat),
                                 revenue - cost) for p, mhat in zip(miners, powers)])
    H_next = A * coin.tau
    if coin.clamp is not None:
        H_next = min(max(H_next, H / coin.clamp), H * coin.clamp)
    return EpochRecord(k, H, t, rph, per), H_next


def _check_scenario(coin, miners, schedules) -> None:
    errors = validate_scenario(coin, miners, schedules)
    if errors:
        raise ConfigurationError(*errors)


def _simulate(coin, miners, schedules, horizon: int):
    """Yield the records of epochs 1..horizon from the calibrated start H_1 = M*tau.

    The active map holds the scheduled miners only; ``step_epoch`` runs every
    other miner at full capacity.
    """
    H = total_power(miners) * coin.tau
    for k in range(1, horizon + 1):
        record, H = step_epoch(k, H, {s.miner_id: s.power_at(k) for s in schedules}, coin, miners)
        yield record


def trace_utilities(records) -> dict[str, float]:
    """Time-weighted average profit rate per miner over a record sequence."""
    acc: dict[str, float] = {}
    total_t = 0.0
    for rec in records:
        total_t += rec.t
        for s in rec.per_miner:
            acc[s.miner_id] = acc.get(s.miner_id, 0.0) + s.profit_rate * rec.t
    return {mid: v / total_t for mid, v in acc.items()}


def run(coin, miners, schedules, horizon: int) -> SimulationTrace:
    """Simulate ``horizon`` epochs from the calibrated start H_1 = M*tau.

    Miners without a schedule mine at full power every epoch.  Utilities are
    the finite-horizon time-weighted profit averages; for periodic schedules
    they approach ``periodic_utility`` as the horizon grows.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _check_scenario(coin, miners, schedules)
    records = tuple(_simulate(coin, miners, schedules, horizon))
    return SimulationTrace(records, trace_utilities(records), horizon)


def steady_cycle(coin, miners, schedules) -> list[EpochRecord]:
    """One steady-state period of a periodic scenario.

    Unclamped retargeting is exactly periodic after at most one period of
    warm-up, because H_{k+1} = A_k * tau depends on the schedule alone.  This
    simulates one warm-up period plus two more over the common period (lcm of
    all schedule periods), verifies the two post-warm-up periods agree on
    (H, t), and returns the final period's records.  Only that period's
    records are kept; of the period before it, only (k, H, t).

    Clamped coins are refused: the clamp can stretch transients arbitrarily,
    so finite-horizon ``run`` is the right tool there.
    """
    if coin.clamp is not None:
        raise ConfigurationError("steady-state analysis requires an unclamped coin; use run() instead")
    _check_scenario(coin, miners, schedules)
    p = math.lcm(*(s.period for s in schedules)) if schedules else 1
    epochs = _simulate(coin, miners, schedules, 3 * p)
    next(islice(epochs, p, p), None)   # consume the warm-up period
    second = [(rec.k, rec.H, rec.t) for rec in islice(epochs, p)]
    cycle = list(epochs)
    for (k, H, t), b in zip(second, cycle):
        if abs(H - b.H) > _CYCLE_RTOL * abs(b.H) or abs(t - b.t) > _CYCLE_RTOL * abs(b.t):
            raise RuntimeError(f"no steady state after one warm-up period (epoch {k} vs {b.k})")
    return cycle


def periodic_utility(coin, miners, schedules) -> dict[str, float]:
    """Exact long-run utility of a periodic scenario, per miner.

    Equals the limit of ``run(...).utilities`` as the horizon grows, computed
    as the time-weighted profit average over one steady-state period.
    """
    return trace_utilities(steady_cycle(coin, miners, schedules))
