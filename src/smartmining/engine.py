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
    _require,
    ordered_sum,
    total_power,
    validate_scenario,
)

# Largest period (epochs x miners) that steady_cycle simulates: at about 170 B
# per kept miner-epoch record, the bound caps the records near 700 MB.
_MAX_CYCLE_MINER_EPOCHS = 2**22


def step_epoch(k: int, H: float, active, coin, miners, *, rates: bool = True) -> tuple[EpochRecord, float]:
    """Advance one epoch and return (record, next workload).

    ``active`` maps miner id to this epoch's active power; miners absent from
    the map mine at full capacity.  The next workload is A*tau, clamped to
    [H/clamp, H*clamp] when the coin defines a clamp.

    One pass over ``miners`` reads and range-checks each active power, so an
    active power outside [0, m] raises ValueError naming the first such miner
    in config order, before the stall check.

    Raises StalledEpochError when no power is active: the epoch would never
    complete and the utility of the run is undefined.  Raises ValueError for
    k < 1, an active power outside [0, m], a workload that is not > 0, a
    duration H/A that is not > 0 (it can underflow to 0 after a tiny
    retarget) or overflows (on a tiny active power), or a revenue per hash
    w/H that overflows (after a retarget to a tiny H).

    With ``rates=False`` the record's ``per_miner`` is empty: every check
    above still runs, and (k, H, t, rph) and the next workload keep their
    bits.  The knob exists for ``steady_cycle``, whose warm-up and check
    periods are read for (H, t) only while the benchmark's reach gate still
    counts its 3p calls; it goes with the three-period simulation (ROADMAP
    item 2).
    """
    if k < 1:
        raise ValueError(f"epoch index must be >= 1, got {k}")
    if H <= 0:
        raise ValueError(f"epoch {k}: epoch workload must be > 0, got {H}")
    powers = [mhat if 0 <= (mhat := active.get(p.id, p.m)) <= p.m
              else _require(False, f"active power {mhat} outside [0, {p.m}] for miner '{p.id}'") for p in miners]
    A = ordered_sum(powers)
    if A <= 0:
        raise StalledEpochError(k)
    t = H / A
    if t <= 0:
        raise ValueError(f"epoch {k}: epoch duration must be > 0, got {t}")
    if t == math.inf:
        raise ValueError(f"epoch {k}: duration H/A = {H!r}/{A!r} overflows: the active power is too small")
    rph = coin.w / H
    if rph == math.inf:
        raise ValueError(f"epoch {k}: revenue per hash w/H = {coin.w!r}/{H!r} overflows: the workload is too small")
    # tuple.__new__ skips the Python frame of the namedtuple's generated __new__
    per = tuple([tuple.__new__(MinerEpochStats, (p.id, mhat, (revenue := rph * mhat), (cost := p.fc + p.vc * mhat),
                                                 revenue - cost)) for p, mhat in zip(miners, powers)]) if rates else ()
    H_next = A * coin.tau
    if coin.clamp is not None:
        H_next = min(max(H_next, H / coin.clamp), H * coin.clamp)
    return EpochRecord(k, H, t, rph, per), H_next


def _check_scenario(coin, miners, schedules) -> None:
    errors = validate_scenario(coin, miners, schedules)
    if errors:
        raise ConfigurationError(*errors)


def _simulate(coin, miners, schedules, horizon: int, bare: int = 0):
    """Yield the records of epochs 1..horizon from the calibrated start H_1 = M*tau.

    The active map holds the scheduled miners only; ``step_epoch`` runs every
    other miner at full capacity.  Epochs 1..bare are stepped without
    per-miner rates.
    """
    H = total_power(miners) * coin.tau
    plan = [(s.miner_id, s.powers, s.offset - 1, s.period) for s in schedules]   # StrategySchedule.power_at, inlined
    for k in range(1, horizon + 1):
        record, H = step_epoch(k, H, {mid: ps[(shift + k) % n] for mid, ps, shift, n in plan}, coin, miners,
                               rates=k > bare)
        yield record


def trace_utilities(records) -> dict[str, float]:
    """Time-weighted average profit rate per miner over a sequence of records.

    Every record must list the same miners in the same order, as the records
    of one simulation do: the ids come from the first record, the rates add
    by position, and a record with a different miner count raises ValueError.
    """
    if not records:
        return {}
    acc, total_t = [0.0] * len(records[0].per_miner), 0.0
    for _k, _H, t, _rph, per_miner in records:
        total_t += t
        acc = [a + s.profit_rate * t for a, s in zip(acc, per_miner, strict=True)]
    return {s.miner_id: a / total_t for s, a in zip(records[0].per_miner, acc)}


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
    all schedule periods), verifies that the two post-warm-up periods agree
    on (H, t) bit for bit, and returns the final period's records.  The
    warm-up and check periods are stepped without per-miner rates, and of
    the check period only (k, H, t) is kept.

    Clamped coins are refused: the clamp can stretch transients arbitrarily,
    so finite-horizon ``run`` is the right tool there.  A common period p
    with p*N above 2**22 miner-epochs (N miners) is refused too: its records
    alone would take gigabytes.
    """
    if coin.clamp is not None:
        raise ConfigurationError("steady-state analysis requires an unclamped coin; use run() instead")
    _check_scenario(coin, miners, schedules)
    periods = [s.period for s in schedules]
    p = math.lcm(*periods)
    if p * len(miners) > _MAX_CYCLE_MINER_EPOCHS:
        raise ConfigurationError(
            f"steady cycle too long: the schedule periods {periods} have lcm {p}, and "
            f"{p} epochs x {len(miners)} miners exceeds {_MAX_CYCLE_MINER_EPOCHS} miner-epochs")
    epochs = _simulate(coin, miners, schedules, 3 * p, bare=2 * p)
    next(islice(epochs, p, p), None)   # consume the warm-up period
    second = [(rec.k, rec.H, rec.t) for rec in islice(epochs, p)]
    cycle = list(epochs)
    for (k, H, t), b in zip(second, cycle):
        if (H, t) != (b.H, b.t):
            raise RuntimeError(f"no steady state after one warm-up period (epoch {k} vs {b.k})")
    return cycle


def periodic_utility(coin, miners, schedules) -> dict[str, float]:
    """Exact long-run utility of a periodic scenario, per miner.

    Equals the limit of ``run(...).utilities`` as the horizon grows, computed
    as the time-weighted profit average over one steady-state period.
    """
    return trace_utilities(steady_cycle(coin, miners, schedules))
