"""Deterministic epoch-by-epoch simulation of the difficulty retarget.

Epoch k requires H_k hashes; with total active power A_k it lasts
t_k = H_k / A_k, and the retarget sets H_{k+1} = (H_k / t_k) * tau, which is
exactly A_k * tau.  Every downstream quantity (revenue per hash, per-miner
rates) is a pure function of H_k and the active powers, so identical inputs
reproduce bit-identical traces.  The active powers depend on k only through
its phase k mod p (p the lcm of the schedule periods), so an epoch's record
is a function of (phase, H_k) apart from its index k.
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


def step_epoch(k: int, H: float, active, coin, miners, *, per_miner=None) -> tuple[EpochRecord, float]:
    """Advance one epoch and return (record, next workload).

    ``miners`` holds (id, m, fc, vc) records, such as ``MinerParams``, read
    by position; ``active`` maps miner id to this epoch's active power, and
    miners absent from the map mine at full capacity.  The next workload is
    A*tau, clamped to [H/clamp, H*clamp] when the coin defines a clamp.

    One pass over ``miners`` reads and range-checks each active power, so an
    active power outside [0, m] raises ValueError naming the first such miner
    in config order, before the stall check.

    Raises StalledEpochError when no power is active: the epoch would never
    complete and the utility of the run is undefined.  Raises ValueError for
    k < 1, an active power outside [0, m], a workload that is not > 0, a
    duration H/A that is not > 0 (it can underflow to 0 after a tiny
    retarget) or overflows (on a tiny active power), or a revenue per hash
    w/H that overflows (after a retarget to a tiny H).

    A given ``per_miner`` tuple becomes the record's ``per_miner`` as it is,
    the same object, in place of the rates this epoch would compute: every
    check above still runs in the same order, and (k, H, t, rph) and the next
    workload keep their bits.  ``_simulate`` passes the tuple of an earlier
    epoch of equal phase and workload, whose rates are the same.
    """
    if k < 1:
        raise ValueError(f"epoch index must be >= 1, got {k}")
    if H <= 0:
        raise ValueError(f"epoch {k}: epoch workload must be > 0, got {H}")
    powers = [mhat if 0 <= (mhat := active.get(mid, m)) <= m
              else _require(False, f"active power {mhat} outside [0, {m}] for miner '{mid}'")
              for mid, m, _, _ in miners]
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
    if per_miner is None:
        # tuple.__new__ skips the Python frame of the namedtuple's generated __new__
        per_miner = tuple([tuple.__new__(MinerEpochStats, (mid, mhat, (revenue := rph * mhat),
                                                           (cost := fc + vc * mhat), revenue - cost))
                           for (mid, _, fc, vc), mhat in zip(miners, powers)])
    H_next = A * coin.tau
    if coin.clamp is not None:
        H_next = min(max(H_next, H / coin.clamp), H * coin.clamp)
    return EpochRecord(k, H, t, rph, per_miner), H_next


def _check_scenario(coin, miners, schedules) -> None:
    errors = validate_scenario(coin, miners, schedules)
    if errors:
        raise ConfigurationError(*errors)


def _simulate(coin, miners, schedules, horizon: int):
    """Yield the records of epochs 1..horizon from the calibrated start H_1 = M*tau.

    The active map holds the scheduled miners only; ``step_epoch`` runs every
    other miner at full capacity.

    Every epoch is stepped, in order, with every check.  An epoch whose
    (phase, H) matches an earlier epoch gets that epoch's ``per_miner`` tuple,
    the same object, so records holding one ``per_miner`` object are equal
    apart from ``k``; a stored H passed the H > 0 check, so equal keys have
    equal bits.  Only epochs whose phase recurs within the horizon are stored.
    """
    H = total_power(miners) * coin.tau
    # exact tuples unpack on the interpreter's specialized path, which namedtuple field reads miss
    miners = [tuple(p) for p in miners]
    plan = [(s.miner_id, s.powers, s.offset - 1, s.period) for s in schedules]   # StrategySchedule.power_at, inlined
    p = math.lcm(*(n for *_, n in plan))
    shared = {}   # (k mod p, H) -> per_miner
    for k in range(1, horizon + 1):
        per = shared.get((k % p, H))
        record, H_next = step_epoch(k, H, {mid: ps[(shift + k) % n] for mid, ps, shift, n in plan}, coin, miners,
                                    per_miner=per)
        if per is None and k + p <= horizon:
            shared[k % p, H] = record.per_miner
        H = H_next
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
    they approach ``periodic_utility`` as the horizon grows.  Records of equal
    phase and workload share one ``per_miner`` tuple (see ``_simulate``).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _check_scenario(coin, miners, schedules)
    records = tuple(_simulate(coin, miners, schedules, horizon))
    return SimulationTrace(records, trace_utilities(records), horizon)


def steady_cycle(coin, miners, schedules) -> list[EpochRecord]:
    """One steady-state period of a periodic scenario: epochs 2p+1..3p of one
    ``_simulate`` stream of 3p epochs, p the common period (lcm of all
    schedule periods).  Epochs p+1..2p would do as well; the 3p epochs are
    what ``perfbench``'s reach gate counts.

    Unclamped, H_{k+1} = A_k * tau, and A_k is the ``ordered_sum`` of phase
    k mod p's active powers in config order, so every H_k past epoch 1 (the
    only transient, H_1 = M*tau) is a function of the phase alone.  Epochs
    p+1..2p and 2p+1..3p therefore agree on (H, t) bit for bit, and a stall
    or overflow raises in ``step_epoch`` before the last period is reached.
    As in ``run``, per-miner rates are computed in the first period and in
    epoch p+1; every later epoch shares them (``_simulate``).

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
    return list(islice(_simulate(coin, miners, schedules, 3 * p), 2 * p, None))


def periodic_utility(coin, miners, schedules) -> dict[str, float]:
    """Exact long-run utility of a periodic scenario, per miner.

    Equals the limit of ``run(...).utilities`` as the horizon grows, computed
    as the time-weighted profit average over one steady-state period.
    """
    return trace_utilities(steady_cycle(coin, miners, schedules))
