"""Deterministic epoch-by-epoch simulation of the difficulty retarget.

Epoch k requires H_k hashes; with total active power A_k it lasts
t_k = H_k / A_k, and the retarget sets H_{k+1} = (H_k / t_k) * tau, which is
exactly A_k * tau, clamped when the coin has a clamp: ``model._retarget``,
the one retarget rule of the package.  Every downstream quantity (revenue
per hash, per-miner rates) is a pure function of the epoch's state, H_k and
the active powers, so identical inputs reproduce bit-identical traces, and
an epoch's record is a function of its state apart from its index k.  A
miner's rates depend only on H and its own active power, so the simulation
keeps one rule: each (workload, miner, power bits) has one rates object, in
a run of any length.
"""

from __future__ import annotations

import math
from itertools import cycle, islice, repeat

from .model import (
    ConfigurationError,
    EpochRecord,
    MinerEpochStats,
    SimulationTrace,
    StalledEpochError,
    _require,
    _retarget,
    ordered_sum,
    total_power,
    validate_scenario,
)

# Largest period (epochs x miners) that steady_cycle simulates.  In the worst
# case no state repeats, every kept record holds rates of its own at about
# 170 B per miner-epoch, and the bound caps the records near 700 MB.
_MAX_CYCLE_MINER_EPOCHS = 2**22

# 2**53 times the smallest normal float: a time-weighted sum at least this
# large does not feel its terms that underflowed, each off by at most 2**-1075.
_SUM_FLOOR = 2.0**-969


def _rates(rph: float, miners, powers) -> list[MinerEpochStats]:
    """Each miner's rates at its active power, in order, at revenue per hash ``rph``."""
    # tuple.__new__ skips the Python frame of the namedtuple's generated __new__
    return [tuple.__new__(MinerEpochStats, (mid, mhat, (revenue := rph * mhat), (cost := fc + vc * mhat),
                                            revenue - cost))
            for (mid, _, fc, vc), mhat in zip(miners, powers)]


def step_epoch(k: int, H: float, active, coin, miners, *, state=None) -> tuple[EpochRecord, float]:
    """Advance one epoch and return (record, next workload).

    ``miners`` holds (id, m, fc, vc) records, such as ``MinerParams``, read
    by position; ``active`` maps miner id to this epoch's active power, and
    miners absent from the map mine at full capacity.  The next workload is
    ``model._retarget(coin, H, A)``: A*tau, clamped to [H/clamp, H*clamp]
    when the coin defines a clamp.

    One pass over ``miners`` reads and range-checks each active power, so an
    active power outside [0, m] raises ValueError naming the first such miner
    in config order.  Then an id in ``active`` that names no miner raises
    ValueError naming the first such id in the map's order, before the stall
    check.

    Raises StalledEpochError when no power is active: the epoch would never
    complete and the utility of the run is undefined.  Raises ValueError for
    k < 1, an active power outside [0, m], an unknown miner id in
    ``active``, a workload that is not > 0, a duration H/A that is not > 0
    (it can underflow to 0 after a tiny retarget) or overflows (on a tiny
    active power), or a revenue per hash w/H that overflows (after a retarget
    to a tiny H).

    Without ``state``, the epoch range-checks ``active`` and sums A, the
    ``ordered_sum`` of the active powers in config order, itself.  A given
    ``state`` is a pair (per_miner, A) that the caller built from checked
    powers: the per-miner rates this epoch's workload and active powers give,
    and their A.  The epoch then reads neither ``active`` nor the
    capacities, and the tuple becomes the record's ``per_miner`` as it is,
    the same object.  Either way the checks on k, H, A, the duration and the
    price run in the same order with the same messages, and the record
    carries A as its ``total_active``.
    """
    if k < 1:
        raise ValueError(f"epoch index must be >= 1, got {k}")
    if H <= 0:
        raise ValueError(f"epoch {k}: epoch workload must be > 0, got {H}")
    if state is None:
        rest = dict(active)   # the ids that name no miner are left over
        powers = [mhat if 0 <= (mhat := rest.pop(mid, m)) <= m
                  else _require(False, f"active power {mhat} outside [0, {m}] for miner '{mid}'")
                  for mid, m, _, _ in miners]
        if rest:
            raise ValueError(f"active power for unknown miner '{next(iter(rest))}'")
        A = ordered_sum(powers)
    else:
        per_miner, A = state
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
    if state is None:
        per_miner = tuple(_rates(rph, miners, powers))
    return tuple.__new__(EpochRecord, (k, H, t, rph, per_miner, A)), _retarget(coin, H, A)


def _check_scenario(coin, miners, schedules) -> None:
    errors = validate_scenario(coin, miners, schedules)
    if errors:
        raise ConfigurationError(*errors)


def _simulate(coin, miners, schedules, horizon: int):
    """Yield the records of epochs 1..horizon from the calibrated start H_1 = M*tau.

    Each schedule entry is named by ``float.hex`` of its power, so equal
    names are equal bits: -0.0 == 0.0, yet a -0.0 power has a name of its
    own and writes its own ``mhat`` and ``R``.  Every entry of one name is
    given one float object, ``power[name]``.  One iterator gives each epoch
    the names of its scheduled miners' entries, in schedule order, and
    epochs with the same names share one row (A, states): A is the
    ``ordered_sum`` of the full power row in config order, every other
    miner at capacity, and ``states`` maps a workload H to the state
    (per_miner, A) at H.  A has the bits of the floats ``step_epoch`` adds,
    in its order, and ``validate_scenario`` has checked every schedule power
    against its miner's capacity.  A step at a known workload gets its
    ``state``; one that takes ``step_epoch``'s full path gets the map of
    scheduled powers that the row's names give, built for that step.

    Every epoch makes one ``step_epoch`` call, in order.  Each (workload,
    miner, power bits) has one rates object, and each state, H and the entry
    names, one ``per_miner`` tuple.

    The first state at a workload H takes ``step_epoch``'s full path and its
    rates, and its ``per_miner`` tuple is kept by H, so an unseen H passes
    every check before its rates are built.  A later state at H starts from
    that tuple.  Both the full path and ``_rates`` store a miner's active
    power as the rates' ``active_power``, the same object, so a scheduled
    miner whose rates there do not hold ``power[name]`` itself runs another
    entry: it takes its rates from a memo by name and H, built on first
    use, and the tuple is copied only then.  A state in which no miner
    differs is the first state again.  Every row, state, rates object and
    first state is stored when it is built.  A state is found by its row and
    its workload, and the first state at H by H alone, so no state has a key
    of its own.
    """
    H = total_power(miners) * coin.tau
    # exact tuples unpack on the interpreter's specialized path, which namedtuple field reads miss
    miners = [tuple(p) for p in miners]
    column = {p[0]: i for i, p in enumerate(miners)}
    scheduled = [(column[s.miner_id], miners[column[s.miner_id]]) for s in schedules]   # (position, miner)
    power = {x.hex(): x for s in schedules for x in s.powers}
    # the entry names of epochs 1, 2, ...: StrategySchedule.power_at, inlined
    epoch_names = (zip(*(islice(cycle(map(float.hex, s.powers)), s.offset % s.period, None) for s in schedules))
                   if schedules else repeat(()))
    rows = {}       # entry names -> their row (A, {H: (per_miner, A)})
    firsts = {}     # H -> the per_miner tuple of the first state at workload H
    # per scheduled miner: entry name -> {H: its rates}; no (H, name) keys,
    # whose tuples, freed at the end, would keep arenas mapped
    memo = [{} for _ in schedules]
    for k, names in enumerate(islice(epoch_names, horizon), start=1):
        row = rows.get(names)
        if row is None:   # A adds the scheduled powers and every other capacity in config order
            active = {s.miner_id: power[name] for s, name in zip(schedules, names)}
            row = rows[names] = (ordered_sum(active.get(mid, m) for mid, m, _, _ in miners), {})
        A, states = row
        state = states.get(H)
        if state is None and (per_miner := firsts.get(H)) is not None:
            # a state at a known H: only scheduled miners can differ from its first state, and a
            # miner differs where its rates carry another entry's float; step_epoch's own rph, as
            # this H passed its checks in its first state
            rph, per = coin.w / H, None
            for (i, miner), by_name, name in zip(scheduled, memo, names):
                if per_miner[i].active_power is not power[name]:
                    per = per or list(per_miner)
                    by_H = by_name.setdefault(name, {})
                    per[i] = by_H[H] = by_H.get(H) or _rates(rph, (miner,), (power[name],))[0]
            # later epochs in this state then find it in one lookup
            state = states[H] = (per_miner if per is None else tuple(per), A)
        if state is None:   # the first state at H takes step_epoch's full path
            active = {s.miner_id: power[name] for s, name in zip(schedules, names)}
        record, H_next = step_epoch(k, H, active if state is None else None, coin, miners, state=state)
        if state is None:
            firsts[H] = record.per_miner
        H = H_next
        yield record


def trace_utilities(records) -> dict[str, float]:
    """Time-weighted average profit rate per miner over a sequence of records.

    Every record must list the same miners in the same order, as the records
    of one simulation do: the ids come from the first record, the rates add
    by position, and a record with a different miner count raises ValueError.

    The sums run in record order.  When the total time or a miner's sum
    overflows, or lies below 2**-969, where terms that underflowed may have
    cost it bits, ``_rescaled_utilities`` takes them again.
    """
    if not records:
        return {}
    acc, total_t = [0.0] * len(records[0].per_miner), 0.0
    for _k, _H, t, _rph, per_miner, _A in records:
        total_t += t
        acc = [a + s.profit_rate * t for a, s in zip(acc, per_miner, strict=True)]
    if not all(_SUM_FLOOR <= abs(x) < math.inf for x in (total_t, *acc)):
        return _rescaled_utilities(records)
    return {s.miner_id: a / total_t for s, a in zip(records[0].per_miner, acc)}


def _rescaled_utilities(records) -> dict[str, float]:
    """``trace_utilities`` with each sum in an exponent range of its own.

    A duration t = f*2**x, f in [0.5, 1), adds t*2**-K to the total time, and
    a rate p adds p*2**(x - E)*f to its miner's sum.  K bounds the exponent of
    every duration and E that of every nonzero p*t term of the miner, each
    raised by the bit length b of the record count, so every term is below
    2**-b and no sum overflows.  A power of two scales exactly: the averages
    get the bits they would have with an unbounded exponent range, apart from
    terms more than 2**1000 below the largest.  A rate that itself overflows
    still gives a non-finite utility.
    """
    b = len(records).bit_length()
    parts = [math.frexp(rec.t) for rec in records]
    K = max(x for _, x in parts) + b
    total_t = ordered_sum(math.ldexp(rec.t, -K) for rec in records)
    utilities = {}
    for i, s in enumerate(records[0].per_miner):
        rates = [rec.per_miner[i].profit_rate for rec in records]
        E = max((math.frexp(p)[1] + x for p, (_, x) in zip(rates, parts) if p), default=0) + b
        acc = ordered_sum(math.ldexp(p, x - E) * f for p, (f, x) in zip(rates, parts))
        h = (E - K) // 2   # 2**(E - K) in two factors, neither of which overflows
        utilities[s.miner_id] = acc / total_t * 2.0 ** h * 2.0 ** (E - K - h)
    return utilities


def run(coin, miners, schedules, horizon: int) -> SimulationTrace:
    """Simulate ``horizon`` epochs from the calibrated start H_1 = M*tau.

    Miners without a schedule mine at full power every epoch.  Utilities are
    the finite-horizon time-weighted profit averages; for periodic schedules
    they approach ``periodic_utility`` as the horizon grows.  Records of equal
    workload and active powers share one ``per_miner`` tuple, and records of
    equal workload one rates object per miner and power (see ``_simulate``).
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
    As in ``run``, every epoch in one state shares one ``per_miner`` tuple,
    and rates are built once per (workload, miner, power bits), all within
    epochs 1..p+1 (``_simulate``).

    Clamped coins are refused: the clamp can stretch transients arbitrarily,
    so finite-horizon ``run`` is the right tool there.  A common period p
    with p*N above 2**22 miner-epochs (N miners) is refused too: where no
    state repeats, its records alone would take gigabytes.
    """
    if coin.clamp is not None:
        raise ConfigurationError(
            "steady-state analysis requires an unclamped coin; use run(), or the simulate command, instead")
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
