"""Coin-security consequences of idle-power strategies.

During the reduced epochs of a deviation cycle less honest power defends the
chain, so a majority of the *active* power is cheaper than a majority of the
total.  This module quantifies that threshold, the windfall honest bystanders
collect from someone else's deviation, and the feedback loop where an entrant
chasing the boosted epochs depresses reduced-epoch revenue even further.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import periodic_utility, steady_cycle, trace_utilities
from .model import ConfigurationError, StrategySchedule, _finite, _workload_error, total_power


class AttackReport(NamedTuple):
    """Security posture of a periodic scenario at its weakest epoch."""

    lre_active_power: float
    idle_fraction: float
    attack_threshold: float
    per_miner_gain: dict[str, float]


class BystanderGain(NamedTuple):
    utility: float
    gain: float


class EntryEffect(NamedTuple):
    """Reduced-epoch economics before and after an entrant of power
    ``entrant_power`` joins only the high-revenue epochs (the reward is
    deliberately not recalibrated); ``rph_lre_ratio`` is after over before."""

    entrant_power: float
    rph_lre_before: float
    rph_lre_after: float
    rph_lre_ratio: float
    rph_hre_before: float
    rph_hre_after: float
    lre_active_before: float
    lre_active_after: float


def attack_threshold(M: float, idle_total: float) -> float:
    """Fraction of total power an attacker must exceed to out-mine the honest
    remainder while ``idle_total`` power sits out: (1 - idle_total/M) / 2.

    The value is an open boundary; strictly more than it suffices.  Zero idle
    power recovers the classical one-half majority.
    """
    if M <= 0:
        raise ValueError(f"total power must be > 0, got {M}")
    if not 0 <= idle_total < M:
        raise ValueError(f"idle power must lie in [0, M), got {idle_total}")
    return (1 - idle_total / M) / 2


def bystander_gain(coin, miners, attacker_schedule: StrategySchedule, honest_id: str) -> BystanderGain:
    """Utility of an always-on miner while another runs a deviation schedule,
    plus its gain over the equilibrium margin.

    The bystander loses nothing in reduced epochs and collects the boosted
    revenue per hash in full ones, so the gain is nonnegative and strictly
    positive whenever the deviator actually idles power.
    """
    if honest_id not in {p.id for p in miners}:
        raise ValueError(f"unknown miner '{honest_id}'")
    if honest_id == attacker_schedule.miner_id:
        raise ValueError("bystander must be distinct from the deviating miner")
    u = periodic_utility(coin, miners, [attacker_schedule])[honest_id]
    return BystanderGain(utility=u, gain=u - coin.epsilon)


def entry_effect(coin, miners, attacker_schedule: StrategySchedule, entrant_power: float) -> EntryEffect:
    """Reduced-epoch revenue per hash before and after ``entrant_power`` e
    joins only the high-revenue positions of the steady cycle.

    Unclamped, H_j = tau*A_{j-1} over the cycle's total active powers A (index
    -1 wraps to the last position).  The entrant makes A'_j = A_j + e wherever
    revenue per hash is maximal and A'_j = A_j elsewhere, so after entry
    rph'_j = w/(A'_{j-1}*tau): the simulation's own float operations, bit for
    bit.  Revenue per hash in the reduced epoch drops by A_hre/(A_hre + e)
    while its active power stays unchanged; the entrant's costs never enter.
    """
    if not (_finite(entrant_power) and entrant_power >= 0):
        raise ValueError(f"entrant power must be >= 0 and finite, got {entrant_power}")
    if error := _workload_error(total_power(miners) + entrant_power, coin):
        raise ConfigurationError(error)
    cycle = steady_cycle(coin, miners, [attacker_schedule])
    actives = [rec.total_active for rec in cycle]
    rphs = [rec.rph for rec in cycle]
    lre = actives.index(min(actives))
    hre = rphs.index(max(rphs))
    after = [a + entrant_power if r == rphs[hre] else a for a, r in zip(actives, rphs)]
    rph_lre_after = coin.w / (after[lre - 1] * coin.tau)
    return EntryEffect(
        entrant_power=entrant_power,
        rph_lre_before=rphs[lre],
        rph_lre_after=rph_lre_after,
        rph_lre_ratio=rph_lre_after / rphs[lre],
        rph_hre_before=rphs[hre],
        rph_hre_after=coin.w / (after[hre - 1] * coin.tau),
        lre_active_before=actives[lre],
        lre_active_after=after[lre],
    )


def security_report(coin, miners, schedules) -> AttackReport:
    """Aggregate security posture of a periodic scenario.

    Idle power is accounted at the minimum-activity epoch of the common
    period, the conservative bound when deviation periods are misaligned.
    Gains are each miner's steady-state utility over the margin epsilon.

    The threshold is (1 - idle_fraction) / 2 on the reported fraction, the
    float operations of ``attack_threshold``.  A weakest epoch whose active
    power is positive but below about M*2**-53 leaves M - A rounded to M: it
    reports an idle fraction of 1.0 and a threshold of 0.0.
    """
    cycle = steady_cycle(coin, miners, schedules)
    M = total_power(miners)
    lre_active = min(rec.total_active for rec in cycle)
    idle_fraction = (M - lre_active) / M
    gains = {mid: u - coin.epsilon for mid, u in trace_utilities(cycle).items()}
    return AttackReport(
        lre_active_power=lre_active,
        idle_fraction=idle_fraction,
        attack_threshold=(1 - idle_fraction) / 2,
        per_miner_gain=gains,
    )
