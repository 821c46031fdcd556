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
from .model import MinerParams, StrategySchedule, total_power

_ENTRANT_ID = "entrant"


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
    """Reduced-epoch economics before and after an entrant joins only the
    high-revenue epochs (the reward is deliberately not recalibrated)."""

    rph_lre_before: float
    rph_lre_after: float
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
    """Reduced-epoch revenue per hash before and after ``entrant_power``
    joins only the high-revenue cycle positions.

    The entrant takes the positions where revenue per hash is maximal.  Its
    power raises the workload retargeted onto the following reduced epoch, so
    revenue per hash there drops by a factor A_hre/(A_hre + entrant_power)
    while the reduced epoch's active power stays exactly unchanged.  Entrant
    cost structure never enters revenue-per-hash dynamics, so only the power
    is taken; its id is one that no miner uses.
    """
    if not entrant_power >= 0:
        raise ValueError(f"entrant power must be >= 0, got {entrant_power}")
    before = steady_cycle(coin, miners, [attacker_schedule])
    actives = [rec.total_active for rec in before]
    lre = actives.index(min(actives))
    rphs = [rec.rph for rec in before]
    hre = rphs.index(max(rphs))
    if entrant_power == 0:
        after = before
    else:
        entrant_id = _ENTRANT_ID
        while entrant_id in {p.id for p in miners}:
            entrant_id += "_"
        entrant = MinerParams(entrant_id, m=entrant_power, fc=0.0, vc=1.0)
        joined = StrategySchedule(entrant_id, tuple(entrant_power if r == rphs[hre] else 0.0 for r in rphs))
        after = steady_cycle(coin, list(miners) + [entrant], [attacker_schedule, joined])
    return EntryEffect(
        rph_lre_before=before[lre].rph,
        rph_lre_after=after[lre].rph,
        rph_hre_before=before[hre].rph,
        rph_hre_after=after[hre].rph,
        lre_active_before=actives[lre],
        lre_active_after=after[lre].total_active,
    )


def security_report(coin, miners, schedules) -> AttackReport:
    """Aggregate security posture of a periodic scenario.

    Idle power is accounted at the minimum-activity epoch of the common
    period, the conservative bound when deviation periods are misaligned.
    Gains are each miner's steady-state utility over the margin epsilon.
    """
    cycle = steady_cycle(coin, miners, schedules)
    M = total_power(miners)
    lre_active = min(rec.total_active for rec in cycle)
    idle_total = M - lre_active
    gains = {mid: u - coin.epsilon for mid, u in trace_utilities(cycle).items()}
    return AttackReport(
        lre_active_power=lre_active,
        idle_fraction=idle_total / M,
        attack_threshold=attack_threshold(M, idle_total),
        per_miner_gain=gains,
    )
