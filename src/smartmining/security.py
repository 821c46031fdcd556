"""Coin-security consequences of idle-power strategies.

During the reduced epochs of a deviation cycle less honest power defends the
chain, so a majority of the *active* power is cheaper than a majority of the
total.  ``security_report`` reads one steady cycle of the scenario and
quantifies that threshold, the windfall every miner collects from the
others' deviations (a bystander's gain is its entry), and, given an entrant
power, the feedback loop where an entrant chasing the boosted epochs
depresses reduced-epoch revenue even further (its ``entry_effect``).
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import steady_cycle, trace_utilities
from .model import ConfigurationError, _finite, _retarget, _workload_error, total_power


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


class AttackReport(NamedTuple):
    """Security posture of a periodic scenario at its weakest epoch, and the
    entry effect when an entrant power was given."""

    lre_active_power: float
    idle_fraction: float
    attack_threshold: float
    per_miner_gain: dict[str, float]
    entry_effect: EntryEffect | None = None


def attack_threshold(M: float, idle_total: float) -> float:
    """Fraction of total power an attacker must exceed to out-mine the honest
    remainder while ``idle_total`` power sits out: (1 - idle_total/M) / 2.

    The value is an open boundary; strictly more than it suffices.  Zero idle
    power recovers the classical one-half majority, and all power idle leaves
    a threshold of 0.0.
    """
    if M <= 0:
        raise ValueError(f"total power must be > 0, got {M}")
    if not 0 <= idle_total <= M:
        raise ValueError(f"idle power must lie in [0, M], got {idle_total}")
    return (1 - idle_total / M) / 2


def security_report(coin, miners, schedules, entrant_power=None) -> AttackReport:
    """Aggregate security posture of a periodic scenario, read from one
    ``steady_cycle``.

    Idle power is accounted at the minimum-activity epoch of the common
    period, the conservative bound when deviation periods are misaligned.
    Gains are each miner's steady-state utility over the margin epsilon: a
    bystander's gain is its entry.  A weakest epoch whose active power is
    positive but below about M*2**-53 leaves M - A rounded to M: it reports
    an idle fraction of 1.0 and a threshold of 0.0.

    Given ``entrant_power`` e, ``entry_effect`` holds reduced-epoch revenue
    per hash before and after e joins only the cycle's high-revenue
    positions.  The workload H_j at position j is the retarget
    ``model._retarget`` from position j - 1 (index -1 wraps to the last
    position), unclamped tau*A_{j-1} over the cycle's total active powers A.
    The entrant makes A'_j = A_j + e wherever revenue per hash is maximal
    and A'_j = A_j elsewhere, so after entry rph'_j is w over that retarget
    from H_{j-1} at A'_{j-1}: the simulation's own rule and float
    operations, bit for bit.  Revenue per hash in the reduced epoch drops by
    A_hre/(A_hre + e) while its active power stays unchanged; the entrant's
    costs never enter.  Both checks of e run before the cycle is
    simulated.
    """
    M = total_power(miners)
    if entrant_power is not None:
        if not (_finite(entrant_power) and entrant_power >= 0):
            raise ValueError(f"entrant power must be >= 0 and finite, got {entrant_power}")
        if error := _workload_error(M + entrant_power, coin):
            raise ConfigurationError(f"entrant power {entrant_power!r}: with M = {M!r} + {entrant_power!r}, "
                                     f"the market power plus the entrant's, {error}")
    cycle = steady_cycle(coin, miners, schedules)
    actives = [rec.total_active for rec in cycle]
    lre_active = min(actives)
    gains = {mid: u - coin.epsilon for mid, u in trace_utilities(cycle).items()}
    effect = None
    if entrant_power is not None:
        rphs = [rec.rph for rec in cycle]
        lre = actives.index(lre_active)
        hre = rphs.index(max(rphs))
        after = [a + entrant_power if r == rphs[hre] else a for a, r in zip(actives, rphs)]
        rph_lre_after = coin.w / _retarget(coin, cycle[lre - 1].H, after[lre - 1])
        effect = EntryEffect(
            entrant_power=entrant_power,
            rph_lre_before=rphs[lre],
            rph_lre_after=rph_lre_after,
            rph_lre_ratio=rph_lre_after / rphs[lre],
            rph_hre_before=rphs[hre],
            rph_hre_after=coin.w / _retarget(coin, cycle[hre - 1].H, after[hre - 1]),
            lre_active_before=actives[lre],
            lre_active_after=after[lre],
        )
    return AttackReport(
        lre_active_power=lre_active,
        idle_fraction=(M - lre_active) / M,
        attack_threshold=attack_threshold(M, M - lre_active),
        per_miner_gain=gains,
        entry_effect=effect,
    )
