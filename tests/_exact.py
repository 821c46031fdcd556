"""Exact rational oracles for the steady cycle and the entry effect.

Every input float converts to a ``fractions.Fraction`` without rounding, and
the model's formulas run in exact arithmetic from there, so these oracles
share no float operation with the package.  They follow the model, not the
engine: on an unclamped coin, position j of the steady period (epochs
2p+1..3p) needs H_j = tau*A_{j-1} hashes, with A the total active power
and index -1 wrapping to the period's last position.
"""

import math
from fractions import Fraction


def _cycle(coin, miners, schedules):
    """Per position of the steady period: each miner's active power, A and H."""
    by_id = {s.miner_id: s for s in schedules}
    p = math.lcm(*(s.period for s in schedules))
    rows = [[Fraction(s.powers[(s.offset + k - 1) % s.period]) if (s := by_id.get(miner.id)) else Fraction(miner.m)
             for miner in miners]
            for k in range(2 * p + 1, 3 * p + 1)]
    actives = [sum(row) for row in rows]
    tau = Fraction(coin.tau)
    return rows, actives, [tau * actives[j - 1] for j in range(p)]


def cycle_gains(coin, miners, schedules):
    """Each miner's steady-cycle utility over the margin epsilon, by id, and
    the largest revenue or cost rate of any miner in any epoch of the cycle:
    a profit rate R - C cancels, so its rounding error scales with R and C."""
    rows, actives, works = _cycle(coin, miners, schedules)
    w, epsilon = Fraction(coin.w), Fraction(coin.epsilon)
    times = [H / A for H, A in zip(works, actives)]
    gains, scale = {}, Fraction(0)
    for i, miner in enumerate(miners):
        fc, vc = Fraction(miner.fc), Fraction(miner.vc)
        revenues = [w / H * row[i] for H, row in zip(works, rows)]
        costs = [fc + vc * row[i] for row in rows]
        scale = max(scale, *revenues, *costs)
        gains[miner.id] = sum((R - C) * t for R, C, t in zip(revenues, costs, times)) / sum(times) - epsilon
    return gains, scale


def entry_rph_after(coin, miners, schedules, entrant_power):
    """Revenue per hash at the weakest and at the first maximal-revenue
    position after ``entrant_power`` joins every maximal-revenue position."""
    _, actives, works = _cycle(coin, miners, schedules)
    w, tau, e = Fraction(coin.w), Fraction(coin.tau), Fraction(entrant_power)
    rphs = [w / H for H in works]
    lre, hre = actives.index(min(actives)), rphs.index(max(rphs))
    after = [A + e if rph == rphs[hre] else A for A, rph in zip(actives, rphs)]
    return w / (tau * after[lre - 1]), w / (tau * after[hre - 1])
