"""Exact rational oracles for the steady cycle, the entry effect and the
one-deviator closed forms.

Every input float converts to a ``fractions.Fraction`` without rounding, and
the model's formulas run in exact arithmetic from there, so these oracles
share no float operation with the package.  They follow the model, not the
engine: on an unclamped coin, position j of the steady period (epochs
2p+1..3p) needs H_j = tau*A_{j-1} hashes, with A the total active power
and index -1 wrapping to the period's last position.  The closed forms
follow the two epochs of one deviation cycle, not the algebra of
``analytic``.
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


def idle_utility(ctx, miner, delta):
    """Long-run profit rate of idling ``delta`` (a Fraction) of the miner's
    power in every other epoch: the reduced epoch needs M*tau hashes from
    M - delta of active power at the baseline price, and the boosted epoch
    after it (M - delta)*tau hashes from M at the raised price."""
    M, m, tau, w = Fraction(ctx.M), Fraction(miner.m), Fraction(ctx.coin.tau), Fraction(ctx.coin.w)
    fc, vc = Fraction(miner.fc), Fraction(miner.vc)
    active = M - delta
    t_lre, t_hre = M * tau / active, active * tau / M
    p_lre = w / (M * tau) * (m - delta) - fc - vc * (m - delta)
    p_hre = w / (active * tau) * m - fc - vc * m
    return (p_lre * t_lre + p_hre * t_hre) / (t_lre + t_hre)


def idle_rate_scale(ctx, miner, delta):
    """The largest revenue or cost rate of the miner in either epoch of the
    cycle at idle power ``delta``: u adds rates that cancel, so its rounding
    error scales with them."""
    M, m, tau, w = Fraction(ctx.M), Fraction(miner.m), Fraction(ctx.coin.tau), Fraction(ctx.coin.w)
    fc, vc, delta = Fraction(miner.fc), Fraction(miner.vc), Fraction(delta)
    return max(w / (M * tau) * (m - delta), fc + vc * (m - delta), w / ((M - delta) * tau) * m, fc + vc * m)


def smart_utility(ctx, miner):
    """``idle_utility`` of the full-idle alternation, delta = m."""
    return idle_utility(ctx, miner, Fraction(miner.m))


def _sqrt(x, bits=300):
    """The square root of the Fraction ``x`` >= 0 to ``bits`` significant bits."""
    shift = max(0, 2 * bits - (x.numerator.bit_length() - x.denominator.bit_length()))
    shift += shift % 2
    return Fraction(math.isqrt((x.numerator << shift) // x.denominator), 1 << shift // 2)


def idle_candidates(ctx, miner):
    """``idle_utility`` at ``optimal_idle``'s three candidates, in its order:
    0, the stationary point of u in [0, m], clipped into [0, m], and m.

    With rho = (M - delta)/M, u is a ratio of quadratics whose stationarity
    condition q1*rho**2 - 2*b*rho - q1 = 0 has one positive root; its square
    root is taken to 300 bits, and where q1 = 0 the stationary point lies
    beyond m."""
    M, m = Fraction(ctx.M), Fraction(miner.m)
    fc, vc = Fraction(miner.fc), Fraction(miner.vc)
    r0 = Fraction(ctx.coin.w) / (M * Fraction(ctx.coin.tau))
    q1 = m * r0 + M * (r0 - vc)
    b = -(fc + vc * m) + (r0 - vc) * (M - m) + fc
    if q1 == 0:
        interior = m
    else:
        rho = (b + (1 if q1 > 0 else -1) * _sqrt(b * b + q1 * q1)) / q1
        interior = min(max(M * (1 - rho), Fraction(0)), m)
    return [idle_utility(ctx, miner, delta) for delta in (Fraction(0), interior, m)]
