"""Idle-power tuning for the partial-idle alternation strategy."""

from __future__ import annotations

import math

from .analytic import AggregateContext, SmarterPoint, _require_unclamped_cycle, _rescaled_fallback, roi, smarter_utility
from .model import MinerParams

# numpy loads inside the functions, as in analytic: the package and the CLI
# import this module on every start, and only sweep and optimize need arrays

# brute-force evaluation block: it bounds a scan's memory per block, 1 MB per
# temporary array, at any resolution.  perfbench's heatmap oracle scans one
# block of 100,001 points, and its memory sets that workload's peak_rss_mb,
# so a smaller block would change that metric
_CHUNK = 131072


def optimal_idle(ctx: AggregateContext, miner: MinerParams) -> SmarterPoint:
    """Idle power maximizing the partial-idle utility over [0, m], in closed form.

    With rho = (M - delta)/M, r0 = w/(M*tau) and g = r0 - vc, the utility is a
    ratio of quadratics, u = (q2*rho^2 + q1*rho + q0)/(rho^2 + 1) with

        q2 = -(fc + vc*m),  q1 = m*r0 + M*g,  q0 = -(g*(M - m) + fc).

    Each coefficient is a money rate like u itself, so no intermediate
    exceeds M times a price: the market scale M cancels instead of entering
    cubed.  In u' = 0 the cubic terms cancel, leaving the stationarity
    quadratic q1*rho^2 - 2*(q2 - q0)*rho - q1 = 0, whose roots multiply to
    -1: for q1 != 0 exactly one root rho+ is positive (for q1 == 0 the only
    root is rho = 0, i.e. delta = M > m).  The maximum therefore lies among
    the three candidates 0, M*(1 - rho+) clipped into [0, m], and m, which
    are evaluated in this order by a single ``smarter_utility`` call.  Exact
    utility ties resolve to the smaller idle power, the lesser harm to coin
    security, so a clipped candidate yields its endpoint's bits; delta = m
    goes through ``analytic._cycle_utility``, the kernel of ``smart_utility``.

    Broadcasts: ``M``, ``w``, ``tau``, ``m``, ``fc`` and ``vc`` may be numpy
    arrays of one common broadcast shape (``sweep`` passes a whole grid), and
    the fields of the result then have that shape.  The candidates stack on
    a new leading axis of length 3, so each market gets the same float
    operations as a call on scalars, which returns plain floats.

    A term can leave float range although u does not, such as fc*M/(M - m)
    for a huge fc, and a candidate beyond float range would lose as -inf.
    For a single market where any candidate's utility is not finite, the
    candidates run once more on the market scaled by powers of two, through
    ``analytic._rescaled_fallback`` as in ``smart_utility``, and the answer
    scales back.  Where a scaled field or the answer leaves float range, the
    direct answer stands, and a utility beyond float range reaches the caller
    as a non-finite result, which the CLI reports.  Arrays of markets keep
    the direct answer.

    A single market whose coin's clamp binds on the cycle at the winning
    idle power raises ``ConfigurationError``, as ``smart_utility`` does at
    delta = m (``analytic._require_unclamped_cycle``).  The candidates are
    compared unclamped, so one beyond the bind point may lose to a winner
    that does not bind, which stands.  Arrays of markets, such as
    ``sweep``'s canonical ones, are not checked against a clamp.

    A sole miner (m = M) is rejected: delta = m would idle the whole network
    and stall the reduced epoch, so ``smarter_utility`` requires delta < M.
    """
    import numpy as np
    M, m = ctx.M, miner.m
    if not np.all((0 < m) & (m < M)):
        raise ValueError(f"deviating power must satisfy 0 < m < M, got m={m}, M={M}")
    if np.broadcast(M, m, ctx.coin.w, ctx.coin.tau, miner.fc, miner.vc).ndim:   # arrays of markets
        delta, utility, *_ = _best_candidate(ctx, miner)
    else:
        delta, utility = map(float, _rescaled_fallback(_best_candidate, ctx, miner))
        _require_unclamped_cycle(ctx, m, delta)
    return SmarterPoint(delta=delta, utility=utility, roi=roi(utility, miner))


def _best_candidate(ctx, miner):
    """``optimal_idle``'s direct answer (delta, u), the best of its three
    candidate idle powers, followed by the three candidates' utilities."""
    import numpy as np
    # math.hypot elementwise: np.hypot rounds differently in the last place
    hypot = np.frompyfunc(math.hypot, 2, 1)
    M, m = ctx.M, miner.m
    r0 = ctx.coin.w / (M * ctx.coin.tau)
    g = r0 - miner.vc
    q2 = -miner.cost_rate
    q1 = m * r0 + M * g
    q0 = -(g * (M - m) + miner.fc)
    b = q2 - q0
    # stable quadratic formula: never add terms of opposite sign; np.where
    # also evaluates the branch it discards.  A root at or beyond either end,
    # or +-inf, clips to that end, and the NaN of q1 == 0 (whose root delta =
    # M lies beyond m) to m, as fmin drops a NaN.  hypot(b, q1) beyond float
    # range reads inf, and a utility beyond it -inf, +inf or NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.copysign(np.asarray(hypot(b, q1), dtype=float), q1)
        rho_plus = np.where(b * q1 >= 0, (b + s) / q1, -q1 / (b - s))
        interior = np.fmax(np.fmin(M * (1 - rho_plus), m), 0.0)
        deltas = np.stack(np.broadcast_arrays(0.0, interior, m))
        us = smarter_utility(ctx, miner, deltas)
    best = np.argmax(us, axis=0)
    return np.choose(best, deltas), np.choose(best, us), *us


def brute_force_idle(ctx: AggregateContext, miner: MinerParams, resolution: int) -> SmarterPoint:
    """Exhaustive search over ``resolution + 1`` evenly spaced idle powers.

    Slow but assumption-free; the independent yardstick for ``optimal_idle``.
    The first index wins ties, which is again the smallest idle power.
    """
    import numpy as np
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    deltas = np.linspace(0.0, miner.m, int(resolution) + 1)
    best_u, best_d = -math.inf, 0.0
    # chunked scan; strict improvement keeps the first (smallest) maximizer
    for start in range(0, len(deltas), _CHUNK):
        block = deltas[start:start + _CHUNK]
        us = smarter_utility(ctx, miner, block)
        j = int(np.argmax(us))
        if us[j] > best_u:
            best_u, best_d = float(us[j]), float(block[j])
    return SmarterPoint(delta=best_d, utility=best_u, roi=roi(best_u, miner))
