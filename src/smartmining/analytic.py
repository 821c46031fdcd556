"""Closed-form epoch economics for a single deviating miner.

A deviation cycle alternates two epochs.  In the reduced epoch the miner
idles ``delta`` of its capacity while revenue per hash sits at the baseline
r0 = w/(M*tau); the retarget then shrinks the next workload to
(M - delta)*tau, so the full-power epoch that follows pays M/(M - delta)
times the baseline per hash.  The utilities below average profit over that
cycle weighted by the epoch durations

    t_lre = M*tau/(M - delta),    t_hre = (M - delta)*tau/M.

Everything is invariant to absolute power and money scales: results depend
only on the power share x = m/M and the fixed-cost share y = fc/(vc*m + fc).

These closed forms hold only while the coin's clamp, if any, binds on
neither retarget of the cycle.  ``_require_unclamped_cycle`` owns that
domain: ``smart_utility``, ``epoch_table_smart`` and ``optimal_idle`` on a
single market refuse a binding clamp with a ``ConfigurationError``, while
``smarter_utility`` and arrays evaluate the unclamped cycle at any delta.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from .model import (CoinParams, ConfigurationError, MinerParams, _finite, _require, _retarget, _validating_make,
                    _workload_error)

# numpy loads inside the array functions (smarter_utility, sweep), so that the
# scalar closed forms and the CLI commands that build no array start without it
if TYPE_CHECKING:
    import numpy as np

MODE_SMART = "smart"
MODE_SMARTER = "smarter"


class AggregateContext(NamedTuple("AggregateContext", [("M", float), ("coin", CoinParams)])):
    """Market aggregate a single miner is analyzed against: total hash power
    ``M`` plus the coin constants."""

    __slots__ = ()
    _make = _validating_make

    def __new__(cls, M: float, coin: CoinParams):
        _require(_finite(M) and M > 0, f"total hash power must be finite and > 0, got {M}")
        if error := _workload_error(M, coin):
            raise ValueError(error)
        return super().__new__(cls, M, coin)


class SmarterPoint(NamedTuple):
    """A candidate idle power with its utility and return on cost."""

    delta: float
    utility: float
    roi: float


def smart_utility(ctx: AggregateContext, miner: MinerParams) -> float:
    """Long-run profit rate of alternating fully-idle and full-power epochs.

    With baseline revenue per hash r0 = w/(M*tau):

        u = [m*r0 - (vc*m + fc)*(M - m)/M - fc*M/(M - m)]
            / [(M - m)/M + M/(M - m)]

    The idle epoch burns fc per time unit for its long duration; the boosted
    epoch earns m*w/((M - m)*tau) against full costs.  This is
    ``_cycle_utility`` at delta = m, the kernel that ``smarter_utility``
    evaluates too, so the two agree bit for bit wherever the direct value is
    finite; the independent oracle for both is ``tests/_exact.py``.  A clamp
    that binds on this cycle raises ``ConfigurationError``
    (``_require_unclamped_cycle``), where ``smarter_utility`` does not check.

    A term of the numerator can leave float range although u does not, such
    as fc*M/(M - m) for a huge fc.  Where the direct value is not finite,
    ``_rescaled_fallback`` evaluates it once more on the market scaled by
    powers of two and scales it back.  A utility beyond float range stays the
    direct, non-finite value.
    """
    _require_unclamped_cycle(ctx, miner.m, miner.m)
    return _rescaled_fallback(lambda ctx, miner: (miner.m, _cycle_utility(ctx, miner, miner.m)), ctx, miner)[1]


def _require_unclamped_cycle(ctx, m, delta) -> None:
    """Raise unless the closed forms hold for a deviating power ``m`` that
    idles ``delta``: ValueError unless 0 < m < M, and ConfigurationError when
    the coin's clamp binds on either retarget of the cycle, the idle epoch's
    drop from M*tau to (M - delta)*tau or the full epoch's rise back.  The
    closed forms assume the unclamped retarget, so their numbers would be
    wrong there.  The clamp binds where ``model._retarget``, the rule the
    engine steps by, moves either workload from its unclamped value."""
    M, coin, c = ctx.M, ctx.coin, ctx.coin.clamp
    if not 0 < m < M:
        raise ValueError(f"deviating power must satisfy 0 < m < M, got m={m}, M={M}")
    full, reduced = M * coin.tau, (M - delta) * coin.tau
    if _retarget(coin, full, M - delta) != reduced or _retarget(coin, reduced, M) != full:
        raise ConfigurationError(
            f"clamp {c!r} binds at idle power {delta!r}, beyond the bind point M*(1 - 1/clamp) = "
            f"{M * (1 - 1 / c)!r}: the closed form assumes an unclamped retarget; use simulate instead")


def _rescaled_market(ctx, miner):
    """(a, b, ctx, miner): the market with power scaled by 2**a, tau by 2**c
    and money by 2**b, which puts M, tau and the cost rate into [0.5, 1).
    Raises OverflowError where a scaled field leaves float range."""
    a, c, b = (-math.frexp(x)[1] for x in (ctx.M, ctx.coin.tau, miner.cost_rate))
    m, fc, vc = math.ldexp(miner.m, a), math.ldexp(miner.fc, b), math.ldexp(miner.vc, b - a)
    coin = SimpleNamespace(w=math.ldexp(ctx.coin.w, b + c), tau=math.ldexp(ctx.coin.tau, c))
    scaled = SimpleNamespace(M=math.ldexp(ctx.M, a), coin=coin)
    return a, b, scaled, SimpleNamespace(m=m, fc=fc, vc=vc, cost_rate=fc + vc * m)


def _rescaled_fallback(solve, ctx, miner):
    """(delta, u) of ``solve(ctx, miner)`` for a single market, where
    ``solve`` returns (delta, u, any other values that must be finite).

    Where any of those values is not finite, ``solve`` runs once more on the
    market of ``_rescaled_market``, and delta scales back by 2**-a and u by
    2**-b: every utility scales exactly under such scalings.  Where a scaled
    field or the answer leaves float range, the direct answer stands.
    """
    direct = solve(ctx, miner)
    if not all(map(math.isfinite, direct)):
        try:
            a, b, ctx, miner = _rescaled_market(ctx, miner)
            delta, u, *_ = solve(ctx, miner)
            return math.ldexp(delta, -a), math.ldexp(u, -b)
        except OverflowError:   # a scaled field, or the answer, beyond float range
            pass
    return direct[:2]


def _cycle_utility(ctx, miner, delta):
    """Long-run profit rate of the two-epoch cycle that idles ``delta``: the
    one formula under ``smart_utility``, ``smarter_utility`` and
    ``optimal_idle``.  It uses plain operators only, so floats and numpy
    arrays alike broadcast through it without a numpy call; the callers
    check the ranges."""
    M, m = ctx.M, miner.m
    r0 = ctx.coin.w / (M * ctx.coin.tau)
    remaining = M - delta
    # each epoch's duration over tau, named after epoch_table_smart's keys
    t_hre = remaining / M
    t_lre = M / remaining
    mhat = m - delta
    num = m * r0 - miner.cost_rate * t_hre + (r0 * mhat - miner.vc * mhat - miner.fc) * t_lre
    den = t_hre + t_lre
    return num / den


def smarter_utility(ctx: AggregateContext, miner: MinerParams, delta):
    """Long-run profit rate when idling ``delta`` of the miner's capacity in
    the reduced epochs (full power in between).

    ``delta`` may be a float or a numpy array, and so may the market and
    miner parameters: they all broadcast elementwise, and every range check
    applies to each element.  delta = 0 is honest mining; delta = m is the
    full-idle alternation of ``smart_utility``.  Both evaluate the one kernel
    ``_cycle_utility``, so they agree bit for bit wherever ``smart_utility``
    needs no rescaled fallback; ``sweep`` evaluates its smart mode this way.
    It evaluates the unclamped cycle at any ``delta`` and ignores the coin's
    clamp, which ``smart_utility`` would refuse where it binds.
    """
    import numpy as np
    M, m = ctx.M, miner.m
    if np.any(m > M):
        raise ValueError(f"miner power {m} exceeds total power {M}")
    if np.any((delta < 0) | (delta > m) | (delta >= M)):
        raise ValueError(f"idle power must lie in [0, {m}] and strictly below M={M}")
    return _cycle_utility(ctx, miner, delta)


def dominance(x: float, y: float) -> bool:
    """Whether the full-idle alternation strictly beats honest mining at
    power share ``x`` and fixed-cost share ``y``: true iff x*(1 - x) > y."""
    if not 0 < x < 1:
        raise ValueError(f"power share must lie in (0, 1), got {x}")
    if not 0 <= y <= 1:
        raise ValueError(f"fixed-cost share must lie in [0, 1], got {y}")
    return x * (1 - x) > y


def min_power_for_profit(y: float) -> float:
    """Smallest power share that profits from the alternation at fixed-cost
    share ``y``: the lower root of x*(1 - x) = y.

    The returned share is an open boundary; shares strictly above it profit.
    Raises for y >= 1/4, where no power share suffices (the maximum of
    x*(1 - x) is 1/4).
    """
    if not (_finite(y) and y >= 0):
        raise ValueError(f"fixed-cost share must be finite and >= 0, got {y}")
    if y >= 0.25:
        raise ValueError("no power share suffices: x*(1 - x) never exceeds 1/4")
    return (1 - math.sqrt(1 - 4 * y)) / 2


def roi(utility: float, miner: MinerParams) -> float:
    """Utility as a fraction of the miner's full-power cost rate.

    This is u / (vc*m + fc), a net excess-profit rate on total cost, not
    revenue/cost - 1: an honest miner at margin 0 has roi 0.  Scale-free.
    """
    return utility / miner.cost_rate


def epoch_table_smart(ctx: AggregateContext, miner: MinerParams) -> dict[str, float]:
    """The eight per-epoch quantities of the full-idle alternation cycle.

    Keys ``h_lre, t_lre, rph_lre, p_lre`` describe the idle epoch (baseline
    revenue per hash, long duration, profit rate -fc) and
    ``h_hre, t_hre, rph_hre, p_hre`` the full-power epoch retargeted down to
    (M - m)*tau.  The revenue-per-hash ratio rph_hre/rph_lre is M/(M - m).
    A workload (M - m)*tau that underflows to 0 is a domain error: its price
    w/h_hre would divide by 0.  So is a field that leaves float range, such
    as rph_hre on a tiny M - m, and the ValueError names the first such key
    in the order above.  A clamp that binds on either retarget
    (``_require_unclamped_cycle``) raises ``ConfigurationError``.
    """
    M, m = ctx.M, miner.m
    _require_unclamped_cycle(ctx, m, m)
    w, tau = ctx.coin.w, ctx.coin.tau
    h_lre = M * tau
    h_hre = (M - m) * tau
    if h_hre == 0:
        raise ValueError(f"(M - m)*tau = {M - m!r}*{tau!r} underflows: the boosted epoch workload must be > 0")
    rph_hre = w / h_hre
    table = {
        "h_lre": h_lre,
        "t_lre": h_lre / (M - m),
        "rph_lre": w / h_lre,
        "p_lre": -miner.fc,
        "h_hre": h_hre,
        "t_hre": h_hre / M,
        "rph_hre": rph_hre,
        "p_hre": m * rph_hre - miner.cost_rate,
    }
    for key, value in table.items():
        if not math.isfinite(value):
            raise ValueError(f"epoch table: {key} = {value!r} is not finite: the full-idle cycle leaves float range")
    return table


def _canonical(x: float, y: float) -> tuple[AggregateContext, MinerParams]:
    """Unit-normalized deviator: M = 1, full-power cost rate 1, margin 0.

    The reward puts the market at the zero-margin balance point
    w*x/(M*tau) = cost rate, so sign and shape match any concrete market with
    the same (x, y).
    """
    miner = MinerParams("deviator", m=x, fc=y, vc=(1.0 - y) / x)
    coin = CoinParams(tau=1.0, epsilon=0.0, w=1.0 / x)
    return AggregateContext(M=1.0, coin=coin), miner


def sweep(xs, ys, mode: str) -> np.ndarray:
    """ROI matrix over power shares ``xs`` (columns) and fixed-cost shares
    ``ys`` (rows), row-major with y as the outer axis.

    Mode ``"smart"`` is ``smarter_utility`` at delta = m, the plain
    alternation; ``"smarter"`` tunes the idle power per cell first with
    ``optimal_idle``, so its entries dominate cellwise.  Each mode is one
    call on the whole grid, with the float operations of the scalar call
    on ``_canonical(x, y)`` in each cell.
    """
    import numpy as np
    if mode not in (MODE_SMART, MODE_SMARTER):
        raise ValueError(f"unknown sweep mode '{mode}'")
    xs = np.fromiter(map(float, xs), dtype=float)
    ys = np.fromiter(map(float, ys), dtype=float)
    if not xs.size or not ys.size:
        raise ValueError("sweep grid must be non-empty")
    bad = ~((0 < xs) & (xs < 1))
    if bad.any():
        raise ValueError(f"power shares must lie in (0, 1), got {float(xs[bad][0])}")
    bad = ~((0 <= ys) & (ys < 1))
    if bad.any():
        raise ValueError(f"fixed-cost shares must lie in [0, 1), got {float(ys[bad][0])}")
    with np.errstate(over="ignore"):
        w = 1.0 / xs
    bad = np.isinf(w)
    if bad.any():
        raise ValueError(f"power share {float(xs[bad][0])} is too small: the reward 1/x overflows")
    ctx = SimpleNamespace(M=1.0, coin=SimpleNamespace(w=w, tau=1.0))
    fc = ys[:, np.newaxis]
    vc = (1.0 - fc) / xs
    miner = SimpleNamespace(m=xs, fc=fc, vc=vc, cost_rate=fc + vc * xs)
    if mode == MODE_SMART:
        return roi(smarter_utility(ctx, miner, miner.m), miner)
    from .optimizer import optimal_idle  # deferred: optimizer imports this module
    return optimal_idle(ctx, miner).roi
