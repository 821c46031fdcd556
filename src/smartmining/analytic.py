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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import CoinParams, MinerParams, _finite, _workload_error

MODE_SMART = "smart"
MODE_SMARTER = "smarter"


@dataclass(frozen=True)
class AggregateContext:
    """Market aggregate a single miner is analyzed against: total hash power
    ``M`` plus the coin constants."""

    M: float
    coin: CoinParams

    def __post_init__(self):
        if not (_finite(self.M) and self.M > 0):
            raise ValueError(f"total hash power must be finite and > 0, got {self.M}")
        if error := _workload_error(self.M, self.coin):
            raise ValueError(error)


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
    epoch earns m*w/((M - m)*tau) against full costs.
    """
    M, m = ctx.M, miner.m
    if not 0 < m < M:
        raise ValueError(f"deviating power must satisfy 0 < m < M, got m={m}, M={M}")
    r0 = ctx.coin.w / (M * ctx.coin.tau)
    remaining = M - m
    lre_weight = remaining / M
    hre_weight = M / remaining
    num = m * r0 - miner.cost_rate * lre_weight - miner.fc * hre_weight
    den = lre_weight + hre_weight
    return num / den


def smarter_utility(ctx: AggregateContext, miner: MinerParams, delta):
    """Long-run profit rate when idling ``delta`` of the miner's capacity in
    the reduced epochs (full power in between).

    ``delta`` may be a float or a numpy array, evaluated elementwise.
    delta = 0 is honest mining; delta = m reproduces ``smart_utility``
    exactly, operation for operation.
    """
    M, m = ctx.M, miner.m
    if m > M:
        raise ValueError(f"miner power {m} exceeds total power {M}")
    dmin, dmax = np.min(delta), np.max(delta)
    if dmin < 0 or dmax > m or dmax >= M:
        raise ValueError(f"idle power must lie in [0, {m}] and strictly below M={M}")
    r0 = ctx.coin.w / (M * ctx.coin.tau)
    remaining = M - delta
    lre_weight = remaining / M
    hre_weight = M / remaining
    mhat = m - delta
    num = m * r0 - miner.cost_rate * lre_weight + (r0 * mhat - miner.vc * mhat - miner.fc) * hre_weight
    den = lre_weight + hre_weight
    return num / den


def dominance(x: float, y: float) -> bool:
    """Whether the full-idle alternation strictly beats honest mining at
    power share ``x`` and fixed-cost share ``y``: true iff x*(1 - x) > y."""
    if not 0 < x < 1:
        raise ValueError(f"power share must lie in (0, 1), got {x}")
    if not 0 <= y < 1:
        raise ValueError(f"fixed-cost share must lie in [0, 1), got {y}")
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
    """
    M, m = ctx.M, miner.m
    if not 0 < m < M:
        raise ValueError(f"deviating power must satisfy 0 < m < M, got m={m}, M={M}")
    w, tau = ctx.coin.w, ctx.coin.tau
    h_lre = M * tau
    h_hre = (M - m) * tau
    rph_hre = w / h_hre
    return {
        "h_lre": h_lre,
        "t_lre": h_lre / (M - m),
        "rph_lre": w / h_lre,
        "p_lre": -miner.fc,
        "h_hre": h_hre,
        "t_hre": h_hre / M,
        "rph_hre": rph_hre,
        "p_hre": m * rph_hre - miner.cost_rate,
    }


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

    Mode ``"smart"`` evaluates the plain alternation; ``"smarter"``
    tunes the idle power per cell first, so its entries dominate cellwise.
    """
    if mode not in (MODE_SMART, MODE_SMARTER):
        raise ValueError(f"unknown sweep mode '{mode}'")
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if not xs or not ys:
        raise ValueError("sweep grid must be non-empty")
    for x in xs:
        if not 0 < x < 1:
            raise ValueError(f"power shares must lie in (0, 1), got {x}")
    for y in ys:
        if not 0 <= y < 1:
            raise ValueError(f"fixed-cost shares must lie in [0, 1), got {y}")
    if mode == MODE_SMARTER:
        from .optimizer import optimal_idle  # deferred: optimizer imports this module
    out = np.empty((len(ys), len(xs)), dtype=float)
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            ctx, miner = _canonical(x, y)
            if mode == MODE_SMART:
                out[i, j] = roi(smart_utility(ctx, miner), miner)
            else:
                out[i, j] = optimal_idle(ctx, miner).roi
    return out
