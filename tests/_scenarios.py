"""Shared scenario builders for the test suite.

The builders construct markets in the balanced-margin state: every miner's
cost-plus-margin rate is proportional to its hash power, so at full
participation each miner earns exactly the margin epsilon.  This is the state
all deviation closed forms are derived against.  ``NO_REPEAT_CONFIG``,
``DISTINCT_POWERS_CONFIG`` and ``ALWAYS_ON_CONFIG`` are scenario config
documents, shared with CI steps such as the one that compares outputs
across Python versions, and ``SMART_CONFIG``,
``clamped`` and ``CLAMPED_BIG_CONFIG`` are the CLI's reference configs.
"""

import json
import math

from smartmining import (
    AggregateContext,
    CoinParams,
    MinerParams,
    StrategySchedule,
    calibrate_reward,
    total_power,
)


def proportional_scenario(x, y, epsilon=0.0, cost=1.0, tau=1.0, M=1.0, clamp=None):
    """Two-miner balanced market: a deviator with power share ``x``,
    fixed-cost share ``y`` and full-power cost rate ``cost``, plus one honest
    aggregate holding the remaining power at the proportional cost rate.

    Returns (coin, [deviator, rest]) with the reward calibrated so that
    w * m_i / (M * tau) = cost_rate_i + epsilon for both miners.
    """
    m = x * M
    deviator = MinerParams("deviator", m=m, fc=y * cost, vc=(1.0 - y) * cost / m)
    rest_rate = (cost + epsilon) * (M - m) / m - epsilon
    rest = MinerParams("rest", m=M - m, fc=0.0, vc=rest_rate / (M - m))
    miners = [deviator, rest]
    w = calibrate_reward(miners, tau, epsilon)
    return CoinParams(tau=tau, epsilon=epsilon, w=w, clamp=clamp), miners


def attack_trio(tau=600.0, epsilon=0.0):
    """100-power market: a 20-power deviator (fixed-cost share 0.15), a
    10-power bystander, and a 70-power honest remainder, all at cost rate
    0.01 per unit of power.  Calibrated reward is 600 * tau / 600 = tau."""
    attacker = MinerParams("attacker", m=20.0, fc=0.03, vc=0.0085)
    bystander = MinerParams("bystander", m=10.0, fc=0.02, vc=0.008)
    rest = MinerParams("rest", m=70.0, fc=0.0, vc=0.01)
    miners = [attacker, bystander, rest]
    w = calibrate_reward(miners, tau, epsilon)
    return CoinParams(tau=tau, epsilon=epsilon, w=w), miners


def scaled_market(coin, miners, schedules, a, b, c):
    """The scenario with hash powers and schedule powers scaled by 2**a, tau
    by 2**c, fc and epsilon by 2**b, vc by 2**(b - a) and the reward w by
    2**(b + c).  While every intermediate stays normal, H scales by
    2**(a + c), t by 2**c, rph by 2**(b - a), and rates, utilities and
    gains by 2**b, bit for bit; ratios of powers keep their bits."""
    coin = CoinParams(tau=math.ldexp(coin.tau, c), epsilon=math.ldexp(coin.epsilon, b),
                      w=math.ldexp(coin.w, b + c), clamp=coin.clamp)
    miners = [MinerParams(p.id, math.ldexp(p.m, a), math.ldexp(p.fc, b), math.ldexp(p.vc, b - a)) for p in miners]
    schedules = [StrategySchedule(s.miner_id, tuple(math.ldexp(x, a) for x in s.powers), s.offset)
                 for s in schedules]
    return coin, miners, schedules


def moderate_market(rng):
    """A calibrated market of 2 to 8 miners of moderate size, deviation
    schedules of periods 1 to 7 for 1 to all but one of them (miner m0 always
    mines at full power) and a margin epsilon."""
    miners = [MinerParams(f"m{j}", m=rng.uniform(0.5, 100.0), fc=rng.uniform(0.0, 1.0),
                          vc=rng.uniform(0.001, 0.1)) for j in range(rng.randint(2, 8))]
    tau, epsilon = rng.choice([1e-3, 1.0, 600.0]), rng.uniform(0.0, 0.01)
    coin = CoinParams(tau=tau, epsilon=epsilon, w=calibrate_reward(miners, tau, epsilon))
    schedules = [StrategySchedule(p.id, tuple(rng.choice([0.0, p.m / 2, p.m, rng.uniform(p.m / 64, p.m)])
                                              for _ in range(rng.randint(1, 7))), offset=rng.randint(0, 7))
                 for p in rng.sample(miners[1:], rng.randint(1, len(miners) - 1))]
    return coin, miners, schedules


def config_market(doc):
    """The coin and miners of a config document, with its numeric reward or,
    where it has none or "calibrated", the reward the CLI calibrates."""
    miners = [MinerParams(**p) for p in doc["miners"]]
    tau, epsilon = doc["coin"]["tau"], doc["coin"].get("epsilon", 0.0)
    w = doc.get("reward", "calibrated")
    if w == "calibrated":
        w = calibrate_reward(miners, tau, epsilon)
    return CoinParams(tau=tau, epsilon=epsilon, w=w, clamp=doc["coin"].get("clamp")), miners


def context_for(coin, miners) -> AggregateContext:
    return AggregateContext(M=total_power(miners), coin=coin)


def config_deviator(doc, miner_id):
    """(ctx, miner): the market of a config document and its miner
    ``miner_id``, as ``analyze`` and ``optimize`` build them."""
    coin, miners = config_market(doc)
    return context_for(coin, miners), next(p for p in miners if p.id == miner_id)


def alternation(miner, delta, offset=0) -> StrategySchedule:
    """Period-2 schedule: idle ``delta`` of capacity, then full power."""
    return StrategySchedule(miner.id, (miner.m - delta, miner.m), offset=offset)


SMART_CONFIG = {
    "coin": {"tau": 600.0, "epsilon": 0.0},
    "reward": "calibrated",
    "miners": [
        {"id": "attacker", "m": 20.0, "fc": 0.03, "vc": 0.0085},
        {"id": "rest", "m": 80.0, "fc": 0.0, "vc": 0.01},
    ],
    "schedules": [{"miner_id": "attacker", "powers": [0.0, 20.0]}],
}


def clamped(clamp):
    """A copy of SMART_CONFIG whose coin has the retarget clamp ``clamp``.
    Of M = 100 the attacker's full idle power is 20 and its tuned idle power
    13.27, and a clamp c binds beyond M*(1 - 1/c): 9.09 at c = 1.1, 16.67 at
    c = 1.2 and 23.08 at c = 1.3."""
    doc = json.loads(json.dumps(SMART_CONFIG))
    doc["coin"]["clamp"] = clamp
    return doc


# at clamp 1.2 a 4000-epoch simulate of big's [0, 40] pays it 0.02627, not the
# unclamped 0.05059 that analyze would print
CLAMPED_BIG_CONFIG = {
    "coin": {"tau": 600.0, "epsilon": 0.01, "clamp": 1.2},
    "miners": [{"id": "big", "m": 40.0, "fc": 0.05, "vc": 0.004}, {"id": "a", "m": 35.0, "fc": 0.0, "vc": 0.01},
               {"id": "b", "m": 25.0, "fc": 0.02, "vc": 0.008}],
}


# clamp 1.0001 against a 1e6-power miner that never mines: the workload falls
# by the clamp ratio in every epoch, so H, t, rph, revenues and profits never repeat
NO_REPEAT_CONFIG = {
    "coin": {"tau": 600.0, "epsilon": 0.0, "clamp": 1.0001},
    "reward": "calibrated",
    "miners": [{"id": f"m{i:02d}", "m": 2.0 + 3.5 * i, "fc": 0.01 * (i + 1), "vc": 0.001 * (i + 1)}
               for i in range(15)] + [{"id": "big", "m": 1e6, "fc": 0.1, "vc": 0.005}],
    "schedules": [{"miner_id": "big", "powers": [0.0]}],
}


# one of three miners on 5,000 distinct powers: in a run of up to 5,000
# epochs no two epochs run the same entry, so each has a row of its own
DISTINCT_POWERS_CONFIG = {
    "coin": {"tau": 600.0},
    "reward": "calibrated",
    "miners": [{"id": f"m{i}", "m": 10.0, "fc": 0.01, "vc": 0.001} for i in range(3)],
    "schedules": [{"miner_id": "m0", "powers": [1.0 + j / 1000 for j in range(5000)]}],
}


# twenty always-on miners around two scheduled ones (common period 15): m03's
# schedule holds its capacity 9.5 and m07's a -0.0, so states of one workload
# share each miner's rates at one power, and -0.0 writes its own cells
ALWAYS_ON_CONFIG = {
    "coin": {"tau": 600.0, "epsilon": 0.001},
    "reward": "calibrated",
    "miners": [{"id": f"m{i:02d}", "m": 5.0 + 1.5 * i, "fc": 0.01 * (1 + i % 4), "vc": 0.001 * (1 + i % 3)}
               for i in range(22)],
    "schedules": [{"miner_id": "m03", "powers": [0.0, 9.5, 4.0], "offset": 1},
                  {"miner_id": "m07", "powers": [-0.0, 8.0, 15.5, 15.5, 3.0]}],
}


# tau 1e305: 2000 epochs last 2e308 in all, beyond the largest float, while
# every time-weighted average fits; each miner earns the margin 0.5
HUGE_TAU_CONFIG = {
    "coin": {"tau": 1e305, "epsilon": 0.5},
    "reward": "calibrated",
    "miners": [{"id": mid, "m": 1.0, "fc": 1.0, "vc": 0.0} for mid in ("a", "b")],
}

# the market of HUGE_TAU_CONFIG with one 2000-epoch deviation: its steady
# cycle's total time overflows too, and its gains do not depend on tau
HUGE_TAU_SCHEDULE_CONFIG = dict(HUGE_TAU_CONFIG, schedules=[{"miner_id": "a", "powers": [0.5] + [1.0] * 1999}])

# a market whose utilities fit in float range although a term of the closed
# forms does not: miner a's fc*M/(M - m), about 8e311, overflows while its
# smart utility is about -fc = -1.03e300
OVERFLOWING_TERM_CONFIG = {
    "coin": {"tau": 7.156888780620487e-118},
    "reward": 4.019405486298865e-10,
    "miners": [{"id": "a", "m": 6.662538400338083e29, "fc": 1.0303975371532022e300, "vc": 0.0},
               {"id": "b", "m": 8.344874324054518e17, "fc": 7.999143634895547e20, "vc": 9903040876251708.0}],
}

# a finite baseline price, but the boosted epoch of miner "a" has (M - m)*tau = 1e-15,
# so its price w/h_hre = 1e295/1e-15 overflows
HUGE_BOOST_CONFIG = {
    "coin": {"tau": 1.0},
    "reward": 1e295,
    "miners": [{"id": "a", "m": 1.0, "fc": 0.1, "vc": 0.1}, {"id": "b", "m": 1e-15, "fc": 0.1, "vc": 0.1}],
}

# optimal_idle's best candidate for miner a is delta = m, utility -1e+293,
# yet its term fc*M/(M - m), about 4.5e308, overflows; the other two
# candidates are about -2e+293
OVERFLOWING_CANDIDATE_CONFIG = {
    "coin": {"tau": 1.0},
    "reward": 1.0000000000000002,
    "miners": [{"id": "a", "m": 1.0, "fc": 1e293, "vc": 1e293}, {"id": "b", "m": 2e-16, "fc": 1.0, "vc": 0.0}],
}

# profit rate 5e307 in every epoch of duration 1: four epochs' weighted sum
# is 2e308, beyond the largest float, while the average is 5e307
HUGE_REWARD_CONFIG = {
    "coin": {"tau": 1.0},
    "reward": 1e308,
    "miners": [{"id": mid, "m": 0.5, "fc": 1.0, "vc": 0.0} for mid in ("a", "b")],
}

# optimal_idle's hypot(b, q1) for miner a overflows to inf, which puts its
# stationary point at delta = 0, while every candidate's utility is finite:
# delta = m is best, at utility about -1.41e+307
OVERFLOWING_HYPOT_CONFIG = {
    "coin": {"tau": 8.823464748537748e+239},
    "reward": 3.2307119429131803e+143,
    "miners": [{"id": "a", "m": 2.1718247984889193e+29, "fc": 1.7213835289545816e-71, "vc": 1.7334829710876523e+278},
               {"id": "b", "m": 7.476699753124547e+29, "fc": 1.0, "vc": 1.0}],
}
