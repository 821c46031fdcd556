import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _exact import idle_candidates, idle_rate_scale, idle_utility
from _exact import smart_utility as exact_smart_utility
from _scenarios import (
    CLAMPED_BIG_CONFIG,
    OVERFLOWING_CANDIDATE_CONFIG,
    SMART_CONFIG,
    alternation,
    clamped,
    config_deviator,
    config_market,
    context_for,
    moderate_market,
    proportional_scenario,
    scaled_market,
)
from smartmining import (
    AggregateContext,
    CoinParams,
    ConfigurationError,
    MinerParams,
    StrategySchedule,
    brute_force_idle,
    optimal_idle,
    periodic_utility,
    roi,
    smart_utility,
    smarter_utility,
)
from smartmining.analytic import _canonical


@st.composite
def concrete_markets(draw):
    """A deviator in an arbitrary concrete market, not only the unit-normalized
    zero-margin one: variable costs reach 10x the baseline revenue per hash,
    so the stationarity quadratic's linear coefficient q1 takes both signs."""
    M = draw(st.floats(1e-2, 1e4))
    m = draw(st.floats(1e-3, 0.999)) * M
    tau = draw(st.floats(1e-2, 1e3))
    w = draw(st.floats(1e-2, 1e3))
    r0 = w / (M * tau)
    vc = draw(st.floats(0.0, 10.0)) * r0
    fc = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))) * m * r0
    assume(fc + vc * m > 0)
    return AggregateContext(M=M, coin=CoinParams(tau=tau, epsilon=0.0, w=w)), MinerParams("d", m, fc, vc)


def _magnitude(low, high):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


@st.composite
def extreme_markets(draw):
    """A deviator in a market at any float scale: M from 1e-300 to 1e300,
    tau, fc and vc from 1e-300 to 1e300 (within the workload M*tau and the
    cost rate vc*m that the model accepts), and a reward within a factor 1e3
    of tau times the deviator's cost rate, which keeps every utility inside
    float range.  Markets the model rejects, such as one whose baseline price
    overflows, are skipped."""
    exponent = draw(st.floats(-300, 300))
    M = 10.0 ** exponent
    tau = draw(_magnitude(max(-300, -300 - exponent), min(300, 300 - exponent)))
    fc = draw(st.just(0.0) | _magnitude(-300, 300))
    vc = draw(st.just(0.0) | _magnitude(-300, min(300, 300 - exponent)))
    x = draw(st.floats(1e-3, 0.999))
    k = draw(_magnitude(-3, 3))
    try:
        miner = MinerParams("d", x * M, fc, vc)
        ctx = AggregateContext(M=M, coin=CoinParams(tau=tau, epsilon=0.0, w=tau * miner.cost_rate * k))
    except ValueError:
        assume(False)
    return ctx, miner


def _seeded_extreme_markets(n, seed=2019):
    """``n`` markets from the ranges of ``extreme_markets``, drawn by a seeded
    generator.  Magnitudes are powers of two times [1, 2), from 2**-996 to
    2**996 (about 1e-300 to 1e300), built by ``math.ldexp``, which is exact,
    so every platform draws the same floats.  Every other market draws its
    costs against the baseline price r0, as ``concrete_markets`` does, so
    that the stationary point falls inside (0, m) and beyond m as well as
    below 0, where independent magnitudes nearly always put it.  Markets the
    model rejects, or whose cost rate overflows, are redrawn."""
    rng = random.Random(seed)

    def magnitude(low, high):
        return math.ldexp(rng.uniform(1.0, 2.0), rng.randint(low, high))

    markets = []
    while len(markets) < n:
        exponent = rng.randint(-996, 996)
        M = math.ldexp(rng.uniform(1.0, 2.0), exponent)
        tau = magnitude(max(-996, -996 - exponent), min(996, 996 - exponent))
        x = rng.uniform(1e-3, 0.999)
        if rng.random() < 0.5:
            fc = 0.0 if rng.random() < 0.25 else magnitude(-996, 996)
            vc = 0.0 if rng.random() < 0.25 else magnitude(-996, min(996, 996 - exponent))
            w = None
        else:
            r0 = magnitude(-996, 996)
            vc = rng.uniform(0.0, 10.0) * r0
            fc = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 2.0) * x * M * r0
            w = r0 * M * tau
        try:
            miner = MinerParams("d", x * M, fc, vc)
            w = tau * miner.cost_rate * magnitude(-10, 9) if w is None else w
            ctx = AggregateContext(M=M, coin=CoinParams(tau=tau, epsilon=0.0, w=w))
        except ValueError:
            continue
        if math.isfinite(miner.cost_rate):
            markets.append((ctx, miner))
    return markets


# sha256 over float.hex of each (delta, utility, roi) of optimal_idle on
# _seeded_extreme_markets(2000), as the form that masked its interior
# candidate to (0, m) computed them
SEEDED_MARKETS_SHA256 = "0093d97e05141d41c7c99ec86667ed0cf27bef96a68e3b0512e65c9088f2c55a"

# (M, tau, w, m, fc, vc) of markets whose stationary point delta = M*(1 - rho+)
# lies at or beyond an end of [0, m], where that end is the optimum
AT_OR_BELOW_ZERO = {
    # q2 == q0 = -0.75 and q1 = 2 make rho+ = 2/2 exactly 1: delta = 0.0
    "at-zero": (1.0, 1.0, 2.0, 0.5, 0.25, 1.0),
    # vc = 0: q2 - q0 = 1 and q1 = 3 put rho+ at 1.387
    "below-zero": (1.0, 1.0, 2.0, 0.5, 0.25, 0.0),
    # a market of two smallest subnormals: rho+ = 8/7, and M*(1 - rho+)
    # underflows to -0.0, which the clip keeps
    "negative-zero": (1e-323, 1e300, 3.0 * 1e-323 * 1e300, 5e-324, 0.0, 1.0),
}
AT_OR_ABOVE_M = {
    # q2 - q0 = -6 and q1 = 8 make rho+ = -8/(-6 - 10) exactly 1/2: delta = m
    "at-m": (1.0, 1.0, 14.0, 0.5, 0.25, 13.0),
    # q2 - q0 = -6.5 and q1 = 7.5 put rho+ at 0.457 < 1 - m/M
    "beyond-m": (1.0, 1.0, 14.0, 0.5, 0.25, 13.5),
}


def _market(M, tau, w, m, fc, vc):
    return AggregateContext(M=M, coin=CoinParams(tau=tau, epsilon=0.0, w=w)), MinerParams("d", m, fc, vc)


class TestOptimalIdle:
    def test_no_fixed_costs_full_idle_wins(self):
        # without fixed costs the reduced epoch loses nothing, so idling
        # everything maximizes the boost (for shares below ~0.59)
        for x in (0.1, 0.3, 0.5):
            ctx, miner = _canonical(x, 0.0)
            point = optimal_idle(ctx, miner)
            oracle = brute_force_idle(ctx, miner, 10_000)
            assert point.delta == miner.m
            assert oracle.delta == miner.m

    def test_dominated_region_stays_honest(self):
        ctx, miner = _canonical(0.2, 0.9)
        point = optimal_idle(ctx, miner)
        assert point.delta == 0.0
        assert abs(point.utility) <= 1e-12
        assert brute_force_idle(ctx, miner, 10_000).delta == 0.0

    def test_beats_plain_alternation_at_interior_optimum(self):
        ctx, miner = _canonical(0.2, 0.15)
        point = optimal_idle(ctx, miner)
        u_smart = smart_utility(ctx, miner)
        assert point.utility >= u_smart - 1e-15
        assert 0.0 < point.delta < miner.m
        assert point.utility > u_smart

    def test_at_least_endpoint_utilities(self):
        for x in (0.05, 0.25, 0.6):
            for y in (0.0, 0.1, 0.4, 0.8):
                ctx, miner = _canonical(x, y)
                point = optimal_idle(ctx, miner)
                floor = max(0.0, smart_utility(ctx, miner))
                assert point.utility >= floor - 1e-10 * miner.cost_rate

    def test_roi_field_consistent(self):
        ctx, miner = _canonical(0.3, 0.05)
        point = optimal_idle(ctx, miner)
        assert point.roi == point.utility / miner.cost_rate

    def test_idle_share_is_scale_free(self):
        ctx, miner = _canonical(0.2, 0.15)
        base = optimal_idle(ctx, miner).delta / miner.m
        big_ctx = AggregateContext(M=100.0, coin=CoinParams(tau=600.0, epsilon=0.0, w=600.0))
        big_miner = MinerParams("a", 20.0, 0.03, 0.0085)
        scaled = optimal_idle(big_ctx, big_miner).delta / big_miner.m
        # the argmax is only defined to the tuner's idle tolerance of 1e-6*m
        assert scaled == pytest.approx(base, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(concrete_markets())
    def test_closed_form_is_never_beaten(self, market):
        ctx, miner = market
        point = optimal_idle(ctx, miner)
        assert 0.0 <= point.delta <= miner.m
        # both endpoints are candidates, evaluated exactly as the references
        assert point.utility >= smarter_utility(ctx, miner, 0.0)
        assert point.utility >= smart_utility(ctx, miner)
        oracle = brute_force_idle(ctx, miner, 20_000)
        assert point.utility >= oracle.utility - 1e-12 * miner.cost_rate

    @settings(max_examples=200, deadline=None)
    @given(extreme_markets())
    def test_closed_form_holds_at_any_market_scale(self, market):
        # the stationarity quadratic is solved in units of M, so no
        # intermediate overflows where the market itself is representable;
        # a numpy overflow or invalid operation fails the run
        ctx, miner = market
        point = optimal_idle(ctx, miner)
        assert 0.0 <= point.delta <= miner.m
        oracle = brute_force_idle(ctx, miner, 20_000)
        assert point.utility >= oracle.utility - 1e-9 * miner.cost_rate

    def test_large_market_keeps_its_interior_optimum(self):
        # M^3 = 1e600 is beyond float range; the optimum is interior at roi
        # -0.3872, where honest mining gives -0.4
        M, tau = 1e200, 1e-300
        miner = MinerParams("d", 0.6 * M, 1e300, 1e100)
        ctx = AggregateContext(M=M, coin=CoinParams(tau=tau, epsilon=0.0, w=tau * miner.cost_rate))
        point = optimal_idle(ctx, miner)
        oracle = brute_force_idle(ctx, miner, 20_000)
        assert 0.0 < point.delta < miner.m
        assert point.utility >= oracle.utility - 1e-12 * miner.cost_rate
        assert point.roi == pytest.approx(-0.3871875976, abs=1e-9)

    def test_degenerate_stationarity_quadratic(self):
        # r0 = 1 and g = r0 - vc = -0.5 make q1 = m*r0 + M*g exactly 0, so
        # rho+ = 0/0 is NaN and the interior candidate clips to m
        ctx = AggregateContext(M=2.0, coin=CoinParams(tau=1.0, epsilon=0.0, w=2.0))
        miner = MinerParams("d", m=1.0, fc=0.1, vc=1.5)
        point = optimal_idle(ctx, miner)
        assert [v.hex() for v in point] == ["0x1.0000000000000p+0", "-0x1.999999999999ap-56", "-0x1.0000000000000p-56"]
        assert point.utility >= brute_force_idle(ctx, miner, 20_000).utility

    @pytest.mark.parametrize("name", list(AT_OR_BELOW_ZERO))
    def test_stationary_point_at_or_below_zero_gives_positive_zero(self, name):
        ctx, miner = _market(*AT_OR_BELOW_ZERO[name])
        point = optimal_idle(ctx, miner)
        assert point.delta == 0.0 and math.copysign(1.0, point.delta) == 1.0
        assert point.utility.hex() == smarter_utility(ctx, miner, 0.0).hex()
        assert brute_force_idle(ctx, miner, 1000).delta == 0.0

    @pytest.mark.parametrize("name", list(AT_OR_ABOVE_M))
    def test_stationary_point_at_or_above_m_gives_m(self, name):
        ctx, miner = _market(*AT_OR_ABOVE_M[name])
        point = optimal_idle(ctx, miner)
        assert point.delta == miner.m
        assert point.utility.hex() == smart_utility(ctx, miner).hex()
        assert brute_force_idle(ctx, miner, 1000).delta == miner.m

    def test_bits_on_seeded_markets_at_any_scale(self):
        digest = hashlib.sha256()
        for ctx, miner in _seeded_extreme_markets(2000):
            point = optimal_idle(ctx, miner)
            assert all(type(v) is float for v in point), point
            digest.update(" ".join(v.hex() for v in point).encode() + b"\n")
        assert digest.hexdigest() == SEEDED_MARKETS_SHA256

    def test_domain_error_at_full_market_power(self):
        coin = CoinParams(tau=1.0, epsilon=0.0, w=5.0)
        miner = MinerParams("d", m=1.0, fc=0.1, vc=0.9)
        with pytest.raises(ValueError):
            optimal_idle(AggregateContext(M=1.0, coin=coin), miner)

    def test_answers_scale_by_powers_of_two(self):
        # scaled_market shares no float path with the closed forms: delta
        # scales by 2**a, utilities by 2**b, and roi keeps its bits
        rng = random.Random(27)
        endpoints = {"zero": 0, "m": 0, "interior": 0}
        for _ in range(250):
            coin, miners, _ = moderate_market(rng)
            a, b, c = (rng.randint(-200, 200) for _ in range(3))
            big_coin, big_miners, _ = scaled_market(coin, miners, [], a, b, c)
            ctx, big_ctx = context_for(coin, miners), context_for(big_coin, big_miners)
            for miner, big_miner in zip(miners, big_miners):
                base, big = optimal_idle(ctx, miner), optimal_idle(big_ctx, big_miner)
                assert (big.delta.hex(), big.utility.hex(), big.roi.hex()) == (
                    math.ldexp(base.delta, a).hex(), math.ldexp(base.utility, b).hex(), base.roi.hex())
                assert smart_utility(big_ctx, big_miner).hex() == math.ldexp(smart_utility(ctx, miner), b).hex()
                endpoints["zero" if base.delta == 0 else "m" if base.delta == miner.m else "interior"] += 1
        assert min(endpoints.values()) >= 50, endpoints


class TestStrategySpace:
    def test_a_constant_cutback_beats_the_best_alternation(self):
        # optimal_idle searches the two-epoch alternation (m - delta, m) only.
        # Idling a constant 0.113625 every epoch, output restriction that the
        # retarget rewards with a higher revenue per hash, earns 21.6% more
        # here; ROADMAP.md item 23 adds that cutback and must flip this test
        coin, miners = proportional_scenario(0.45, 0.3)
        deviator = miners[0]
        point = optimal_idle(context_for(coin, miners), deviator)
        assert (round(point.delta, 5), round(point.utility, 6)) == (0.18020, 0.016503)
        assert periodic_utility(coin, miners, [alternation(deviator, point.delta)])["deviator"] == \
            pytest.approx(point.utility, rel=1e-12)
        cutback = periodic_utility(coin, miners, [StrategySchedule("deviator", (deviator.m - 0.113625,))])
        assert round(cutback["deviator"], 6) == 0.020073
        assert cutback["deviator"] > 1.2 * point.utility


class TestExactRationals:
    def test_closed_forms_are_within_two_ulps_of_exact(self):
        # _exact shares no float path with the closed forms: on the 250
        # moderate markets of the scaling test, smart_utility and the utility
        # optimal_idle returns, against the best of the exact utilities of its
        # three candidates, measured 1.33 and 1.85 ulps of the miner's largest
        # revenue or cost rate in either epoch of the cycle
        def ulps(x, exact, ctx, miner, delta):
            return abs(Fraction(x) - exact) / Fraction(math.ulp(idle_rate_scale(ctx, miner, delta)))

        rng = random.Random(27)
        for _ in range(250):
            coin, miners, _ = moderate_market(rng)
            for _exponent in range(3):   # the scaling test's draws, so that the markets agree
                rng.randint(-200, 200)
            ctx = context_for(coin, miners)
            for miner in miners:
                u = smart_utility(ctx, miner)
                assert ulps(u, exact_smart_utility(ctx, miner), ctx, miner, miner.m) <= 2, miner
                point = optimal_idle(ctx, miner)
                assert ulps(point.utility, max(idle_candidates(ctx, miner)), ctx, miner, point.delta) <= 2, miner

    def test_smarter_utility_is_within_three_ulps_of_exact_at_any_idle_power(self):
        # smart_utility and smarter_utility share one kernel, so _exact is
        # the independent oracle: on the 250 moderate markets of the scaling
        # test, at delta = 0, m and eight uniform draws in [0, m], the worst
        # error measured 2.15 ulps of the miner's largest revenue or cost
        # rate in either epoch of the cycle
        rng, idle_rng = random.Random(27), random.Random(31)
        for _ in range(250):
            coin, miners, _ = moderate_market(rng)
            for _exponent in range(3):
                rng.randint(-200, 200)
            ctx = context_for(coin, miners)
            for miner in miners:
                deltas = [0.0, miner.m] + [idle_rng.uniform(0.0, miner.m) for _ in range(8)]
                for delta in deltas:
                    u = smarter_utility(ctx, miner, delta)
                    error = abs(Fraction(u) - idle_utility(ctx, miner, Fraction(delta)))
                    assert error <= 3 * Fraction(math.ulp(idle_rate_scale(ctx, miner, delta))), (miner, delta)


    def test_a_candidate_beyond_float_range_can_still_win(self):
        # delta = m's term fc*M/(M - m) overflows, so its direct utility reads
        # -inf; the rescaled market finds it the best of the three candidates,
        # the float nearest the exact utility, as smart_utility does
        coin, miners = config_market(OVERFLOWING_CANDIDATE_CONFIG)
        ctx, miner = context_for(coin, miners), miners[0]
        exact = idle_candidates(ctx, miner)
        assert max(exact) == exact[2] > exact[0]
        point = optimal_idle(ctx, miner)
        assert (point.delta, point.utility) == (miner.m, float(exact[2])) == (1.0, -1e+293)
        assert point.utility == smart_utility(ctx, miner)
        assert point.roi == roi(point.utility, miner)


def _bits(point):
    return [v.hex() for v in point]


class TestBindingClamp:
    """``optimal_idle`` on a single market refuses a clamp that binds at its
    winning idle power, with the message that ``optimize`` prints.  Its
    candidates are compared unclamped, so a winner below the bind point
    stands even where a candidate beyond it binds."""

    def test_binding_winner_raises_the_cli_message(self):
        # the winner 13.27 lies beyond clamp 1.1's bind point 9.09
        with pytest.raises(ConfigurationError) as info:
            optimal_idle(*config_deviator(clamped(1.1), "attacker"))
        assert info.value.errors == [
            "clamp 1.1 binds at idle power 13.27045983049322, beyond the bind point M*(1 - 1/clamp) = "
            "9.090909090909093: the closed form assumes an unclamped retarget; use simulate instead"]

    def test_a_winner_below_the_bind_point_stands(self):
        # idling all of big's 40 binds beyond clamp 1.2's bind point 16.67,
        # but honest mining wins, and its cycle has no retarget to clamp
        ctx, miner = config_deviator(CLAMPED_BIG_CONFIG, "big")
        with pytest.raises(ConfigurationError):
            smart_utility(ctx, miner)
        point = optimal_idle(ctx, miner)
        assert point.delta == 0.0
        assert _bits(point) == _bits(optimal_idle(ctx._replace(coin=ctx.coin._replace(clamp=None)), miner))

    @pytest.mark.parametrize("clamp", [1.2, 4.0])
    def test_non_binding_clamp_keeps_the_unclamped_bits(self, clamp):
        # the winner 13.27 lies below the bind points 16.67 and 75
        point = optimal_idle(*config_deviator(clamped(clamp), "attacker"))
        assert _bits(point) == _bits(optimal_idle(*config_deviator(SMART_CONFIG, "attacker")))

    def test_brute_force_idle_evaluates_the_unclamped_cycle(self):
        ctx, miner = config_deviator(clamped(1.1), "attacker")
        unclamped = brute_force_idle(*config_deviator(SMART_CONFIG, "attacker"), 1000)
        assert _bits(brute_force_idle(ctx, miner, 1000)) == _bits(unclamped)


class TestBruteForceIdle:
    def test_three_point_scan_without_fixed_costs(self):
        # resolution 2 evaluates {0, m/2, m}; utility increases in delta at y=0
        ctx, miner = _canonical(0.3, 0.0)
        point = brute_force_idle(ctx, miner, 2)
        assert point.delta == miner.m

    def test_resolution_must_be_at_least_two(self):
        ctx, miner = _canonical(0.3, 0.0)
        with pytest.raises(ValueError):
            brute_force_idle(ctx, miner, 1)

    def test_chunked_scan_matches_single_pass(self):
        # resolutions beyond one chunk must preserve first-maximum semantics
        ctx, miner = _canonical(0.2, 0.15)
        fine = brute_force_idle(ctx, miner, 200_000)
        coarse = brute_force_idle(ctx, miner, 100_000)
        assert abs(fine.delta - coarse.delta) <= miner.m / 100_000
        assert fine.utility >= coarse.utility - 1e-15

    def test_agreement_with_refined_search(self):
        for x in (0.1, 0.4, 0.8):
            for y in (0.0, 0.12, 0.35, 0.7):
                ctx, miner = _canonical(x, y)
                fast = optimal_idle(ctx, miner)
                slow = brute_force_idle(ctx, miner, 10_000)
                assert abs(fast.delta - slow.delta) <= 1e-4 * miner.m
                assert fast.utility >= slow.utility - 1e-12 * miner.cost_rate
