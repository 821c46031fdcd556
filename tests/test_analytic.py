
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _exact import smart_utility as exact_smart_utility
from _scenarios import (
    CLAMPED_BIG_CONFIG,
    HUGE_BOOST_CONFIG,
    OVERFLOWING_TERM_CONFIG,
    SMART_CONFIG,
    alternation,
    clamped,
    config_deviator,
    config_market,
    context_for,
    proportional_scenario,
)
from smartmining import (
    AggregateContext,
    CoinParams,
    ConfigurationError,
    MinerParams,
    dominance,
    epoch_table_smart,
    min_power_for_profit,
    periodic_utility,
    roi,
    run,
    smart_utility,
    smarter_utility,
    sweep,
)
from smartmining.analytic import MODE_SMART, MODE_SMARTER, _canonical, _require_unclamped_cycle
from smartmining.optimizer import optimal_idle


def _bisect_boundary(y, iters=200):
    """Independent root of x*(1 - x) = y on [0, 1/2] by pure bisection."""
    lo, hi = 0.0, 0.5
    for _ in range(iters):
        mid = (lo + hi) / 2
        if mid * (1 - mid) - y > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


class TestSmartUtility:
    def test_reference_point(self):
        # x = 0.2, cost rate 1, fixed-cost share 0.15:
        # u = (0.2 - 0.15/0.8) / (0.8 + 1/0.8) = 0.0125 / 2.05
        ctx, miner = _canonical(0.2, 0.15)
        assert smart_utility(ctx, miner) == pytest.approx(0.0125 / 2.05, rel=1e-12)

    def test_pure_variable_costs_always_profit(self):
        for x in (0.01, 0.2, 0.5, 0.9):
            ctx, miner = _canonical(x, 0.0)
            assert smart_utility(ctx, miner) > 0

    def test_boundary_utility_vanishes(self):
        # x(1 - x) = y at x = 0.5, y = 0.25
        ctx, miner = _canonical(0.5, 0.25)
        assert abs(smart_utility(ctx, miner)) <= 1e-12 * miner.cost_rate

    def test_domain_error_at_full_market_power(self):
        coin = CoinParams(tau=1.0, epsilon=0.0, w=5.0)
        miner = MinerParams("d", m=1.0, fc=0.1, vc=0.9)
        with pytest.raises(ValueError):
            smart_utility(AggregateContext(M=1.0, coin=coin), miner)
        with pytest.raises(ValueError):
            smart_utility(AggregateContext(M=0.5, coin=coin), miner)

    @pytest.mark.parametrize("M", [True, False, 0.0, -1.0, float("nan"), float("inf"), "1.0"])
    def test_total_power_domain_errors(self, M):
        with pytest.raises(ValueError):
            AggregateContext(M=M, coin=CoinParams(tau=1.0, epsilon=0.0, w=5.0))

    @pytest.mark.parametrize("M,tau", [(1e-200, 1e-200), (1e300, 1e10)])
    def test_first_workload_domain_errors(self, M, tau):
        with pytest.raises(ValueError, match=r"M\*tau = .* underflows or overflows"):
            AggregateContext(M=M, coin=CoinParams(tau=tau, epsilon=0.0, w=5.0))

    def test_baseline_price_domain_error(self):
        with pytest.raises(ValueError, match=r"w/\(M\*tau\) = .* overflows"):
            AggregateContext(M=1.0, coin=CoinParams(tau=1e-300, epsilon=0.0, w=1e300))


class TestSmartUtilityBeyondFloatRange:
    def test_a_term_beyond_float_range_leaves_the_exact_utility(self):
        # miner a's fc*M/(M - m) overflows; the power-of-two rescaled pass
        # gives the float nearest the exact utility, and miner b, whose direct
        # value is finite, keeps the direct bits
        coin, miners = config_market(OVERFLOWING_TERM_CONFIG)
        ctx = context_for(coin, miners)
        a, b = miners
        assert smart_utility(ctx, a) == float(exact_smart_utility(ctx, a)) == -1.0303975371532022e+300
        assert smart_utility(ctx, b).hex() == (3.517123613488488e+95).hex()

    def test_a_utility_beyond_float_range_stays_infinite(self):
        # m*r0 = 5e199 * 1e150: the utility itself exceeds the largest float
        coin = CoinParams(tau=1e-100, epsilon=0.0, w=1e250)
        miners = [MinerParams("a", 5e199, 1.0, 0.0), MinerParams("b", 5e199, 1.0, 0.0)]
        assert smart_utility(context_for(coin, miners), miners[0]) == math.inf


class TestSmarterUtility:
    def test_honest_endpoint_is_margin(self):
        ctx, miner = _canonical(0.2, 0.15)
        assert smarter_utility(ctx, miner, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_full_idle_endpoint_matches_smart_exactly(self):
        ctx, miner = _canonical(0.2, 0.15)
        assert smarter_utility(ctx, miner, miner.m) == smart_utility(ctx, miner)

    def test_reference_point_half_idle(self):
        # x = 0.2, y = 0.15, delta = m/2:
        # num = 0.1 - 0.5*(1/0.9)*0.15 = 1/60; den = 0.9 + 1/0.9 = 18.1/9
        ctx, miner = _canonical(0.2, 0.15)
        assert smarter_utility(ctx, miner, 0.1) == pytest.approx((1 / 60) / (18.1 / 9), rel=1e-12)

    def test_vectorized_matches_scalar(self):
        ctx, miner = _canonical(0.3, 0.1)
        deltas = np.linspace(0.0, miner.m, 17)
        us = smarter_utility(ctx, miner, deltas)
        for d, u in zip(deltas, us):
            assert u == smarter_utility(ctx, miner, float(d))

    @pytest.mark.parametrize("delta", [-0.01, 0.21])
    def test_domain_errors(self, delta):
        ctx, miner = _canonical(0.2, 0.15)
        with pytest.raises(ValueError):
            smarter_utility(ctx, miner, delta)

    def test_miner_above_total_power_rejected(self):
        ctx, _ = _canonical(0.2, 0.15)
        miner = MinerParams("d", m=1.5, fc=0.1, vc=0.9)
        with pytest.raises(ValueError, match=re.escape("miner power 1.5 exceeds total power 1.0")):
            smarter_utility(ctx, miner, 0.5)

    def test_engine_cross_check_with_margin(self):
        # equivalence holds for any reward, including a nonzero margin
        coin, miners = proportional_scenario(0.25, 0.3, epsilon=0.01, M=50.0, tau=120.0)
        deviator = miners[0]
        delta = 0.4 * deviator.m
        u = smarter_utility(context_for(coin, miners), deviator, delta)
        simulated = periodic_utility(coin, miners, [alternation(deviator, delta)])
        assert simulated["deviator"] == pytest.approx(u, rel=1e-10)

    def test_sole_miner_partial_idle(self):
        # m == M is fine for partial idling as long as delta stays below M
        miner = MinerParams("solo", 10.0, 0.2, 0.08)
        coin = CoinParams(tau=600.0, epsilon=0.0, w=600.0)
        ctx = AggregateContext(M=10.0, coin=coin)
        u = smarter_utility(ctx, miner, 5.0)
        simulated = periodic_utility(coin, [miner], [alternation(miner, 5.0)])
        assert simulated["solo"] == pytest.approx(u, rel=1e-10)
        with pytest.raises(ValueError):
            smarter_utility(ctx, miner, 10.0)

    def test_engine_cross_check_uncalibrated_reward(self):
        # the closed form tracks the simulation even off the balance point
        miners = [MinerParams("deviator", 20.0, 0.03, 0.0085), MinerParams("rest", 80.0, 0.2, 0.002)]
        coin = CoinParams(tau=600.0, epsilon=0.0, w=777.0)
        deviator = miners[0]
        u = smarter_utility(context_for(coin, miners), deviator, 15.0)
        simulated = periodic_utility(coin, miners, [alternation(deviator, 15.0)])
        assert simulated["deviator"] == pytest.approx(u, rel=1e-10)

    @given(x=st.floats(0.02, 0.95), y=st.floats(0.0, 0.95), lam=st.floats(0.1, 10.0))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_scale_invariance(self, x, y, lam):
        ctx, miner = _canonical(x, y)
        scaled_miner = MinerParams(miner.id, miner.m, miner.fc * lam, miner.vc * lam)
        scaled_ctx = AggregateContext(M=ctx.M, coin=CoinParams(
            tau=ctx.coin.tau, epsilon=ctx.coin.epsilon, w=ctx.coin.w * lam))
        delta = 0.37 * miner.m
        u = smarter_utility(ctx, miner, delta)
        u_scaled = smarter_utility(scaled_ctx, scaled_miner, delta)
        assert u_scaled == pytest.approx(lam * u, rel=1e-12, abs=1e-15 * lam)
        assert roi(u_scaled, scaled_miner) == pytest.approx(roi(u, miner), rel=1e-12, abs=1e-15)


class TestDominance:
    def test_reference_points(self):
        assert dominance(0.12, 0.10) is True
        assert dominance(0.20, 0.15) is True
        # strict inequality at the parabola's maximum
        assert dominance(0.5, 0.25) is False
        # a miner without variable costs has fixed-cost share exactly 1
        assert dominance(0.5, 1.0) is False

    def test_sign_characterization(self):
        for x in (0.05, 0.2, 0.45, 0.7):
            for y in (0.0, 0.05, 0.15, 0.3):
                ctx, miner = _canonical(x, y)
                u = smart_utility(ctx, miner)
                if abs(x * (1 - x) - y) > 1e-12:
                    assert (u > 0) == dominance(x, y)

    @pytest.mark.parametrize("x,y", [(0.0, 0.1), (1.0, 0.1), (-0.2, 0.1), (0.5, -0.1), (0.5, 1.5)])
    def test_domain_errors(self, x, y):
        with pytest.raises(ValueError):
            dominance(x, y)


class TestMinPowerForProfit:
    def test_reference_point(self):
        x_star = min_power_for_profit(0.10)
        assert 0.1127 < x_star < 0.1128
        assert x_star == pytest.approx(_bisect_boundary(0.10), abs=1e-12)

    def test_zero_fixed_costs_need_no_power(self):
        assert min_power_for_profit(0.0) == 0.0

    def test_infeasible_above_quarter(self):
        with pytest.raises(ValueError):
            min_power_for_profit(0.25)
        with pytest.raises(ValueError):
            min_power_for_profit(0.3)

    @pytest.mark.parametrize("y", [False, True, -0.1, float("nan"), float("inf"), "0.1"])
    def test_domain_errors(self, y):
        with pytest.raises(ValueError):
            min_power_for_profit(y)

    def test_root_property_across_grid(self):
        for y in np.linspace(0.0, 0.2499, 40):
            x_star = min_power_for_profit(float(y))
            assert abs(x_star * (1 - x_star) - y) <= 1e-12


class TestRoi:
    def test_reference_point(self):
        ctx, miner = _canonical(0.2, 0.15)
        r = roi(smart_utility(ctx, miner), miner)
        assert r == pytest.approx(0.0125 / 2.05, rel=1e-12)  # cost rate is 1

    def test_zero_utility(self):
        _, miner = _canonical(0.2, 0.15)
        assert roi(0.0, miner) == 0.0

    def test_money_scale_invariance(self):
        lam = 3.7
        ctx, miner = _canonical(0.2, 0.15)
        scaled = MinerParams(miner.id, miner.m, miner.fc * lam, miner.vc * lam)
        assert roi(lam * 0.004, scaled) == pytest.approx(roi(0.004, miner), rel=1e-12)


class TestEpochTable:
    def _table(self):
        coin = CoinParams(tau=600.0, epsilon=0.0, w=600.0)
        ctx = AggregateContext(M=100.0, coin=coin)
        miner = MinerParams("a", 20.0, 0.03, 0.0085)  # cost rate 0.2, y = 0.15
        return epoch_table_smart(ctx, miner), ctx, miner

    def test_reference_values(self):
        table, _, _ = self._table()
        assert table["h_lre"] == 60000.0
        assert table["t_lre"] == 750.0
        assert table["rph_lre"] == pytest.approx(0.01, rel=1e-15)
        assert table["p_lre"] == -0.03
        assert table["h_hre"] == 48000.0
        assert table["t_hre"] == 480.0
        assert table["rph_hre"] == pytest.approx(0.0125, rel=1e-15)
        assert table["p_hre"] == pytest.approx(0.05, rel=1e-12)

    def test_rph_ratio_identity(self):
        table, ctx, miner = self._table()
        assert table["rph_hre"] / table["rph_lre"] == pytest.approx(
            ctx.M / (ctx.M - miner.m), rel=1e-12)

    def test_vanishing_power_continuity(self):
        coin = CoinParams(tau=600.0, epsilon=0.0, w=600.0)
        ctx = AggregateContext(M=100.0, coin=coin)
        tiny = MinerParams("a", 1e-7, fc=1e-9 * 0.15, vc=0.0)
        # vc = 0 needs a positive fc for a valid miner; shares stay tiny
        table = epoch_table_smart(ctx, tiny)
        assert table["t_lre"] == pytest.approx(600.0, rel=1e-8)
        # market pays 0.01 per hash; profit rate tends to rph*m - cost ~ 0
        assert table["p_hre"] == pytest.approx(0.0, abs=1e-8)

    def test_sole_miner_rejected(self):
        coin = CoinParams(tau=600.0, epsilon=0.0, w=600.0)
        miner = MinerParams("a", 100.0, 0.03, 0.0085)
        with pytest.raises(ValueError, match=re.escape("0 < m < M, got m=100.0, M=100.0")):
            epoch_table_smart(AggregateContext(M=100.0, coin=coin), miner)

    def test_cycle_average_matches_smart_utility(self):
        table, ctx, miner = self._table()
        avg = (table["p_hre"] * table["t_hre"] + table["p_lre"] * table["t_lre"]) / (
            table["t_hre"] + table["t_lre"])
        assert avg == pytest.approx(smart_utility(ctx, miner), rel=1e-12)

    @pytest.mark.parametrize("ctx,miner,field", [
        # M - m = 1.1e-15: rph_hre = 1e295/1.1e-15 overflows, and p_hre after it
        (*config_deviator(HUGE_BOOST_CONFIG, "a"), "rph_hre = inf"),
        # M - m = 2**-52: the idle epoch lasts t_lre = 1e300/2**-52, beyond float range
        (AggregateContext(M=1.0 + 2.0**-52, coin=CoinParams(tau=1e300, epsilon=0.0, w=1.0)),
         MinerParams("a", 1.0, 0.1, 0.1), "t_lre = inf"),
    ], ids=["rph_hre", "t_lre"])
    def test_non_finite_field_is_refused_by_name(self, ctx, miner, field):
        # the library refuses what analyze would otherwise fail to write as JSON
        with pytest.raises(ValueError) as info:
            epoch_table_smart(ctx, miner)
        assert str(info.value) == f"epoch table: {field} is not finite: the full-idle cycle leaves float range"


# the refusals that analyze prints for a clamp that binds at delta = m
BINDS_AT_20 = ("clamp 1.1 binds at idle power 20.0, beyond the bind point M*(1 - 1/clamp) = 9.090909090909093: "
               "the closed form assumes an unclamped retarget; use simulate instead")
BINDS_AT_40 = ("clamp 1.2 binds at idle power 40.0, beyond the bind point M*(1 - 1/clamp) = 16.666666666666664: "
               "the closed form assumes an unclamped retarget; use simulate instead")


class TestBindingClamp:
    """``smart_utility`` and ``epoch_table_smart`` price the unclamped
    full-idle cycle, so they refuse a clamp that binds on it, with the
    message that ``analyze`` prints; ``smarter_utility`` does not check."""

    @pytest.mark.parametrize("closed_form", [smart_utility, epoch_table_smart])
    @pytest.mark.parametrize("doc,miner_id,message", [(clamped(1.1), "attacker", BINDS_AT_20),
                                                      (CLAMPED_BIG_CONFIG, "big", BINDS_AT_40)],
                             ids=["attacker-1.1", "big-1.2"])
    def test_binding_clamp_raises_the_cli_message(self, closed_form, doc, miner_id, message):
        with pytest.raises(ConfigurationError) as info:
            closed_form(*config_deviator(doc, miner_id))
        assert info.value.errors == [message]

    @pytest.mark.parametrize("closed_form", [smart_utility, epoch_table_smart])
    @pytest.mark.parametrize("clamp", [1.3, 4.0])
    def test_non_binding_clamp_keeps_the_unclamped_bits(self, closed_form, clamp):
        # the attacker's delta = 20 lies below the bind points 23.08 and 75
        answer = closed_form(*config_deviator(clamped(clamp), "attacker"))
        assert repr(answer) == repr(closed_form(*config_deviator(SMART_CONFIG, "attacker")))

    def test_smarter_utility_evaluates_the_unclamped_cycle(self):
        ctx, miner = config_deviator(clamped(1.1), "attacker")
        unclamped = smart_utility(*config_deviator(SMART_CONFIG, "attacker"))
        assert smarter_utility(ctx, miner, miner.m).hex() == unclamped.hex()

    def test_refuses_exactly_where_the_engine_clamps(self):
        # the engine is the oracle: powers on a 1/64 grid add exactly, so run's
        # unclamped workloads H_2 = (M - delta)*tau and H_3 = M*tau have the
        # bits the check computes, and it must refuse where the clamp moves
        # either.  Half the clamps sit on a bind point M/(M - d) of the grid
        rng, refused = random.Random(5), 0
        for _ in range(3000):
            m, rest = rng.randint(1, 6400) / 64, rng.randint(1, 6400) / 64
            delta, M = rng.randint(0, int(m * 64)) / 64, m + rest
            clamp = rng.choice([1.0 + 3.0 * rng.random(), M / (M - rng.randint(1, int(m * 64)) / 64)])
            coin = CoinParams(tau=rng.uniform(0.5, 1000.0), epsilon=0.0, w=1.0, clamp=clamp)
            miners = [MinerParams("dev", m, 0.1, 0.01), MinerParams("rest", rest, 0.1, 0.01)]
            records = run(coin, miners, [alternation(miners[0], delta)], 3).records
            clamps = records[1].H != (M - delta) * coin.tau or records[2].H != M * coin.tau
            try:
                _require_unclamped_cycle(context_for(coin, miners), m, delta)
            except ConfigurationError:
                refused += 1
                assert clamps, (m, rest, delta, clamp)
            else:
                assert not clamps, (m, rest, delta, clamp)
        assert 0 < refused < 3000

    def test_refuses_exactly_where_the_bind_inequality_did(self):
        # the check before it asked model._retarget: the idle epoch's drop
        # below M*tau/c or the full epoch's rise above (M - delta)*tau*c.
        # Markets span the float range, so (M - delta)*tau underflows to 0,
        # or to a subnormal that the clamp moves, in some draws
        rng, refused, valid = random.Random(38), 0, 0
        for _ in range(20000):
            M = math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1020, 1020))
            # the exponent of M*tau lies in [-1070, 1020] where tau's own fits
            tau = math.ldexp(rng.uniform(0.5, 1.0), min(1023, rng.randint(-1070, 1020) - math.frexp(M)[1]))
            clamp = rng.choice([None, 1.0 + 2.0**-52, 1.2, 4.0])
            m = M * rng.choice([rng.random(), 1.0 - 2.0**-rng.randint(1, 53)])
            if not 0 < m < M:
                continue
            delta = rng.choice([0.0, m, m * rng.random(), M * (1 - 1 / (clamp or 2.0))])
            delta = min(delta, m)
            try:
                ctx = AggregateContext(M=M, coin=CoinParams(tau=tau, epsilon=0.0, w=M * tau, clamp=clamp))
            except ValueError:   # M*tau leaves float range
                continue
            valid += 1
            binds = clamp is not None and ((M - delta) * tau < M * tau / clamp
                                           or M * tau > (M - delta) * tau * clamp)
            try:
                _require_unclamped_cycle(ctx, m, delta)
            except ConfigurationError:
                refused += 1
                assert binds, (M, tau, clamp, m, delta)
            else:
                assert not binds, (M, tau, clamp, m, delta)
        assert 0 < refused < valid


class TestSweep:
    def test_smart_sign_matches_dominance(self):
        xs = [(j + 0.5) / 50 for j in range(50)]
        ys = [(i + 0.5) / 50 for i in range(50)]
        matrix = sweep(xs, ys, MODE_SMART)
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                if abs(x * (1 - x) - y) > 1e-12:
                    assert (matrix[i, j] > 0) == dominance(x, y)

    def test_smarter_dominates_smart_cellwise(self):
        xs = [(j + 0.5) / 12 for j in range(12)]
        ys = [(i + 0.5) / 12 for i in range(12)]
        smart = sweep(xs, ys, MODE_SMART)
        smarter = sweep(xs, ys, MODE_SMARTER)
        assert np.all(smarter >= smart)

    def test_row_near_quarter_positive_only_between_roots(self):
        # x*(1 - x) = 0.24 has roots 0.4 and 0.6
        xs = [0.35, 0.41, 0.5, 0.59, 0.65]
        matrix = sweep(xs, [0.24], MODE_SMART)
        signs = [v > 0 for v in matrix[0]]
        assert signs == [False, True, True, True, False]

    def test_orientation_y_outer(self):
        xs, ys = [0.2, 0.4], [0.0, 0.2]
        matrix = sweep(xs, ys, MODE_SMART)
        assert matrix.shape == (2, 2)
        ctx, miner = _canonical(0.4, 0.2)
        assert matrix[1, 1] == roi(smart_utility(ctx, miner), miner)

    @pytest.mark.parametrize("xs,ys", [([], [0.1]), ([0.5], []), ([1.0], [0.1]), ([0.5], [1.0])])
    def test_invalid_grid(self, xs, ys):
        with pytest.raises(ValueError):
            sweep(xs, ys, MODE_SMART)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sweep([0.5], [0.1], "fastest")

    @pytest.mark.parametrize("xs,ys,message", [
        ([0.5, 1.0, 2.0], [0.1], "power shares must lie in (0, 1), got 1.0"),
        ([0.5], [0.1, -0.5, 1.0], "fixed-cost shares must lie in [0, 1), got -0.5"),
        ([0.5, 1e-310], [0.1], "power share 1e-310 is too small"),
    ])
    def test_invalid_grid_names_first_bad_value(self, xs, ys, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep(xs, ys, MODE_SMART)

    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(st.one_of(st.floats(1e-300, 1e-3), st.floats(1e-3, 0.999),
                              st.floats(0.999, 1.0, exclude_max=True)), min_size=1, max_size=6),
        ys=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=6),
    )
    def test_grid_cells_equal_scalar_calls_bit_for_bit(self, xs, ys):
        smart = sweep(xs, ys, MODE_SMART)
        smarter = sweep(xs, ys, MODE_SMARTER)
        assert smart.shape == smarter.shape == (len(ys), len(xs))
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                ctx, miner = _canonical(x, y)
                assert float(smart[i, j]).hex() == roi(smart_utility(ctx, miner), miner).hex()
                assert float(smarter[i, j]).hex() == optimal_idle(ctx, miner).roi.hex()


class TestAnalyticEngineEquivalence:
    @given(
        x=st.floats(0.02, 0.95),
        y=st.floats(0.0, 0.95),
        frac=st.floats(0.0, 1.0),
        eps_frac=st.floats(0.0, 0.5),
        cost=st.floats(1e-3, 1e3),
        tau=st.floats(1e-2, 1e4),
        M=st.floats(1e-3, 1e6),
    )
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_equivalence_across_parameter_scales(self, x, y, frac, eps_frac, cost, tau, M):
        # a balanced market only admits margins up to cost*(1 - x)/x before
        # the honest remainder would need negative costs
        epsilon = eps_frac * cost * (1 - x) / x
        coin, miners = proportional_scenario(x, y, epsilon=epsilon, cost=cost, tau=tau, M=M)
        deviator = miners[0]
        delta = frac * deviator.m
        u = smarter_utility(context_for(coin, miners), deviator, delta)
        simulated = periodic_utility(coin, miners, [alternation(deviator, delta)])
        assert abs(simulated["deviator"] - u) <= 1e-10 * max(abs(u), deviator.cost_rate)

    def test_grid_of_shares_and_idle_fractions(self):
        for x in (0.1, 0.3, 0.5, 0.7, 0.9):
            for y in (0.0, 0.25, 0.5, 0.75):
                coin, miners = proportional_scenario(x, y)
                deviator = miners[0]
                ctx = context_for(coin, miners)
                for frac in (0.0, 0.5, 1.0):
                    delta = frac * deviator.m
                    u = smarter_utility(ctx, deviator, delta)
                    simulated = periodic_utility(coin, miners, [alternation(deviator, delta)])
                    assert abs(simulated["deviator"] - u) <= 1e-10 * max(abs(u), 1.0)
