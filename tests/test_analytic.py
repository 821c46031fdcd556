
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _scenarios import alternation, context_for, proportional_scenario
from smartmining import (
    AggregateContext,
    CoinParams,
    MinerParams,
    dominance,
    epoch_table_smart,
    min_power_for_profit,
    periodic_utility,
    roi,
    smart_utility,
    smarter_utility,
    sweep,
)
from smartmining.analytic import MODE_SMART, MODE_SMARTER, _canonical


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

    def test_engine_cross_check(self):
        coin, miners = proportional_scenario(0.2, 0.15)
        deviator = miners[0]
        u = smart_utility(context_for(coin, miners), deviator)
        simulated = periodic_utility(coin, miners, [alternation(deviator, deviator.m)])
        assert simulated["deviator"] == pytest.approx(u, rel=1e-12)


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

    def test_sign_characterization(self):
        for x in (0.05, 0.2, 0.45, 0.7):
            for y in (0.0, 0.05, 0.15, 0.3):
                ctx, miner = _canonical(x, y)
                u = smart_utility(ctx, miner)
                if abs(x * (1 - x) - y) > 1e-12:
                    assert (u > 0) == dominance(x, y)

    @pytest.mark.parametrize("x,y", [(0.0, 0.1), (1.0, 0.1), (-0.2, 0.1), (0.5, -0.1), (0.5, 1.0)])
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

    def test_cycle_average_matches_smart_utility(self):
        table, ctx, miner = self._table()
        avg = (table["p_hre"] * table["t_hre"] + table["p_lre"] * table["t_lre"]) / (
            table["t_hre"] + table["t_lre"])
        assert avg == pytest.approx(smart_utility(ctx, miner), rel=1e-12)


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
