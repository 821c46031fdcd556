
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _scenarios import alternation, context_for, proportional_scenario
from smartmining import (
    CoinParams,
    ConfigurationError,
    MinerParams,
    StalledEpochError,
    StrategySchedule,
    periodic_utility,
    run,
    smart_utility,
    steady_cycle,
    step_epoch,
)


def _two_miners():
    # cost rate 0.01 per unit of power, split 60/40 with different structures
    return [MinerParams("a", 60.0, 0.15, 0.0075), MinerParams("b", 40.0, 0.1, 0.0075)]


def _coin(tau=600.0, epsilon=0.0, clamp=None):
    # calibrated for _two_miners at epsilon 0: w = 600 * (0.6 + 0.4)
    return CoinParams(tau=tau, epsilon=epsilon, w=600.0, clamp=clamp)


class TestStepEpoch:
    def test_steady_state_full_power(self):
        rec, H_next = step_epoch(1, 60000.0, {}, _coin(), _two_miners())
        assert rec.t == 600.0
        assert H_next == 60000.0
        assert rec.rph == 600.0 / 60000.0

    def test_partial_idle_stretches_epoch(self):
        # 20 of 100 power idle: t = 60000/80, next workload 80*600
        miners = [MinerParams("a", 80.0, 0.15, 0.0075), MinerParams("b", 20.0, 0.1, 0.0075)]
        rec, H_next = step_epoch(1, 60000.0, {"b": 0.0}, _coin(), miners)
        assert rec.t == 750.0
        assert H_next == 48000.0

    def test_all_idle_stalls(self):
        with pytest.raises(StalledEpochError) as exc:
            step_epoch(7, 60000.0, {"a": 0.0, "b": 0.0}, _coin(), _two_miners())
        assert exc.value.epoch == 7

    def test_per_miner_rates(self):
        rec, _ = step_epoch(1, 60000.0, {"a": 30.0}, _coin(), _two_miners())
        a, b = rec.per_miner
        assert a.active_power == 30.0
        assert a.revenue_rate == rec.rph * 30.0
        assert a.cost_rate == 0.15 + 0.0075 * 30.0
        assert a.profit_rate == a.revenue_rate - a.cost_rate
        assert b.active_power == 40.0

    def test_active_power_beyond_capacity_rejected(self):
        with pytest.raises(ValueError):
            step_epoch(1, 60000.0, {"a": 61.0}, _coin(), _two_miners())

    def test_nan_active_power_rejected(self):
        with pytest.raises(ValueError, match="active power nan outside"):
            step_epoch(1, 60000.0, {"a": float("nan")}, _coin(), _two_miners())

    def test_epoch_index_below_one_rejected(self):
        with pytest.raises(ValueError, match="epoch index must be >= 1, got 0"):
            step_epoch(0, 60000.0, {}, _coin(), _two_miners())

    def test_duration_underflow_rejected(self):
        # epoch 1 runs on 1e-300 of power, so H_2 = 1e-300*tau is subnormal and
        # the full power of epoch 2 clears it in a duration that rounds to 0
        miners = [MinerParams("a", 1e20, 0.0, 1e-20), MinerParams("b", 1e-300, 1.0, 0.0)]
        coin = CoinParams(tau=1e-20, epsilon=0.0, w=1.0)
        with pytest.raises(ValueError, match="epoch duration must be > 0, got 0.0"):
            run(coin, miners, [StrategySchedule("a", (0.0, 1e20))], 3)


class TestRun:
    def test_honest_equilibrium_each_epoch(self):
        coin, miners = proportional_scenario(0.3, 0.2, epsilon=0.0, M=100.0, tau=600.0)
        trace = run(coin, miners, [], 10)
        for rec in trace.records:
            assert rec.t == pytest.approx(600.0, rel=1e-15)
            assert rec.rph == pytest.approx(coin.w / (100.0 * 600.0), rel=1e-15)
            for s in rec.per_miner:
                assert s.profit_rate == pytest.approx(0.0, abs=1e-14)

    def test_smart_schedule_alternates_workload(self):
        coin, miners = _coin(), _two_miners()
        sched = StrategySchedule("a", (0.0, 60.0))
        trace = run(coin, miners, [sched], 100)
        M_tau, reduced = 100.0 * 600.0, 40.0 * 600.0
        assert trace.records[0].H == M_tau
        for rec in trace.records[1:]:
            expected = reduced if rec.k % 2 == 0 else M_tau
            assert rec.H == expected

    def test_single_epoch_utility_is_first_profit(self):
        coin, miners = _coin(), _two_miners()
        trace = run(coin, miners, [StrategySchedule("a", (30.0,))], 1)
        rec = trace.records[0]
        assert trace.utilities["a"] == rec.per_miner[0].profit_rate
        assert trace.horizon == 1

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            run(_coin(), _two_miners(), [], 0)

    def test_invalid_scenario_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            run(_coin(), _two_miners(), [StrategySchedule("ghost", (1.0,))], 5)

    def test_stalled_epoch_reports_index(self):
        schedules = [StrategySchedule("a", (60.0, 60.0, 0.0)),
                     StrategySchedule("b", (40.0, 40.0, 0.0))]
        with pytest.raises(StalledEpochError) as exc:
            run(_coin(), _two_miners(), schedules, 10)
        assert exc.value.epoch == 3

    def test_determinism_bit_identical(self):
        coin, miners = _coin(), _two_miners()
        schedules = [StrategySchedule("a", (10.0, 60.0, 35.0))]
        t1 = run(coin, miners, schedules, 50)
        t2 = run(coin, miners, schedules, 50)
        for r1, r2 in zip(t1.records, t2.records):
            assert (r1.H, r1.t, r1.rph) == (r2.H, r2.t, r2.rph)
            assert r1.per_miner == r2.per_miner
        assert t1.utilities == t2.utilities


class TestInvariants:
    def test_one_step_identity_unclamped(self):
        coin, miners = _coin(), _two_miners()
        schedules = [StrategySchedule("a", (15.0, 60.0, 42.0, 60.0))]
        trace = run(coin, miners, schedules, 40)
        for prev, cur in zip(trace.records, trace.records[1:]):
            assert cur.H == sum(s.active_power for s in prev.per_miner) * coin.tau

    def test_reward_conservation_every_epoch(self):
        coin, miners = _coin(), _two_miners()
        schedules = [StrategySchedule("a", (0.0, 60.0)), StrategySchedule("b", (40.0, 13.0, 40.0))]
        trace = run(coin, miners, schedules, 30)
        for rec in trace.records:
            paid = sum(s.revenue_rate for s in rec.per_miner) * rec.t
            assert paid == pytest.approx(coin.w, rel=1e-9)

    @given(
        powers_a=st.lists(st.floats(20.0, 60.0), min_size=1, max_size=4),
        powers_b=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=3),
        offset=st.integers(0, 5),
    )
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_identity_and_conservation_for_arbitrary_schedules(self, powers_a, powers_b, offset):
        coin, miners = _coin(), _two_miners()
        schedules = [StrategySchedule("a", tuple(powers_a), offset=offset),
                     StrategySchedule("b", tuple(powers_b))]
        trace = run(coin, miners, schedules, 12)
        for prev, cur in zip(trace.records, trace.records[1:]):
            assert cur.H == sum(s.active_power for s in prev.per_miner) * coin.tau
        for rec in trace.records:
            paid = sum(s.revenue_rate for s in rec.per_miner) * rec.t
            assert paid == pytest.approx(coin.w, rel=1e-9)
            assert rec.rph == coin.w / rec.H


class TestPeriodicUtility:
    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_all_honest_returns_epsilon(self, epsilon):
        coin, miners = proportional_scenario(0.35, 0.4, epsilon=epsilon, M=100.0, tau=600.0)
        utils = periodic_utility(coin, miners, [])
        for u in utils.values():
            assert u == pytest.approx(epsilon, abs=1e-12)

    def test_smart_matches_closed_form(self):
        coin, miners = proportional_scenario(0.2, 0.15)
        deviator = miners[0]
        utils = periodic_utility(coin, miners, [alternation(deviator, deviator.m)])
        expected = smart_utility(context_for(coin, miners), deviator)
        assert utils["deviator"] == pytest.approx(expected, rel=1e-12)

    def test_period_one_partial_power_fixed_point(self):
        # both miners at half power forever: steady rph = w/(50*tau) = 0.02
        coin, miners = _coin(), _two_miners()
        schedules = [StrategySchedule("a", (30.0,)), StrategySchedule("b", (20.0,))]
        utils = periodic_utility(coin, miners, schedules)
        assert utils["a"] == pytest.approx(0.02 * 30.0 - (0.15 + 0.0075 * 30.0), rel=1e-12)
        assert utils["b"] == pytest.approx(0.02 * 20.0 - (0.1 + 0.0075 * 20.0), rel=1e-12)

    def test_warmup_transient_with_idle_final_epoch(self):
        # the deviator idles in the last epoch of its period, so the first
        # period differs from the steady cycle; the warm-up must absorb it
        coin, miners = _coin(), _two_miners()
        utils = periodic_utility(coin, miners, [StrategySchedule("a", (60.0, 0.0))])
        shifted = periodic_utility(coin, miners, [StrategySchedule("a", (0.0, 60.0))])
        assert utils["a"] == pytest.approx(shifted["a"], rel=1e-12)

    def test_matches_long_run_and_converges(self):
        coin, miners = proportional_scenario(0.2, 0.15, M=100.0, tau=600.0)
        deviator = miners[0]
        schedules = [alternation(deviator, deviator.m)]
        exact = periodic_utility(coin, miners, schedules)["deviator"]
        err = {K: abs(run(coin, miners, schedules, K).utilities["deviator"] - exact)
               for K in (100, 200, 400)}
        assert err[200] <= 0.6 * err[100] + 1e-15
        assert err[400] <= 0.6 * err[200] + 1e-15

    def test_refuses_clamped_coin(self):
        coin, miners = _coin(clamp=1.1), _two_miners()
        with pytest.raises(ConfigurationError):
            periodic_utility(coin, miners, [])

    def test_stalled_epoch_propagates(self):
        coin, miners = _coin(), _two_miners()
        schedules = [StrategySchedule("a", (0.0, 60.0)), StrategySchedule("b", (0.0, 40.0))]
        with pytest.raises(StalledEpochError):
            periodic_utility(coin, miners, schedules)

    def test_steady_cycle_positions_follow_schedule(self):
        coin, miners = _coin(), _two_miners()
        cycle = steady_cycle(coin, miners, [StrategySchedule("a", (0.0, 60.0))])
        assert len(cycle) == 2
        assert cycle[0].per_miner[0].active_power == 0.0
        assert cycle[1].per_miner[0].active_power == 60.0

    def test_two_epoch_cycle_durations(self):
        # idle epoch stretches to tau/(1 - m/M), boosted epoch compresses to
        # (M - m)*tau/M
        coin, miners = _coin(), _two_miners()
        cycle = steady_cycle(coin, miners, [StrategySchedule("a", (0.0, 60.0))])
        assert cycle[0].t == pytest.approx(600.0 / (1 - 0.6), rel=1e-15)
        assert cycle[1].t == pytest.approx(40.0 * 600.0 / 100.0, rel=1e-15)
        assert cycle[0].H == 60000.0
        assert cycle[1].H == 24000.0


class TestClamp:
    def test_clamp_bounds_workload_ratio(self):
        coin, miners = _coin(clamp=1.1), _two_miners()
        trace = run(coin, miners, [StrategySchedule("a", (0.0, 60.0))], 30)
        # unclamped, the workload would swing by 100/40 = 2.5x
        for prev, cur in zip(trace.records, trace.records[1:]):
            ratio = cur.H / prev.H
            assert 1 / 1.1 - 1e-12 <= ratio <= 1.1 + 1e-12
        assert any(cur.H != prev.H for prev, cur in zip(trace.records, trace.records[1:]))

    def test_clamp_changes_the_trace(self):
        miners = _two_miners()
        sched = [StrategySchedule("a", (0.0, 60.0))]
        free = run(_coin(), miners, sched, 10)
        clamped = run(_coin(clamp=1.1), miners, sched, 10)
        assert free.records[1].H != clamped.records[1].H


def _three_period_scenario():
    # deviators with periods 2, 3 and 5 (common period 30) plus an always-on miner
    miners = [MinerParams("a", 30.0, 0.1, 0.006), MinerParams("b", 25.0, 0.05, 0.008),
              MinerParams("c", 20.0, 0.0, 0.01), MinerParams("d", 25.0, 0.2, 0.002)]
    schedules = [StrategySchedule("a", (0.0, 30.0)),
                 StrategySchedule("b", (25.0, 7.5, 20.0), offset=1),
                 StrategySchedule("c", (20.0, 20.0, 3.0, 20.0, 11.0), offset=4)]
    return CoinParams(tau=600.0, epsilon=0.001, w=700.0), miners, schedules


def _bits(rec):
    """Every field of a record, floats as their exact hex form."""
    return (rec.k, rec.H.hex(), rec.t.hex(), rec.rph.hex(),
            tuple((s.miner_id, s.active_power.hex(), s.revenue_rate.hex(), s.cost_rate.hex(), s.profit_rate.hex())
                  for s in rec.per_miner))


class TestStreamingSimulation:
    def test_steady_cycle_is_the_last_period_of_run(self):
        coin, miners, schedules = _three_period_scenario()
        cycle = steady_cycle(coin, miners, schedules)
        assert len(cycle) == 30
        assert [_bits(r) for r in cycle] == [_bits(r) for r in run(coin, miners, schedules, 90).records[60:]]

    def test_steady_cycle_matches_closed_form(self):
        # unclamped, H_j = tau * A_{j-1}: one period of active powers fixes the cycle
        coin, miners, schedules = _three_period_scenario()
        cycle = steady_cycle(coin, miners, schedules)
        by_id = {s.miner_id: s for s in schedules}
        active = [[by_id[p.id].power_at(rec.k) if p.id in by_id else p.m for p in miners] for rec in cycle]
        A = [sum(powers) for powers in active]
        for j, rec in enumerate(cycle):
            H = coin.tau * A[j - 1]
            rph = coin.w / H
            assert (rec.H, rec.t, rec.rph) == (H, H / A[j], rph)
            for p, mhat, s in zip(miners, active[j], rec.per_miner):
                revenue, cost = rph * mhat, p.fc + p.vc * mhat
                assert (s.miner_id, s.active_power, s.revenue_rate, s.cost_rate, s.profit_rate) == (
                    p.id, mhat, revenue, cost, revenue - cost)

    @pytest.mark.parametrize("clamp", [None, 1.1])
    def test_run_matches_hand_loop_with_full_active_map(self, clamp):
        coin, miners, schedules = _three_period_scenario()
        coin = CoinParams(tau=coin.tau, epsilon=coin.epsilon, w=coin.w, clamp=clamp)
        by_id = {s.miner_id: s for s in schedules}
        H, expected = sum(p.m for p in miners) * coin.tau, []
        for k in range(1, 41):
            active = {p.id: (by_id[p.id].power_at(k) if p.id in by_id else p.m) for p in miners}
            rec, H = step_epoch(k, H, active, coin, miners)
            expected.append(_bits(rec))
        assert [_bits(r) for r in run(coin, miners, schedules, 40).records] == expected
