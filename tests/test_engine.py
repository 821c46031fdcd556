
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _scenarios import (ALWAYS_ON_CONFIG, DISTINCT_POWERS_CONFIG, NO_REPEAT_CONFIG, alternation, context_for,
                        proportional_scenario, scaled_market)
from smartmining import engine
from smartmining import (
    CoinParams,
    ConfigurationError,
    MinerEpochStats,
    MinerParams,
    StalledEpochError,
    StrategySchedule,
    calibrate_reward,
    periodic_utility,
    run,
    smart_utility,
    steady_cycle,
    step_epoch,
    total_power,
    trace_utilities,
)
from smartmining.model import ordered_sum


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

    def test_active_power_check_precedes_the_stall_check(self):
        # the others idle, so A = -1.0 <= 0 would stall the epoch
        miners = [MinerParams("a", 10.0, 0.1, 0.01), MinerParams("b", 20.0, 0.1, 0.01),
                  MinerParams("c", 30.0, 0.1, 0.01)]
        with pytest.raises(ValueError, match=r"^active power -1\.0 outside \[0, 20\.0\] for miner 'b'$"):
            step_epoch(1, 60000.0, {"a": 0.0, "b": -1.0, "c": 0.0}, _coin(), miners)

    def test_first_bad_miner_in_config_order_is_named(self):
        miners = [MinerParams("a", 10.0, 0.1, 0.01), MinerParams("b", 20.0, 0.1, 0.01),
                  MinerParams("c", 30.0, 0.1, 0.01)]
        # the active map lists miner 3 first; config order decides
        with pytest.raises(ValueError, match=r"^active power nan outside \[0, 10\.0\] for miner 'a'$"):
            step_epoch(1, 60000.0, {"c": 31.0, "a": float("nan")}, _coin(), miners)

    def test_unknown_miner_id_rejected(self):
        # "A" is no miner's id: it does not idle a, and neither miner mines at
        # full power unnoticed
        miners = [MinerParams("a", 10.0, 0.1, 0.01), MinerParams("b", 5.0, 0.1, 0.01)]
        with pytest.raises(ValueError, match=r"^active power for unknown miner 'A'$"):
            step_epoch(1, 9000.0, {"A": 0.0}, _coin(), miners)
        # after the range check and before the stall check
        with pytest.raises(ValueError, match=r"^active power 6\.0 outside \[0, 5\.0\] for miner 'b'$"):
            step_epoch(1, 9000.0, {"x": 0.0, "b": 6.0}, _coin(), miners)
        # both miners idle, so A = 0.0 would stall the epoch
        with pytest.raises(ValueError, match=r"^active power for unknown miner 'x'$"):
            step_epoch(1, 9000.0, {"a": 0.0, "x": 1.0, "b": 0.0, "y": 1.0}, _coin(), miners)

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

    def test_infinite_duration_rejected(self):
        # epoch 1 runs on 1e-310 of power alone: H/A = 1.0/1e-310 overflows
        miners = [MinerParams("a", 1e20, 0.0, 1e-20), MinerParams("b", 1e-310, 1.0, 0.0)]
        coin = CoinParams(tau=1e-20, epsilon=0.0, w=1.0)
        with pytest.raises(ValueError, match=r"^epoch 1: duration H/A = 1\.0/1e-310 overflows"):
            step_epoch(1, 1.0, {"a": 0.0}, coin, miners)

    def test_zero_workload_names_epoch(self):
        # epoch 1 runs on 1e-305 of power alone, so H_2 = 1e-305*tau underflows to 0
        miners = [MinerParams("a", 1e20, 0.0, 1e-20), MinerParams("b", 1e-305, 1.0, 0.0)]
        coin = CoinParams(tau=1e-20, epsilon=0.0, w=1.0)
        with pytest.raises(ValueError, match=r"^epoch 2: epoch workload must be > 0, got 0\.0$"):
            run(coin, miners, [StrategySchedule("a", (0.0, 1e20))], 3)


def _step_outcome(k, H, active, coin, miners, **state):
    """The exact result of one ``step_epoch`` call: its fields as float hex
    plus the per-miner rates, or the type and message it raised."""
    try:
        rec, H_next = step_epoch(k, H, active, coin, miners, **state)
    except (ValueError, StalledEpochError) as exc:
        return type(exc), str(exc)
    return rec.k, rec.H.hex(), rec.t.hex(), rec.rph.hex(), rec.total_active.hex(), H_next.hex(), rec.per_miner


# miner capacities from tiny (duration overflow) to huge (duration underflow)
_CAPACITIES = st.sampled_from([1e-310, 1e-300, 1.0, 40.0, 1e20])
# shares of capacity: +-0, inside [0, 1], and outside it (out-of-range powers)
_SHARES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.5, float("nan")]) | st.floats(0.0, 1.0)
# in-range shares of capacity, as validate_scenario admits schedule powers
_SHARE_POWERS = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)
_STEP_MINERS = [MinerParams("a", 40.0, 0.1, 0.01), MinerParams("b", 1.0, 0.0, 1.0),
                MinerParams("c", 1e-310, 1.0, 0.0)]


class TestBareStep:
    @given(
        k=st.integers(0, 9),
        H=st.sampled_from([-1.0, 0.0, -0.0, 1e-320, 1e-300, 1.0, 6e4, 1e300]) | st.floats(1e-3, 1e6),
        capacities=st.lists(_CAPACITIES, min_size=1, max_size=3),
        shares=st.lists(st.none() | _SHARES, min_size=3, max_size=3),
        tau=st.sampled_from([1e-20, 600.0]),
        w=st.sampled_from([1.0, 600.0, 1e300]),
        clamp=st.sampled_from([None, 1.05, 4.0]),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_matches_the_full_step(self, k, H, capacities, shares, tau, w, clamp):
        miners = [MinerParams(p.id, m, p.fc, p.vc) for p, m in zip(_STEP_MINERS, capacities)]
        active = {p.id: f * p.m for p, f in zip(miners, shares) if f is not None}
        coin = CoinParams(tau=tau, epsilon=0.0, w=w, clamp=clamp)
        # step_epoch reads miners by position, so plain (id, m, fc, vc) tuples step alike
        assert _step_outcome(k, H, active, coin, [tuple(p) for p in miners]) == _step_outcome(
            k, H, active, coin, miners)

    @pytest.mark.parametrize("k,H,capacity,active,w,fragment", [
        (0, 6e4, 40.0, {}, 600.0, "epoch index must be >= 1"),
        (1, -0.0, 40.0, {}, 600.0, "epoch workload must be > 0"),
        (1, 6e4, 40.0, {"a": 60.0}, 600.0, "outside [0, 40.0]"),
        (2, 6e4, 40.0, {"a": -0.0}, 600.0, "epoch 2 stalled"),
        (1, 1e-320, 1e20, {}, 600.0, "epoch duration must be > 0"),
        (1, 1e300, 1e-310, {}, 600.0, "duration H/A = 1e+300/1e-310 overflows"),
        (3, 1e-320, 1.0, {}, 1.0, "revenue per hash w/H = 1.0/1e-320 overflows"),
    ])
    def test_raises_like_the_full_step(self, k, H, capacity, active, w, fragment):
        miners, coin = [MinerParams("a", capacity, 0.1, 0.0)], CoinParams(tau=600.0, epsilon=0.0, w=w)
        kind, message = _step_outcome(k, H, active, coin, miners)
        assert fragment in message
        if "outside" not in fragment:   # in-range powers, as a caller that passes a state has checked
            total = ordered_sum(active.get(p.id, p.m) for p in miners)
            assert _step_outcome(k, H, None, coin, miners, state=((), total)) == (kind, message)

    @given(
        k=st.integers(0, 9),
        H=st.sampled_from([-1.0, 0.0, -0.0, 1e-320, 1e-300, 1.0, 6e4, 1e300]) | st.floats(1e-3, 1e6),
        capacities=st.lists(_CAPACITIES, min_size=1, max_size=3),
        shares=st.lists(st.none() | _SHARE_POWERS, min_size=3, max_size=3),
        tau=st.sampled_from([1e-20, 600.0]),
        w=st.sampled_from([1.0, 600.0, 1e300]),
        clamp=st.sampled_from([None, 1.05, 4.0]),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_state_matches_the_full_step(self, k, H, capacities, shares, tau, w, clamp):
        # a state (per_miner, A), A the ordered_sum of the checked powers: the
        # same record, A included, and next workload, or the same raise, as
        # the full step, which reads the active map and the capacities that
        # this step is denied (None and nan)
        miners = [MinerParams(p.id, m, p.fc, p.vc) for p, m in zip(_STEP_MINERS, capacities)]
        active = {p.id: f * p.m for p, f in zip(miners, shares) if f is not None}
        coin = CoinParams(tau=tau, epsilon=0.0, w=w, clamp=clamp)
        total = ordered_sum(active.get(p.id, p.m) for p in miners)
        full = _step_outcome(k, H, active, coin, miners)
        given = full[-1] if len(full) > 2 else (MinerEpochStats("x", 1.0, 2.0, 3.0, -1.0),)
        blind = [(p.id, math.nan, p.fc, p.vc) for p in miners]
        fast = _step_outcome(k, H, None, coin, blind, state=(given, total))
        assert fast == full
        if len(full) > 2:
            assert fast[-1] is given


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

    def test_cycle_bound_is_inclusive(self, monkeypatch):
        # periods 2 and 3 with two miners: p*N = 6*2 = 12 miner-epochs
        coin, miners = _coin(), _two_miners()
        schedules = [StrategySchedule("a", (60.0, 0.0)), StrategySchedule("b", (20.0, 40.0, 40.0))]
        monkeypatch.setattr(engine, "_MAX_CYCLE_MINER_EPOCHS", 12)
        assert len(steady_cycle(coin, miners, schedules)) == 6
        monkeypatch.setattr(engine, "_MAX_CYCLE_MINER_EPOCHS", 11)
        with pytest.raises(ConfigurationError, match=r"periods \[2, 3\] have lcm 6, and 6 epochs x 2 miners"):
            steady_cycle(coin, miners, schedules)

    def test_cycle_just_over_the_bound_is_refused_before_simulating(self):
        # lcm(2048, 1025) = 2099200 epochs x 2 miners = 4198400, just above 2**22
        coin, miners = _coin(), _two_miners()
        schedules = [StrategySchedule("a", (0.0,) + (60.0,) * 2047), StrategySchedule("b", (20.0,) + (40.0,) * 1024)]
        with pytest.raises(ConfigurationError, match="lcm 2099200, and 2099200 epochs x 2 miners exceeds 4194304"):
            steady_cycle(coin, miners, schedules)

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


def _repeating_state_scenario():
    # a period-3 deviator beside a period-2 schedule of two equal entries
    # (common period 6): the state repeats every 3 epochs, across phases
    miners = [MinerParams("a", 30.0, 0.1, 0.006), MinerParams("b", 25.0, 0.05, 0.008),
              MinerParams("c", 20.0, 0.0, 0.01)]
    schedules = [StrategySchedule("a", (0.0, 30.0, 12.0)), StrategySchedule("b", (7.5, 7.5))]
    return CoinParams(tau=600.0, epsilon=0.001, w=700.0), miners, schedules


def _plain_step_loop(coin, miners, schedules, horizon):
    """Records of epochs 1..``horizon`` from bare ``step_epoch`` calls, each
    given the full map of active powers: the independent oracle for ``run``
    and ``steady_cycle``."""
    by_id = {s.miner_id: s for s in schedules}
    H, records = total_power(miners) * coin.tau, []
    for k in range(1, horizon + 1):
        active = {p.id: (by_id[p.id].power_at(k) if p.id in by_id else p.m) for p in miners}
        rec, H = step_epoch(k, H, active, coin, miners)
        records.append(rec)
    return records


def _bits(rec):
    """Every field of a record, floats as their exact hex form."""
    return (rec.k, rec.H.hex(), rec.t.hex(), rec.rph.hex(),
            tuple((s.miner_id, s.active_power.hex(), s.revenue_rate.hex(), s.cost_rate.hex(), s.profit_rate.hex())
                  for s in rec.per_miner), rec.total_active.hex())


def _state_bits(rec):
    """An epoch's state, its workload and active powers, as exact hex forms."""
    return rec.H.hex(), tuple(s.active_power.hex() for s in rec.per_miner)


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

    def test_steady_cycle_steps_3p_and_computes_p_plus_1_rates(self, monkeypatch):
        # the benchmark's reach gate counts 3p step_epoch calls per steady
        # cycle: 90 on the three-period scenario, 18 on the repeating one
        stepped, built, built_at = [], [], []
        rates = engine._rates

        def counting_step(*args, **kwargs):
            rec, H_next = step_epoch(*args, **kwargs)
            stepped.append(rec)
            return rec, H_next

        def counting_rates(*args):
            made = rates(*args)
            built.extend(made)
            built_at.extend([len(stepped)] * len(made))
            return made

        monkeypatch.setattr(engine, "step_epoch", counting_step)
        monkeypatch.setattr(engine, "_rates", counting_rates)
        for coin, miners, schedules in (_three_period_scenario(), _repeating_state_scenario()):
            p = math.lcm(*(s.period for s in schedules))
            plain = _plain_step_loop(coin, miners, schedules, 3 * p)
            stepped.clear()
            built.clear()
            built_at.clear()
            cycle = steady_cycle(coin, miners, schedules)
            assert [rec.k for rec in stepped] == list(range(1, 3 * p + 1))
            # every state of the 3p epochs occurs in epochs 1..p+1, and rates
            # are built there only, once per workload, miner and power
            assert len(built) == len({(rec.H.hex(), s.miner_id, s.active_power.hex())
                                      for rec in plain[:p + 1] for s in rec.per_miner})
            assert max(built_at) <= p + 1
            made = {id(s) for s in built}
            assert all(id(s) in made for rec in cycle for s in rec.per_miner)
            assert len({id(rec.per_miner) for rec in cycle}) == len({_state_bits(rec) for rec in cycle})
            assert [_bits(r) for r in cycle] == [_bits(r) for r in stepped[2 * p:]] == [
                _bits(r) for r in plain[2 * p:]]
        # the repeating scenario's states recur across phases
        assert len({id(rec.per_miner) for rec in cycle}) < p

    def test_every_step_gets_its_phase_total(self, monkeypatch):
        # _simulate hands a step at a known workload the state (per_miner, A),
        # A the ordered_sum of its epoch's powers, and a step without shared
        # rates, which takes the full path, the scheduled miners' active map
        # and no state; steady_cycle and a clamped run still make one call
        # per epoch, 3p for the cycle
        calls = []

        def recording_step(k, H, active, coin, miners, *, state=None):
            rec, H_next = step_epoch(k, H, active, coin, miners, state=state)
            calls.append((rec, active, state))
            return rec, H_next

        monkeypatch.setattr(engine, "step_epoch", recording_step)
        for coin, miners, schedules in (_three_period_scenario(), _repeating_state_scenario()):
            p = math.lcm(*(s.period for s in schedules))
            clamped = CoinParams(tau=coin.tau, epsilon=coin.epsilon, w=coin.w, clamp=1.1)
            for coin, horizon in ((coin, 3 * p), (clamped, 40)):
                plain = _plain_step_loop(coin, miners, schedules, horizon)
                calls.clear()
                if coin.clamp is None:
                    steady_cycle(coin, miners, schedules)
                else:
                    run(coin, miners, schedules, horizon)
                assert len(calls) == horizon
                for (rec, active, state), want in zip(calls, plain):
                    assert _bits(rec) == _bits(want)
                    if state is None:
                        assert active == {s.miner_id: s.power_at(rec.k) for s in schedules}
                    else:
                        assert active is None and state[0] is rec.per_miner
                        assert state[1].hex() == ordered_sum(s.active_power for s in want.per_miner).hex()
                assert {state is None for _, _, state in calls} == {True, False}

    @pytest.mark.parametrize("clamp", [None, 1.1])
    def test_run_matches_hand_loop_with_full_active_map(self, clamp):
        coin, miners, schedules = _three_period_scenario()
        coin = CoinParams(tau=coin.tau, epsilon=coin.epsilon, w=coin.w, clamp=clamp)
        expected = [_bits(r) for r in _plain_step_loop(coin, miners, schedules, 40)]
        assert [_bits(r) for r in run(coin, miners, schedules, 40).records] == expected


_CYCLE_SHARES = st.lists(st.lists(_SHARE_POWERS, min_size=1, max_size=6), min_size=1, max_size=3)
_CYCLE_OFFSETS = st.lists(st.integers(0, 7), min_size=3, max_size=3)


def _cycle_scenario(shares, offsets, idle_last):
    """An unclamped scenario whose miners a, b and d mine the given shares of
    their power from the given offsets; returns (coin, miners, schedules, p).

    An always-on miner c keeps every epoch's active power > 0; with
    ``idle_last``, miner e idles in the last phase of the common period p, so
    H_{p+1} differs from the calibrated H_1."""
    miners = [MinerParams("a", 60.0, 0.15, 0.0075), MinerParams("b", 40.0, 0.1, 0.0075),
              MinerParams("d", 25.0, 0.0, 0.01), MinerParams("c", 10.0, 0.02, 0.005)]
    schedules = [StrategySchedule(p.id, tuple(p.m * f for f in fs), offset=o)
                 for p, fs, o in zip(miners, shares, offsets)]
    period = math.lcm(*(s.period for s in schedules))
    if idle_last:
        miners.append(MinerParams("e", 30.0, 0.05, 0.004))
        schedules.append(StrategySchedule("e", (30.0,) * (period - 1) + (0.0,)))
    return CoinParams(tau=600.0, epsilon=0.001, w=700.0), miners, schedules, period


def _many_always_on_miners():
    """24 miners, 5 of them deviating with periods 2, 3, 4, 5 and 7, so the
    common period is p = 420; returns (coin, miners, schedules)."""
    miners = [MinerParams(f"m{i:02d}", 5.0 + 1.75 * i, 0.01 * (1 + i % 7), 0.001 * (1 + i % 5))
              for i in range(24)]
    schedules = [StrategySchedule(p.id, tuple(p.m * 0.25 if j == 0 else p.m * 0.6 if j == 2 else p.m
                                              for j in range(n)), offset=n - 1)
                 for p, n in zip(miners[::5], (2, 3, 4, 5, 7))]
    return CoinParams(tau=600.0, epsilon=0.001, w=calibrate_reward(miners, 600.0, 0.001)), miners, schedules


def _assert_one_rates_object_per_workload_and_power(records):
    """Records hold one ``MinerEpochStats`` object per workload, miner and
    active power, each compared by its bits."""
    held = {}
    for rec in records:
        for s in rec.per_miner:
            assert held.setdefault((rec.H.hex(), s.miner_id, s.active_power.hex()), s) is s


def _assert_total_actives(records):
    """Each record's ``total_active`` has the bits of its per-miner active
    powers added in config order."""
    for rec in records:
        assert rec.total_active.hex() == ordered_sum(s.active_power for s in rec.per_miner).hex(), rec.k


class TestTotalActive:
    @given(_CYCLE_SHARES, _CYCLE_OFFSETS, st.booleans())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_records_carry_the_ordered_sum_of_their_powers(self, shares, offsets, idle_last):
        # security_report reads A from the records, whichever path of
        # step_epoch built them; the shares include -0.0
        coin, miners, schedules, period = _cycle_scenario(shares, offsets, idle_last)
        for clamp in (None, 1.2):
            clamped = CoinParams(tau=coin.tau, epsilon=coin.epsilon, w=coin.w, clamp=clamp)
            _assert_total_actives(run(clamped, miners, schedules, 3 * period + 5).records)
        _assert_total_actives(steady_cycle(coin, miners, schedules))

    def test_a_full_step_carries_the_ordered_sum_of_its_powers(self):
        # a compensated sum of these powers would read 1.0000000000000002
        miners = [MinerParams("a", 1.0, 1.0, 0.0), MinerParams("b", 1e-16, 1e-16, 0.0),
                  MinerParams("c", 1e-16, 1e-16, 0.0), MinerParams("d", 5.0, 1.0, 0.0)]
        rec, _ = step_epoch(1, 600.0, {"d": -0.0}, _coin(), miners)
        _assert_total_actives([rec])
        assert rec.total_active == 1.0


def _run_transient(tmp_path, doc, horizon):
    """The records of a ``horizon``-epoch run of config document ``doc``, and
    the memory the run held while it stepped and freed when it returned:
    tracemalloc's peak minus what it holds beside the records."""
    from smartmining.cli import _load_scenario

    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    coin, miners, schedules = _load_scenario(config)
    run(coin, miners, schedules, 10)
    tracemalloc.start()
    try:
        trace = run(coin, miners, schedules, horizon)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return trace.records, peak - held


class TestSharedRates:
    @given(
        powers_a=st.lists(_SHARE_POWERS.map(lambda f: 60.0 * f), min_size=1, max_size=4),
        powers_b=st.lists(_SHARE_POWERS.map(lambda f: 40.0 * f), min_size=1, max_size=3),
        offset=st.integers(0, 5),
        clamp=st.sampled_from([None, 1.0001, 1.2, 4.0]),
        idle_giant=st.booleans(),
        periods=st.integers(1, 5),
        extra=st.integers(0, 11),
    )
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_run_equals_the_plain_step_loop(self, powers_a, powers_b, offset, clamp, idle_giant, periods, extra):
        # an always-on third miner keeps every epoch's active power > 0; an
        # idle giant under clamp 1.0001 lowers the workload in every epoch, so
        # that trace never repeats
        miners = _two_miners() + [MinerParams("c", 10.0, 0.02, 0.005)]
        schedules = [StrategySchedule("a", tuple(powers_a), offset=offset), StrategySchedule("b", tuple(powers_b))]
        if idle_giant:
            miners.append(MinerParams("giant", 1e6, 0.1, 0.005))
            schedules.append(StrategySchedule("giant", (0.0,)))
        coin = _coin(clamp=clamp)
        period = math.lcm(*(s.period for s in schedules))
        horizon = periods * period + extra
        expected = _plain_step_loop(coin, miners, schedules, horizon)
        trace = run(coin, miners, schedules, horizon)
        assert [_bits(r) for r in trace.records] == [_bits(r) for r in expected]
        assert [(mid, u.hex()) for mid, u in trace.utilities.items()] == [
            (mid, u.hex()) for mid, u in trace_utilities(expected).items()]
        records = trace.records
        for a, b in zip(records, records[period:]):
            if a.H == b.H:
                assert a.per_miner is b.per_miner
        # one per_miner object is held only by records of one state: H, t,
        # rph and the oracle's active powers agree bit for bit
        states = {}
        for rec, want in zip(records, expected):
            state = (rec.H.hex(), rec.t.hex(), rec.rph.hex(), tuple(s.active_power.hex() for s in want.per_miner))
            assert states.setdefault(id(rec.per_miner), state) == state

    @pytest.mark.parametrize("clamp", [None, 1.2])
    def test_signed_zero_powers_never_share_rates(self, tmp_path, clamp):
        # 0.0 == -0.0, but the two write different mhat and R cells; past the
        # first epochs the workload settles, so the two states differ only in
        # the sign of a's power
        from smartmining.cli import main

        coin, miners = _coin(clamp=clamp), _two_miners()
        schedules = [StrategySchedule("a", (0.0, -0.0))]
        trace = run(coin, miners, schedules, 40)
        assert [_bits(r) for r in trace.records] == [_bits(r) for r in _plain_step_loop(coin, miners, schedules, 40)]
        signs = {}
        for rec in trace.records:
            sign = math.copysign(1.0, rec.per_miner[0].active_power)
            assert sign == (1.0 if rec.k % 2 else -1.0)
            assert signs.setdefault(id(rec.per_miner), sign) == sign
        assert len(signs) < 40
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "coin": {"tau": coin.tau, "epsilon": coin.epsilon, "clamp": clamp}, "reward": coin.w,
            "miners": [p._asdict() for p in miners],
            "schedules": [{"miner_id": "a", "powers": [0.0, -0.0]}]}), encoding="utf-8")
        assert main(["simulate", str(config), "--epochs", "40", "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "trace.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].split(",")[4:6] == ["a_mhat", "a_R"]
        for k, line in enumerate(lines[1:], start=1):
            zero = "0.0" if k % 2 else "-0.0"
            assert line.split(",")[4:6] == [zero, zero]

    @given(
        powers_a=st.lists(_SHARE_POWERS.map(lambda f: 60.0 * f), min_size=1, max_size=4),
        powers_b=st.lists(_SHARE_POWERS.map(lambda f: 40.0 * f), min_size=1, max_size=3),
        offset=st.integers(0, 5),
        clamp=st.sampled_from([None, 1.0001, 1.2, 4.0]),
        periods=st.integers(1, 5),
        extra=st.integers(0, 11),
    )
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_run_shares_rates_at_capacity_by_workload(self, powers_a, powers_b, offset, clamp, periods, extra):
        # every record of one H holds one rates object per miner and power:
        # always-on c, a or b at capacity (a share of 1.0) and below it alike
        miners = _two_miners() + [MinerParams("c", 10.0, 0.02, 0.005)]
        schedules = [StrategySchedule("a", tuple(powers_a), offset=offset), StrategySchedule("b", tuple(powers_b))]
        coin = _coin(clamp=clamp)
        period = math.lcm(*(s.period for s in schedules))
        horizon = periods * period + extra
        trace = run(coin, miners, schedules, horizon)
        expected = _plain_step_loop(coin, miners, schedules, horizon)
        assert [_bits(r) for r in trace.records] == [_bits(r) for r in expected]
        _assert_one_rates_object_per_workload_and_power(trace.records)

    @given(_CYCLE_SHARES, _CYCLE_OFFSETS, st.booleans())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_steady_cycle_shares_rates_at_capacity_by_workload(self, shares, offsets, idle_last):
        coin, miners, schedules, period = _cycle_scenario(shares, offsets, idle_last)
        cycle = steady_cycle(coin, miners, schedules)
        expected = _plain_step_loop(coin, miners, schedules, 3 * period)[2 * period:]
        assert [_bits(r) for r in cycle] == [_bits(r) for r in expected]
        _assert_one_rates_object_per_workload_and_power(cycle)

    @pytest.mark.parametrize("powers,phase_rows", [({"a": (0.0, 30.0), "b": (7.5, 7.5, 25.0)}, 4),
                                                   ({"c": (0.0, -0.0)}, 2)], ids=["shared-entries", "signed-zeros"])
    def test_steady_cycle_holds_one_row_per_tuple_of_entry_names(self, powers, phase_rows):
        # a (0.0, 30.0) beside b (7.5, 7.5, 25.0), p = 6: two pairs of phases
        # run the same entries after different phases, so at different
        # workloads, and each pair shares one row, and so one total_active
        # object.  0.0 and -0.0 are equal floats but two entries, a row each
        coin, miners, _ = _three_period_scenario()
        schedules = [StrategySchedule(mid, ps) for mid, ps in powers.items()]
        cycle = steady_cycle(coin, miners, schedules)
        p = len(cycle)
        expected = _plain_step_loop(coin, miners, schedules, 3 * p)[2 * p:]
        assert [_bits(r) for r in cycle] == [_bits(r) for r in expected]
        column = [i for i, miner in enumerate(miners) if miner.id in powers]
        rows = {}
        for rec in cycle:
            names = tuple(rec.per_miner[i].active_power.hex() for i in column)
            assert rows.setdefault(names, rec.total_active) is rec.total_active
        assert len(rows) == len({id(rec.total_active) for rec in cycle}) == phase_rows
        assert sorted(rows) == sorted({tuple(ps[j % len(ps)].hex() for ps in powers.values()) for j in range(p)})
        assert len({(rec.H.hex(), id(rec.total_active)) for rec in cycle}) == p

    @pytest.mark.parametrize("clamp", [None, 1.2])
    def test_no_schedule_equals_the_plain_step_loop(self, clamp):
        # without schedules every epoch has the empty tuple of entry names, so
        # every record of the honest equilibrium holds one per_miner tuple
        coin, miners = _coin(clamp=clamp), _two_miners()
        expected = [_bits(r) for r in _plain_step_loop(coin, miners, [], 6)]
        records = run(coin, miners, [], 6).records
        assert [_bits(r) for r in records] == expected
        assert len({id(rec.per_miner) for rec in records}) == 1
        if clamp is None:
            cycle = steady_cycle(coin, miners, [])
            assert [_bits(r) for r in cycle] == [_bits(r) for r in _plain_step_loop(coin, miners, [], 3)[2:]]
            assert len({id(rec.per_miner) for rec in cycle}) == 1

    def test_always_on_config_shares_rates_by_workload_and_power(self, tmp_path):
        # m03 runs its capacity 9.5 in one phase and m07 -0.0 in another; over
        # the 3p stream, each workload, miner and power has one rates object
        from smartmining.cli import _load_scenario

        config = tmp_path / "config.json"
        config.write_text(json.dumps(ALWAYS_ON_CONFIG), encoding="utf-8")
        coin, miners, schedules = _load_scenario(config)
        p = math.lcm(*(s.period for s in schedules))
        trace = run(coin, miners, schedules, 3 * p)
        expected = _plain_step_loop(coin, miners, schedules, 3 * p)
        assert [_bits(r) for r in trace.records] == [_bits(r) for r in expected]
        _assert_one_rates_object_per_workload_and_power(trace.records)

    def test_steady_cycle_memory_with_many_always_on_miners(self):
        # the cycle's 300 states fall on 80 workloads.  A rates object per
        # miner and state costs about 140 B per miner-epoch of the cycle; one
        # per workload, miner and power, about 61 B
        coin, miners, schedules = _many_always_on_miners()
        steady_cycle(coin, miners, schedules)
        tracemalloc.start()
        try:
            cycle = steady_cycle(coin, miners, schedules)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cycle) == 420
        assert peak < 100 * len(cycle) * len(miners)

    def test_run_of_one_period_shares_states_and_rates(self):
        # a run no longer than the common period p = 420 shares as much as a
        # longer one: each of its states has one per_miner tuple and each
        # workload, miner and power one rates object, about 52 B per
        # miner-epoch; a rates object per miner and epoch costs about 180 B
        coin, miners, schedules = _many_always_on_miners()
        expected = _plain_step_loop(coin, miners, schedules, 420)
        run(coin, miners, schedules, 420)
        tracemalloc.start()
        try:
            records = run(coin, miners, schedules, 420).records
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [_bits(r) for r in records] == [_bits(r) for r in expected]
        _assert_one_rates_object_per_workload_and_power(records)
        states = {}
        for rec in records:
            state = (rec.H.hex(), tuple(s.active_power.hex() for s in rec.per_miner))
            assert states.setdefault(state, rec.per_miner) is rec.per_miner
        assert len({id(rec.per_miner) for rec in records}) == len(states) < 420
        assert peak < 100 * len(records) * len(miners)

    def test_run_that_never_repeats_keeps_no_state_keys(self, tmp_path):
        # every epoch of this trace is a new state at a new workload: beyond
        # the records it returns, run holds one dict slot per epoch, keyed by
        # the record's own H (about 30 B); a key of its own per state, such as
        # a tuple of H and the entry names, would bring it to about 86 B.
        # CPython reuses up to 2,000 freed tuples of each small size without
        # allocating, out of tracemalloc's sight, so at 2,000 epochs a pair
        # kept per epoch, such as the entry names beside the first state's
        # per_miner tuple, read 38 B; at 5,000 epochs it reads 92 B
        records, transient = _run_transient(tmp_path, NO_REPEAT_CONFIG, 5000)
        assert len({r.H for r in records}) == 5000
        assert transient < 64 * 5000

    def test_run_whose_entries_never_repeat_keeps_no_copy_per_row(self, tmp_path):
        # each of 4,000 epochs runs an entry of its own at a new workload, so
        # each has a row, kept for the whole run, and a first state: about
        # 400 B per epoch beyond the records.  A row that also held the map of
        # scheduled powers its names give, and a first state kept beside its
        # names, brought it to about 620 B
        records, transient = _run_transient(tmp_path, DISTINCT_POWERS_CONFIG, 4000)
        assert len({r.total_active for r in records}) == len({r.H for r in records}) == 4000
        assert transient < 500 * 4000

    @given(_CYCLE_SHARES, _CYCLE_OFFSETS, st.booleans())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_steady_cycle_equals_the_last_period_of_the_plain_step_loop(self, shares, offsets, idle_last):
        coin, miners, schedules, period = _cycle_scenario(shares, offsets, idle_last)
        stepped = _plain_step_loop(coin, miners, schedules, 3 * period)
        # the invariant steady_cycle rests on: past the warm-up period, every
        # period repeats (H, t) bit for bit
        assert [(r.H.hex(), r.t.hex()) for r in stepped[period:2 * period]] == [
            (r.H.hex(), r.t.hex()) for r in stepped[2 * period:]]
        want = stepped[2 * period:]
        assert [_bits(r) for r in steady_cycle(coin, miners, schedules)] == [_bits(r) for r in want]
        assert [(mid, u.hex()) for mid, u in periodic_utility(coin, miners, schedules).items()] == [
            (mid, u.hex()) for mid, u in trace_utilities(want).items()]

    @given(_CYCLE_SHARES, _CYCLE_OFFSETS, st.booleans())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_steady_cycle_revenue_is_free_of_the_workload(self, shares, offsets, idle_last):
        # R_ij*t_j = (w/H_j)*mhat_ij * H_j/A_j, so over the cycle each miner
        # earns w * sum_j mhat_ij/A_j whatever the workloads H_j are
        coin, miners, schedules, _ = _cycle_scenario(shares, offsets, idle_last)
        cycle = steady_cycle(coin, miners, schedules)
        for i in range(len(miners)):
            earned = sum(rec.per_miner[i].revenue_rate * rec.t for rec in cycle)
            identity = coin.w * sum(rec.per_miner[i].active_power / math.fsum(s.active_power for s in rec.per_miner)
                                    for rec in cycle)
            # a subnormal power carries an absolute, not a relative, rounding error
            assert earned == pytest.approx(identity, rel=1e-12, abs=1e-300)


# shares of moderate size: every scaled power, rate and sum stays normal
_MODERATE_SHARES = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(1 / 64, 1.0)
_EXPONENTS = st.integers(-200, 200)


def _scaled_bits(rec, a, b, c):
    """``_bits`` of the record that the market of ``scaled_market(..., a, b, c)`` gives."""
    return (rec.k, math.ldexp(rec.H, a + c).hex(), math.ldexp(rec.t, c).hex(), math.ldexp(rec.rph, b - a).hex(),
            tuple((s.miner_id, math.ldexp(s.active_power, a).hex(), math.ldexp(s.revenue_rate, b).hex(),
                   math.ldexp(s.cost_rate, b).hex(), math.ldexp(s.profit_rate, b).hex()) for s in rec.per_miner),
            math.ldexp(rec.total_active, a).hex())


class TestPowerOfTwoScaling:
    @given(
        shares=st.lists(st.lists(_MODERATE_SHARES, min_size=1, max_size=6), min_size=1, max_size=3),
        offsets=_CYCLE_OFFSETS,
        idle_last=st.booleans(),
        a=_EXPONENTS, b=_EXPONENTS, c=_EXPONENTS,
        clamp=st.sampled_from([None, 1.05, 1.2, 4.0]),
        horizon=st.integers(1, 40),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_run_scales_by_powers_of_two(self, shares, offsets, idle_last, a, b, c, clamp, horizon):
        # an oracle that shares no float path with run: powers times 2**a,
        # tau times 2**c, costs and the reward as scaled_market says
        coin, miners, schedules, _ = _cycle_scenario(shares, offsets, idle_last)
        coin = CoinParams(tau=coin.tau, epsilon=coin.epsilon, w=coin.w, clamp=clamp)
        base = run(coin, miners, schedules, horizon)
        scaled = run(*scaled_market(coin, miners, schedules, a, b, c), horizon)
        assert [_bits(r) for r in scaled.records] == [_scaled_bits(r, a, b, c) for r in base.records]
        assert [(mid, u.hex()) for mid, u in scaled.utilities.items()] == [
            (mid, math.ldexp(u, b).hex()) for mid, u in base.utilities.items()]


def _dict_trace_utilities(records):
    """The accumulator ``trace_utilities`` used before it added by position:
    one dict entry per miner id."""
    acc = {}
    total_t = 0.0
    for rec in records:
        total_t += rec.t
        for s in rec.per_miner:
            acc[s.miner_id] = acc.get(s.miner_id, 0.0) + s.profit_rate * rec.t
    return {mid: v / total_t for mid, v in acc.items()}


_POWERS = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1.0)


class TestTraceUtilities:
    @given(
        powers_a=st.lists(_POWERS.map(lambda f: 60.0 * f), min_size=1, max_size=4),
        powers_b=st.lists(_POWERS.map(lambda f: 40.0 * f), min_size=1, max_size=3),
        offset=st.integers(0, 5),
        clamp=st.sampled_from([None, 1.05, 1.5]),
        horizon=st.integers(1, 30),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_the_dict_accumulator(self, powers_a, powers_b, offset, clamp, horizon):
        # an always-on third miner keeps every epoch's active power > 0
        miners = _two_miners() + [MinerParams("c", 10.0, 0.02, 0.005)]
        schedules = [StrategySchedule("a", tuple(powers_a), offset=offset), StrategySchedule("b", tuple(powers_b))]
        records = run(_coin(clamp=clamp), miners, schedules, horizon).records
        got = trace_utilities(records)
        want = _dict_trace_utilities(records)
        assert [(mid, u.hex()) for mid, u in got.items()] == [(mid, u.hex()) for mid, u in want.items()]

    @given(
        powers_a=st.lists(_POWERS.map(lambda f: 60.0 * f), min_size=1, max_size=4),
        offset=st.integers(0, 5),
        clamp=st.sampled_from([None, 1.05, 1.5]),
        horizon=st.integers(1, 30),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_rescaled_sums_keep_the_bits(self, powers_a, offset, clamp, horizon):
        # the fallback of trace_utilities agrees wherever the plain sums lose nothing
        miners = _two_miners() + [MinerParams("c", 10.0, 0.02, 0.005)]
        records = run(_coin(clamp=clamp), miners, [StrategySchedule("a", tuple(powers_a), offset=offset)],
                      horizon).records
        assert [(mid, u.hex()) for mid, u in engine._rescaled_utilities(records).items()] == \
            [(mid, u.hex()) for mid, u in trace_utilities(records).items()]

    def test_streams_its_records(self, tmp_path):
        # one pass with one running sum per miner holds about 0.2 B per record
        # while it adds, here 5,000 records of 16 miners; reading the records
        # into per-miner columns first held tens to hundreds of bytes per record
        records, _ = _run_transient(tmp_path, NO_REPEAT_CONFIG, 5000)
        trace_utilities(records[:10])
        tracemalloc.start()
        try:
            utilities = trace_utilities(records)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 5000 and len(utilities) == 16
        assert peak - held < 8 * 5000

    def test_no_records_give_no_utilities(self):
        assert trace_utilities([]) == {}
        assert trace_utilities(()) == {}

    def test_records_of_different_miner_counts_raise(self):
        two = run(_coin(), _two_miners(), [], 1).records[0]
        three = run(_coin(), _two_miners() + [MinerParams("c", 10.0, 0.02, 0.005)], [], 1).records[0]
        for records in ([two, three], [three, two]):
            with pytest.raises(ValueError):
                trace_utilities(records)
