
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _scenarios import alternation, context_for, proportional_scenario
from smartmining import engine
from smartmining import (
    CoinParams,
    ConfigurationError,
    MinerEpochStats,
    MinerParams,
    StalledEpochError,
    StrategySchedule,
    periodic_utility,
    run,
    smart_utility,
    steady_cycle,
    step_epoch,
    total_power,
    trace_utilities,
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


def _step_outcome(k, H, active, coin, miners, **per_miner):
    """The exact result of one ``step_epoch`` call: its fields as float hex
    plus the per-miner rates, or the type and message it raised."""
    try:
        rec, H_next = step_epoch(k, H, active, coin, miners, **per_miner)
    except (ValueError, StalledEpochError) as exc:
        return type(exc), str(exc)
    return rec.k, rec.H.hex(), rec.t.hex(), rec.rph.hex(), H_next.hex(), rec.per_miner


# miner capacities from tiny (duration overflow) to huge (duration underflow)
_CAPACITIES = st.sampled_from([1e-310, 1e-300, 1.0, 40.0, 1e20])
# shares of capacity: +-0, inside [0, 1], and outside it (out-of-range powers)
_SHARES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.5, float("nan")]) | st.floats(0.0, 1.0)
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
        given = (MinerEpochStats("x", 1.0, 2.0, 3.0, -1.0),)
        full = _step_outcome(k, H, active, coin, miners)
        bare = _step_outcome(k, H, active, coin, miners, per_miner=())
        shared = _step_outcome(k, H, active, coin, miners, per_miner=given)
        # step_epoch reads miners by position, so plain (id, m, fc, vc) tuples step alike
        assert _step_outcome(k, H, active, coin, [tuple(p) for p in miners]) == full
        if len(full) == 2:   # raised
            assert bare == shared == full
        else:
            assert bare == full[:5] + ((),)
            assert shared == full[:5] + (given,)
            assert shared[5] is given

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
        kind, message = _step_outcome(k, H, active, coin, miners, per_miner=())
        assert fragment in message
        assert (kind, message) == _step_outcome(k, H, active, coin, miners)


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

    def test_steady_cycle_steps_3p_and_computes_p_plus_1_rates(self, monkeypatch):
        # the benchmark's reach gate counts 3p step_epoch calls per steady cycle
        coin, miners, schedules = _three_period_scenario()
        want = [_bits(r) for r in run(coin, miners, schedules, 90).records[60:]]
        stepped, computed = [], []

        def counting(*args, per_miner=None, **kwargs):
            rec, H_next = step_epoch(*args, per_miner=per_miner, **kwargs)
            stepped.append(rec)
            if per_miner is None:
                computed.append(rec)
            return rec, H_next

        monkeypatch.setattr(engine, "step_epoch", counting)
        cycle = steady_cycle(coin, miners, schedules)
        assert [rec.k for rec in stepped] == list(range(1, 91))
        # rates are computed in the first period and in epoch p+1 alone
        assert len(computed) <= 31
        built = {id(rec.per_miner) for rec in computed if rec.k <= 31}
        assert all(id(rec.per_miner) in built for rec in cycle)
        assert [_bits(r) for r in cycle] == [_bits(r) for r in stepped[60:]] == want

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


_SHARE_POWERS = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)


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
        by_id = {s.miner_id: s for s in schedules}
        H, expected = total_power(miners) * coin.tau, []
        for k in range(1, horizon + 1):
            active = {p.id: (by_id[p.id].power_at(k) if p.id in by_id else p.m) for p in miners}
            rec, H = step_epoch(k, H, active, coin, miners)
            expected.append(rec)
        trace = run(coin, miners, schedules, horizon)
        assert [_bits(r) for r in trace.records] == [_bits(r) for r in expected]
        assert [(mid, u.hex()) for mid, u in trace.utilities.items()] == [
            (mid, u.hex()) for mid, u in trace_utilities(expected).items()]
        records = trace.records
        for a, b in zip(records, records[period:]):
            if a.H == b.H:
                assert a.per_miner is b.per_miner
        phases = {}
        for rec in records:
            assert phases.setdefault(id(rec.per_miner), rec.k % period) == rec.k % period

    @given(
        shares=st.lists(st.lists(_SHARE_POWERS, min_size=1, max_size=6), min_size=1, max_size=3),
        offsets=st.lists(st.integers(0, 7), min_size=3, max_size=3),
        idle_last=st.booleans(),
    )
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_steady_cycle_equals_the_last_period_of_the_plain_step_loop(self, shares, offsets, idle_last):
        # an always-on miner c keeps every epoch's active power > 0; with
        # idle_last, miner e idles in the last phase of the common period, so
        # H_{p+1} differs from the calibrated H_1
        miners = [MinerParams("a", 60.0, 0.15, 0.0075), MinerParams("b", 40.0, 0.1, 0.0075),
                  MinerParams("d", 25.0, 0.0, 0.01), MinerParams("c", 10.0, 0.02, 0.005)]
        schedules = [StrategySchedule(p.id, tuple(p.m * f for f in fs), offset=o)
                     for p, fs, o in zip(miners, shares, offsets)]
        period = math.lcm(*(s.period for s in schedules))
        if idle_last:
            miners.append(MinerParams("e", 30.0, 0.05, 0.004))
            schedules.append(StrategySchedule("e", (30.0,) * (period - 1) + (0.0,)))
        coin = CoinParams(tau=600.0, epsilon=0.001, w=700.0)
        by_id = {s.miner_id: s for s in schedules}
        H, stepped = total_power(miners) * coin.tau, []
        for k in range(1, 3 * period + 1):
            active = {p.id: (by_id[p.id].power_at(k) if p.id in by_id else p.m) for p in miners}
            rec, H = step_epoch(k, H, active, coin, miners)
            stepped.append(rec)
        # the invariant steady_cycle rests on: past the warm-up period, every
        # period repeats (H, t) bit for bit
        assert [(r.H.hex(), r.t.hex()) for r in stepped[period:2 * period]] == [
            (r.H.hex(), r.t.hex()) for r in stepped[2 * period:]]
        want = stepped[2 * period:]
        assert [_bits(r) for r in steady_cycle(coin, miners, schedules)] == [_bits(r) for r in want]
        assert [(mid, u.hex()) for mid, u in periodic_utility(coin, miners, schedules).items()] == [
            (mid, u.hex()) for mid, u in trace_utilities(want).items()]


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

    def test_no_records_give_no_utilities(self):
        assert trace_utilities([]) == {}
        assert trace_utilities(()) == {}

    def test_records_of_different_miner_counts_raise(self):
        two = run(_coin(), _two_miners(), [], 1).records[0]
        three = run(_coin(), _two_miners() + [MinerParams("c", 10.0, 0.02, 0.005)], [], 1).records[0]
        for records in ([two, three], [three, two]):
            with pytest.raises(ValueError):
                trace_utilities(records)
