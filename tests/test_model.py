import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartmining import (
    AggregateContext,
    AttackReport,
    CoinParams,
    ConfigurationError,
    EntryEffect,
    EpochRecord,
    MinerEpochStats,
    MinerParams,
    SimulationTrace,
    SmarterPoint,
    StrategySchedule,
    calibrate_reward,
    run,
    step_epoch,
    total_power,
    validate_scenario,
)
from smartmining.model import _retarget, ordered_sum

# result types are named tuples; the CLI's CSV columns and JSON keys follow their field order
_RESULT_FIELDS = {
    MinerEpochStats: ("miner_id", "active_power", "revenue_rate", "cost_rate", "profit_rate"),
    EpochRecord: ("k", "H", "t", "rph", "per_miner", "total_active"),
    SimulationTrace: ("records", "utilities", "horizon"),
    SmarterPoint: ("delta", "utility", "roi"),
    AttackReport: ("lre_active_power", "idle_fraction", "attack_threshold", "per_miner_gain", "entry_effect"),
    EntryEffect: ("entrant_power", "rph_lre_before", "rph_lre_after", "rph_lre_ratio", "rph_hre_before",
                  "rph_hre_after", "lre_active_before", "lre_active_after"),
}


class TestMinerParams:
    def test_valid(self):
        p = MinerParams("a", m=100.0, fc=0.15, vc=0.0085)
        assert p.cost_rate == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("m,fc,vc", [
        (0.0, 0.1, 0.1),
        (-1.0, 0.1, 0.1),
        (10.0, -0.1, 0.1),
        (10.0, 0.1, -0.1),
        (10.0, 0.0, 0.0),  # zero total cost is degenerate
        (float("nan"), 0.1, 0.1),
        (float("inf"), 0.1, 0.1),
    ])
    def test_invalid(self, m, fc, vc):
        with pytest.raises(ValueError):
            MinerParams("a", m=m, fc=fc, vc=vc)

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            MinerParams("", m=1.0, fc=0.1, vc=0.1)

    @pytest.mark.parametrize("field", ["m", "fc", "vc"])
    def test_int_beyond_float_range_is_a_value_error(self, field):
        # math.isfinite would raise OverflowError, which is not a ValueError
        kwargs = {"m": 10.0, "fc": 0.1, "vc": 0.1, field: 10 ** 400}
        with pytest.raises(ValueError, match="must be finite"):
            MinerParams("a", **kwargs)

    def test_cost_rate_overflow_names_the_miner(self):
        with pytest.raises(ValueError, match="miner 'a' has total cost rate fc \\+ vc\\*m = inf"):
            MinerParams("a", m=1e300, fc=0.0, vc=1e10)

    @pytest.mark.parametrize("cls", list(_RESULT_FIELDS), ids=lambda cls: cls.__name__)
    def test_stats_fields(self, cls):
        assert issubclass(cls, tuple)
        assert cls._fields == _RESULT_FIELDS[cls]


class TestCoinParams:
    def test_valid(self):
        CoinParams(tau=600.0, epsilon=0.0, w=600.0)
        CoinParams(tau=600.0, epsilon=0.01, w=600.0, clamp=4.0)

    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.0, "epsilon": 0.0, "w": 1.0},
        {"tau": 1.0, "epsilon": -0.1, "w": 1.0},
        {"tau": 1.0, "epsilon": 0.0, "w": 0.0},
        {"tau": 1.0, "epsilon": 0.0, "w": 1.0, "clamp": 1.0},
        {"tau": 1.0, "epsilon": 0.0, "w": 1.0, "clamp": 0.5},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CoinParams(**kwargs)

    @pytest.mark.parametrize("field", ["tau", "epsilon", "w", "clamp"])
    def test_int_beyond_float_range_is_a_value_error(self, field):
        kwargs = {"tau": 600.0, "epsilon": 0.0, "w": 600.0, field: 10 ** 400}
        with pytest.raises(ValueError, match="finite"):
            CoinParams(**kwargs)


# the clamps of the retarget draws: none, the smallest ratio > 1, the trace-sim
# clamp and Bitcoin's 4x
_DRAWN_CLAMPS = (None, 1.0 + 2.0**-52, 1.2, 4.0)


def _inline_retarget(coin, H, A):
    """The retarget as step_epoch wrote it before ``model._retarget`` held it."""
    H_next = A * coin.tau
    if coin.clamp is not None:
        H_next = min(max(H_next, H / coin.clamp), H * coin.clamp)
    return H_next


class TestRetarget:
    """``model._retarget`` is the one retarget rule: A*tau, clamped to
    [H/clamp, H*clamp] when the coin has a clamp."""

    def test_matches_the_inline_rule_bit_for_bit(self):
        # H and A span the whole positive float range, subnormals included, so
        # H/clamp underflows to 0 and H*clamp overflows to inf in some draws
        rng, underflows, overflows = random.Random(38), 0, 0
        for _ in range(20000):
            H, A = (math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1073, 1024)) for _ in range(2))
            tau = math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-80, 80))
            coin = CoinParams(tau=tau, epsilon=0.0, w=1.0, clamp=rng.choice(_DRAWN_CLAMPS))
            assert _retarget(coin, H, A).hex() == _inline_retarget(coin, H, A).hex(), (H, A, coin)
            if coin.clamp is not None:
                underflows += H / coin.clamp == 0
                overflows += H * coin.clamp == math.inf
        assert underflows > 0 and overflows > 0

    def test_clamp_binds_from_below(self):
        coin = CoinParams(tau=600.0, epsilon=0.0, w=1.0, clamp=1.2)
        # 50 hashes/s retarget 60000 to 30000, below 60000/1.2
        assert _retarget(coin, 60000.0, 50.0) == 60000.0 / 1.2 == 50000.0

    def test_clamp_binds_from_above(self):
        coin = CoinParams(tau=600.0, epsilon=0.0, w=1.0, clamp=1.2)
        # 200 hashes/s retarget 60000 to 120000, above 60000*1.2
        assert _retarget(coin, 60000.0, 200.0) == 60000.0 * 1.2 == 72000.0


class TestStrategySchedule:
    def test_period_and_indexing(self):
        s = StrategySchedule("a", (0.0, 5.0, 2.0))
        assert s.period == 3
        assert [s.power_at(k) for k in range(1, 7)] == [0.0, 5.0, 2.0, 0.0, 5.0, 2.0]

    def test_offset_shifts_phase(self):
        s = StrategySchedule("a", (0.0, 5.0), offset=1)
        assert [s.power_at(k) for k in range(1, 5)] == [5.0, 0.0, 5.0, 0.0]

    @pytest.mark.parametrize("powers,offset", [
        ((), 0),
        ((-1.0,), 0),
        ((1.0,), -1),
        ((True, 1.0), 0),  # checked before conversion, so bools and strings never become floats
        (("1.0",), 0),
        ((1.0,), 1.7),
    ])
    def test_invalid(self, powers, offset):
        with pytest.raises(ValueError):
            StrategySchedule("a", powers, offset=offset)

    def test_int_beyond_float_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="must be finite"):
            StrategySchedule("a", (10 ** 400,))


_COIN = CoinParams(tau=600.0, epsilon=0.0, w=1.0)


class TestInputTypes:
    # each input type: a valid value, its field order (the summary.json key
    # order), one field set out of range and the constructor's message for it
    @pytest.mark.parametrize("value,fields,field,bad,message", [
        (MinerParams("a", m=10.0, fc=0.1, vc=0.01), ("id", "m", "fc", "vc"),
         "m", -1.0, "hash power must be finite and > 0, got -1.0"),
        (_COIN, ("tau", "epsilon", "w", "clamp"), "tau", -1.0, "tau must be finite and > 0, got -1.0"),
        (StrategySchedule("a", (0.0, 5.0), offset=1), ("miner_id", "powers", "offset"),
         "powers", (1.0, -2.0), "schedule powers must be finite and >= 0, got -2.0"),
        (AggregateContext(M=100.0, coin=_COIN), ("M", "coin"),
         "M", 0.0, "total hash power must be finite and > 0, got 0.0"),
    ], ids=["MinerParams", "CoinParams", "StrategySchedule", "AggregateContext"])
    def test_immutable_and_revalidated_on_replace(self, value, fields, field, bad, message):
        cls = type(value)
        with pytest.raises(AttributeError):
            setattr(value, field, bad)
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(ValueError) as built:
            cls(**dict(value._asdict(), **{field: bad}))
        with pytest.raises(ValueError) as replaced:
            value._replace(**{field: bad})
        assert str(replaced.value) == str(built.value) == message
        assert tuple(value._asdict()) == cls._fields == fields
        assert tuple(value._asdict().values()) == tuple(value) == value
        assert type(value._replace()) is cls and value._replace() == value


class TestCalibrateReward:
    def test_single_miner_hand_sum(self):
        # 600 * (0.15 + 0.0085 * 100) = 600 * 1.0
        m = MinerParams("a", m=100.0, fc=0.15, vc=0.0085)
        assert calibrate_reward([m], tau=600.0, epsilon=0.0) == pytest.approx(600.0, rel=1e-15)

    def test_two_identical_miners_double_the_reward(self):
        a = MinerParams("a", 50.0, 0.1, 0.004)
        b = MinerParams("b", 50.0, 0.1, 0.004)
        one = calibrate_reward([a], 600.0, 0.0)
        assert calibrate_reward([a, b], 600.0, 0.0) == pytest.approx(2 * one, rel=1e-15)

    def test_empty_miner_list_rejected(self):
        with pytest.raises(ConfigurationError):
            calibrate_reward([], 600.0, 0.0)

    def test_linear_in_epsilon(self):
        miners = [MinerParams("a", 60.0, 0.2, 0.01), MinerParams("b", 40.0, 0.0, 0.02)]
        w0 = calibrate_reward(miners, 600.0, 0.0)
        w1 = calibrate_reward(miners, 600.0, 0.5)
        assert w1 - w0 == pytest.approx(600.0 * 2 * 0.5, rel=1e-12)

    @given(lam=st.floats(0.1, 10.0), tau=st.floats(1.0, 1000.0))
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_linear_in_cost_scale(self, lam, tau):
        base = [MinerParams("a", 10.0, 0.5, 0.05), MinerParams("b", 30.0, 0.0, 0.01)]
        scaled = [MinerParams(p.id, p.m, p.fc * lam, p.vc * lam) for p in base]
        assert calibrate_reward(scaled, tau, 0.0) == pytest.approx(
            lam * calibrate_reward(base, tau, 0.0), rel=1e-12)


def _loop_sum(values):
    """ordered_sum spelled as the loop it stands for."""
    total = 0
    for v in values:
        total += v
    return total


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                                1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308])
_SUMMANDS = _EDGE_FLOATS | st.floats()


class TestOrderedSum:
    """Float sums add left to right from 0, as ``sum()`` did before Python 3.12
    made it compensated, so outputs do not depend on the interpreter."""

    def test_left_to_right_from_zero(self):
        # 1.0 + 1e-16 rounds to 1.0 at each step; 1e-16 + 1e-16 first does not
        assert ordered_sum([1.0, 1e-16, 1e-16]) == 1.0
        assert ordered_sum([1e-16, 1e-16, 1.0]) == 1.0000000000000002
        assert ordered_sum([]) == 0
        assert repr(ordered_sum([-0.0])) == "0.0"

    def test_three_miner_case_at_every_model_sum(self):
        # a compensated sum makes M and A 1.0000000000000002, w 600.0000000000001
        # and t 599.9999999999999
        miners = [MinerParams("a", 1.0, 1.0, 0.0), MinerParams("b", 1e-16, 1e-16, 0.0),
                  MinerParams("c", 1e-16, 1e-16, 0.0)]
        assert total_power(miners) == 1.0
        assert calibrate_reward(miners, 600.0, 0.0) == 600.0
        rec, H_next = step_epoch(1, 600.0, {}, CoinParams(tau=600.0, epsilon=0.0, w=600.0), miners)
        assert (rec.t, rec.total_active, H_next) == (600.0, 1.0, 600.0)

    @given(st.lists(_SUMMANDS, max_size=12))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_an_explicit_loop(self, values):
        want = repr(_loop_sum(values))
        assert repr(ordered_sum(values)) == want
        assert repr(ordered_sum(v for v in values)) == want

    @given(st.lists(_SUMMANDS | _SUMMANDS.map(np.float64), max_size=12))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_numpy_scalars_match_an_explicit_loop(self, values):
        # perfbench's replay passes active powers read back as np.float64
        with np.errstate(all="ignore"):
            got, want = ordered_sum(values), _loop_sum(values)
        assert (type(got), repr(got)) == (type(want), repr(want))

    def test_epoch_duration_is_workload_over_total_active(self):
        miners = [MinerParams("a", 30.0, 0.1, 0.006), MinerParams("b", 25.0, 0.05, 0.008),
                  MinerParams("c", 1e-16, 0.0, 0.01), MinerParams("d", 25.0, 0.2, 0.002)]
        schedules = [StrategySchedule("a", (0.0, 30.0, 12.3)), StrategySchedule("b", (25.0, 7.5), offset=1)]
        for rec in run(CoinParams(tau=600.0, epsilon=0.001, w=700.0, clamp=1.3), miners, schedules, 24).records:
            assert rec.t.hex() == (rec.H / rec.total_active).hex()


class TestValidateScenario:
    def _coin(self):
        return CoinParams(tau=600.0, epsilon=0.0, w=600.0)

    def test_well_formed(self):
        miners = [MinerParams("a", 60.0, 0.2, 0.01), MinerParams("b", 40.0, 0.0, 0.02)]
        schedules = [StrategySchedule("a", (0.0, 60.0))]
        assert validate_scenario(self._coin(), miners, schedules) == []

    def test_power_exceeding_capacity(self):
        miners = [MinerParams("a", 10.0, 0.2, 0.01)]
        schedules = [StrategySchedule("a", (12.0,))]
        errors = validate_scenario(self._coin(), miners, schedules)
        assert len(errors) == 1 and "exceeds capacity" in errors[0]

    def test_duplicate_miner_id(self):
        miners = [MinerParams("a", 10.0, 0.2, 0.01), MinerParams("a", 20.0, 0.1, 0.01)]
        errors = validate_scenario(self._coin(), miners)
        assert any("duplicate miner id" in e for e in errors)

    def test_unknown_schedule_target(self):
        miners = [MinerParams("a", 10.0, 0.2, 0.01)]
        errors = validate_scenario(self._coin(), miners, [StrategySchedule("ghost", (1.0,))])
        assert any("unknown miner" in e for e in errors)

    def test_multiple_schedules_for_one_miner(self):
        miners = [MinerParams("a", 10.0, 0.2, 0.01)]
        schedules = [StrategySchedule("a", (1.0,)), StrategySchedule("a", (2.0,))]
        errors = validate_scenario(self._coin(), miners, schedules)
        assert any("multiple schedules" in e for e in errors)

    def test_no_miners(self):
        assert validate_scenario(self._coin(), []) == ["no miners defined"]

    def test_first_workload_underflow(self):
        coin = CoinParams(tau=1e-200, epsilon=0.0, w=1.0)
        errors = validate_scenario(coin, [MinerParams("a", 1e-200, 0.1, 0.1)])
        assert errors == ["M*tau = 1e-200*1e-200 underflows or overflows: the epoch workload must be > 0 and finite"]

    def test_first_workload_overflow(self):
        # each power is finite, but M*tau is not
        miners = [MinerParams("a", 1e307, 0.1, 0.0), MinerParams("b", 1e307, 0.1, 0.0)]
        errors = validate_scenario(self._coin(), miners)
        assert len(errors) == 1 and "M*tau = 2e+307*600.0" in errors[0]

    def test_baseline_price_overflow(self):
        coin = CoinParams(tau=1e-300, epsilon=0.0, w=1e300)
        errors = validate_scenario(coin, [MinerParams("a", 0.5, 0.1, 0.1), MinerParams("b", 0.5, 0.1, 0.1)])
        assert errors == ["w/(M*tau) = 1e+300/1e-300 overflows: the baseline price must be finite"]

    def test_baseline_price_underflow(self):
        coin = CoinParams(tau=1e300, epsilon=0.0, w=1e-300)
        errors = validate_scenario(coin, [MinerParams("a", 3e-151, 0.0, 1.0), MinerParams("b", 7e-151, 0.1, 0.01)])
        assert errors == ["w/(M*tau) = 1e-300/1e+150 underflows to 0: the baseline price must be > 0"]

    def test_first_workload_unchecked_without_coin(self):
        assert validate_scenario(None, [MinerParams("a", 1e-200, 0.1, 0.1)]) == []
