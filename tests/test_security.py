import math
import random
from fractions import Fraction

import numpy as np
import pytest

from _exact import cycle_gains, entry_rph_after
from _scenarios import alternation, attack_trio, moderate_market, scaled_market
from smartmining import (
    CoinParams,
    ConfigurationError,
    EntryEffect,
    MinerParams,
    StrategySchedule,
    attack_threshold,
    calibrate_reward,
    security_report,
    steady_cycle,
)


def _simulated_entry_effect(coin, miners, schedules, entrant_power):
    """Oracle for ``security_report``'s ``entry_effect``: simulate a second
    steady cycle with a real entrant miner, id "entrant", scheduled on the
    maximal-revenue positions of the first."""
    before = steady_cycle(coin, miners, schedules)
    actives = [rec.total_active for rec in before]
    lre = actives.index(min(actives))
    rphs = [rec.rph for rec in before]
    hre = rphs.index(max(rphs))
    if entrant_power == 0:
        after = before
    else:
        entrant = MinerParams("entrant", m=entrant_power, fc=0.0, vc=1.0)
        joined = StrategySchedule("entrant", tuple(entrant_power if r == rphs[hre] else 0.0 for r in rphs))
        after = steady_cycle(coin, list(miners) + [entrant], list(schedules) + [joined])
    return EntryEffect(
        entrant_power=entrant_power,
        rph_lre_before=before[lre].rph,
        rph_lre_after=after[lre].rph,
        rph_lre_ratio=after[lre].rph / before[lre].rph,
        rph_hre_before=before[hre].rph,
        rph_hre_after=after[hre].rph,
        lre_active_before=actives[lre],
        lre_active_after=after[lre].total_active,
    )


def _random_entry(rng):
    """A random calibrated market, 0 to 4 deviation schedules on it (one
    miner always mines at full power), and an entrant power."""
    miners = [MinerParams(f"m{j}", m=rng.uniform(0.1, 100.0), fc=rng.uniform(0.0, 1.0),
                          vc=rng.uniform(0.001, 0.1)) for j in range(rng.randint(2, 12))]
    tau = rng.choice([1e-3, 1.0, 600.0])
    coin = CoinParams(tau=tau, epsilon=0.0, w=calibrate_reward(miners, tau, 0.0))
    schedules = []
    for deviator in rng.sample(miners, rng.randint(0, min(4, len(miners) - 1))):
        # repeated entries tie revenue per hash across several cycle positions
        powers = tuple(rng.choice([0.0, deviator.m / 2, deviator.m, rng.uniform(0.0, deviator.m)])
                       for _ in range(rng.randint(1, 9)))
        schedules.append(StrategySchedule(deviator.id, powers, offset=rng.randint(0, 12)))
    entrant = rng.choice([0.0, 1e-300, 0.5, 10.0, rng.uniform(0.0, 100.0), 1e12])
    return coin, miners, schedules, entrant


class TestAttackThreshold:
    def test_one_fifth_idle(self):
        assert attack_threshold(100.0, 20.0) == 0.4

    def test_no_idle_classical_majority(self):
        assert attack_threshold(100.0, 0.0) == 0.5

    def test_half_idle(self):
        assert attack_threshold(100.0, 50.0) == 0.25

    def test_affine_in_idle_fraction(self):
        for f in np.linspace(0.0, 0.99, 34):
            assert attack_threshold(1.0, float(f)) + f / 2 == pytest.approx(0.5, rel=1e-12)

    def test_all_idle_leaves_no_threshold(self):
        assert attack_threshold(100.0, 100.0) == 0.0

    @pytest.mark.parametrize("M,idle", [(100.0, 120.0), (100.0, -1.0), (0.0, 0.0)])
    def test_domain_errors(self, M, idle):
        with pytest.raises(ValueError):
            attack_threshold(M, idle)


def _bystander_gain(coin, miners, schedule):
    return security_report(coin, miners, [schedule]).per_miner_gain["bystander"]


class TestBystanderGain:
    """The bystander's entry of ``security_report``'s per-miner gains."""

    def test_honest_deviator_no_gain(self):
        coin, miners = attack_trio()
        attacker = miners[0]
        assert abs(_bystander_gain(coin, miners, alternation(attacker, 0.0))) <= 1e-14

    def test_reference_scenario(self):
        # attacker 20 fully idles every other epoch: the 10-power bystander
        # earns 0 in reduced epochs and 10*w/(80*tau) - 0.1 = 0.025 in boosted
        # ones, time-weighted by (480, 750): u = 12/1230 over a margin of 0
        coin, miners = attack_trio()
        attacker = miners[0]
        assert _bystander_gain(coin, miners, alternation(attacker, attacker.m)) == \
            pytest.approx(12.0 / 1230.0, rel=1e-12)

    def test_gain_increases_with_idle_power(self):
        coin, miners = attack_trio()
        attacker = miners[0]
        gains = [_bystander_gain(coin, miners, alternation(attacker, d)) for d in np.linspace(0.0, attacker.m, 11)]
        assert gains[0] == pytest.approx(0.0, abs=1e-14)
        assert all(b >= a - 1e-15 for a, b in zip(gains, gains[1:]))
        assert gains[-1] > 0


class TestEntryEffect:
    def test_zero_power_entrant_changes_nothing(self):
        coin, miners = attack_trio()
        attacker = miners[0]
        eff = security_report(coin, miners, [alternation(attacker, attacker.m)], 0.0).entry_effect
        assert eff.rph_lre_before == eff.rph_lre_after
        assert eff.rph_hre_before == eff.rph_hre_after

    def test_reference_scenario(self):
        # entrant 10 joins the boosted epochs: the workload retargeted onto
        # the reduced epoch rises from 100*tau to 110*tau
        coin, miners = attack_trio()
        attacker = miners[0]
        eff = security_report(coin, miners, [alternation(attacker, attacker.m)], 10.0).entry_effect
        assert eff.rph_lre_after / eff.rph_lre_before == pytest.approx(100.0 / 110.0, rel=1e-12)
        # the reduced epoch keeps its 80 active power, so the boosted epoch's
        # own revenue per hash is untouched
        assert eff.rph_hre_after == eff.rph_hre_before
        assert eff.lre_active_before == 80.0
        assert eff.lre_active_after == 80.0

    def test_any_positive_entrant_decreases_reduced_epoch_revenue(self):
        coin, miners = attack_trio()
        attacker = miners[0]
        sched = [alternation(attacker, 0.5 * attacker.m)]
        for power in (0.5, 5.0, 40.0):
            eff = security_report(coin, miners, sched, power).entry_effect
            assert eff.rph_lre_after < eff.rph_lre_before
            assert eff.lre_active_after == eff.lre_active_before

    def test_negative_power_rejected(self):
        coin, miners = attack_trio()
        with pytest.raises(ValueError):
            security_report(coin, miners, [alternation(miners[0], 10.0)], -1.0)

    def test_underflowing_baseline_price_rejected(self):
        # every price of the cycle would read 0.0, so rph_lre_ratio would divide by 0
        coin = CoinParams(tau=1e300, epsilon=0.0, w=1e-300)
        miners = [MinerParams("a", 3e-151, 0.0, 1.0), MinerParams("b", 7e-151, 0.1, 0.01)]
        with pytest.raises(ConfigurationError, match="the baseline price must be > 0"):
            security_report(coin, miners, [alternation(miners[0], miners[0].m)], 0.0)

    def test_closed_form_matches_simulated_entrant(self):
        # the closed form reads the base cycle; the oracle simulates the
        # entrant, and the rest of the report is the entrant-free one
        rng = random.Random(20190)
        entrants, schedule_counts = set(), set()
        for _ in range(300):
            coin, miners, schedules, entrant = _random_entry(rng)
            report = security_report(coin, miners, schedules, entrant)
            assert report.entry_effect == _simulated_entry_effect(coin, miners, schedules, entrant)
            assert report._replace(entry_effect=None) == security_report(coin, miners, schedules)
            entrants.add(entrant)
            schedule_counts.add(len(schedules))
        assert {0.0, 1e-300, 1e12} <= entrants
        assert schedule_counts == {0, 1, 2, 3, 4}

    def test_phase_shifted_deviation_gives_same_effect(self):
        # the boosted-epoch detection follows the realized cycle, not the
        # schedule's phase
        coin, miners = attack_trio()
        attacker = miners[0]
        shifted = alternation(attacker, attacker.m, offset=1)
        eff = security_report(coin, miners, [shifted], 10.0).entry_effect
        assert eff.rph_lre_after / eff.rph_lre_before == pytest.approx(100.0 / 110.0, rel=1e-12)
        assert eff.lre_active_before == eff.lre_active_after == 80.0


class TestSecurityReport:
    def test_all_honest(self):
        coin, miners = attack_trio()
        report = security_report(coin, miners, [])
        assert report.idle_fraction == 0.0
        assert report.attack_threshold == 0.5
        assert report.lre_active_power == 100.0
        for gain in report.per_miner_gain.values():
            assert gain == pytest.approx(0.0, abs=1e-14)

    def test_single_smart_deviator(self):
        coin, miners = attack_trio()
        attacker = miners[0]
        report = security_report(coin, miners, [alternation(attacker, attacker.m)])
        assert report.attack_threshold == 0.4
        assert report.idle_fraction == pytest.approx(0.2, rel=1e-15)
        assert report.per_miner_gain["bystander"] == pytest.approx(12.0 / 1230.0, rel=1e-12)
        assert report.per_miner_gain["attacker"] > 0

    def test_two_aligned_deviators(self):
        coin, miners = attack_trio()
        attacker, bystander = miners[0], miners[1]
        schedules = [alternation(attacker, attacker.m), alternation(bystander, bystander.m)]
        report = security_report(coin, miners, schedules)
        assert report.idle_fraction == pytest.approx(0.30, rel=1e-15)
        assert report.attack_threshold == pytest.approx(0.35, rel=1e-15)
        assert report.lre_active_power == 70.0

    def test_misaligned_periods_use_weakest_epoch(self):
        coin, miners = attack_trio()
        attacker, bystander = miners[0], miners[1]
        # periods 2 and 3 overlap their idle epochs once every 6 epochs
        schedules = [StrategySchedule("attacker", (0.0, attacker.m)),
                     StrategySchedule("bystander", (0.0, bystander.m, bystander.m))]
        report = security_report(coin, miners, schedules)
        assert report.lre_active_power == 70.0
        assert report.attack_threshold == pytest.approx(0.35, rel=1e-15)


class TestPowerOfTwoScaling:
    def test_reports_scale_by_powers_of_two(self):
        # scaled_market shares no float path with the engine: gains scale by
        # 2**b, active powers by 2**a, revenue per hash by 2**(b - a), and the
        # fractions keep their bits
        rng = random.Random(26)
        for _ in range(60):
            coin, miners, schedules = moderate_market(rng)
            a, b, c = (rng.randint(-200, 200) for _ in range(3))
            entrant = rng.uniform(0.0, 100.0)
            scaled = scaled_market(coin, miners, schedules, a, b, c)
            base, big = security_report(coin, miners, schedules, entrant), \
                security_report(*scaled, math.ldexp(entrant, a))
            assert big.lre_active_power.hex() == math.ldexp(base.lre_active_power, a).hex()
            assert big.idle_fraction.hex() == base.idle_fraction.hex()
            assert big.attack_threshold.hex() == base.attack_threshold.hex()
            assert [(mid, g.hex()) for mid, g in big.per_miner_gain.items()] == [
                (mid, math.ldexp(g, b).hex()) for mid, g in base.per_miner_gain.items()]
            before, after = base.entry_effect, big.entry_effect
            exponents = {"entrant_power": a, "lre_active_before": a, "lre_active_after": a, "rph_lre_ratio": 0}
            assert {field: x.hex() for field, x in after._asdict().items()} == {
                field: math.ldexp(x, exponents.get(field, b - a)).hex() for field, x in before._asdict().items()}


class TestExactRationals:
    def test_report_is_within_a_few_ulps_of_exact(self):
        # _exact shares no float path with security_report.  Revenue per hash
        # after entry is measured in its own ulps; a gain u - epsilon cancels,
        # so it is measured in ulps of the cycle's largest revenue or cost rate
        def ulps(x, exact, unit):
            return abs(Fraction(x) - exact) / Fraction(math.ulp(unit))

        rng = random.Random(2719)
        for _ in range(100):
            coin, miners, schedules = moderate_market(rng)
            entrant = rng.choice([0.0, 10.0, rng.uniform(0.0, 100.0)])
            report = security_report(coin, miners, schedules, entrant)
            eff = report.entry_effect
            lre_after, hre_after = entry_rph_after(coin, miners, schedules, entrant)
            assert ulps(eff.rph_lre_after, lre_after, eff.rph_lre_after) <= 3
            assert ulps(eff.rph_hre_after, hre_after, eff.rph_hre_after) <= 3
            gains, scale = cycle_gains(coin, miners, schedules)
            for mid, gain in report.per_miner_gain.items():
                assert ulps(gain, gains[mid], float(scale)) <= 8, mid
