import random

import numpy as np
import pytest

from _scenarios import alternation, attack_trio
from smartmining import (
    CoinParams,
    EntryEffect,
    MinerParams,
    StrategySchedule,
    attack_threshold,
    bystander_gain,
    calibrate_reward,
    entry_effect,
    security_report,
    steady_cycle,
)


def _simulated_entry_effect(coin, miners, attacker_schedule, entrant_power):
    """Oracle for ``entry_effect``: simulate a second steady cycle with a real
    entrant miner, id "entrant", on the maximal-revenue positions of the first."""
    before = steady_cycle(coin, miners, [attacker_schedule])
    actives = [rec.total_active for rec in before]
    lre = actives.index(min(actives))
    rphs = [rec.rph for rec in before]
    hre = rphs.index(max(rphs))
    if entrant_power == 0:
        after = before
    else:
        entrant = MinerParams("entrant", m=entrant_power, fc=0.0, vc=1.0)
        joined = StrategySchedule("entrant", tuple(entrant_power if r == rphs[hre] else 0.0 for r in rphs))
        after = steady_cycle(coin, list(miners) + [entrant], [attacker_schedule, joined])
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
    """A random calibrated market, one deviation schedule on it, and an entrant power."""
    miners = [MinerParams(f"m{j}", m=rng.uniform(0.1, 100.0), fc=rng.uniform(0.0, 1.0),
                          vc=rng.uniform(0.001, 0.1)) for j in range(rng.randint(2, 12))]
    tau = rng.choice([1e-3, 1.0, 600.0])
    coin = CoinParams(tau=tau, epsilon=0.0, w=calibrate_reward(miners, tau, 0.0))
    attacker = rng.choice(miners)
    # repeated entries tie revenue per hash across several cycle positions
    powers = tuple(rng.choice([0.0, attacker.m / 2, attacker.m, rng.uniform(0.0, attacker.m)])
                   for _ in range(rng.randint(1, 9)))
    schedule = StrategySchedule(attacker.id, powers, offset=rng.randint(0, 12))
    entrant = rng.choice([0.0, 1e-300, 0.5, 10.0, rng.uniform(0.0, 100.0), 1e12])
    return coin, miners, schedule, entrant


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

    @pytest.mark.parametrize("M,idle", [(100.0, 100.0), (100.0, 120.0), (100.0, -1.0), (0.0, 0.0)])
    def test_domain_errors(self, M, idle):
        with pytest.raises(ValueError):
            attack_threshold(M, idle)


class TestBystanderGain:
    def test_honest_deviator_no_gain(self):
        coin, miners = attack_trio()
        attacker = miners[0]
        result = bystander_gain(coin, miners, alternation(attacker, 0.0), "bystander")
        assert abs(result.gain) <= 1e-14

    def test_reference_scenario(self):
        # attacker 20 fully idles every other epoch: the 10-power bystander
        # earns 0 in reduced epochs and 10*w/(80*tau) - 0.1 = 0.025 in boosted
        # ones, time-weighted by (480, 750): u = 12/1230
        coin, miners = attack_trio()
        attacker = miners[0]
        result = bystander_gain(coin, miners, alternation(attacker, attacker.m), "bystander")
        assert result.utility == pytest.approx(12.0 / 1230.0, rel=1e-12)
        assert result.gain == pytest.approx(12.0 / 1230.0, rel=1e-12)

    def test_gain_increases_with_idle_power(self):
        coin, miners = attack_trio()
        attacker = miners[0]
        gains = [bystander_gain(coin, miners, alternation(attacker, d), "bystander").gain
                 for d in np.linspace(0.0, attacker.m, 11)]
        assert gains[0] == pytest.approx(0.0, abs=1e-14)
        assert all(b >= a - 1e-15 for a, b in zip(gains, gains[1:]))
        assert gains[-1] > 0

    def test_unknown_and_self_bystander_rejected(self):
        coin, miners = attack_trio()
        attacker = miners[0]
        sched = alternation(attacker, attacker.m)
        with pytest.raises(ValueError):
            bystander_gain(coin, miners, sched, "ghost")
        with pytest.raises(ValueError):
            bystander_gain(coin, miners, sched, "attacker")


class TestEntryEffect:
    def test_zero_power_entrant_changes_nothing(self):
        coin, miners = attack_trio()
        attacker = miners[0]
        eff = entry_effect(coin, miners, alternation(attacker, attacker.m), 0.0)
        assert eff.rph_lre_before == eff.rph_lre_after
        assert eff.rph_hre_before == eff.rph_hre_after

    def test_reference_scenario(self):
        # entrant 10 joins the boosted epochs: the workload retargeted onto
        # the reduced epoch rises from 100*tau to 110*tau
        coin, miners = attack_trio()
        attacker = miners[0]
        eff = entry_effect(coin, miners, alternation(attacker, attacker.m), 10.0)
        assert eff.rph_lre_after / eff.rph_lre_before == pytest.approx(100.0 / 110.0, rel=1e-12)
        # the reduced epoch keeps its 80 active power, so the boosted epoch's
        # own revenue per hash is untouched
        assert eff.rph_hre_after == eff.rph_hre_before
        assert eff.lre_active_before == 80.0
        assert eff.lre_active_after == 80.0

    def test_any_positive_entrant_decreases_reduced_epoch_revenue(self):
        coin, miners = attack_trio()
        attacker = miners[0]
        sched = alternation(attacker, 0.5 * attacker.m)
        for power in (0.5, 5.0, 40.0):
            eff = entry_effect(coin, miners, sched, power)
            assert eff.rph_lre_after < eff.rph_lre_before
            assert eff.lre_active_after == eff.lre_active_before

    def test_negative_power_rejected(self):
        coin, miners = attack_trio()
        with pytest.raises(ValueError):
            entry_effect(coin, miners, alternation(miners[0], 10.0), -1.0)

    def test_closed_form_matches_simulated_entrant(self):
        # the closed form reads the base cycle; the oracle simulates the entrant
        rng = random.Random(20190)
        entrants = set()
        for _ in range(300):
            coin, miners, schedule, entrant = _random_entry(rng)
            assert entry_effect(coin, miners, schedule, entrant) == \
                _simulated_entry_effect(coin, miners, schedule, entrant)
            entrants.add(entrant)
        assert {0.0, 1e-300, 1e12} <= entrants

    def test_phase_shifted_deviation_gives_same_effect(self):
        # the boosted-epoch detection follows the realized cycle, not the
        # schedule's phase
        coin, miners = attack_trio()
        attacker = miners[0]
        shifted = alternation(attacker, attacker.m, offset=1)
        eff = entry_effect(coin, miners, shifted, 10.0)
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
