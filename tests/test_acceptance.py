"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with the measured numbers.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines live.  The
criteria run in definition order; the reward-conservation check at the end
audits every epoch simulated by the earlier scenario-based criteria.
"""

import time

import numpy as np

from _scenarios import alternation, attack_trio, proportional_scenario
from smartmining import (
    AggregateContext,
    CoinParams,
    MinerParams,
    StrategySchedule,
    attack_threshold,
    brute_force_idle,
    calibrate_reward,
    dominance,
    min_power_for_profit,
    optimal_idle,
    periodic_utility,
    run,
    security_report,
    smart_utility,
    smarter_utility,
)
from smartmining.analytic import _canonical
from smartmining.cli import main as cli_main

# (reward, records) pairs accumulated by the scenario criteria and audited by
# the conservation criterion at the end
_SIMULATED: list[tuple[float, tuple]] = []


def _record(coin, miners, schedules, horizon=8):
    trace = run(coin, miners, schedules, horizon)
    _SIMULATED.append((coin.w, trace.records))
    return trace


def _report(index: int, ok: bool, text: str) -> None:
    print(f"[{index:2d}] {'PASS' if ok else 'FAIL'} {text}")
    assert ok, text


def test_01_dominance_curve_sign_agreement():
    n = 200
    t0 = time.perf_counter()
    mismatches = 0
    for i in range(n):
        y = (i + 0.5) / n
        for j in range(n):
            x = (j + 0.5) / n
            ctx, miner = _canonical(x, y)
            u = smart_utility(ctx, miner)
            if (u > 0) != dominance(x, y) and abs(x * (1 - x) - y) >= 1e-12:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 1.0
    _report(1, ok, f"sign of alternation utility matches x*(1-x) > y on a {n}x{n} grid "
                   f"({mismatches} mismatches, {elapsed:.2f}s < 1s)")


def test_02_minimal_power_share_at_ten_percent_fixed_costs():
    x_star = min_power_for_profit(0.10)
    ok = 0.1127 < x_star < 0.1128 and dominance(0.12, 0.10)
    _report(2, ok, f"min profitable share at fixed-cost share 0.10 is {x_star:.6f} "
                   f"(in (0.1127, 0.1128)), and a 12% miner profits")


def test_03_attack_threshold_at_twenty_percent_idle():
    threshold = attack_threshold(100.0, 20.0)
    ok = threshold == 0.40 and 0.41 > threshold
    _report(3, ok, f"majority threshold with 20% idle power is exactly {threshold} "
                   f"and 41% exceeds it")


def test_04_closed_form_matches_simulation():
    t0 = time.perf_counter()
    worst = 0.0
    cells = 0
    for i in range(20):
        y = (i + 0.5) / 20
        for j in range(20):
            x = (j + 0.5) / 20
            coin, miners = proportional_scenario(x, y)
            deviator = miners[0]
            ctx = AggregateContext(M=sum(p.m for p in miners), coin=coin)
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                delta = frac * deviator.m
                u = smarter_utility(ctx, deviator, delta)
                simulated = periodic_utility(coin, miners, [alternation(deviator, delta)])
                # deviator cost rate is 1, setting the money scale for the
                # relative tolerance at near-zero utilities
                err = abs(simulated["deviator"] - u) / max(abs(u), 1.0)
                worst = max(worst, err)
                cells += 1
            _record(coin, miners, [alternation(deviator, 0.5 * deviator.m)], horizon=6)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(4, ok, f"simulation matches the closed form over {cells} (x, y, idle) points "
                   f"(worst rel err {worst:.2e} <= 1e-10, {elapsed:.1f}s < 5s)")


def test_05_full_idle_endpoint_identity():
    rng = np.random.default_rng(20250810)
    xs = rng.uniform(0.02, 0.95, 100)
    ys = rng.uniform(0.0, 0.95, 100)
    worst = 0.0
    for x, y in zip(xs, ys):
        ctx, miner = _canonical(float(x), float(y))
        a = smarter_utility(ctx, miner, miner.m)
        b = smart_utility(ctx, miner)
        denom = max(abs(a), abs(b))
        if denom > 0:
            worst = max(worst, abs(a - b) / denom)
    ok = worst <= 1e-12
    _report(5, ok, f"full-idle utility equals the alternation closed form on 100 random "
                   f"shares (worst rel diff {worst:.2e} <= 1e-12)")


def test_06_honest_equilibrium_pays_the_margin():
    worst = 0.0
    for epsilon in (0.0, 0.01):
        coin, miners = proportional_scenario(0.3, 0.2, epsilon=epsilon, M=100.0, tau=600.0)
        for u in periodic_utility(coin, miners, []).values():
            worst = max(worst, abs(u - epsilon))
        _record(coin, miners, [], horizon=5)
        # three identical miners are proportional by construction
        trio = [MinerParams(f"m{i}", 10.0, 0.05, 0.005) for i in range(3)]
        coin2 = CoinParams(tau=600.0, epsilon=epsilon, w=calibrate_reward(trio, 600.0, epsilon))
        for u in periodic_utility(coin2, trio, []).values():
            worst = max(worst, abs(u - epsilon))
        _record(coin2, trio, [], horizon=5)
    ok = worst <= 1e-12
    _report(6, ok, f"all-honest utility equals the margin for epsilon in {{0, 0.01}} "
                   f"(worst abs err {worst:.2e} <= 1e-12)")


def test_07_idle_tuner_matches_brute_force():
    t0 = time.perf_counter()
    worst_d = 0.0
    worst_u = 0.0
    for i in range(20):
        y = (i + 0.5) / 20
        for j in range(20):
            x = (j + 0.5) / 20
            ctx, miner = _canonical(x, y)
            fast = optimal_idle(ctx, miner)
            slow = brute_force_idle(ctx, miner, 10**6)
            worst_d = max(worst_d, abs(fast.delta - slow.delta) / miner.m)
            worst_u = max(worst_u, abs(fast.utility - slow.utility) / miner.cost_rate)
    elapsed = time.perf_counter() - t0
    ok = worst_d <= 1e-6 and worst_u <= 1e-9 and elapsed < 30.0
    _report(7, ok, f"tuned idle power matches a 1e6-point scan on a 20x20 grid "
                   f"(worst idle diff {worst_d:.2e} <= 1e-6, worst utility diff "
                   f"{worst_u:.2e} <= 1e-9, {elapsed:.1f}s < 30s)")


def test_08_bystander_benefits_from_the_attack():
    coin, miners = attack_trio()
    attacker = miners[0]
    gains = []
    for delta in np.linspace(0.0, attacker.m, 11):
        sched = alternation(attacker, float(delta))
        gains.append(security_report(coin, miners, [sched]).per_miner_gain["bystander"])
        _record(coin, miners, [sched], horizon=6)
    full = gains[-1]
    nondecreasing = all(b >= a - 1e-15 for a, b in zip(gains, gains[1:]))
    ok = full > 0 and nondecreasing
    _report(8, ok, f"10-power bystander gains {full:.6f} > 0 from a fully idling 20-power "
                   f"deviator, nondecreasing across 11 idle levels")


def test_09_entrant_depresses_weak_epoch_revenue():
    coin, miners = attack_trio()
    attacker = miners[0]
    sched = alternation(attacker, attacker.m)
    eff = security_report(coin, miners, [sched], 10.0).entry_effect
    ratio = eff.rph_lre_after / eff.rph_lre_before
    ok = (abs(ratio - 100.0 / 110.0) <= 1e-12 * (100.0 / 110.0)
          and eff.lre_active_before == eff.lre_active_after)
    _record(coin, miners, [sched], horizon=6)
    entrant = MinerParams("entrant", 10.0, 0.0, 1.0)
    joined = StrategySchedule("entrant", (0.0, 10.0))
    _record(coin, list(miners) + [entrant], [sched, joined], horizon=6)
    _report(9, ok, f"a 10-power entrant in the boosted epochs scales weak-epoch revenue "
                   f"per hash by {ratio:.12f} (= 100/110) and leaves its active power at "
                   f"{eff.lre_active_after}")


def test_10_reward_conservation_in_every_simulated_epoch():
    assert _SIMULATED, "scenario criteria must run first"
    worst = 0.0
    epochs = 0
    for w, records in _SIMULATED:
        for rec in records:
            paid = sum(s.revenue_rate for s in rec.per_miner) * rec.t
            worst = max(worst, abs(paid - w) / w)
            epochs += 1
    ok = worst <= 1e-9
    _report(10, ok, f"revenue times duration sums to the epoch reward in all {epochs} "
                    f"simulated epochs (worst rel err {worst:.2e} <= 1e-9)")


def test_11_sweep_output_is_byte_stable(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv", "d.csv")]
    assert cli_main(["sweep", "--mode", "smart", "--nx", "8", "--ny", "8", "--out", str(paths[0])]) == 0
    assert cli_main(["sweep", "--mode", "smart", "--nx", "8", "--ny", "8", "--out", str(paths[1])]) == 0
    assert cli_main(["sweep", "--mode", "smarter", "--nx", "5", "--ny", "5", "--out", str(paths[2])]) == 0
    assert cli_main(["sweep", "--mode", "smarter", "--nx", "5", "--ny", "5", "--out", str(paths[3])]) == 0
    smart_same = paths[0].read_bytes() == paths[1].read_bytes()
    smarter_same = paths[2].read_bytes() == paths[3].read_bytes()
    ok = smart_same and smarter_same
    _report(11, ok, "repeated sweep runs produce byte-identical files in both modes")
