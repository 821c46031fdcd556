#!/usr/bin/env python3
"""What idle-power strategies do to coin security.

Three effects, all on a 100-power market with a 20-power deviator:
  1. during reduced epochs a majority of the *active* power needs less than
     half of the total power;
  2. honest bystanders profit from someone else's deviation, so nobody is
     motivated to resist it;
  3. an entrant chasing the boosted epochs drags reduced-epoch revenue down
     further, squeezing whoever still mines there.
"""

from smartmining import (
    CoinParams,
    MinerParams,
    StrategySchedule,
    attack_threshold,
    calibrate_reward,
    security_report,
)

miners = [
    MinerParams("deviator", m=20.0, fc=0.03, vc=0.0085),
    MinerParams("bystander", m=10.0, fc=0.02, vc=0.008),
    MinerParams("rest", m=70.0, fc=0.0, vc=0.01),
]
TAU = 600.0
coin = CoinParams(tau=TAU, epsilon=0.0, w=calibrate_reward(miners, TAU, 0.0))
deviator = miners[0]


def idle_schedule(delta):
    return StrategySchedule("deviator", (deviator.m - delta, deviator.m))


print("=== 1. majority threshold vs idle power ===")
print(f"{'idle share':>11} {'attack needs more than':>23}")
for idle in (0.0, 0.1, 0.2, 0.3, 0.5):
    print(f"{idle:>11.0%} {attack_threshold(100.0, 100.0 * idle):>22.0%}")

report = security_report(coin, miners, [idle_schedule(deviator.m)])
print(f"\nwith the 20-power deviator fully idling every other epoch:")
print(f"  weakest-epoch active power: {report.lre_active_power:.0f} of 100")
print(f"  attack threshold:           {report.attack_threshold:.0%} (41% suffices)")

print("\n=== 2. bystanders profit from the deviation ===")
print(f"{'deviator idle':>14} {'bystander gain/t':>17}")
for delta in [deviator.m * i / 5 for i in range(6)]:
    gain = security_report(coin, miners, [idle_schedule(delta)]).per_miner_gain["bystander"]
    print(f"{delta:>14.1f} {gain:>17.6f}")
print("the 10-power bystander earns strictly above its margin whenever the")
print("deviator idles anything, so it has no incentive to push back")

print("\n=== 3. entrants make the weak epochs weaker ===")
schedules = [idle_schedule(deviator.m)]
print(f"{'entrant power':>14} {'rph weak epoch':>15} {'vs before':>10}")
for power in (0.0, 5.0, 10.0, 20.0):
    eff = security_report(coin, miners, schedules, power).entry_effect
    print(f"{power:>14.1f} {eff.rph_lre_after:>15.6f} {eff.rph_lre_ratio:>10.4f}")
print("the entrant mines only the boosted epochs, so the workload retargeted")
print("onto each weak epoch grows while its defenders stay at 80 power")
