"""Deterministic simulator and closed-form analyzer of proof-of-work mining
economics under epoch-based difficulty retargeting.

The model is a single coin whose epochs each require a fixed number of hashes
retargeted from the previous epoch's speed.  Rational miners can exploit the
retarget by idling power every other epoch (fully, or a tuned fraction); this
package simulates arbitrary periodic schedules, evaluates the deviation
closed forms, tunes the idle power, and quantifies the resulting exposure to
under-50% attacks.
"""

from .analytic import (
    MODE_SMART,
    MODE_SMARTER,
    AggregateContext,
    SmarterPoint,
    dominance,
    epoch_table_smart,
    min_power_for_profit,
    roi,
    smart_utility,
    smarter_utility,
    sweep,
)
from .engine import periodic_utility, run, steady_cycle, step_epoch, trace_utilities
from .model import (
    CoinParams,
    ConfigurationError,
    EpochRecord,
    MinerEpochStats,
    MinerParams,
    SimulationTrace,
    StalledEpochError,
    StrategySchedule,
    calibrate_reward,
    total_power,
    validate_scenario,
)
from .optimizer import brute_force_idle, optimal_idle
from .security import (
    AttackReport,
    EntryEffect,
    attack_threshold,
    security_report,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateContext",
    "AttackReport",
    "CoinParams",
    "ConfigurationError",
    "EntryEffect",
    "EpochRecord",
    "MinerEpochStats",
    "MinerParams",
    "MODE_SMART",
    "MODE_SMARTER",
    "SimulationTrace",
    "SmarterPoint",
    "StalledEpochError",
    "StrategySchedule",
    "attack_threshold",
    "brute_force_idle",
    "calibrate_reward",
    "dominance",
    "epoch_table_smart",
    "min_power_for_profit",
    "optimal_idle",
    "periodic_utility",
    "roi",
    "run",
    "security_report",
    "smart_utility",
    "smarter_utility",
    "steady_cycle",
    "step_epoch",
    "sweep",
    "total_power",
    "trace_utilities",
    "validate_scenario",
]
