#!/usr/bin/env python3
"""Return on investment of the tuned partial-idle strategy across the
(power share, fixed-cost share) plane.

ROI here is long-run excess profit divided by the full-power cost rate; an
honest miner at margin zero scores 0.  The tuned strategy never loses (it
can always pick idle power 0), is strictly positive whenever x > y, and its
best idle fraction shifts from everything (at y = 0) toward nothing as
fixed costs grow.

The CLI writes the same grids as CSV for plotting:
    smartmining sweep --mode smarter --nx 50 --ny 50 --out roi.csv
"""

import numpy as np

from smartmining import MODE_SMART, MODE_SMARTER, optimal_idle, sweep
from smartmining.analytic import _canonical

xs = [round(x, 2) for x in np.arange(0.05, 0.96, 0.10)]
ys = [round(y, 2) for y in np.arange(0.05, 0.56, 0.10)]

smart = sweep(xs, ys, MODE_SMART)
smarter = sweep(xs, ys, MODE_SMARTER)

print("tuned-idle ROI (percent of total cost), x across, y down:")
print("        " + "".join(f"{x:>8.2f}" for x in xs))
for i, y in enumerate(ys):
    print(f"y={y:4.2f} |" + "".join(f"{100 * v:>8.2f}" for v in smarter[i]))

print("\nextra ROI of tuning over the plain alternation (percentage points):")
print("        " + "".join(f"{x:>8.2f}" for x in xs))
for i, y in enumerate(ys):
    print(f"y={y:4.2f} |" + "".join(f"{100 * (a - b):>8.2f}" for a, b in zip(smarter[i], smart[i])))

print("\nbest idle fraction by cost structure (power share 0.20):")
print(f"{'y':>6} {'idle/m':>8} {'roi':>9}")
for y in (0.0, 0.05, 0.10, 0.15, 0.18, 0.25, 0.40):
    ctx, miner = _canonical(0.20, y)
    point = optimal_idle(ctx, miner)
    print(f"{y:>6.2f} {point.delta / miner.m:>8.3f} {point.roi:>9.4%}")
