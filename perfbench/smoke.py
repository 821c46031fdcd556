"""Smoke run of the benchmark: every workload, untraced and traced.

    python3 perfbench/smoke.py [--size tiny|full] [--seconds S] [--seed N]

Runs ``run.py`` once per workload and mode (tiny sizes and one second by
default) and checks each result line: exit code 0, ``correct``, no failed
invocation, and every metric of ``BENCHMARK.json`` present with its unit.
On the traced runs it checks that the layer self times sum to the
``cli.main`` time and that each workload reaches exactly the layers it is
meant to.  Prints one table of every metric per workload.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
# per traced workload: metric -> predicate its value must satisfy
REACH = {
    "heatmap-smarter": {"optimizer.optimal_idle_calls": lambda v: v > 0, "engine.step_epoch_calls": lambda v: v == 0},
    "trace-sim": {"optimizer.optimal_idle_calls": lambda v: v == 0, "engine.step_epoch_calls": lambda v: v > 0,
                  "engine.sim_epochs_per_result_epoch": lambda v: v == 1.0},
    "security-cycle": {"optimizer.optimal_idle_calls": lambda v: v == 0, "engine.step_epoch_calls": lambda v: v > 0,
                       "engine.sim_epochs_per_result_epoch": lambda v: v == 3.0},
}


def run(workload: str, trace: int, args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("tiny", "full"), default="tiny")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        print(f"== {name}: {w['why']}")
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(name, trace, args)
            metrics = result["metrics"]
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']}/{result['attempted']} failed")
            for m in listed:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{name} trace={trace}: metric {m['name']} [{m['unit']}] missing, got {got}")
                else:
                    print(f"  {m['name']:<36} {got['value']:>16.6g} {got['unit']}")
            if trace == 0:
                print(f"  {'fail_frac':<36} {result['failed'] / result['attempted']:>16.6g} fraction")
                continue
            value = {k: v["value"] for k, v in metrics.items()}
            layers = sum(value[f"{layer}.self_s"] for layer in LAYERS)
            if not math.isclose(layers, value["cli.main_s"], rel_tol=1e-9):
                problems.append(f"{name}: layer self times sum to {layers}, cli.main took {value['cli.main_s']}")
            for metric, ok in REACH[name].items():
                if not ok(value[metric]):
                    problems.append(f"{name}: unexpected {metric} = {value[metric]}")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
