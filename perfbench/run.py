"""Benchmark of the smartmining CLI: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from its
``src`` directory.  The seed generates the workload's inputs (see
``workloads.py``).  Load is a closed loop from this one process: one CLI
invocation at a time.

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics:

* ``setup_s``: mean wall time of ``python -m smartmining.cli --version``
  (interpreter start, imports, argument parsing).
* ``wall_s``: mean wall time of one CLI child, from spawn until exit with
  its outputs written.
* ``work_per_s``: work units over the mean time of an in-process
  ``cli.main(argv)`` call, which leaves start-up out.
* ``peak_rss_mb``: mean peak resident memory of the CLI child.

Each round spawns ``--version``, spawns one CLI child and makes one
in-process call; rounds repeat until ``--seconds`` have passed, after one
warm-up round.  ``--trace 1`` alternates traced and untraced
in-process calls instead and reports the per-layer metrics of the traced call
with the median ``cli.main`` time (see ``tracer.py``).

Every invocation counts as attempted.  It fails on a non-zero exit, output on
stderr, a failed oracle check, or output bytes that differ from the first
invocation's.  The oracle checks run outside the timed regions.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit); the lines before it print the same
metrics as a table, ``fail_frac``, and the machine and run metadata with
every timing's samples and their count, median, minimum and maximum.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracer import ROOT as TRACE_ROOT, Tracer
from workloads import WORKLOADS, CheckFailed

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench_work"
# timed rounds an end-to-end run makes at least, however short ``--seconds``
MIN_ROUNDS = 3
# relative slack allowed between the summed layer self times and cli.main
SELF_SUM_RTOL = 1e-9

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.main_s": "s", "cli.self_s": "s", "cli.out_bytes": "bytes",
    "model.self_s": "s", "model.validate_s": "s",
    "engine.self_s": "s", "engine.step_epoch_calls": "count", "engine.step_epoch_s": "s",
    "engine.us_per_epoch": "us", "engine.sim_epochs_per_result_epoch": "ratio",
    "engine.trace_utilities_s": "s", "engine.clamp_engaged_frac": "fraction",
    "analytic.self_s": "s", "analytic.sweep_self_s": "s",
    "analytic.smarter_utility_calls": "count", "analytic.smarter_utility_s": "s",
    "optimizer.self_s": "s", "optimizer.optimal_idle_calls": "count",
    "optimizer.us_per_call": "us", "optimizer.points_per_call": "count",
    "security.self_s": "s", "security.report_self_s": "s",
    "trace.overhead_s": "s",
}


class TraceError(Exception):
    """The traced run cannot vouch for its per-layer numbers."""


class Outcomes:
    """Attempted and failed invocations of one case, judged by its oracle."""

    def __init__(self, case):
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.properties: dict[str, float] = {}
        self._verdicts: dict[str, str | None] = {}   # output digest -> problem

    def judge(self, code, stdout: bytes, stderr: bytes) -> None:
        self.attempted += 1
        if code != 0:
            problem = f"exit code {code}"
        elif stderr:
            problem = f"stderr: {stderr[:200]!r}"
        else:
            digest = hashlib.blake2b(stdout)
            for path in self.case.out_files:
                digest.update(path.read_bytes())
            key = digest.hexdigest()
            if key not in self._verdicts:
                self._verdicts[key] = (self._oracle(stdout) if not self._verdicts
                                       else "output bytes differ from the first invocation")
            problem = self._verdicts[key]
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def judge_version(self, code, stdout: bytes, stderr: bytes) -> None:
        self.attempted += 1
        if code != 0 or stderr or not stdout.startswith(b"smartmining "):
            self.failed += 1
            self.problems.append(f"--version: exit {code}, stdout {stdout[:80]!r}, stderr {stderr[:80]!r}")

    def _oracle(self, stdout: bytes) -> str | None:
        try:
            self.properties = self.case.check(stdout)
        except (CheckFailed, ValueError, KeyError, TypeError, OSError) as exc:
            return f"oracle: {type(exc).__name__}: {exc}"
        return None


def spawn(argv, work: Path):
    """Run one CLI child; returns (exit code, wall s, peak RSS MB, stdout, stderr)."""
    out, err = work / "child.stdout", work / "child.stderr"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "smartmining.cli", *argv],
                                stdout=fout, stderr=ferr, env=env, cwd=REPO)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read_bytes(), err.read_bytes()


def call(main, argv):
    """One in-process ``main(argv)``; returns (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:   # the CLI contract says no exception escapes main
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue().encode(), err.getvalue().encode()


def end_to_end(case, outcomes: Outcomes, seconds: float, work: Path):
    import smartmining.cli

    setup, walls, rss, inproc = [], [], [], []
    # The first round is a warm-up: it fills the bytecode cache and the oracle
    # checks its outputs.  Later rounds sample all three timings across the
    # whole run, so every timing covers the same stretch of machine load.
    for timed in (False, True):
        deadline = time.perf_counter() + seconds
        while True:
            code, version_s, _, out, err = spawn(["--version"], work)
            outcomes.judge_version(code, out, err)
            code, wall, peak, out, err = spawn(case.argv, work)
            outcomes.judge(code, out, err)
            code, t, out, err = call(smartmining.cli.main, case.argv)
            outcomes.judge(code, out, err)
            if not timed:
                break
            setup.append(version_s)
            walls.append(wall)
            rss.append(peak)
            inproc.append(t)
            if len(setup) >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
    # Means, not medians: the host alternates between a fast and a slow phase
    # lasting seconds, and a median flips between the two from run to run.
    metrics = {
        "setup_s": statistics.fmean(setup),
        "wall_s": statistics.fmean(walls),
        "work_per_s": case.units / statistics.fmean(inproc),
        "peak_rss_mb": statistics.fmean(rss),
    }
    samples = {name: _summary(values) for name, values in
               (("setup_s", setup), ("wall_s", walls), ("cli_main_s", inproc), ("peak_rss_mb", rss))}
    return metrics, samples, []


def _summary(values) -> dict:
    return {"n": len(values), "median": statistics.median(values), "min": min(values), "max": max(values),
            "values": values}


def traced_call(case, main):
    """One traced in-process call; returns (tracer, exit code, stdout, stderr)."""
    tracer = Tracer()
    with tracer.installed():
        code, _, out, err = call(tracer.wrap(TRACE_ROOT, main), case.argv)
    return tracer, code, out, err


def check_trace(tracer: Tracer, expected) -> None:
    silent = [name for name in expected if tracer.get(name).calls == 0]
    if silent:
        raise TraceError(f"expected boundaries recorded no calls: {', '.join(silent)} "
                         f"(sites no longer bound: {', '.join(tracer.missing) or 'none'})")
    main_s = tracer.get(TRACE_ROOT).total_s
    layers = sum(tracer.layer_self_s().values())
    if abs(layers - main_s) > SELF_SUM_RTOL * main_s:
        raise TraceError(f"layer self times sum to {layers!r} s, cli.main took {main_s!r} s")


def layer_metrics(tracer: Tracer, out_bytes: int, properties) -> dict[str, float]:
    g = tracer.get
    layer_self = tracer.layer_self_s()
    epochs = g("engine.step_epoch").calls
    engine_top_s = g("engine.run").total_s + g("engine.steady_cycle").total_s
    result_epochs = g("engine.run").units + g("engine.steady_cycle").units
    idle = g("optimizer.optimal_idle")
    return {
        "cli.main_s": g(TRACE_ROOT).total_s,
        "cli.self_s": layer_self["cli"],
        "cli.out_bytes": out_bytes,
        "model.self_s": layer_self["model"],
        "model.validate_s": g("model.validate_scenario").total_s,
        "engine.self_s": layer_self["engine"],
        "engine.step_epoch_calls": epochs,
        "engine.step_epoch_s": g("engine.step_epoch").total_s,
        "engine.us_per_epoch": 1e6 * engine_top_s / epochs if epochs else 0.0,
        "engine.sim_epochs_per_result_epoch": epochs / result_epochs if result_epochs else 0.0,
        "engine.trace_utilities_s": g("engine.trace_utilities").total_s,
        "engine.clamp_engaged_frac": properties.get("clamp_engaged_frac", 0.0),
        "analytic.self_s": layer_self["analytic"],
        "analytic.sweep_self_s": g("analytic.sweep").self_s,
        "analytic.smarter_utility_calls": g("analytic.smarter_utility").calls,
        "analytic.smarter_utility_s": g("analytic.smarter_utility").total_s,
        "optimizer.self_s": layer_self["optimizer"],
        "optimizer.optimal_idle_calls": idle.calls,
        "optimizer.us_per_call": 1e6 * idle.total_s / idle.calls if idle.calls else 0.0,
        "optimizer.points_per_call": g("analytic.smarter_utility").units / idle.calls if idle.calls else 0.0,
        "security.self_s": layer_self["security"],
        "security.report_self_s": g("security.security_report").self_s,
    }


def per_layer(case, outcomes: Outcomes, seconds: float, expected):
    import smartmining.cli

    main = smartmining.cli.main
    code, _, out, err = call(main, case.argv)
    outcomes.judge(code, out, err)
    traced, plain = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        tracer, code, out, err = traced_call(case, main)
        outcomes.judge(code, out, err)
        check_trace(tracer, expected)
        traced.append((tracer.get(TRACE_ROOT).total_s, tracer, len(out) + sum(p.stat().st_size for p in case.out_files)))
        code, t, out, err = call(main, case.argv)
        outcomes.judge(code, out, err)
        plain.append(t)
    traced.sort(key=lambda item: item[0])
    _, tracer, out_bytes = traced[(len(traced) - 1) // 2]
    metrics = layer_metrics(tracer, out_bytes, outcomes.properties)
    metrics["trace.overhead_s"] = statistics.median(t for t, _, _ in traced) - statistics.median(plain)
    samples = {"traced_calls": len(traced), "untraced_calls": len(plain)}
    return metrics, samples, tracer.spans


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for a smoke run")
    args = parser.parse_args(argv)
    if not (SRC / "smartmining" / "cli.py").is_file():
        print(f"error: no smartmining sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        case = workload.prepare(random.Random(args.seed), work, args.size == "tiny")
        outcomes = Outcomes(case)
        if args.trace:
            metrics, samples, spans = per_layer(case, outcomes, args.seconds, workload.expected)
            units = PER_LAYER_UNITS
        else:
            metrics, samples, spans = end_to_end(case, outcomes, args.seconds, work)
            units = END_TO_END_UNITS
    except TraceError as exc:
        print(f"error: traced run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    meta = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "size": args.size, "work_units": case.units, "work_unit": workload.unit,
            "samples": samples, **machine_info()}
    print("meta " + json.dumps(meta))
    for span in spans:
        parent = "-" if span.parent is None else spans[span.parent].name
        print(f"span {span.name:<26} {span.end - span.start:12.6f} s  parent {parent}")
    fail_frac = outcomes.failed / outcomes.attempted
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {units[name]}")
    print(f"{'fail_frac':<36} {fail_frac:>16.6g} fraction ({outcomes.failed}/{outcomes.attempted})")
    for problem in dict.fromkeys(outcomes.problems):
        print(f"failure: {problem}")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
