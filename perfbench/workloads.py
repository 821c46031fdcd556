"""Seeded workloads of the smartmining benchmark: inputs, CLI arguments, oracles.

``prepare`` turns a seed into input files under a work directory and the
arguments of one ``smartmining`` invocation; the CLI sees only those files
and flags.  A case's ``check`` validates one invocation's outputs against an
oracle (an independent closed form, a brute-force scan, or a replay of the
scalar epoch loop) and returns the workload properties it measured on the
way, such as how often the retarget clamp engaged.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An output does not match its oracle."""


@dataclass(frozen=True)
class Case:
    """One generated input: how to invoke the CLI and how to judge it."""

    argv: list[str]                # arguments after ``smartmining``
    out_files: tuple[Path, ...]    # files an invocation writes, besides stdout
    units: int                     # work units done by one invocation
    check: Callable[[bytes], dict[str, float]]   # stdout -> workload properties


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                     # what one work unit is
    expected: tuple[str, ...]     # traced boundaries that must record calls
    prepare: Callable[[random.Random, Path, bool], Case]   # (rng, work dir, tiny)


def _close(a, b, rtol, atol=0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= atol + rtol * np.abs(np.asarray(b))))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _scenario_objects(doc):
    """The coin and miners of a scenario document, as the package's types."""
    from smartmining import CoinParams, MinerParams, calibrate_reward

    miners = [MinerParams(d["id"], d["m"], d["fc"], d["vc"]) for d in doc["miners"]]
    c = doc["coin"]
    coin = CoinParams(tau=c["tau"], epsilon=c["epsilon"],
                      w=calibrate_reward(miners, c["tau"], c["epsilon"]), clamp=c.get("clamp"))
    return coin, miners


def _active_powers(doc, epochs: np.ndarray) -> np.ndarray:
    """Active power of every miner (columns) in each 1-based epoch (rows),
    computed from the scenario document alone."""
    out = np.empty((len(epochs), len(doc["miners"])))
    by_id = {s["miner_id"]: s for s in doc["schedules"]}
    for i, m in enumerate(doc["miners"]):
        s = by_id.get(m["id"])
        if s is None:
            out[:, i] = m["m"]
        else:
            powers = np.asarray(s["powers"], dtype=float)
            out[:, i] = powers[(s["offset"] + epochs - 1) % len(powers)]
    return out


def _miner_docs(rng: random.Random, n: int, power) -> list[dict]:
    return [{"id": f"m{i:02d}", "m": power(i), "fc": rng.uniform(0.01, 0.2),
             "vc": rng.uniform(0.001, 0.01)} for i in range(n)]


def _schedule_doc(rng: random.Random, miner: dict, period: int, idle_share) -> dict:
    """Full power except a reduced first entry and a few random others."""
    m = miner["m"]
    powers = [m * (1.0 - idle_share()) if j == 0 or rng.random() < 0.3 else m for j in range(period)]
    return {"miner_id": miner["id"], "powers": powers, "offset": rng.randrange(period)}


# ---------------------------------------------------------------- heatmap-smarter

HEATMAP_CELLS = {False: 2500, True: 100}
# brute-force points per sampled cell and the utility slack allowed against it
# (the optimizer refines far below the brute-force grid step)
BRUTE_RESOLUTION = 100_000
BRUTE_TOL = 1e-9


def _prepare_heatmap(rng: random.Random, work: Path, tiny: bool) -> Case:
    cells = HEATMAP_CELLS[tiny]
    side = round(math.sqrt(cells))
    nx = rng.randint(side - 2, side + 2)   # keeps nx*ny within 5% of `cells`
    ny = round(cells / nx)
    out = work / "heatmap.csv"
    sample = sorted(rng.sample(range(nx * ny), min(16, nx * ny)))

    def check(stdout: bytes) -> dict[str, float]:
        _require(stdout == b"", "sweep printed to stdout")
        lines = out.read_text(encoding="utf-8").split("\n")
        _require(lines[0] == "x,y,roi" and lines[-1] == "", "bad header or missing final newline")
        rows = np.loadtxt(io.StringIO("\n".join(lines[1:-1])), delimiter=",", ndmin=2)
        _require(rows.shape == (nx * ny, 3), f"expected {nx * ny} rows, got {rows.shape[0]}")
        # y-major order of cell centres
        xs = (np.arange(nx) + 0.5) / nx
        ys = (np.arange(ny) + 0.5) / ny
        _require(np.array_equal(rows[:, 0], np.tile(xs, ny)), "x column is not the cell centres in order")
        _require(np.array_equal(rows[:, 1], np.repeat(ys, nx)), "y column is not y-major")
        for cell in sample:
            x, y, r = rows[cell]
            brute, smart = _reference_rois(x, y)
            _require(r >= brute - BRUTE_TOL, f"cell ({x}, {y}): roi {r} below brute force {brute}")
            _require(r >= smart - 1e-12, f"cell ({x}, {y}): roi {r} below smart mining {smart}")
        return {}

    return Case(["sweep", "--mode", "smarter", "--nx", str(nx), "--ny", str(ny), "--out", str(out)],
                (out,), nx * ny, check)


def _reference_rois(x: float, y: float) -> tuple[float, float]:
    """Brute-force smarter and plain smart ROI at shares (x, y), evaluated in a
    concrete market rather than the unit-normalised one ``sweep`` uses (ROI is
    scale-free, so both must agree)."""
    from smartmining import AggregateContext, CoinParams, MinerParams, brute_force_idle, roi, smart_utility

    M, tau, cost = 1000.0, 600.0, 2.5
    m = x * M
    miner = MinerParams("deviator", m=m, fc=y * cost, vc=(1.0 - y) * cost / m)
    # zero margin: full participation earns exactly the cost rate, x*w/tau = cost
    ctx = AggregateContext(M=M, coin=CoinParams(tau=tau, epsilon=0.0, w=cost * tau / x))
    return brute_force_idle(ctx, miner, BRUTE_RESOLUTION).roi, roi(smart_utility(ctx, miner), miner)


# ---------------------------------------------------------------------- trace-sim

TRACE_SIZES = {False: (16, 8, 8_000), True: (6, 3, 200)}   # miners, deviators, epochs
TRACE_CLAMP = 1.2
REPLAY_WINDOWS, REPLAY_LEN = 4, 50
TRACE_RTOL = 1e-12


def _prepare_trace(rng: random.Random, work: Path, tiny: bool) -> Case:
    n, ndev, epochs = TRACE_SIZES[tiny]
    deviators = set(rng.sample(range(n), ndev))
    # deviators hold most of the power, so their idling swings the retarget
    # past the clamp in about half the epochs
    miners = _miner_docs(rng, n, lambda i: rng.uniform(20, 60) if i in deviators else rng.uniform(2, 10))
    schedules = [_schedule_doc(rng, miners[i], rng.randint(2, 7), lambda: rng.uniform(0.7, 1.0))
                 for i in sorted(deviators)]
    doc = {"coin": {"tau": 600.0, "epsilon": rng.uniform(0.0, 0.01), "clamp": TRACE_CLAMP},
           "miners": miners, "schedules": schedules}
    config = work / "trace-scenario.json"
    _write_json(config, doc)
    out = work / "sim"
    starts = sorted(rng.sample(range(1, epochs - REPLAY_LEN + 2), REPLAY_WINDOWS))

    def check(stdout: bytes) -> dict[str, float]:
        _require(stdout == b"", "simulate printed to stdout")
        coin, objs = _scenario_objects(doc)
        text = (out / "trace.csv").read_text(encoding="utf-8")
        header, _, body = text.partition("\n")
        cols = ["k", "H", "t", "rph"] + [f"{m['id']}_{c}" for m in miners for c in ("mhat", "R", "C", "P")]
        _require(header == ",".join(cols), "unexpected trace.csv header")
        rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        _require(rows.shape == (epochs, len(cols)), f"trace.csv has shape {rows.shape}")
        k, H, t, rph = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
        per = rows[:, 4:].reshape(epochs, n, 4)
        mhat, R, C, P = per[:, :, 0], per[:, :, 1], per[:, :, 2], per[:, :, 3]
        _require(np.array_equal(k, np.arange(1, epochs + 1)), "epoch index column is not 1..N")
        _require(np.array_equal(mhat, _active_powers(doc, np.arange(1, epochs + 1))),
                 "active powers differ from the schedules")
        # every epoch of the whole trace, vectorised: duration, price, costs, retarget
        A = mhat.sum(axis=1)
        fc = np.array([m["fc"] for m in miners])
        vc = np.array([m["vc"] for m in miners])
        _require(_close(t, H / A, TRACE_RTOL) and _close(rph, coin.w / H, TRACE_RTOL),
                 "epoch duration or revenue per hash does not follow the workload")
        scale = float(np.abs(R).max() + np.abs(C).max())
        _require(_close(C, fc + vc * mhat, TRACE_RTOL) and _close(P, R - C, 0.0, TRACE_RTOL * scale),
                 "per-miner cost or profit does not follow the active power")
        # reward conservation: the epoch pays out exactly w
        _require(_close((R * t[:, None]).sum(axis=1), coin.w, 1e-11), "epoch revenue does not sum to w")
        unclamped = A[:-1] * coin.tau
        retarget = np.clip(unclamped, H[:-1] / TRACE_CLAMP, H[:-1] * TRACE_CLAMP)
        _require(_close(H[1:], retarget, TRACE_RTOL), "workloads do not follow the clamped retarget")
        _replay(coin, objs, rows, starts, n)
        # summary utilities are the time-weighted profit averages of the trace
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        want = (P * t[:, None]).sum(axis=0) / t.sum()
        got = [summary["utilities"][m["id"]] for m in miners]
        _require(_close(got, want, 1e-9, 1e-12 * float(np.abs(P).max())), "summary utilities differ from the trace")
        engaged = np.abs(H[1:] - unclamped) > TRACE_RTOL * H[1:]
        return {"clamp_engaged_frac": float(engaged.mean()) if len(engaged) else 0.0}

    return Case(["simulate", str(config), "--epochs", str(epochs), "--out", str(out)],
                (out / "trace.csv", out / "summary.json"), n * epochs, check)


def _replay(coin, miners, rows, starts, n) -> None:
    """Re-run the scalar ``step_epoch`` loop from the trace's own state at each
    window start and compare every field of every epoch in the window."""
    from smartmining.engine import step_epoch

    for start in starts:
        H = rows[start - 1, 1]
        for k in range(start, min(start + REPLAY_LEN, len(rows) + 1)):
            row = rows[k - 1]
            _require(_close(row[1], H, TRACE_RTOL), f"epoch {k}: workload {row[1]} != replayed {H}")
            active = {p.id: row[4 + 4 * i] for i, p in enumerate(miners)}
            rec, H = step_epoch(k, H, active, coin, miners)
            _require(_close(row[1:4], [rec.H, rec.t, rec.rph], TRACE_RTOL), f"epoch {k}: H, t or rph differ")
            want = [[s.active_power, s.revenue_rate, s.cost_rate, s.profit_rate] for s in rec.per_miner]
            got = row[4:].reshape(n, 4)
            # profit is a difference of rates, so compare on the scale of the rates
            _require(_close(got, want, TRACE_RTOL, TRACE_RTOL * float(np.abs(got).max())),
                     f"epoch {k}: per-miner rates differ from replay")


# ----------------------------------------------------------------- security-cycle

SECURITY_SIZES = {False: (24, (3, 4, 5, 7, 11)), True: (8, (2, 3))}   # miners, deviator periods
SECURITY_RTOL = 1e-9


def _prepare_security(rng: random.Random, work: Path, tiny: bool) -> Case:
    n, periods = SECURITY_SIZES[tiny]
    miners = _miner_docs(rng, n, lambda i: rng.uniform(5, 50))
    deviators = rng.sample(range(n), len(periods))
    # the period set is fixed so the simulated length (3 * lcm) is the same for every seed
    schedules = sorted((_schedule_doc(rng, miners[i], p, lambda: rng.uniform(0.2, 1.0))
                        for i, p in zip(deviators, periods)), key=lambda s: s["miner_id"])
    doc = {"coin": {"tau": 600.0, "epsilon": rng.uniform(0.0, 0.01)}, "miners": miners, "schedules": schedules}
    config = work / "security-scenario.json"
    _write_json(config, doc)
    period = math.lcm(*periods)

    def check(stdout: bytes) -> dict[str, float]:
        report = json.loads(stdout)
        want = _steady_cycle_reference(doc, period)
        _require(list(report["per_miner_gain"]) == [m["id"] for m in miners], "per-miner gains out of order")
        _require(_close(report["lre_active_power"], want["lre_active_power"], SECURITY_RTOL),
                 "weakest-epoch active power differs from the steady cycle")
        _require(_close(report["idle_fraction"], want["idle_fraction"], 0.0, SECURITY_RTOL),
                 "idle fraction differs from the steady cycle")
        _require(_close(report["attack_threshold"], (1 - report["idle_fraction"]) / 2, 0.0, 1e-15),
                 "attack threshold is not (1 - idle_fraction) / 2")
        gains = list(report["per_miner_gain"].values())
        scale = max(m["fc"] + m["vc"] * m["m"] for m in miners)
        _require(_close(gains, want["gains"], SECURITY_RTOL, SECURITY_RTOL * scale),
                 "per-miner gains differ from the steady cycle")
        return {}

    return Case(["security", str(config)], (), period, check)


def _steady_cycle_reference(doc, period: int) -> dict:
    """Steady cycle in closed form: unclamped, every epoch's workload is
    H_j = tau * A_{j-1}, so one period of active powers fixes the cycle."""
    tau, eps = doc["coin"]["tau"], doc["coin"]["epsilon"]
    m = np.array([d["m"] for d in doc["miners"]])
    fc = np.array([d["fc"] for d in doc["miners"]])
    vc = np.array([d["vc"] for d in doc["miners"]])
    w = tau * float(np.sum(fc + vc * m + eps))
    active = _active_powers(doc, np.arange(1, period + 1))
    A = active.sum(axis=1)
    H = tau * np.roll(A, 1)
    t = H / A
    profit = (w / H)[:, None] * active - fc - vc * active
    u = (profit * t[:, None]).sum(axis=0) / t.sum()
    return {"lre_active_power": float(A.min()), "idle_fraction": float((m.sum() - A.min()) / m.sum()),
            "gains": u - eps}


WORKLOADS = {w.name: w for w in (
    Workload("heatmap-smarter", "cells",
             ("analytic.sweep", "optimizer.optimal_idle", "analytic.smarter_utility"), _prepare_heatmap),
    Workload("trace-sim", "miner-epochs",
             ("engine.run", "engine.step_epoch", "engine.trace_utilities", "model.validate_scenario"),
             _prepare_trace),
    Workload("security-cycle", "period-epochs",
             ("security.security_report", "engine.steady_cycle", "engine.step_epoch",
              "engine.trace_utilities", "model.validate_scenario"), _prepare_security),
)}
