"""Command line interface.

Subcommands: simulate (epoch traces as CSV + JSON summary), analyze
(closed-form deviation report for one miner), optimize (idle-power tuning),
sweep (ROI heatmap CSV over power and cost shares), security (attack report,
optionally with an entrant effect).

Exit codes: 0 success, 2 configuration or usage error (an input too large
for the available memory included), 3 model error (stalled epoch), 4 I/O
error.  Every exit 2 prints a JSON list of messages on stderr, bad flag
values included.  Outputs are byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from itertools import chain
from operator import itemgetter

from . import __version__
from .analytic import (
    MODE_SMART,
    MODE_SMARTER,
    AggregateContext,
    dominance,
    epoch_table_smart,
    min_power_for_profit,
    roi,
    smart_utility,
    sweep,
)
from .engine import run
from .model import (
    CoinParams,
    ConfigurationError,
    MinerParams,
    StalledEpochError,
    StrategySchedule,
    calibrate_reward,
    total_power,
    validate_scenario,
)
from .optimizer import optimal_idle
from .security import entry_effect, security_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_IO = 4


def _number(value):
    """A JSON number other than a bool as a float; other values pass unchanged."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return value


def _objects(doc, key, errors):
    """The JSON objects listed under ``key``; a wrong shape adds an error and yields none."""
    entries = doc.get(key, [])
    if isinstance(entries, list) and all(isinstance(e, dict) for e in entries):
        return entries
    errors.append(f"'{key}' must be a list of JSON objects")
    return []


def _unknown_fields(where, entry, known):
    """One message per key of the JSON object ``entry`` outside ``known``: a
    misspelt key would otherwise be ignored and its default used."""
    return [f"{where}: unknown field {key!r}" for key in entry if key not in known]


def _load_scenario(path):
    """Parse and validate a scenario config; returns (coin, miners, schedules).

    Values reach the model types uncoerced, except that JSON numbers become
    floats.  Collects every problem it can find before failing so the error
    list is actionable in one pass, and reports each fault once: the checks
    across sections run only on a miner section that parsed in full.  A key
    that no section reads is a fault too, named by its path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}")
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a JSON object")

    errors = []
    miners = []
    for i, entry in enumerate(_objects(doc, "miners", errors)):
        errors.extend(_unknown_fields(f"miners[{i}]", entry, MinerParams._fields))
        try:
            miners.append(MinerParams(id=entry["id"], m=_number(entry["m"]),
                                      fc=_number(entry["fc"]), vc=_number(entry["vc"])))
        except KeyError as exc:
            errors.append(f"miners[{i}]: missing field {exc}")
        except (ValueError, ArithmeticError) as exc:
            errors.append(f"miners[{i}]: {exc}")
    # a faulty miner section leaves the miner set incomplete, and checks
    # against an incomplete set would only repeat that fault
    miners_complete = not errors

    schedules = []
    for i, entry in enumerate(_objects(doc, "schedules", errors)):
        errors.extend(_unknown_fields(f"schedules[{i}]", entry, StrategySchedule._fields))
        try:
            if not isinstance(entry["powers"], list):
                raise ValueError(f"powers must be a list, got {entry['powers']!r}")
            schedules.append(StrategySchedule(miner_id=entry["miner_id"],
                                              powers=tuple(_number(p) for p in entry["powers"]),
                                              offset=entry.get("offset", 0)))
        except KeyError as exc:
            errors.append(f"schedules[{i}]: missing field {exc}")
        except (ValueError, ArithmeticError) as exc:
            errors.append(f"schedules[{i}]: {exc}")

    coin = None
    coin_doc = doc.get("coin")
    if not isinstance(coin_doc, dict):
        errors.append("missing 'coin' section")
    else:
        errors.extend(_unknown_fields("coin", coin_doc, ("tau", "epsilon", "clamp")))
        try:
            tau = _number(coin_doc["tau"])
            epsilon = _number(coin_doc.get("epsilon", 0.0))
            reward = doc.get("reward", "calibrated")
            if reward != "calibrated":
                w = _number(reward)
            else:
                # with no miner to calibrate against (reported on its own), a
                # stand-in reward still lets tau, epsilon and clamp be checked
                w = calibrate_reward(miners, tau, epsilon) if miners else 1.0
            coin = CoinParams(tau=tau, epsilon=epsilon, w=w, clamp=_number(coin_doc.get("clamp")))
        except KeyError as exc:
            errors.append(f"coin: missing field {exc}")
        except (ValueError, ArithmeticError) as exc:
            errors.append(f"coin: {exc}")

    if miners_complete:
        errors.extend(validate_scenario(coin, miners, schedules))
    errors.extend(_unknown_fields("config", doc, ("coin", "reward", "miners", "schedules")))
    if errors:
        raise ConfigurationError(*errors)
    return coin, miners, schedules


def _load_market(path, miner_id):
    """The aggregate market of a scenario config and its miner ``miner_id``:
    returns (ctx, miner).  An unknown miner is reported before the market is built."""
    coin, miners, _ = _load_scenario(path)
    for p in miners:
        if p.id == miner_id:
            return AggregateContext(M=total_power(miners), coin=coin), p
    raise ConfigurationError(f"unknown miner '{miner_id}'")


def _non_finite_path(doc, path=""):
    """Key path of the first non-finite number in ``doc``, in output order, or None."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else path
    if isinstance(doc, dict):
        children = ((f"{path}.{k}" if path else str(k), v) for k, v in doc.items())
    elif isinstance(doc, (list, tuple)):
        children = ((f"{path}[{i}]", v) for i, v in enumerate(doc))
    else:
        return None
    for child_path, child in children:
        if (found := _non_finite_path(child, child_path)) is not None:
            return found
    return None


def _json(doc) -> str:
    """``doc`` as indented JSON; a non-finite number raises ValueError naming
    its key path instead of writing a NaN or Infinity token, which JSON does
    not have."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        path = _non_finite_path(doc)
        if path is None:
            raise
        raise ValueError(f"{path}: {exc}") from None


def _write_text(path, text) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted as ``csv.writer`` does (QUOTE_MINIMAL)
    when it holds a comma, a quote, CR or LF.  Python 3.11's writer leaves a
    bare CR unquoted under a "\\n" line terminator, so the rule is spelled out."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_trace_csv(path, trace, miners) -> None:
    """Write one row per epoch, every float as its ``repr``.

    Records that hold the same ``per_miner`` object are equal apart from ``k``
    (``engine._simulate`` shares the tuple only between epochs of equal phase
    and workload), so the text after ``k`` is formatted once per shared
    tuple.  Text is kept only for a tuple that more than one record holds: a
    trace that never repeats holds no row text.
    """
    cols = ["k", "H", "t", "rph"] + [f"{p.id}_{c}" for p in miners for c in ("mhat", "R", "C", "P")]
    holders = Counter(map(id, map(itemgetter(4), trace.records)))
    texts = {}
    with open(path, "w", encoding="utf-8", newline="", buffering=1 << 20) as fh:
        fh.write(",".join(map(_csv_field, cols)) + "\n")
        for k, H, t, rph, per in trace.records:
            text = texts.get(id(per))
            if text is None:
                text = ",".join(map(repr, chain((H, t, rph), chain.from_iterable(map(itemgetter(1, 2, 3, 4), per)))))
                if holders[id(per)] > 1:
                    texts[id(per)] = text
            fh.write(f"{k},{text}\n")


def _cmd_simulate(args) -> int:
    if args.epochs < 1:
        raise ConfigurationError("--epochs must be >= 1")
    coin, miners, schedules = _load_scenario(args.config)
    trace = run(coin, miners, schedules, args.epochs)
    summary = _json({
        "version": __version__,
        "epochs": args.epochs,
        "coin": coin._asdict(),
        "miners": [p._asdict() for p in miners],
        "schedules": [s._asdict() for s in schedules],
        "utilities": trace.utilities,
    })
    os.makedirs(args.out, exist_ok=True)
    _write_trace_csv(os.path.join(args.out, "trace.csv"), trace, miners)
    _write_text(os.path.join(args.out, "summary.json"), summary + "\n")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    ctx, miner = _load_market(args.config, args.miner)
    x = miner.m / ctx.M
    y = miner.fc / miner.cost_rate
    u = smart_utility(ctx, miner)
    report = {
        "miner": miner.id,
        "x": x,
        "y": y,
        "dominance": dominance(x, y),
        "smart_utility": u,
        "smart_roi": roi(u, miner),
        "epoch_table": epoch_table_smart(ctx, miner),
    }
    try:
        report["min_power_for_profit"] = min_power_for_profit(y)
    except ValueError:
        report["min_power_for_profit"] = None
        report["min_power_reason"] = "no power share suffices"
    print(_json(report))
    return EXIT_OK


def _cmd_optimize(args) -> int:
    ctx, miner = _load_market(args.config, args.miner)
    point = optimal_idle(ctx, miner)
    print(_json({
        "miner": miner.id,
        "delta": point.delta,
        "delta_fraction": point.delta / miner.m,
        "utility": point.utility,
        "roi": point.roi,
        "schedule": StrategySchedule(miner.id, (miner.m - point.delta, miner.m))._asdict(),
    }))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.nx < 2 or args.ny < 2:
        raise ConfigurationError("--nx and --ny must be >= 2")
    # cell centers keep every grid point strictly inside (0, 1)
    xs = [(j + 0.5) / args.nx for j in range(args.nx)]
    ys = [(i + 0.5) / args.ny for i in range(args.ny)]
    matrix = sweep(xs, ys, args.mode)
    x_cells = [f"{xv:.17g}," for xv in xs]
    lines = ["x,y,roi"]
    for yv, row in zip(ys, matrix.tolist()):
        y_cell = f"{yv:.17g},"
        lines.extend([x_cell + y_cell + f"{r:.17g}" for x_cell, r in zip(x_cells, row)])
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_security(args) -> int:
    coin, miners, schedules = _load_scenario(args.config)
    if args.entrant is not None and len(schedules) != 1:
        raise ConfigurationError("--entrant requires exactly one schedule (the deviating miner)")
    # entry_effect checks the entrant power before it simulates anything
    eff = None if args.entrant is None else entry_effect(coin, miners, schedules[0], args.entrant)
    doc = security_report(coin, miners, schedules)._asdict()
    if eff is not None:
        doc["entry_effect"] = eff._asdict()
    print(_json(doc))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a ConfigurationError instead of usage text."""

    def error(self, message):
        raise ConfigurationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="smartmining",
        description="Deterministic epoch simulator and closed-form analyzer of "
                    "mining economics under difficulty retargeting.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate epochs; write trace.csv and summary.json")
    p.add_argument("config", help="scenario config (JSON)")
    p.add_argument("--epochs", type=int, required=True, help="number of epochs (>= 1)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("analyze", help="closed-form deviation report for one miner (JSON on stdout)")
    p.add_argument("config", help="scenario config (JSON)")
    p.add_argument("--miner", required=True, help="miner id to analyze")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("optimize", help="profit-maximizing idle power for one miner (JSON on stdout)")
    p.add_argument("config", help="scenario config (JSON)")
    p.add_argument("--miner", required=True, help="miner id to optimize")
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("sweep", help="ROI heatmap CSV over power share x and fixed-cost share y")
    p.add_argument("--mode", choices=(MODE_SMART, MODE_SMARTER), required=True)
    p.add_argument("--nx", type=int, required=True, help="number of x cells (>= 2)")
    p.add_argument("--ny", type=int, required=True, help="number of y cells (>= 2)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("security", help="attack-threshold report (JSON on stdout)")
    p.add_argument("config", help="scenario config (JSON)")
    p.add_argument("--entrant", type=float, default=None,
                   help="hash power of an entrant joining only the high-revenue epochs")
    p.set_defaults(handler=_cmd_security)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except StalledEpochError as exc:
        print(json.dumps({"error": "stalled epoch", "epoch": exc.epoch}), file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print(json.dumps([f"I/O error: {exc}"]), file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(json.dumps(getattr(exc, "errors", [str(exc)])), file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # an input too large for this machine, such as a huge sweep grid
        print(json.dumps([f"out of memory: {exc}" if str(exc) else "out of memory"]), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
