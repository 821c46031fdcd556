"""Command line interface.

Subcommands: simulate (epoch traces as CSV + JSON summary), analyze
(closed-form deviation report for one miner), optimize (idle-power tuning),
sweep (ROI heatmap CSV over power and cost shares), security (attack report,
optionally with an entrant effect).

Exit codes: 0 success, 2 configuration or usage error (a config that
cannot be read and an input too large for the available memory included),
3 model error (stalled epoch), 4 an output that cannot be written.  Every
exit 2 prints a JSON list of messages on stderr, bad flag values included.
Outputs are byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from functools import cache
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
    _finite,
    calibrate_reward,
    total_power,
    validate_scenario,
)
from .optimizer import optimal_idle
from .security import security_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_IO = 4


def _number(value):
    """A JSON number other than a bool as a float; other values pass unchanged."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return value


def _unique_keys(pairs):
    """A JSON object's (key, value) pairs as a dict.  A repeated key raises
    ValueError: ``json`` would keep its last value and drop the others silently."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _parse(errors, where, entry, fields, build):
    """``build(entry)`` for the JSON object ``entry`` at path ``where``, or None
    if it fails.  Each fault adds one message named by the path to ``errors``:
    one per key outside ``fields`` (a misspelt key would otherwise be ignored
    and its default used), then a missing field or a value the model rejects."""
    errors.extend(f"{where}: unknown field {key!r}" for key in entry if key not in fields)
    try:
        return build(entry)
    except KeyError as exc:
        errors.append(f"{where}: missing field {exc}")
    except (ValueError, ArithmeticError) as exc:
        errors.append(f"{where}: {exc}")
    return None


def _schedule(entry):
    """The schedule of a JSON object.  ``powers`` must be a list: a string
    would be read character by character, and a number cannot be iterated."""
    if not isinstance(entry["powers"], list):
        raise ValueError(f"powers must be a list, got {entry['powers']!r}")
    return StrategySchedule(miner_id=entry["miner_id"], powers=tuple(_number(p) for p in entry["powers"]),
                            offset=entry.get("offset", 0))


def _load_scenario(path):
    """Parse and validate a scenario config; returns (coin, miners, schedules).

    Values reach the model types uncoerced, except that JSON numbers become
    floats.  Each miner, each schedule and the coin go through ``_parse`` with
    their own builder.  Collects every problem it can find before failing so
    the error list is actionable in one pass, and reports each fault once:
    the checks across sections run only on a miner section that parsed in
    full.  A key that no section reads, or one repeated within an object, is
    a fault too.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}")
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a JSON object")

    errors = []

    def entries(key, fields, build):
        found = doc.get(key, [])
        if not (isinstance(found, list) and all(isinstance(e, dict) for e in found)):
            errors.append(f"'{key}' must be a list of JSON objects")
            found = []
        built = (_parse(errors, f"{key}[{i}]", e, fields, build) for i, e in enumerate(found))
        return [value for value in built if value is not None]

    def build_coin(entry):
        tau, epsilon = _number(entry["tau"]), _number(entry.get("epsilon", 0.0))
        if reward != "calibrated":
            w = _number(reward)
        else:
            # with no miner to calibrate against (reported on its own), a
            # stand-in reward still lets tau, epsilon and clamp be checked
            w = calibrate_reward(miners, tau, epsilon) if miners else 1.0
        return CoinParams(tau=tau, epsilon=epsilon, w=w, clamp=_number(entry.get("clamp")))

    miners = entries("miners", MinerParams._fields, lambda e: MinerParams(
        id=e["id"], m=_number(e["m"]), fc=_number(e["fc"]), vc=_number(e["vc"])))
    # a faulty miner section leaves the miner set incomplete, and checks
    # against an incomplete set would only repeat that fault
    miners_complete = not errors
    schedules = entries("schedules", StrategySchedule._fields, _schedule)
    reward = doc.get("reward", "calibrated")
    if reward != "calibrated" and not (_finite(reward) and reward > 0):
        errors.append(f'reward: must be "calibrated" or a finite number > 0, got {reward!r}')
        reward = 1.0   # a stand-in, so that the coin's own fields are still checked
    if isinstance(doc.get("coin"), dict):
        coin = _parse(errors, "coin", doc["coin"], ("tau", "epsilon", "clamp"), build_coin)
    else:
        coin = None
        errors.append("missing 'coin' section")
    if miners_complete:
        errors.extend(validate_scenario(coin, miners, schedules))
    errors.extend(f"config: unknown field {key!r}" for key in doc
                  if key not in ("coin", "reward", "miners", "schedules"))
    if errors:
        raise ConfigurationError(*errors)
    return coin, miners, schedules


def _load_market(path, miner_id):
    """The aggregate market of a scenario config and its miner ``miner_id``:
    returns (ctx, miner).  An unknown miner is reported before the market is
    built, then the schedule of any other miner: the closed forms price
    ``miner_id`` against always-on miners, and would drop that schedule."""
    coin, miners, schedules = _load_scenario(path)
    miner = next((p for p in miners if p.id == miner_id), None)
    if miner is None:
        raise ConfigurationError(f"unknown miner '{miner_id}'")
    if other := next((s.miner_id for s in schedules if s.miner_id != miner_id), None):
        raise ConfigurationError(
            f"miner '{other}' has a schedule: the closed form prices '{miner_id}' against miners that "
            f"never idle; use security or simulate for this scenario")
    return AggregateContext(M=total_power(miners), coin=coin), miner


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
    """Write one row per epoch, every float as its ``repr``; a record's
    ``total_active`` is not written.

    Records that hold the same ``per_miner`` object are equal apart from ``k``
    (``engine._simulate`` shares the tuple only between epochs whose workload
    and active powers have the same bits), so the text after ``k`` is
    formatted once per shared tuple.  Text is kept only for a tuple that more
    than one record holds: a trace that never repeats holds no row text.
    """
    cols = ["k", "H", "t", "rph"] + [f"{p.id}_{c}" for p in miners for c in ("mhat", "R", "C", "P")]
    holders = Counter(map(id, map(itemgetter(4), trace.records)))
    texts = {}
    with open(path, "w", encoding="utf-8", newline="", buffering=1 << 20) as fh:
        fh.write(",".join(map(_csv_field, cols)) + "\n")
        for k, H, t, rph, per, _A in trace.records:
            text = texts.get(id(per))
            if text is None:
                text = ",".join(map(repr, chain((H, t, rph), chain.from_iterable(map(itemgetter(1, 2, 3, 4), per)))))
                if holders[id(per)] > 1:
                    texts[id(per)] = text
            fh.write(f"{k},{text}\n")


def _cmd_simulate(args) -> None:
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


def _cmd_analyze(args) -> dict:
    ctx, miner = _load_market(args.config, args.miner)
    x = miner.m / ctx.M
    if x == 0:
        raise ConfigurationError(f"power share m/M = {miner.m!r}/{ctx.M!r} underflows to 0.0, yet m > 0")
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
    return report


def _cmd_optimize(args) -> dict:
    ctx, miner = _load_market(args.config, args.miner)
    point = optimal_idle(ctx, miner)
    return {
        "miner": miner.id,
        "delta": point.delta,
        "delta_fraction": point.delta / miner.m,
        "utility": point.utility,
        "roi": point.roi,
        "schedule": StrategySchedule(miner.id, (miner.m - point.delta, miner.m))._asdict(),
    }


def _cmd_sweep(args) -> None:
    if args.nx < 2 or args.ny < 2:
        raise ConfigurationError("--nx and --ny must be >= 2")
    # cell centers keep every grid point strictly inside (0, 1)
    xs = [(j + 0.5) / args.nx for j in range(args.nx)]
    ys = [(i + 0.5) / args.ny for i in range(args.ny)]
    matrix = sweep(xs, ys, args.mode)
    x_cells = [f"{xv:.17g}," for xv in xs]
    chunks = ["x,y,roi\n"]
    for yv, row in zip(ys, matrix.tolist()):
        # one line per x cell, its roi slot formatted as f"{r:.17g}" would
        y_cell = f"{yv:.17g},%.17g\n"
        chunks.append("".join([x_cell + y_cell for x_cell in x_cells]) % tuple(row))
    _write_text(args.out, "".join(chunks))


def _cmd_security(args) -> dict:
    coin, miners, schedules = _load_scenario(args.config)
    doc = security_report(coin, miners, schedules, args.entrant)._asdict()
    if (eff := doc.pop("entry_effect")) is not None:
        doc["entry_effect"] = eff._asdict()
    return doc


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a ConfigurationError instead of usage text."""

    def error(self, message):
        raise ConfigurationError(message)


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept for the process."""
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

    p = sub.add_parser("optimize", help="best idle power delta of the two-epoch alternation (m - delta, m) "
                                        "for one miner (JSON on stdout)")
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
        args = _parser().parse_args(argv)
        # analyze, optimize and security return the report they print; simulate and sweep write files
        if (report := args.handler(args)) is not None:
            print(_json(report))
        return EXIT_OK
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
