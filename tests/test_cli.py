import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smartmining
from _scenarios import (
    ALWAYS_ON_CONFIG,
    CLAMPED_BIG_CONFIG,
    HUGE_BOOST_CONFIG,
    HUGE_REWARD_CONFIG,
    HUGE_TAU_CONFIG,
    HUGE_TAU_SCHEDULE_CONFIG,
    NO_REPEAT_CONFIG,
    OVERFLOWING_CANDIDATE_CONFIG,
    OVERFLOWING_HYPOT_CONFIG,
    OVERFLOWING_TERM_CONFIG,
    SMART_CONFIG,
    clamped,
    moderate_market,
    scaled_market,
)
from smartmining import cli, engine, security
from smartmining.analytic import sweep
from smartmining.cli import _load_scenario, main
from smartmining.engine import run, trace_utilities
from smartmining.security import security_report
from test_outputs import SWEEP_50_SHA256

# attack_trio's market: the attacker idles in even epochs and the bystander
# in odd ones, the attacker's full epochs
BYSTANDER_CONFIG = {
    "coin": {"tau": 600.0, "epsilon": 0.0},
    "reward": "calibrated",
    "miners": [
        {"id": "attacker", "m": 20.0, "fc": 0.03, "vc": 0.0085},
        {"id": "bystander", "m": 10.0, "fc": 0.02, "vc": 0.008},
        {"id": "rest", "m": 70.0, "fc": 0.0, "vc": 0.01},
    ],
    "schedules": [{"miner_id": "attacker", "powers": [0.0, 20.0], "offset": 0},
                  {"miner_id": "bystander", "powers": [0.0, 10.0], "offset": 1}],
}

HONEST_CONFIG = {
    "coin": {"tau": 600.0, "epsilon": 0.0},
    "reward": "calibrated",
    "miners": [
        {"id": "a", "m": 50.0, "fc": 0.1, "vc": 0.008},
        {"id": "b", "m": 30.0, "fc": 0.0, "vc": 0.01},
        {"id": "c", "m": 20.0, "fc": 0.05, "vc": 0.0075},
    ],
}


SMART_SUMMARY_GOLDEN = """\
{
  "version": "0.1.0",
  "epochs": 6,
  "coin": {
    "tau": 600.0,
    "epsilon": 0.0,
    "w": 600.0,
    "clamp": null
  },
  "miners": [
    {
      "id": "attacker",
      "m": 20.0,
      "fc": 0.03,
      "vc": 0.0085
    },
    {
      "id": "rest",
      "m": 80.0,
      "fc": 0.0,
      "vc": 0.01
    }
  ],
  "schedules": [
    {
      "miner_id": "attacker",
      "powers": [
        0.0,
        20.0
      ],
      "offset": 0
    }
  ],
  "utilities": {
    "attacker": 0.0012195121951219454,
    "rest": 0.07804878048780485
  }
}
"""

# SMART_CONFIG with a retarget clamp and a schedule offset: the summary
# keeps the non-default clamp and offset values
CLAMPED_OFFSET_CONFIG = dict(SMART_CONFIG, coin={"tau": 600.0, "epsilon": 0.0, "clamp": 1.2},
                             schedules=[{"miner_id": "attacker", "powers": [0.0, 20.0], "offset": 1}])

CLAMPED_OFFSET_SUMMARY_GOLDEN = """\
{
  "version": "0.1.0",
  "epochs": 6,
  "coin": {
    "tau": 600.0,
    "epsilon": 0.0,
    "w": 600.0,
    "clamp": 1.2
  },
  "miners": [
    {
      "id": "attacker",
      "m": 20.0,
      "fc": 0.03,
      "vc": 0.0085
    },
    {
      "id": "rest",
      "m": 80.0,
      "fc": 0.0,
      "vc": 0.01
    }
  ],
  "schedules": [
    {
      "miner_id": "attacker",
      "powers": [
        0.0,
        20.0
      ],
      "offset": 1
    }
  ],
  "utilities": {
    "attacker": -0.007142857142857149,
    "rest": 0.04155844155844154
  }
}
"""

SMART_SECURITY_GOLDEN = """\
{
  "lre_active_power": 80.0,
  "idle_fraction": 0.2,
  "attack_threshold": 0.4,
  "per_miner_gain": {
    "attacker": 0.0012195121951219454,
    "rest": 0.07804878048780485
  }
}
"""

SMART_ENTRANT_GOLDEN = """\
{
  "lre_active_power": 80.0,
  "idle_fraction": 0.2,
  "attack_threshold": 0.4,
  "per_miner_gain": {
    "attacker": 0.0012195121951219454,
    "rest": 0.07804878048780485
  },
  "entry_effect": {
    "entrant_power": 10.0,
    "rph_lre_before": 0.01,
    "rph_lre_after": 0.00909090909090909,
    "rph_lre_ratio": 0.9090909090909091,
    "rph_hre_before": 0.0125,
    "rph_hre_after": 0.0125,
    "lre_active_before": 80.0,
    "lre_active_after": 80.0
  }
}
"""

# SMART_CONFIG with "rest" deviating too, at period 3: the common period is 6
TWO_DEVIATOR_CONFIG = dict(SMART_CONFIG, schedules=SMART_CONFIG["schedules"] + [
    {"miner_id": "rest", "powers": [80.0, 40.0, 80.0]}])

# every miner and tau at 1e-200: M*tau underflows to 0
TINY_CONFIG = {
    "coin": {"tau": 1e-200},
    "miners": [
        {"id": "attacker", "m": 1e-200, "fc": 0.03, "vc": 0.0085},
        {"id": "rest", "m": 1e-200, "fc": 0.0, "vc": 0.01},
    ],
}


# w/(M*tau) = 1e300/1e-300 overflows to inf
HUGE_PRICE_CONFIG = {
    "coin": {"tau": 1e-300},
    "reward": 1e300,
    "miners": [{"id": "a", "m": 0.5, "fc": 0.1, "vc": 0.1}, {"id": "b", "m": 0.5, "fc": 0.1, "vc": 0.1}],
    "schedules": [{"miner_id": "a", "powers": [0.0, 0.5]}],
}

# w/(M*tau) = 1e-300/1e150 underflows to 0, and with it the price of every epoch
TINY_PRICE_CONFIG = {
    "coin": {"tau": 1e300},
    "reward": 1e-300,
    "miners": [{"id": "a", "m": 3e-151, "fc": 0.0, "vc": 1.0}, {"id": "b", "m": 7e-151, "fc": 0.1, "vc": 0.01}],
    "schedules": [{"miner_id": "a", "powers": [0.0, 3e-151]}],
}

# M*tau = 1e-320 is subnormal, and the boosted epoch's (M - m)*tau = 1e-330 underflows to 0
TINY_BOOST_CONFIG = {
    "coin": {"tau": 1e-300},
    "miners": [{"id": "a", "m": 1e-20, "fc": 0.1, "vc": 0.01}, {"id": "b", "m": 1e-30, "fc": 0.1, "vc": 0.01}],
}

# M^3 = 1e600 is beyond float range, while the interior optimum of miner "a"
# (delta_fraction 0.34) needs no intermediate larger than M times a price
LARGE_MARKET_CONFIG = {
    "coin": {"tau": 1e-300},
    "reward": 1.6,
    "miners": [{"id": "a", "m": 6e199, "fc": 1e300, "vc": 1e100}, {"id": "b", "m": 4e199, "fc": 0.0, "vc": 1e100}],
}

# the retarget after epoch 1 (a idle, only b's 1e-300 active) leaves H_2 = 1e-320,
# so the revenue per hash w/H_2 of epoch 2 overflows
INFINITE_PRICE_CONFIG = {
    "coin": {"tau": 1e-20},
    "reward": 1.0,
    "miners": [{"id": "a", "m": 1e20, "fc": 0.0, "vc": 1e-20}, {"id": "b", "m": 1e-300, "fc": 1.0, "vc": 0.0}],
    "schedules": [{"miner_id": "a", "powers": [0.0, 0.0, 1e20]}],
}

# revenue rate w/(M*tau) * m = 1e300/1 * 5e9 overflows: the utilities are
# infinite however their time-weighted sums are taken
RATE_OVERFLOW_CONFIG = {
    "coin": {"tau": 1e-10},
    "reward": 1e300,
    "miners": [{"id": mid, "m": 5e9, "fc": 1.0, "vc": 0.0} for mid in ("a", "b")],
}

_MISSING = object()


def _patched(path, value):
    """A copy of SMART_CONFIG with the field at ``path`` set to ``value``, or
    removed for _MISSING; an empty path stands for the whole document."""
    if not path:
        return {} if value is _MISSING else value
    doc = json.loads(json.dumps(SMART_CONFIG))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is _MISSING:
        with contextlib.suppress(KeyError):
            del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_honest_trace(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, HONEST_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--epochs", "10", "--out", str(out)]) == 0
        header, rows = _read_csv(out / "trace.csv")
        assert header[:4] == ["k", "H", "t", "rph"]
        assert header[4:8] == ["a_mhat", "a_R", "a_C", "a_P"]
        assert len(rows) == 10
        for row in rows:
            assert float(row[2]) == 600.0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["epochs"] == 10
        assert set(summary["utilities"]) == {"a", "b", "c"}

    def test_smart_trace_alternates_workload(self, tmp_path):
        cfg = _write_config(tmp_path, SMART_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--epochs", "6", "--out", str(out)]) == 0
        _, rows = _read_csv(out / "trace.csv")
        workloads = [float(r[1]) for r in rows]
        assert workloads == [60000.0, 48000.0, 60000.0, 48000.0, 60000.0, 48000.0]

    def test_csv_roundtrips_to_exact_doubles(self, tmp_path):
        from smartmining import run
        from smartmining.cli import _load_scenario

        cfg = _write_config(tmp_path, SMART_CONFIG)
        out = tmp_path / "out"
        main(["simulate", cfg, "--epochs", "5", "--out", str(out)])
        coin, miners, schedules = _load_scenario(cfg)
        trace = run(coin, miners, schedules, 5)
        _, rows = _read_csv(out / "trace.csv")
        for rec, row in zip(trace.records, rows):
            assert float(row[1]) == rec.H
            assert float(row[2]) == rec.t
            assert float(row[3]) == rec.rph
            for i, s in enumerate(rec.per_miner):
                base = 4 + 4 * i
                assert float(row[base + 0]) == s.active_power
                assert float(row[base + 1]) == s.revenue_rate
                assert float(row[base + 2]) == s.cost_rate
                assert float(row[base + 3]) == s.profit_rate

    @pytest.mark.parametrize("case", ["clamped", "signed-zero-schedule", "always-on", "no-repeats"])
    def test_trace_csv_bytes_match_whole_file_join(self, tmp_path, case):
        # the writer formats each shared row once; the expected file calls
        # repr on every cell
        from smartmining import run
        from smartmining.cli import _load_scenario

        doc = json.loads(json.dumps(HONEST_CONFIG))
        epochs = 40
        if case == "clamped":
            doc["coin"]["clamp"] = 1.2
            doc["schedules"] = [{"miner_id": "a", "powers": [10.0, 50.0, 35.5]},
                                {"miner_id": "c", "powers": [0.0, 20.0]}]
        elif case == "signed-zero-schedule":
            # 0.0 == -0.0, but epoch 1 writes 0.0 and epoch 2 writes -0.0
            doc["schedules"] = [{"miner_id": "c", "powers": [0.0, -0.0, 20.0]}]
        elif case == "always-on":
            # states of one workload share each miner's rates at one power
            doc = ALWAYS_ON_CONFIG
            epochs = 200
        else:
            # no two epochs share a row, so every row is formatted on its own
            doc = NO_REPEAT_CONFIG
            epochs = 300
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--epochs", str(epochs), "--out", str(out)]) == 0
        coin, miners, schedules = _load_scenario(cfg)
        lines = [",".join(["k", "H", "t", "rph"] + [f"{p.id}_{c}" for p in miners for c in ("mhat", "R", "C", "P")])]
        for rec in run(coin, miners, schedules, epochs).records:
            cells = [str(rec.k), repr(rec.H), repr(rec.t), repr(rec.rph)]
            for s in rec.per_miner:
                cells += [repr(s.active_power), repr(s.revenue_rate), repr(s.cost_rate), repr(s.profit_rate)]
            lines.append(",".join(cells))
        assert (out / "trace.csv").read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_trace_writer_keeps_no_text_of_rows_that_never_repeat(self, tmp_path):
        # a write's fixed cost (the file buffer) is what one epoch costs; on
        # top of it the writer keeps counts per row, never the row's text
        import tracemalloc

        from smartmining import run
        from smartmining.cli import _load_scenario, _write_trace_csv

        coin, miners, schedules = _load_scenario(_write_config(tmp_path, NO_REPEAT_CONFIG))
        peaks, sizes = [], []
        for epochs in (1, 2000):
            trace = run(coin, miners, schedules, epochs)
            path = tmp_path / f"trace-{epochs}.csv"
            tracemalloc.start()
            try:
                _write_trace_csv(path, trace, miners)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(path.stat().st_size)
        assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 4

    @pytest.mark.parametrize("ids", [("a,b", 'q"x\ny', "c"), ("c\rd", " e ", '""'), ("plain", "x\r\n", "y,")])
    def test_trace_csv_header_quotes_ids(self, tmp_path, ids):
        doc = json.loads(json.dumps(HONEST_CONFIG))
        for miner, new_id in zip(doc["miners"], ids):
            miner["id"] = new_id
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--epochs", "3", "--out", str(out)]) == 0
        header = ["k", "H", "t", "rph"] + [f"{i}_{c}" for i in ids for c in ("mhat", "R", "C", "P")]
        with open(out / "trace.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert all(len(row) == 4 + 4 * len(ids) for row in rows)
        assert rows[0] == header
        # the "\r\n" terminator makes csv.writer quote CR and LF on every Python version
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\r\n").writerow(header)
        text = (out / "trace.csv").read_bytes().decode("utf-8")
        assert text.startswith(expected.getvalue()[:-2] + "\n1,")

    @pytest.mark.parametrize("config,golden", [(SMART_CONFIG, SMART_SUMMARY_GOLDEN),
                                                (CLAMPED_OFFSET_CONFIG, CLAMPED_OFFSET_SUMMARY_GOLDEN)],
                             ids=["smart", "clamp-offset"])
    def test_summary_json_golden_bytes(self, tmp_path, config, golden):
        # pins the key order and the values that the summary takes from the input types
        cfg = _write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--epochs", "6", "--out", str(out)]) == 0
        assert (out / "summary.json").read_bytes() == golden.encode("utf-8")

    def test_duplicate_miner_id_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(HONEST_CONFIG))
        doc["miners"].append(dict(doc["miners"][0]))
        cfg = _write_config(tmp_path, doc)
        assert main(["simulate", cfg, "--epochs", "5", "--out", str(tmp_path / "out")]) == 2
        errors = json.loads(capsys.readouterr().err)
        assert any("duplicate miner id" in e for e in errors)

    def test_stalled_epoch_exits_3_with_index(self, tmp_path, capsys):
        doc = json.loads(json.dumps(HONEST_CONFIG))
        doc["schedules"] = [{"miner_id": mid, "powers": [0.0]} for mid in ("a", "b", "c")]
        cfg = _write_config(tmp_path, doc)
        assert main(["simulate", cfg, "--epochs", "5", "--out", str(tmp_path / "out")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "stalled epoch"
        assert err["epoch"] == 1

    def test_bad_epoch_count_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, HONEST_CONFIG)
        assert main(["simulate", cfg, "--epochs", "0", "--out", str(tmp_path / "out")]) == 2
        capsys.readouterr()

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "missing.json"), "--epochs", "5",
                     "--out", str(tmp_path / "out")]) == 2
        capsys.readouterr()


class TestAnalyze:
    def test_reference_report(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMART_CONFIG)
        assert main(["analyze", cfg, "--miner", "attacker"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["x"] == pytest.approx(0.2, rel=1e-15)
        assert report["y"] == pytest.approx(0.15, rel=1e-12)
        assert report["dominance"] is True
        assert report["smart_roi"] == pytest.approx(0.0125 / 2.05, rel=1e-9)
        assert report["epoch_table"]["t_lre"] == 750.0
        # lower root of x*(1 - x) = 0.15: (1 - sqrt(0.4)) / 2
        assert report["min_power_for_profit"] == pytest.approx(0.18377223398316206, abs=1e-12)

    def test_infeasible_min_power_rendered_null(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SMART_CONFIG))
        doc["miners"][0] = {"id": "attacker", "m": 20.0, "fc": 0.06, "vc": 0.007}  # y = 0.3
        cfg = _write_config(tmp_path, doc)
        assert main(["analyze", cfg, "--miner", "attacker"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["y"] == pytest.approx(0.3, rel=1e-12)
        assert report["min_power_for_profit"] is None
        assert report["min_power_reason"] == "no power share suffices"

    def test_zero_variable_cost_has_fixed_cost_share_one(self, tmp_path, capsys):
        # y = fc/(fc + vc*m) is exactly 1 at vc = 0, and no power share profits
        doc = dict(SMART_CONFIG, miners=[{"id": "fixed", "m": 20.0, "fc": 0.2, "vc": 0.0},
                                         {"id": "rest", "m": 80.0, "fc": 0.0, "vc": 0.01}], schedules=[])
        cfg = _write_config(tmp_path, doc)
        assert main(["analyze", cfg, "--miner", "fixed"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["y"] == 1.0
        assert report["dominance"] is False
        assert report["smart_utility"] < 0
        assert report["min_power_for_profit"] is None
        assert report["min_power_reason"] == "no power share suffices"

    def test_underflowing_power_share_exits_2(self, tmp_path, capsys):
        # a's share m/M = 1e-600 is positive but underflows to 0.0, where
        # dominance could not be told; optimize needs no share and answers
        doc = {"coin": {"tau": 1.0}, "miners": [{"id": "a", "m": 1e-300, "fc": 0.1, "vc": 0.1},
                                                {"id": "b", "m": 1e300, "fc": 0.1, "vc": 1e-300}]}
        cfg = _write_config(tmp_path, doc)
        assert main(["analyze", cfg, "--miner", "a"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == ["power share m/M = 1e-300/1e+300 underflows to 0.0, yet m > 0"]
        assert main(["optimize", cfg, "--miner", "a"]) == 0
        assert json.loads(capsys.readouterr().out)["utility"] == -0.1

    def test_unknown_miner_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMART_CONFIG)
        assert main(["analyze", cfg, "--miner", "ghost"]) == 2
        errors = json.loads(capsys.readouterr().err)
        assert any("unknown miner" in e for e in errors)

    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    def test_another_miners_schedule_exits_2(self, tmp_path, capsys, command):
        # the bystander idles in the attacker's full epochs; the closed forms
        # would price the attacker as if it never did, so they refuse
        cfg = _write_config(tmp_path, BYSTANDER_CONFIG)
        assert main([command, cfg, "--miner", "attacker"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [error] = json.loads(captured.err)
        assert "'bystander' has a schedule" in error and "use security or simulate" in error
        assert main(["security", cfg]) == 0
        capsys.readouterr()


class TestOptimize:
    def test_no_fixed_costs_idles_everything(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SMART_CONFIG))
        doc["miners"][0] = {"id": "attacker", "m": 20.0, "fc": 0.0, "vc": 0.01}
        cfg = _write_config(tmp_path, doc)
        assert main(["optimize", cfg, "--miner", "attacker"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta_fraction"] == pytest.approx(1.0, abs=1e-6)
        assert report["utility"] > 0
        assert report["schedule"]["powers"][1] == 20.0

    def test_dominated_scenario_stays_honest(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SMART_CONFIG))
        doc["miners"][0] = {"id": "attacker", "m": 20.0, "fc": 0.18, "vc": 0.001}  # y = 0.9
        cfg = _write_config(tmp_path, doc)
        assert main(["optimize", cfg, "--miner", "attacker"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta"] == 0.0
        assert abs(report["utility"]) <= 1e-12

    def test_output_byte_identical_across_runs(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMART_CONFIG)
        assert main(["optimize", cfg, "--miner", "attacker"]) == 0
        first = capsys.readouterr().out
        assert main(["optimize", cfg, "--miner", "attacker"]) == 0
        assert capsys.readouterr().out == first

    def test_schedule_block_pastes_into_the_config(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMART_CONFIG)
        assert main(["optimize", cfg, "--miner", "attacker"]) == 0
        schedule = json.loads(capsys.readouterr().out)["schedule"]
        cfg = _write_config(tmp_path, dict(SMART_CONFIG, schedules=[schedule]), name="tuned.json")
        assert main(["simulate", cfg, "--epochs", "4", "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["schedules"] == [schedule]

    def test_sole_miner_exits_2(self, tmp_path, capsys):
        # idling all of the network's power would stall the reduced epoch
        doc = {"coin": {"tau": 600.0, "epsilon": 0.0}, "miners": [SMART_CONFIG["miners"][0]]}
        cfg = _write_config(tmp_path, doc)
        assert main(["optimize", cfg, "--miner", "attacker"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = json.loads(captured.err)
        assert isinstance(errors, list) and errors


class TestSweep:
    def test_sign_pattern_matches_dominance(self, tmp_path):
        from smartmining import dominance

        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--mode", "smart", "--nx", "10", "--ny", "10",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["x", "y", "roi"]
        assert len(rows) == 100
        for row in rows:
            x, y, r = (float(v) for v in row)
            if abs(x * (1 - x) - y) > 1e-12:
                assert (r > 0) == dominance(x, y)

    def test_values_roundtrip_to_exact_doubles(self, tmp_path):
        from smartmining import sweep
        from smartmining.analytic import MODE_SMART

        out = tmp_path / "sweep.csv"
        main(["sweep", "--mode", "smart", "--nx", "7", "--ny", "5", "--out", str(out)])
        xs = [(j + 0.5) / 7 for j in range(7)]
        ys = [(i + 0.5) / 5 for i in range(5)]
        matrix = sweep(xs, ys, MODE_SMART)
        _, rows = _read_csv(out)
        for idx, row in enumerate(rows):
            i, j = divmod(idx, 7)
            assert float(row[0]) == xs[j]
            assert float(row[1]) == ys[i]
            assert float(row[2]) == matrix[i, j]

    def test_row_order_y_major_ascending(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--mode", "smart", "--nx", "3", "--ny", "2", "--out", str(out)])
        _, rows = _read_csv(out)
        coords = [(float(r[0]), float(r[1])) for r in rows]
        assert coords == [(1 / 6, 0.25), (0.5, 0.25), (5 / 6, 0.25),
                          (1 / 6, 0.75), (0.5, 0.75), (5 / 6, 0.75)]

    def test_smarter_mode_dominates_smart(self, tmp_path):
        smart_out = tmp_path / "smart.csv"
        smarter_out = tmp_path / "smarter.csv"
        main(["sweep", "--mode", "smart", "--nx", "6", "--ny", "6", "--out", str(smart_out)])
        main(["sweep", "--mode", "smarter", "--nx", "6", "--ny", "6", "--out", str(smarter_out)])
        _, smart_rows = _read_csv(smart_out)
        _, smarter_rows = _read_csv(smarter_out)
        for a, b in zip(smart_rows, smarter_rows):
            assert float(b[2]) >= float(a[2])

    @pytest.mark.parametrize("mode", list(SWEEP_50_SHA256))
    def test_blocks_write_the_bytes_of_one_block(self, tmp_path, monkeypatch, mode):
        # 2,000-cell blocks split the 50 rows into blocks of 40 and 10 rows
        calls = []

        def counted(xs, ys, mode):
            calls.append(len(ys))
            return sweep(xs, ys, mode)

        monkeypatch.setattr(cli, "sweep", counted)
        one, blocks = tmp_path / "one.csv", tmp_path / "blocks.csv"
        assert main(["sweep", "--mode", mode, "--nx", "50", "--ny", "50", "--out", str(one)]) == 0
        monkeypatch.setattr(cli, "_SWEEP_BLOCK_CELLS", 2000)
        assert main(["sweep", "--mode", mode, "--nx", "50", "--ny", "50", "--out", str(blocks)]) == 0
        assert calls == [50, 40, 10]
        assert blocks.read_bytes() == one.read_bytes()
        assert hashlib.sha256(blocks.read_bytes()).hexdigest() == SWEEP_50_SHA256[mode]

    @pytest.mark.parametrize("mode", list(SWEEP_50_SHA256))
    def test_column_tiles_write_the_bytes_of_one_block(self, tmp_path, monkeypatch, mode):
        # a 50-cell row does not fit a 16-cell tile, so each row is written
        # in spans of 16, 16, 16 and 2 cells
        calls = []

        def counted(xs, ys, mode):
            calls.append(len(xs) * len(ys))
            return sweep(xs, ys, mode)

        monkeypatch.setattr(cli, "sweep", counted)
        monkeypatch.setattr(cli, "_SWEEP_BLOCK_CELLS", 16)
        out = tmp_path / "tiles.csv"
        assert main(["sweep", "--mode", mode, "--nx", "50", "--ny", "50", "--out", str(out)]) == 0
        assert calls == [16, 16, 16, 2] * 50
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_50_SHA256[mode]

    def test_memory_does_not_grow_with_the_rows(self, tmp_path, monkeypatch):
        # one block's arrays and text are the peak: 16 times the rows in
        # 2,000-cell blocks stay within 1.5 times the peak of one block
        import tracemalloc

        monkeypatch.setattr(cli, "_SWEEP_BLOCK_CELLS", 2000)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--mode", "smart", "--nx", "2", "--ny", "2", "--out", str(out)]) == 0   # loads numpy
        peaks = []
        for ny in ("50", "800"):
            tracemalloc.start()
            try:
                assert main(["sweep", "--mode", "smart", "--nx", "200", "--ny", ny, "--out", str(out)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_memory_does_not_grow_with_the_columns(self, tmp_path, monkeypatch):
        # a row longer than a tile is written in spans: 16 times the columns
        # in 2,000-cell tiles stay within 1.5 times the peak of 2 tiles a row
        import tracemalloc

        monkeypatch.setattr(cli, "_SWEEP_BLOCK_CELLS", 2000)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--mode", "smart", "--nx", "2", "--ny", "2", "--out", str(out)]) == 0   # loads numpy
        peaks = []
        for nx in ("4000", "64000"):
            tracemalloc.start()
            try:
                assert main(["sweep", "--mode", "smart", "--nx", nx, "--ny", "2", "--out", str(out)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_single_cell_axis_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--mode", "smart", "--nx", "1", "--ny", "10",
                     "--out", str(tmp_path / "s.csv")]) == 2
        capsys.readouterr()

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        target = blocker / "sweep.csv"  # parent is a regular file
        assert main(["sweep", "--mode", "smart", "--nx", "4", "--ny", "4",
                     "--out", str(target)]) == 4
        capsys.readouterr()

    def test_output_larger_than_the_free_space_exits_2(self, tmp_path, monkeypatch, capsys):
        # 4,096 bytes free, plus the 9 bytes that "w" would free at old.csv
        monkeypatch.setattr(os, "statvfs", lambda path: os.statvfs_result((4096, 4096, 0, 0, 1, 0, 0, 0, 0, 255)))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_bytes(b"old bytes")
        for out, free in ((new, 4096), (old, 4105)):
            assert main(["sweep", "--mode", "smart", "--nx", "50", "--ny", "50", "--out", str(out)]) == 2
            [message] = json.loads(capsys.readouterr().err)
            assert re.fullmatch(rf"--out {re.escape(str(out))}: the CSV of this grid takes up to \d+ bytes, "
                                rf"but its filesystem has {free} bytes free", message), message
        assert not new.exists()
        assert old.read_bytes() == b"old bytes"
        # a device fills no filesystem, whatever the one that holds it has free
        assert main(["sweep", "--mode", "smart", "--nx", "50", "--ny", "50", "--out", os.devnull]) == 0

    def test_size_bound_is_never_below_the_bytes_written(self, tmp_path, monkeypatch):
        bounds = []
        monkeypatch.setattr(cli, "_require_room", lambda path, size: bounds.append(size))
        rng, out = random.Random(39), tmp_path / "sweep.csv"
        for mode in list(SWEEP_50_SHA256) * 12:
            nx, ny = rng.randint(2, 60), rng.randint(2, 60)
            assert main(["sweep", "--mode", mode, "--nx", str(nx), "--ny", str(ny), "--out", str(out)]) == 0
            assert bounds.pop() >= out.stat().st_size, (mode, nx, ny)


class TestSecurityCommand:
    def test_smart_deviator_report(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMART_CONFIG)
        assert main(["security", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["attack_threshold"] == 0.4
        assert report["idle_fraction"] == pytest.approx(0.2, rel=1e-15)
        assert report["per_miner_gain"]["rest"] > 0

    def test_report_golden_bytes(self, tmp_path, capsys):
        # pins the key order that the report takes from AttackReport's fields
        cfg = _write_config(tmp_path, SMART_CONFIG)
        assert main(["security", cfg]) == 0
        assert capsys.readouterr().out == SMART_SECURITY_GOLDEN

    def test_entrant_report_golden_bytes(self, tmp_path, capsys):
        # pins the entry_effect block's keys, their order and every value
        cfg = _write_config(tmp_path, SMART_CONFIG)
        assert main(["security", cfg, "--entrant", "10"]) == 0
        assert capsys.readouterr().out == SMART_ENTRANT_GOLDEN

    def test_honest_report(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, HONEST_CONFIG)
        assert main(["security", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["attack_threshold"] == 0.5
        assert report["idle_fraction"] == 0.0

    def test_entrant_block(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMART_CONFIG)
        assert main(["security", cfg, "--entrant", "10"]) == 0
        report = json.loads(capsys.readouterr().out)
        block = report["entry_effect"]
        assert block["rph_lre_ratio"] == pytest.approx(100.0 / 110.0, rel=1e-12)
        assert block["lre_active_before"] == block["lre_active_after"] == 80.0

    @pytest.mark.parametrize("renames", [{"rest": "entrant"}, {"attacker": "entrant", "rest": "entrant_"}])
    def test_miner_ids_like_the_entrant_change_nothing(self, tmp_path, capsys, renames):
        # the entry effect depends on the miners' powers and schedules, never on their ids
        text = json.dumps(SMART_CONFIG)
        for old, new in renames.items():
            text = text.replace(f'"{old}"', f'"{new}"')
        outputs = []
        for name, doc in (("plain", SMART_CONFIG), ("renamed", json.loads(text))):
            assert main(["security", _write_config(tmp_path, doc, name=f"{name}.json"), "--entrant", "10"]) == 0
            outputs.append(capsys.readouterr().out)
        for old, new in renames.items():
            outputs[1] = outputs[1].replace(f'"{new}"', f'"{old}"')
        assert "entry_effect" in outputs[0] and outputs[0] == outputs[1]

    def test_entrant_answers_for_any_schedules(self, tmp_path, capsys):
        # no schedule, and two deviators of periods 2 and 3
        for name, doc in (("honest", HONEST_CONFIG), ("two", TWO_DEVIATOR_CONFIG)):
            cfg = _write_config(tmp_path, doc, name=f"{name}.json")
            assert main(["security", cfg, "--entrant", "10"]) == 0
            block = json.loads(capsys.readouterr().out)["entry_effect"]
            assert block == security_report(*_load_scenario(cfg), 10.0).entry_effect._asdict()

    def test_entrant_report_reads_one_cycle(self, tmp_path, capsys, monkeypatch):
        # the report and its entry effect share one steady_cycle call and its
        # 3p = 18 steps
        calls = dict.fromkeys(("steady_cycle", "step_epoch"), 0)

        def counting(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        counting(security, "steady_cycle")
        counting(engine, "step_epoch")
        assert main(["security", _write_config(tmp_path, TWO_DEVIATOR_CONFIG), "--entrant", "10"]) == 0
        assert "entry_effect" in json.loads(capsys.readouterr().out)
        assert calls == {"steady_cycle": 1, "step_epoch": 18}

    def test_entrant_report_scales_by_powers_of_two(self, tmp_path, capsys):
        # scaled_market shares no float path with the engine: through the
        # JSON round trip, gains scale by 2**b, powers by 2**a, revenue per
        # hash by 2**(b - a), and the fractions keep their bits
        def floats(report):
            # every number of the report, keyed by its field or its miner id
            return {**report.pop("per_miner_gain"), **report.pop("entry_effect"), **report}

        rng = random.Random(27)
        for _ in range(300):
            scenario = moderate_market(rng)
            a, b, c = (rng.randint(-200, 200) for _ in range(3))
            entrant = rng.uniform(0.0, 100.0)
            reports = []
            for name, (coin, miners, schedules), e in (("base", scenario, entrant),
                                                       ("big", scaled_market(*scenario, a, b, c), math.ldexp(entrant, a))):
                doc = {"coin": {"tau": coin.tau, "epsilon": coin.epsilon}, "reward": coin.w,
                       "miners": [p._asdict() for p in miners], "schedules": [s._asdict() for s in schedules]}
                assert main(["security", _write_config(tmp_path, doc, name=f"{name}.json"), "--entrant", repr(e)]) == 0
                reports.append(json.loads(capsys.readouterr().out))
            exponents = dict.fromkeys(reports[0]["per_miner_gain"], b) | {
                "lre_active_power": a, "idle_fraction": 0, "attack_threshold": 0, "entrant_power": a,
                "rph_lre_ratio": 0, "lre_active_before": a, "lre_active_after": a}
            base, big = map(floats, reports)
            assert {key: x.hex() for key, x in big.items()} == {
                key: math.ldexp(x, exponents.get(key, b - a)).hex() for key, x in base.items()}

    @pytest.mark.parametrize("deviators,entrant,code", [
        (["attacker", "rest"], "5", 3),   # a valid request that stalls, with two schedules
        (["attacker", "rest"], "-5", 2),
        (["attacker"], "-5", 2),
        (["attacker"], "nan", 2),
        (["attacker"], "5", 3),           # a valid request that stalls
    ])
    def test_entrant_errors_precede_a_stall(self, tmp_path, capsys, deviators, entrant, code):
        # every miner is scheduled and idles in epoch 1, so any simulation stalls
        doc = dict(SMART_CONFIG, miners=[p for p in SMART_CONFIG["miners"] if p["id"] in deviators],
                   schedules=[{"miner_id": mid, "powers": [0.0, 20.0]} for mid in deviators])
        cfg = _write_config(tmp_path, doc)
        assert main(["security", cfg, "--entrant", entrant]) == code
        err = json.loads(capsys.readouterr().err)
        assert isinstance(err, list if code == 2 else dict)

    @pytest.mark.parametrize("tiny", [1e-300, 1e-20])
    def test_near_zero_weakest_epoch_reports_full_idle(self, tmp_path, capsys, tiny):
        # M - A rounds to M = 100.0: every power is idle as far as floats can tell
        doc = {"coin": {"tau": 600.0, "epsilon": 0.001}, "reward": "calibrated",
               "miners": [{"id": mid, "m": 50.0, "fc": 0.1, "vc": 0.01} for mid in ("a", "b")],
               "schedules": [{"miner_id": "a", "powers": [0.0, 50.0]}, {"miner_id": "b", "powers": [tiny, 50.0]}]}
        assert main(["security", _write_config(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["lre_active_power"], report["idle_fraction"], report["attack_threshold"]) == (tiny, 1.0, 0.0)
        doc["schedules"][1]["powers"][0] = 1e-310
        assert main(["security", _write_config(tmp_path, doc)]) == 2
        assert json.loads(capsys.readouterr().err) == [
            "epoch 1: duration H/A = 60000.0/1e-310 overflows: the active power is too small"]

    def test_clamped_coin_rejected_with_exit_2(self, tmp_path, capsys):
        # steady-state reports need an unclamped retarget
        doc = json.loads(json.dumps(SMART_CONFIG))
        doc["coin"]["clamp"] = 1.1
        cfg = _write_config(tmp_path, doc)
        assert main(["security", cfg]) == 2
        errors = json.loads(capsys.readouterr().err)
        assert any("unclamped" in e and "simulate" in e for e in errors)


# epoch 1 lasts 2e-156 while a, idle, pays its fixed cost 1e-157: the
# weighted term -2e-313 underflows to a subnormal and loses bits
TINY_WEIGHT_CONFIG = {
    "coin": {"tau": 1e-156},
    "miners": [{"id": "a", "m": 1.0, "fc": 1e-157, "vc": 0.0}, {"id": "b", "m": 1.0, "fc": 0.0, "vc": 1.0}],
    "schedules": [{"miner_id": "a", "powers": [0.0, 1.0]}],
}


class TestTimeWeightsOutOfRange:
    """Utilities whose total time or weighted sums leave the float range, while each utility fits."""

    def _utilities(self, tmp_path, doc, epochs):
        out = tmp_path / f"out{epochs}"
        assert main(["simulate", _write_config(tmp_path, doc), "--epochs", str(epochs), "--out", str(out)]) == 0
        return json.loads((out / "summary.json").read_text(encoding="utf-8"))["utilities"]

    def test_total_time_beyond_the_largest_float(self, tmp_path):
        # 2000 epochs of 1e305 each: the margin, as over 1000 epochs
        for epochs in (1000, 2000):
            assert self._utilities(tmp_path, HUGE_TAU_CONFIG, epochs) == {"a": 0.5, "b": 0.5}

    def test_weighted_sum_beyond_the_largest_float(self, tmp_path):
        for epochs in (3, 4):
            assert self._utilities(tmp_path, HUGE_REWARD_CONFIG, epochs) == {"a": 5e307, "b": 5e307}

    def test_weighted_sum_below_the_smallest_normal_float(self, tmp_path):
        assert self._utilities(tmp_path, TINY_WEIGHT_CONFIG, 1)["a"] == -1e-157

    def test_security_gains_do_not_depend_on_tau(self, tmp_path, capsys):
        gains = []
        for tau in (1.0, 1e305):
            doc = dict(HUGE_TAU_SCHEDULE_CONFIG, coin=dict(HUGE_TAU_SCHEDULE_CONFIG["coin"], tau=tau))
            assert main(["security", _write_config(tmp_path, doc)]) == 0
            gains.append(json.loads(capsys.readouterr().out)["per_miner_gain"])
        assert gains[0]["a"] < 0 < gains[0]["b"]
        assert gains[1] == pytest.approx(gains[0], rel=0, abs=1e-15)


class TestClampedSimulation:
    def test_simulate_supports_clamped_retarget(self, tmp_path):
        doc = json.loads(json.dumps(SMART_CONFIG))
        doc["coin"]["clamp"] = 1.1
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--epochs", "12", "--out", str(out)]) == 0
        _, rows = _read_csv(out / "trace.csv")
        workloads = [float(r[1]) for r in rows]
        for prev, cur in zip(workloads, workloads[1:]):
            assert 1 / 1.1 - 1e-12 <= cur / prev <= 1.1 + 1e-12


class TestClampedClosedForms:
    """``analyze`` and ``optimize`` price the unclamped idle/full cycle.  On
    SMART_CONFIG the attacker's full idle power is 20 and its tuned idle
    power 13.27 of M = 100, and a clamp c binds beyond M*(1 - 1/c): 9.09 at
    c = 1.1, 16.67 at c = 1.2 and 23.08 at c = 1.3."""

    @pytest.mark.parametrize("doc,command,miner,delta", [
        (clamped(1.1), "analyze", "attacker", "20.0"),
        (clamped(1.2), "analyze", "attacker", "20.0"),
        (clamped(1.1), "optimize", "attacker", "13.27"),
        (CLAMPED_BIG_CONFIG, "analyze", "big", "40.0"),
    ])
    def test_binding_clamp_exits_2(self, tmp_path, capsys, doc, command, miner, delta):
        assert main([command, _write_config(tmp_path, doc), "--miner", miner]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [error] = json.loads(captured.err)
        clamp = doc["coin"]["clamp"]
        assert error.startswith(f"clamp {clamp} binds at idle power {delta}"), error
        assert f"bind point M*(1 - 1/clamp) = {100 * (1 - 1 / clamp)!r}" in error
        assert error.endswith("use simulate instead")

    @pytest.mark.parametrize("command,clamp", [("analyze", 1.3), ("analyze", 4.0), ("optimize", 1.2),
                                               ("optimize", 4.0)])
    def test_non_binding_clamp_prints_the_unclamped_bytes(self, tmp_path, capsys, command, clamp):
        outputs = []
        for name, doc in (("clamped.json", clamped(clamp)), ("unclamped.json", SMART_CONFIG)):
            assert main([command, _write_config(tmp_path, doc, name=name), "--miner", "attacker"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_analyze_agrees_with_the_tail_of_a_long_run(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, clamped(1.3))
        assert main(["analyze", cfg, "--miner", "attacker"]) == 0
        reported = json.loads(capsys.readouterr().out)["smart_utility"]
        trace = run(*_load_scenario(cfg), 4000)
        # the second half holds whole idle/full cycles
        simulated = trace_utilities(trace.records[2000:])["attacker"]
        assert simulated == pytest.approx(reported, abs=1e-12 * (0.03 + 0.0085 * 20.0))


_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


class TestReadme:
    def test_commands_run_on_the_example_config(self, tmp_path, capsys):
        with open(_README, encoding="utf-8") as fh:
            text = fh.read()
        [config] = re.findall(r"```json\n(.*?)```", text, re.S)
        commands = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1).splitlines()
        (tmp_path / "scenario.json").write_text(config, encoding="utf-8")
        paths = {name: str(tmp_path / name) for name in ("scenario.json", "outdir", "roi.csv")}
        assert len(commands) == 5
        for command in commands:
            prog, *argv = shlex.split(command)
            assert prog == "smartmining"
            assert main([paths.get(a, a) for a in argv]) == 0, (command, capsys.readouterr().err)
        capsys.readouterr()


# epoch 1 runs on b's 1e-310 of power alone, so its duration 1.0/1e-310 overflows
INFINITE_DURATION_CONFIG = {
    "coin": {"tau": 1e-20},
    "reward": 1.0,
    "miners": [{"id": "a", "m": 1e20, "fc": 0.0, "vc": 1e-20}, {"id": "b", "m": 1e-310, "fc": 1.0, "vc": 0.0}],
    "schedules": [{"miner_id": "a", "powers": [0.0, 1e20]}],
}

# epoch 1 runs on b's 1e-305 of power alone, so the retarget 1e-305*tau underflows to 0
ZERO_WORKLOAD_CONFIG = dict(INFINITE_DURATION_CONFIG, miners=[
    {"id": "a", "m": 1e20, "fc": 0.0, "vc": 1e-20}, {"id": "b", "m": 1e-305, "fc": 1.0, "vc": 0.0}])

# "schedule" for "schedules" and "clmap" for "clamp": read as they are, they
# would leave an honest, unclamped market
MISSPELT_CONFIG = {("schedule" if key == "schedules" else key): value
                   for key, value in _patched(["coin", "clmap"], 4.0).items()}

# raw bytes, as json.dumps cannot repeat a key; read last-wins, the second
# "schedules" would drop the attacker's schedule and the second "clamp" the clamp
DUPLICATE_SCHEDULES = (json.dumps(SMART_CONFIG)[:-1] + ', "schedules": []}').encode("utf-8")
DUPLICATE_CLAMP = json.dumps(SMART_CONFIG).replace(
    '"epsilon": 0.0}', '"epsilon": 0.0, "clamp": 4.0, "clamp": null}', 1).encode("utf-8")


# (config document or raw bytes, or None for no config; argv after the config
# path; a fragment one of the error messages must contain, or a tuple of them)
BAD_INPUTS = {
    "miners-not-a-list": (_patched(["miners"], 5), ["security"], "'miners' must be a list of JSON objects"),
    "huge-integer-power": (_patched(["miners", 0, "m"], 10 ** 400), ["security"], "int too large"),
    "negative-entrant": (SMART_CONFIG, ["security", "--entrant", "-5"], "entrant power must be >= 0"),
    "nan-entrant": (SMART_CONFIG, ["security", "--entrant", "nan"], "got nan"),
    "inf-entrant": (SMART_CONFIG, ["security", "--entrant", "inf"], "entrant power must be >= 0 and finite"),
    "huge-entrant": (SMART_CONFIG, ["security", "--entrant", "1e308"], "M*tau"),
    "huge-entrant-names-the-entrant": (
        SMART_CONFIG, ["security", "--entrant", "1e308"],
        "entrant power 1e+308: with M = 100.0 + 1e+308, the market power plus the entrant's, "
        "M*tau = 1e+308*600.0 underflows or overflows: the epoch workload must be > 0 and finite"),
    "non-utf8-config": (b"\xff\xfe{}", ["security"], "config is not valid JSON"),
    "underflow-analyze": (TINY_CONFIG, ["analyze", "--miner", "attacker"], "M*tau = 2e-200*1e-200 underflows"),
    "underflow-optimize": (TINY_CONFIG, ["optimize", "--miner", "attacker"], "M*tau = 2e-200*1e-200 underflows"),
    "underflow-security": (TINY_CONFIG, ["security"], "epoch workload must be > 0"),
    "bool-tau": (_patched(["coin", "tau"], True), ["security"], "tau must be finite and > 0, got True"),
    "fractional-offset": (_patched(["schedules", 0, "offset"], 1.7), ["security"],
                          "offset must be an integer >= 0, got 1.7"),
    "string-powers": (_patched(["schedules", 0, "powers"], "20"), ["security"], "powers must be a list, got '20'"),
    "bool-power": (_patched(["schedules", 0, "powers"], [True, 20]), ["security"],
                   "schedule powers must be finite and >= 0, got True"),
    "string-power-share": (_patched(["miners", 0, "m"], "20"), ["security"],
                           "hash power must be finite and > 0, got '20'"),
    "integer-id": (_patched(["miners", 1, "id"], 7), ["security"], "miner id must be a non-empty string"),
    "schedules-object": (_patched(["schedules"], {"miner_id": "attacker", "powers": [0.0, 20.0]}), ["security"],
                         "'schedules' must be a list of JSON objects"),
    "miners-of-strings": (_patched(["miners"], ["abc"]), ["security"], "'miners' must be a list of JSON objects"),
    "non-integer-epochs": (SMART_CONFIG, ["simulate", "--epochs", "abc", "--out", "out"],
                           "invalid int value: 'abc'"),
    "unknown-mode": (None, ["sweep", "--mode", "bogus", "--nx", "2", "--ny", "2", "--out", "s.csv"],
                     "invalid choice: 'bogus'"),
    "cost-rate-overflow": (_patched(["miners", 0], {"id": "attacker", "m": 1e300, "fc": 0.0, "vc": 1e10}),
                           ["security"], "miner 'attacker' has total cost rate fc + vc*m = inf"),
    "price-overflow-analyze": (HUGE_PRICE_CONFIG, ["analyze", "--miner", "a"], "the baseline price must be finite"),
    "price-overflow-optimize": (HUGE_PRICE_CONFIG, ["optimize", "--miner", "a"],
                                "the baseline price must be finite"),
    "price-overflow-security": (HUGE_PRICE_CONFIG, ["security"], "the baseline price must be finite"),
    "price-overflow-simulate": (HUGE_PRICE_CONFIG, ["simulate", "--epochs", "3", "--out", "out"],
                                "the baseline price must be finite"),
    "price-underflow-analyze": (TINY_PRICE_CONFIG, ["analyze", "--miner", "a"],
                                "w/(M*tau) = 1e-300/1e+150 underflows to 0: the baseline price must be > 0"),
    "price-underflow-entrant": (TINY_PRICE_CONFIG, ["security", "--entrant", "10"],
                                "the baseline price must be > 0"),
    "boost-workload-underflow": (TINY_BOOST_CONFIG, ["analyze", "--miner", "a"],
                                 "underflows: the boosted epoch workload must be > 0"),
    "non-finite-result": (HUGE_BOOST_CONFIG, ["analyze", "--miner", "a"],
                          "epoch table: rph_hre = inf is not finite: the full-idle cycle leaves float range"),
    "rate-overflow-simulate": (RATE_OVERFLOW_CONFIG, ["simulate", "--epochs", "2", "--out", "out"],
                               ("not JSON compliant", "utilities.a")),
    "infinite-price-simulate": (INFINITE_PRICE_CONFIG, ["simulate", "--epochs", "2", "--out", "out"],
                                "epoch 2: revenue per hash w/H = 1.0/1e-320 overflows"),
    "infinite-duration-simulate": (INFINITE_DURATION_CONFIG, ["simulate", "--epochs", "1", "--out", "out"],
                                   "epoch 1: duration H/A = 1.0/1e-310 overflows"),
    "infinite-duration-security": (INFINITE_DURATION_CONFIG, ["security"],
                                   "epoch 1: duration H/A = 1.0/1e-310 overflows"),
    "zero-workload-simulate": (ZERO_WORKLOAD_CONFIG, ["simulate", "--epochs", "3", "--out", "out"],
                               "epoch 2: epoch workload must be > 0, got 0.0"),
    "misspelt-keys": (MISSPELT_CONFIG, ["security"],
                      ("config: unknown field 'schedule'", "coin: unknown field 'clmap'")),
    "unknown-miner-field": (_patched(["miners", 1, "power"], 80.0), ["analyze", "--miner", "rest"],
                            "miners[1]: unknown field 'power'"),
    "unknown-schedule-field": (_patched(["schedules", 0, "ofset"], 1), ["simulate", "--epochs", "3", "--out", "out"],
                               "schedules[0]: unknown field 'ofset'"),
    "duplicate-top-level-key": (DUPLICATE_SCHEDULES, ["security"], "duplicate key 'schedules'"),
    "duplicate-coin-key": (DUPLICATE_CLAMP, ["security"], "duplicate key 'clamp'"),
    "string-reward": (_patched(["reward"], "calibrate"), ["security"],
                      'reward: must be "calibrated" or a finite number > 0, got \'calibrate\''),
    "bool-reward": (_patched(["reward"], True), ["analyze", "--miner", "attacker"],
                    'reward: must be "calibrated" or a finite number > 0, got True'),
    "negative-reward": (_patched(["reward"], -5), ["simulate", "--epochs", "3", "--out", "out"],
                        'reward: must be "calibrated" or a finite number > 0, got -5'),
}


class TestInputBoundary:
    @pytest.mark.parametrize("name", list(BAD_INPUTS))
    def test_bad_input_exits_2_with_json_list(self, tmp_path, capsys, name):
        doc, argv, fragment = BAD_INPUTS[name]
        argv = [a if a not in ("out", "s.csv") else str(tmp_path / a) for a in argv]
        if doc is not None:
            path = tmp_path / "config.json"
            path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8"))
            argv.insert(1, str(path))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = json.loads(captured.err)
        assert isinstance(errors, list) and all(isinstance(e, str) for e in errors)
        for fragment in (fragment,) if isinstance(fragment, str) else fragment:
            assert any(fragment in e for e in errors), errors

    @pytest.mark.parametrize("reward", ["calibrate", True, -5, None, 0, [1.0]])
    def test_bad_reward_is_its_own_only_error(self, tmp_path, capsys, reward):
        # the coin's own fields are valid, so nothing is blamed on the coin
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_patched(["reward"], reward)), encoding="utf-8")
        assert main(["security", str(path)]) == 2
        assert json.loads(capsys.readouterr().err) == [
            f'reward: must be "calibrated" or a finite number > 0, got {reward!r}']

    def test_integer_literals_match_floats_byte_for_byte(self, tmp_path, capsys):
        ints = json.loads(json.dumps(SMART_CONFIG))
        ints["coin"] = {"tau": 600, "epsilon": 0}
        ints["miners"][0]["m"] = 20
        ints["miners"][1].update(m=80, fc=0)
        ints["schedules"][0]["powers"] = [0, 20]
        outputs = []
        for name, doc in (("floats", SMART_CONFIG), ("ints", ints)):
            cfg = _write_config(tmp_path, doc, name=f"{name}.json")
            out = tmp_path / name
            assert main(["simulate", cfg, "--epochs", "6", "--out", str(out)]) == 0
            assert main(["security", cfg, "--entrant", "10"]) == 0
            outputs.append(((out / "trace.csv").read_bytes(), (out / "summary.json").read_bytes(),
                            capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_first_workload_underflow_names_tau(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TINY_CONFIG)
        assert main(["analyze", cfg, "--miner", "attacker"]) == 2
        errors = json.loads(capsys.readouterr().err)
        assert len(errors) == 1 and "tau" in errors[0], errors

    @pytest.mark.parametrize("doc,expected", [
        (_patched(["miners"], 5), ["'miners' must be a list of JSON objects"]),
        (dict(_patched(["miners"], 5), coin={"tau": -1.0}),
         ["'miners' must be a list of JSON objects", "coin: tau must be finite and > 0, got -1.0"]),
        (_patched(["miners", 0, "m"], -1.0), ["miners[0]: hash power must be finite and > 0, got -1.0"]),
        (dict(_patched(["miners", 0, "m"], -1.0),
              schedules=[{"miner_id": "attacker", "powers": [0.0, 20.0]}, {"miner_id": "rest", "powers": [-1.0]}]),
         ["miners[0]: hash power must be finite and > 0, got -1.0",
          "schedules[1]: schedule powers must be finite and >= 0, got -1.0"]),
        (dict(SMART_CONFIG, miners=[], schedules=[]), ["no miners defined"]),
        (_patched(["coin", "tau"], _MISSING), ["coin: missing field 'tau'"]),
        (_patched(["miners", 0, "fc"], _MISSING), ["miners[0]: missing field 'fc'"]),
        (_patched(["schedules", 0, "powers"], _MISSING), ["schedules[0]: missing field 'powers'"]),
        (_patched(["coin"], _MISSING), ["missing 'coin' section"]),
        (_patched([], [SMART_CONFIG]), ["config root must be a JSON object"]),
    ])
    def test_one_fault_one_message(self, tmp_path, capsys, doc, expected):
        cfg = _write_config(tmp_path, doc)
        assert main(["security", cfg]) == 2
        assert json.loads(capsys.readouterr().err) == expected

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_config_is_named(self, tmp_path, capsys, name):
        # a missing file or a directory: the config is input, so exit 2, not
        # the I/O exit 4 of an output that cannot be written
        assert main(["security", str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = json.loads(captured.err)
        assert len(errors) == 1 and errors[0].startswith("cannot read config: "), errors

    def test_config_over_the_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        cfg = _write_config(tmp_path, SMART_CONFIG)
        with open(cfg, encoding="utf-8") as fh:
            size = len(fh.read())
        monkeypatch.setattr(cli, "_CONFIG_CHARS", size)
        assert main(["security", cfg]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_CONFIG_CHARS", size - 1)
        assert main(["security", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == [f"config is longer than {size - 1} characters"]

    def test_help_and_version_exit_0(self, capsys):
        for argv in (["--help"], ["--version"], ["security", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
        capsys.readouterr()

    def test_help_names_the_strategy_space_of_optimize(self, capsys):
        # optimal_idle searches the two-epoch alternation only, and a constant
        # cutback can earn more (tests/test_optimizer.py), so the help claims
        # no overall maximum
        with pytest.raises(SystemExit):
            main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "optimize best idle power delta of the two-epoch alternation (m - delta, m) for one miner" in out
        assert "maximiz" not in out


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
# every field of SMART_CONFIG, plus the document itself
_FIELDS = [(), ("coin",), ("coin", "tau"), ("coin", "epsilon"), ("coin", "clamp"), ("reward",),
           ("miners",), ("miners", 0), ("miners", 0, "id"), ("miners", 0, "m"), ("miners", 0, "fc"),
           ("miners", 0, "vc"), ("miners", 1, "m"), ("schedules",), ("schedules", 0),
           ("schedules", 0, "miner_id"), ("schedules", 0, "powers"), ("schedules", 0, "powers", 1),
           ("schedules", 0, "offset")]
# no token here may abbreviate --help
_TOKENS = st.sampled_from(["0", "1", "20", "-5", "nan", "inf", "1e400", "abc", "", "attacker", "rest",
                           "--entrant", "--miner", "--bogus", "-x"])


@st.composite
def _invocations(draw):
    doc = draw(st.just(SMART_CONFIG) | st.builds(_patched, st.sampled_from(_FIELDS), _JSON | st.just(_MISSING)))
    command = draw(st.sampled_from(["analyze", "optimize", "security", "simulate"]))
    if command in ("analyze", "optimize"):
        flags = ["--miner", draw(st.sampled_from(["attacker", "rest", "ghost"]) | _TOKENS)]
    elif command == "security":
        flags = draw(st.just([]) | st.tuples(st.just("--entrant"), _TOKENS).map(list))
    else:
        epochs = draw(st.integers(-2, 20).map(str) | _TOKENS)
        flags = ["--epochs", epochs]
    return doc, command, flags + draw(st.just([]) | st.lists(_TOKENS, min_size=1, max_size=2))


# a positive number anywhere from 1e-300 to 1e300, often at either end
_MAGNITUDES = st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                        st.floats(1.0, 9.99), st.integers(-300, 300) | st.sampled_from([-300, 300]))


@st.composite
def _scaled_invocations(draw):
    """``analyze``, ``optimize``, ``security`` with or without ``--entrant``
    or ``simulate`` on a two-miner market whose numbers are each drawn from
    1e-300 to 1e300: a market at any scale, which patching one field of
    SMART_CONFIG never builds."""
    m_a, m_b = draw(_MAGNITUDES), draw(_MAGNITUDES)
    miners = [{"id": mid, "m": m, "fc": draw(st.just(0.0) | _MAGNITUDES), "vc": draw(st.just(0.0) | _MAGNITUDES)}
              for mid, m in (("a", m_a), ("b", m_b))]
    doc = {"coin": {"tau": draw(_MAGNITUDES)}, "reward": draw(st.just("calibrated") | _MAGNITUDES),
           "miners": miners, "schedules": [{"miner_id": "a", "powers": [0.0, m_a]}]}
    command = draw(st.sampled_from(["analyze", "optimize", "security", "simulate"]))
    if command == "security":
        return doc, command, draw(st.just([]) | (st.just(0.0) | _MAGNITUDES).map(lambda e: ["--entrant", repr(e)]))
    if command == "simulate":
        return doc, command, ["--epochs", str(draw(st.integers(1, 20)))]
    return doc, command, ["--miner", "a"]


def _check_utilities_within_rates(out):
    """Each utility in ``out``'s summary.json lies between its miner's smallest
    and largest profit rate in trace.csv, up to 1e-12 of the largest |rate|:
    a time-weighted average is a convex combination of the rates."""
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        utilities = json.load(fh)["utilities"]
    with open(os.path.join(out, "trace.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for i, (mid, u) in enumerate(utilities.items()):
        rates = [float(row[7 + 4 * i]) for row in rows]   # the miner's P column, after k, H, t, rph
        slack = 1e-12 * max(map(abs, rates))
        assert min(rates) - slack <= u <= max(rates) + slack, (mid, u, min(rates), max(rates))


# texts of Python's own arithmetic errors, and dominance's check of a power
# share that the CLI computes itself: none of them names an input
_UNNAMED_FAULTS = ("division by zero", "math range error", "math domain error", "power share must lie in (0, 1)")


def _finite_number(token):
    value = float(token)
    assert math.isfinite(value), token
    return value


def _check_contract(doc, command, flags):
    """Run the CLI in this process on config ``doc``: a known exit code, no
    traceback, a JSON error document on stderr for a failure and nothing on
    stderr for a success, where a ``simulate`` writes utilities within its
    miners' rates.  A bare "float division by zero" names no input, so it may
    not stand as an error.  ``analyze`` and ``optimize`` print only finite
    numbers on success, and no message of theirs holds a text of
    ``_UNNAMED_FAULTS``."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [command, cfg] + flags
        if command == "simulate":
            argv += ["--out", os.path.join(tmp, "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0 and command == "simulate":
            _check_utilities_within_rates(os.path.join(tmp, "out"))
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    closed_form = command in ("analyze", "optimize")
    if code == 0:
        assert err.getvalue() == ""
        if closed_form:
            json.loads(out.getvalue(), parse_float=_finite_number,
                       parse_constant=lambda token: pytest.fail(f"non-finite {token}"))
    else:
        errors = json.loads(err.getvalue())
        assert "float division by zero" not in errors, (doc, command, flags)
        if closed_form:
            assert not [e for e in errors for text in _UNNAMED_FAULTS if text in e], (doc, command, flags, errors)


class TestCliContract:
    @settings(max_examples=300, deadline=None)
    @given(_invocations())
    def test_exit_code_and_stderr_contract(self, invocation):
        _check_contract(*invocation)

    @settings(max_examples=300, deadline=None)
    @given(_scaled_invocations())
    def test_contract_at_any_market_scale(self, invocation):
        # in this process a numpy RuntimeWarning raises, so it fails here too
        _check_contract(*invocation)

    @pytest.mark.parametrize("command,key", [("analyze", "smart_utility"), ("optimize", "utility")])
    def test_a_term_beyond_float_range_leaves_every_number_finite(self, tmp_path, capsys, command, key):
        # the closed form's fc*M/(M - m) overflows, yet the utility, about
        # -fc, is representable: exit 0 with that utility and no non-finite number
        cfg = _write_config(tmp_path, OVERFLOWING_TERM_CONFIG)
        assert main([command, cfg, "--miner", "a"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out, parse_constant=lambda token: pytest.fail(f"non-finite {token}"))
        assert report[key] == -1.0303975371532022e+300

    def test_optimize_keeps_a_best_candidate_whose_term_overflows(self, tmp_path, capsys):
        # idling all of a's power is best, at utility -1e+293, although a term
        # of its closed form overflows: optimize reports it, as analyze does
        cfg = _write_config(tmp_path, OVERFLOWING_CANDIDATE_CONFIG)
        reports = []
        for command in ("optimize", "analyze"):
            assert main([command, cfg, "--miner", "a"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            reports.append(json.loads(captured.out))
        optimized, analyzed = reports
        assert (optimized["delta"], optimized["utility"]) == (1.0, -1e+293) == (1.0, analyzed["smart_utility"])
        assert optimized["schedule"]["powers"] == [0.0, 1.0]

    def test_optimize_with_an_overflowing_hypot_writes_nothing_to_stderr(self, tmp_path, capsys):
        # the stationarity quadratic's hypot(b, q1) overflows for miner a: in
        # this process a numpy overflow warning would raise, so exit 0 with an
        # empty stderr shows that none is emitted
        cfg = _write_config(tmp_path, OVERFLOWING_HYPOT_CONFIG)
        assert main(["optimize", cfg, "--miner", "a"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        m = OVERFLOWING_HYPOT_CONFIG["miners"][0]["m"]
        assert (report["delta"], report["utility"]) == (m, -1.4125127097158526e+307)


# five miners, four of them deviating with periods 97, 89, 83 and 79: a common
# period of 56606581 epochs, far beyond what steady_cycle will simulate
LONG_CYCLE_CONFIG = {
    "coin": {"tau": 600.0},
    "miners": [{"id": f"m{i}", "m": 20.0, "fc": 0.0, "vc": 0.01} for i in range(5)],
    "schedules": [{"miner_id": f"m{i}", "powers": [0.0] + [20.0] * (period - 1)}
                  for i, period in enumerate((97, 89, 83, 79))],
}

_SRC = os.path.dirname(os.path.dirname(smartmining.__file__))
# a fresh interpreter that imports the package (and with an argv the CLI, which
# it runs), then prints the exit code and whether numpy and dataclasses were loaded
_IMPORT_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
import smartmining
code = None
if argv is not None:
    import smartmining.cli
    try:
        code = smartmining.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, "numpy" in sys.modules, "dataclasses" in sys.modules]))
"""


def _address_space_cap(megabytes):
    """A ``preexec_fn`` that caps the child's address space at ``megabytes`` MB."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes * 1024 ** 2, megabytes * 1024 ** 2))
    return cap


def _child(args, **kwargs):
    """Run ``python args`` on this source tree in a fresh interpreter."""
    # one OpenBLAS thread keeps numpy's own reservations small under an address-space cap
    env = dict(os.environ, PYTHONPATH=_SRC, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kwargs)


class TestFreshProcess:
    """Contract checks that need an interpreter of their own."""

    @pytest.mark.parametrize("argv,code,numpy_loaded", [
        (None, None, False),
        (["--version"], 0, False),
        (["--help"], 0, False),
        (["analyze", "CONFIG", "--miner", "attacker"], 0, False),
        (["security", "CONFIG"], 0, False),
        (["security", "CONFIG", "--entrant", "10"], 0, False),
        (["simulate", "CONFIG", "--epochs", "3", "--out", "OUT"], 0, False),
        (["security", "BAD"], 2, False),
        (["sweep", "--mode", "smart", "--nx", "2", "--ny", "2", "--out", "OUT"], 0, True),
        (["optimize", "CONFIG", "--miner", "attacker"], 0, True),
    ], ids=["import", "version", "help", "analyze", "security", "security-entrant", "simulate", "bad-config",
            "sweep", "optimize"])
    def test_numpy_loads_only_for_arrays(self, tmp_path, argv, code, numpy_loaded):
        paths = {"CONFIG": _write_config(tmp_path, SMART_CONFIG),
                 "BAD": _write_config(tmp_path, _patched(["miners"], 5), name="bad.json"),
                 "OUT": str(tmp_path / "out")}
        if argv is not None:
            argv = [paths.get(a, a) for a in argv]
        result = _child(["-c", _IMPORT_PROBE, json.dumps(argv)], timeout=60)
        assert result.returncode == 0, result.stderr
        exit_code, numpy_seen, dataclasses_seen = json.loads(result.stdout.splitlines()[-1])
        assert [exit_code, numpy_seen] == [code, numpy_loaded]
        # the input types are named tuples, so only numpy's import may load
        # dataclasses (and with it inspect, ast, dis and tokenize)
        assert numpy_loaded or not dataclasses_seen

    def test_large_market_optimize_writes_nothing_to_stderr(self, tmp_path):
        # a numpy warning reaches stderr only in a process of its own: in this
        # one, the warnings filter of the test run turns it into an exception
        cfg = _write_config(tmp_path, LARGE_MARKET_CONFIG)
        result = _child(["-m", "smartmining.cli", "optimize", cfg, "--miner", "a"], timeout=60)
        assert (result.returncode, result.stderr) == (0, "")
        report = json.loads(result.stdout)
        assert 0.0 < report["delta_fraction"] < 1.0

    def test_out_of_memory_exits_2(self, tmp_path):
        cfg = _write_config(tmp_path, SMART_CONFIG)
        out = tmp_path / "sim"
        # simulate keeps every epoch's record, about 230 B each, and writes
        # its output only after the last epoch: 1e9 of them outgrow the cap
        result = _child(["-m", "smartmining.cli", "simulate", cfg, "--epochs", "1000000000", "--out", str(out)],
                        preexec_fn=_address_space_cap(512), timeout=60)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        errors = json.loads(result.stderr)
        assert isinstance(errors, list) and any("out of memory" in e for e in errors), errors
        assert not out.exists()

    def test_huge_grid_is_refused_before_it_is_built(self, tmp_path):
        # 3e11 cells: an axis of 1e11 floats would need 3.2 TB, so under the
        # cap only a size check that runs before any axis exists can answer
        out = tmp_path / "x.csv"
        result = _child(["-m", "smartmining.cli", "sweep", "--mode", "smart", "--nx", "3", "--ny", "100000000000",
                         "--out", str(out)], preexec_fn=_address_space_cap(512), timeout=30)
        assert result.returncode == 2
        [message] = json.loads(result.stderr)
        assert message.startswith(f"--out {out}: the CSV of this grid takes up to 22500000000008 bytes, "), message
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_config_exits_2(self):
        result = _child(["-m", "smartmining.cli", "security", "/dev/zero"],
                        preexec_fn=_address_space_cap(512), timeout=30)
        assert result.returncode == 2
        assert json.loads(result.stderr) == [f"config is longer than {cli._CONFIG_CHARS} characters"]

    def test_overlong_steady_cycle_exits_2_at_once(self, tmp_path):
        cfg = _write_config(tmp_path, LONG_CYCLE_CONFIG)
        result = _child(["-m", "smartmining.cli", "security", cfg], timeout=30)
        assert result.returncode == 2
        errors = json.loads(result.stderr)
        assert any("[97, 89, 83, 79]" in e and "lcm 56606581" in e and "5 miners" in e for e in errors), errors
