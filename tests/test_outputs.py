"""The bytes of every subcommand's output, pinned by SHA-256.

Each row of ``OUTPUTS`` is one command: its argv, the digest of its stdout
and the digest of each file under its ``--out``. The test runs the command
in-process through ``cli.main`` into ``tmp_path`` and asserts exit 0, an
empty stderr, the stdout digest and exactly the listed files with their
digests. CI runs this file on Python 3.10, 3.11, 3.12 and 3.13, so the same
table pins the bytes both across interpreters and across commits. Python
3.12 made ``sum()`` of floats compensated; the model adds in one fixed
order, so no interpreter may write other bytes.

The inputs are the configs under ``tests/data/`` (``perfbench``'s seed-11
draws of the ``security-cycle`` and ``trace-sim`` workloads, checked in so
that no test depends on its generator), the security config cut to its
first schedule (miner ``m04``, the one ``analyze`` and ``optimize`` price),
and ``NO_REPEAT_CONFIG``, ``ALWAYS_ON_CONFIG`` and
``HUGE_TAU_SCHEDULE_CONFIG`` from ``_scenarios``.

A digest changes only together with a ``CHANGES.md`` line that names the
row and gives the reason. ``summary.json`` carries ``__version__``, so a
version bump changes the summary digests of the four ``simulate`` rows.
"""

import hashlib
import json
from pathlib import Path

import pytest

from _scenarios import ALWAYS_ON_CONFIG, HUGE_TAU_SCHEDULE_CONFIG, NO_REPEAT_CONFIG
from smartmining.cli import main

DATA = Path(__file__).parent / "data"

# sha256 of `sweep --nx 50 --ny 50` output per mode, as the per-cell loop wrote it
SWEEP_50_SHA256 = {
    "smart": "649774d028adaefc0904845ec98c5baef29a740b02cfc0599c8e5287c4f2c9b0",
    "smarter": "bab48a2f75ee3ae991d211d950db312406f2aede46965abda4956ae779bab637",
}

# the digest of a command that prints nothing
EMPTY = hashlib.sha256(b"").hexdigest()

# name: (argv, stdout digest, {path under {out}: digest}); {security},
# {trace}, {entrant}, {norepeat}, {alwayson} and {hugetau} are the configs.
# The always-on config shares each miner's rates at one power between the
# states of one workload; one schedule entry equals its miner's capacity and
# one is -0.0. The tau 1e305 config lasts longer in all than the largest
# float, so its utilities and gains come from the rescaled sums. The 70000x2
# sweep's rows each span two 2^16-cell tiles.
OUTPUTS = {
    "analyze": (
        "analyze {entrant} --miner m04",
        "0673018cd5a98cff3e5668d99826ff84637e9423019192afaa3931e7406382a7", {}),
    "optimize": (
        "optimize {entrant} --miner m04",
        "2cbe8c03579b70cb6428fb5698f7281851dcae8a8a1dc676bb3e17788b1d0063", {}),
    "sweep-smart": (
        "sweep --mode smart --nx 50 --ny 50 --out {out}/sweep-smart.csv",
        EMPTY, {"sweep-smart.csv": SWEEP_50_SHA256["smart"]}),
    "sweep-smarter": (
        "sweep --mode smarter --nx 50 --ny 50 --out {out}/sweep-smarter.csv",
        EMPTY, {"sweep-smarter.csv": SWEEP_50_SHA256["smarter"]}),
    "sweep-tiles": (
        "sweep --mode smarter --nx 70000 --ny 2 --out {out}/sweep-tiles.csv",
        EMPTY, {"sweep-tiles.csv": "db6f09bd5a8f63324a714ee9d3958b3698ce4b67cae862b7541ff29c02517257"}),
    "security": (
        "security {security}",
        "0b7431b7c258e73ca295fd79356facffed569563d721caeebd433dee953bd140", {}),
    "entrant": (
        "security {entrant} --entrant 10",
        "6c1ee3ae7da205ec8feb8320f1e9f228cb1f892a3722e74350b2616aca612b41", {}),
    "entrant5": (
        "security {security} --entrant 10",
        "ae455c2fc4b6965840a9e4a06cad151b9c99883e958ee7d3576098acfd7d9cfa", {}),
    "sim": (
        "simulate {trace} --epochs 2000 --out {out}/sim",
        EMPTY, {"sim/summary.json": "4df71559ff40f9fbfd70e461e0117ab7a0809b1a78df16b8af426eeb973fbee2",
                "sim/trace.csv": "1a31c3816eb4ba33dcdf6d82ec6ad0fcec7c1b308e15dc5acc05bdc5305f7c15"}),
    "norepeat": (
        "simulate {norepeat} --epochs 2000 --out {out}/norepeat",
        EMPTY, {"norepeat/summary.json": "16f7d21cfa066ae905dbf8103480d1dc7c56639e71247d9f195233944a2cabca",
                "norepeat/trace.csv": "0fb8414819c12f7432b060a7caf80c08cc1136cfc8ba912d471c03083396c4ab"}),
    "alwayson-security": (
        "security {alwayson}",
        "bbe41dcf732adb7224457d57b568f9700282bd036a14b68491083f6e48e23d13", {}),
    "alwayson-entrant": (
        "security {alwayson} --entrant 10",
        "0c1af56558634fa01b51c2fe3ff46819a481516f98705ee494d494b726af2d9e", {}),
    "alwayson": (
        "simulate {alwayson} --epochs 2000 --out {out}/alwayson",
        EMPTY, {"alwayson/summary.json": "2f605e835e58be2469b502372817d9a5585400df42ec0bf94fac4fd13a7d2adc",
                "alwayson/trace.csv": "4f7a9c5bf8efbcffce9d04e0c6729892dfae63267ca10abfa03a97adcad67cfb"}),
    "hugetau": (
        "simulate {hugetau} --epochs 2000 --out {out}/hugetau",
        EMPTY, {"hugetau/summary.json": "fd800c36ddd5dc261b9e7a7954d2d340f99a9f9b76dc78da2ecc62f275366526",
                "hugetau/trace.csv": "17197605952c20d1327e159c998a4d65d22289f9a45bdebc47a70e7cd3a07a87"}),
    "hugetau-security": (
        "security {hugetau}",
        "aa85bef638fecc870b20152a694b0eee81ce4a81ce486a2f0badec06bb9297cf", {}),
}


def _digest(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_outputs_keep_their_bytes(tmp_path, capsysbinary, name):
    argv, stdout_digest, file_digests = OUTPUTS[name]
    entrant = json.loads((DATA / "security-scenario.json").read_text(encoding="utf-8"))
    entrant["schedules"] = entrant["schedules"][:1]
    paths = {"security": DATA / "security-scenario.json", "trace": DATA / "trace-scenario.json"}
    for key, doc in (("entrant", entrant), ("norepeat", NO_REPEAT_CONFIG),
                     ("alwayson", ALWAYS_ON_CONFIG), ("hugetau", HUGE_TAU_SCHEDULE_CONFIG)):
        paths[key] = tmp_path / f"{key}-scenario.json"
        paths[key].write_text(json.dumps(doc), encoding="utf-8")
    out = paths["out"] = tmp_path / "out"
    out.mkdir()
    assert main([arg.format_map(paths) for arg in argv.split()]) == 0
    stdout, stderr = capsysbinary.readouterr()
    assert stderr == b""
    assert _digest(stdout) == stdout_digest
    written = {path.relative_to(out).as_posix(): _digest(path.read_bytes())
               for path in sorted(out.rglob("*")) if path.is_file()}
    assert written == file_digests
