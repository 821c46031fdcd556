"""The installed entry point and version, checked from pyproject.toml without
building or installing the package."""

import importlib
from pathlib import Path

import pytest

import smartmining
from smartmining.cli import main

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _project():
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]


def test_console_script_resolves_to_cli_main():
    target = _project()["scripts"]["smartmining"]
    assert target == "smartmining.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_project_version_matches_package():
    assert _project()["version"] == smartmining.__version__
