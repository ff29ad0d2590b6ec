"""The distribution metadata in ``setup.cfg``: name, version, console script."""

import configparser
import importlib
import subprocess
import sys
from pathlib import Path

from repro._version import __version__
from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_setup_reports_name_and_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.split() == ["repro", __version__]
    assert __version__ == "1.0.0"


def test_console_script_resolves_to_the_cli_main():
    config = configparser.ConfigParser()
    config.read(ROOT / "setup.cfg")
    scripts = dict(
        (part.strip() for part in line.split("="))
        for line in config["options.entry_points"]["console_scripts"].strip().splitlines()
    )
    module, _, attribute = scripts["repro"].partition(":")
    assert getattr(importlib.import_module(module), attribute) is main
