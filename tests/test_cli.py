"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main


def test_info_command(capsys):
    assert main(["info"]) == 0
    output = capsys.readouterr().out
    assert "repro 1.0.0" in output
    assert "wire_send_base" in output


def test_demo_command(capsys):
    assert main(["demo", "--subscribers", "1", "--events", "2", "--seed", "7"]) == 0
    output = capsys.readouterr().out
    assert "published 2 offers to 1 subscriber(s)" in output
    assert "received 2" in output


def test_figures_code_size_command(capsys):
    assert main(["figures", "--figure", "code-size"]) == 0
    output = capsys.readouterr().out
    assert "programming effort" in output
    assert "SR-TPS application" in output


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_setup_py_declares_the_src_package():
    """``setup.py`` names the package and reads its version from the source."""
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.split() == ["repro", repro.__version__]
