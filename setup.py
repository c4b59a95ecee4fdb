"""Setuptools packaging for the ``repro`` package (``src`` layout).

This file is the project's whole packaging metadata (there is no
``pyproject.toml``); ``pip install -e .`` works with it offline, including
on older setuptools/pip combinations that lack PEP 660 editable installs.
The version is read from ``src/repro/_version.py`` without importing the
package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_SOURCE = (Path(__file__).parent / "src" / "repro" / "_version.py").read_text(
    encoding="utf-8"
)

setup(
    name="repro",
    version=re.search(r'__version__ = "([^"]+)"', _VERSION_SOURCE).group(1),
    package_dir={"": "src"},
    packages=find_packages("src"),
)
