"""Setuptools entry point.

Kept as an explicit ``setup()`` call so that ``pip install -e .`` works in
offline environments whose setuptools predates PEP 660 editable installs.

The package version is single-sourced from ``repro.__version__``
(``src/repro/__init__.py``): this file *reads* it out of the source text
instead of importing the package (importing would require the runtime
dependencies at build time).  ``anc-repro --version`` reports the same
string.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"


def read_version() -> str:
    """Extract ``__version__`` from ``src/repro/__init__.py`` (no import)."""
    match = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE)
    if match is None:
        raise RuntimeError(f"__version__ not found in {_INIT}")
    return match.group(1)


setup(
    name="anc-repro",
    version=read_version(),
    description="Reproduction of 'Embracing Wireless Interference: Analog "
    "Network Coding' (SIGCOMM 2007)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["anc-repro=repro.cli:main"]},
)
