"""Every exported name has a caller outside the tests.

The radio is one configuration with one path through it, and the layers
above it keep one surface, so a name a package exports is either reached
by production code (the library, the benchmarks, the examples, the tools
or the perfbench harness) or is a perfbench wrap target.  A name only
tests reach is dead surface: delete it, or call the private core the
pipeline uses from the test.

A use is any identifier in the code (a name, an attribute or an imported
name), so docstrings and comments do not count, nor does the name's own
``def``, ``class`` or assignment, nor a package ``__init__.py`` that only
re-exports it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from perfbench.layers import TARGETS

REPO_ROOT = Path(__file__).resolve().parents[2]

PACKAGES = (
    "repro.utils",
    "repro.coding",
    "repro.framing",
    "repro.modulation",
    "repro.signal",
    "repro.anc",
    "repro.scrambler",
    "repro.channel",
    "repro.network",
    "repro.capacity",
    "repro.mac",
    "repro.protocols",
    "repro.node",
    "repro.sim",
    "repro.metrics",
    "repro.results",
    "repro.campaign",
    "repro.experiments",
)

#: Where production code lives; ``tests/`` is deliberately absent.
PRODUCTION_DIRS = ("src", "benchmarks", "examples", "tools", "perfbench")


def _used_identifiers(tree: ast.AST) -> set:
    """Identifiers a module reads, imports or reaches as attributes."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _production_uses() -> set:
    used = set()
    for directory in PRODUCTION_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            used |= _used_identifiers(ast.parse(path.read_text(), filename=str(path)))
    return used


USED = _production_uses()
WRAPPED = {target.owner for target in TARGETS} | {target.name for target in TARGETS}
EXPORTS = sorted(
    (package, name)
    for package in PACKAGES
    for name in importlib.import_module(package).__all__
)


@pytest.mark.parametrize("package,name", EXPORTS, ids=[f"{p}.{n}" for p, n in EXPORTS])
def test_exported_phy_name_has_a_production_caller(package, name):
    assert name in USED or name in WRAPPED, (
        f"{package}.{name} is exported but only tests reach it: delete it, or "
        "have the test call the private core the pipeline uses"
    )
