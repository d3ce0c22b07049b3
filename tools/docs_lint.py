#!/usr/bin/env python
"""Documentation lint: markdown link check + public docstring check.

Self-contained (stdlib only) so it runs identically in CI and offline:

* every relative link in ``README.md`` and ``docs/*.md`` must point at a
  file or directory that exists in the repo;
* every public module, class, function and method in the documented
  packages (:data:`DOCSTRING_PACKAGES`: the PHY, the network and node
  layers, the channel, the simulation, the experiments, results and
  campaigns) must carry a docstring (a lightweight, dependency-free
  subset of ``pydocstyle``).

Exit code 0 when clean; 1 with one line per finding otherwise.

Usage::

    python tools/docs_lint.py [repo_root]
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List

#: Markdown files whose relative links must resolve.
DOC_GLOBS = ("README.md", "docs/*.md")

#: Packages whose public API must be fully docstringed.
DOCSTRING_PACKAGES = (
    "src/repro/utils",
    "src/repro/coding",
    "src/repro/framing",
    "src/repro/modulation",
    "src/repro/signal",
    "src/repro/anc",
    "src/repro/scrambler",
    "src/repro/experiments",
    "src/repro/network",
    "src/repro/mac",
    "src/repro/node",
    "src/repro/results",
    "src/repro/channel",
    "src/repro/sim",
    "src/repro/campaign",
    "src/repro/metrics",
    "src/repro/capacity",
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def iter_markdown_files(root: Path) -> Iterator[Path]:
    """Yield every markdown file covered by the link check."""
    for pattern in DOC_GLOBS:
        yield from sorted(root.glob(pattern))


def check_links(root: Path) -> List[str]:
    """Return one finding per broken relative link in the doc files."""
    findings: List[str] = []
    for md_file in iter_markdown_files(root):
        for match in _LINK.finditer(md_file.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md_file.parent / path).resolve()
            if not resolved.exists():
                findings.append(
                    f"{md_file.relative_to(root)}: broken link -> {target}"
                )
    return findings


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _missing_docstrings(tree: ast.Module) -> Iterator[str]:
    """Yield ``name:lineno`` for each public definition lacking a docstring."""
    if ast.get_docstring(tree) is None:
        yield "<module>:1"
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not _is_public(node.name):
            continue
        if ast.get_docstring(node) is None:
            yield f"{node.name}:{node.lineno}"


def check_docstrings(root: Path) -> List[str]:
    """Return one finding per missing public docstring in the packages."""
    findings: List[str] = []
    for package in DOCSTRING_PACKAGES:
        for py_file in sorted((root / package).glob("*.py")):
            tree = ast.parse(py_file.read_text())
            for where in _missing_docstrings(tree):
                findings.append(
                    f"{py_file.relative_to(root)}: missing docstring at {where}"
                )
    return findings


def main(argv: List[str]) -> int:
    """Run both checks; print findings and return a process exit code."""
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parents[1]
    findings = check_links(root) + check_docstrings(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"docs lint: {len(findings)} finding(s)")
        return 1
    print("docs lint: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
