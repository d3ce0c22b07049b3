"""Every documented ``python -m repro.cli ...`` command must still parse.

Extracts each command line that starts with ``python -m repro.cli`` from
``README.md``, ``docs/*.md`` and the CLI's own module docstring, and
parses it with the real parsers (``build_parser`` or, for ``campaign``,
``build_campaign_parser``).  Nothing runs: a doc that advertises a
removed command or flag fails here instead of in a user's shell.

Each case is named after its file and its command text, so editing the
prose around a command renames no case; a repeated command in one file
gets an ordinal (``#2``, ``#3``, ...).
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

import repro.cli
from repro.cli import build_campaign_parser, build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A command line: optional shell prompt and env assignments, then the CLI.
_COMMAND = re.compile(r"^\s*(?:\$\s+)?(?:[A-Z_]+=\S+\s+)*python -m repro\.cli\b(.*)$")


def _sources() -> List[Tuple[str, str]]:
    files = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    sources = [(str(path.relative_to(REPO_ROOT)), path.read_text()) for path in files]
    sources.append(("src/repro/cli.py docstring", repro.cli.__doc__ or ""))
    return sources


def _examples() -> List[Tuple[str, str, str]]:
    """``(case id, where, argument text)`` for every documented command line."""
    examples = []
    seen: Dict[str, int] = {}
    for source, text in _sources():
        lines = text.splitlines()
        for number, line in enumerate(lines, start=1):
            match = _COMMAND.match(line)
            if match is None:
                continue
            arguments = match.group(1)
            follow = number
            while arguments.rstrip().endswith("\\") and follow < len(lines):
                arguments = arguments.rstrip()[:-1] + " " + lines[follow]
                follow += 1
            case = f"{source}:{' '.join(arguments.split())}"
            seen[case] = seen.get(case, 0) + 1
            if seen[case] > 1:
                case += f"#{seen[case]}"
            examples.append((case, f"{source}:{number}", arguments))
    return examples


EXAMPLES = _examples()


def test_examples_found():
    # README and the CLI docstring both show figure, scenario and campaign runs.
    joined = " ".join(arguments for _, _, arguments in EXAMPLES)
    assert len(EXAMPLES) >= 20
    for name in ("alice-bob", "chain_sweep", "campaign run"):
        assert name in joined


def test_case_ids_are_unique():
    assert len({case for case, _, _ in EXAMPLES}) == len(EXAMPLES)


@pytest.mark.parametrize(
    "where,arguments", [e[1:] for e in EXAMPLES], ids=[e[0] for e in EXAMPLES]
)
def test_documented_command_parses(where, arguments):
    argv = shlex.split(arguments, comments=True)
    if argv[:1] == ["campaign"]:
        parser, argv = build_campaign_parser(), argv[1:]
    else:
        parser = build_parser()
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            parser.parse_args(argv)
    except SystemExit as exit_:
        # --help / --version exit 0; a parse error exits 2.
        assert exit_.code == 0, f"{where}: {arguments!r} does not parse: {stderr.getvalue()}"
