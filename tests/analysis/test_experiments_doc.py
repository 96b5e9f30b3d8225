"""EXPERIMENTS.md keeps its promises: every claim section names the test
that asserts it and the command that prints it, and every test it names
exists.

The document is only read: test IDs resolve with ``ast`` against the
files they name, so nothing under test is imported.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
DOC = REPO / "EXPERIMENTS.md"

#: Sections that state no claim of their own.
NOT_CLAIMS = frozenset({"Summary"})

HEADING = re.compile(r"^#{2,3} (.+?)\s*$")
#: A backquoted test ID, ``path.py::Name[::name][[params]]``.
TEST_ID = re.compile(r"`((?:tests|benchmarks)/[\w/]+\.py)::([\w:]+)(?:\[[^\]`]*\])?`")
#: A backquoted command that prints an artifact.
COMMAND = re.compile(
    r"`(?:PYTHONPATH=src )?python3? (?:-m (?:repro|pytest)|tools/|examples/)[^`]*`"
)


def claim_sections(text: str) -> list[tuple[str, str]]:
    """``(heading, body)`` of every ``##``/``###`` section but
    :data:`NOT_CLAIMS`; a body runs to the next heading."""
    sections: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        match = HEADING.match(line)
        if match:
            sections.append((match.group(1), []))
        elif sections:
            sections[-1][1].append(line)
    return [
        (heading, "\n".join(body))
        for heading, body in sections
        if heading not in NOT_CLAIMS
    ]


def undefined(path: str, name: str, root: Path = REPO) -> str | None:
    """Why ``path::name`` names no test, or None when it resolves."""
    file = root / path
    if not file.is_file():
        return f"{path} does not exist"
    scope = ast.parse(file.read_text()).body
    for part in name.split("::"):
        node = next(
            (
                node
                for node in scope
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == part
            ),
            None,
        )
        if node is None:
            return f"{path} defines no {name}"
        scope = node.body
    return None


def problems(text: str, root: Path = REPO) -> list[str]:
    """Every broken promise of a document, one line each."""
    found = []
    for heading, body in claim_sections(text):
        ids = TEST_ID.findall(body)
        commands = COMMAND.findall(body)
        if not ids:
            found.append(f"{heading}: names no test")
        if not commands:
            found.append(f"{heading}: names no command")
        for path, name in ids:
            reason = undefined(path, name, root)
            if reason:
                found.append(f"{heading}: {reason}")
    return found


def test_every_claim_section_names_a_test_and_a_command_that_resolve():
    assert problems(DOC.read_text()) == []


def test_the_document_has_claim_sections():
    assert len(claim_sections(DOC.read_text())) >= 20


GOOD = """\
## FIG1 — Figure 1

| claim | asserted by | printed by |
|---|---|---|
| widths | `tests/analysis/test_experiments_doc.py::test_the_document_has_claim_sections` | `PYTHONPATH=src python -m repro figure1` |

## Summary

No claim here.
"""


def test_a_complete_section_passes():
    assert problems(GOOD) == []


def test_a_misspelt_test_id_fails():
    text = GOOD.replace("has_claim_sections", "has_claim_section")
    assert problems(text) == [
        "FIG1 — Figure 1: tests/analysis/test_experiments_doc.py defines no "
        "test_the_document_has_claim_section"
    ]


def test_a_missing_test_fails():
    text = GOOD.replace("`tests/analysis/test_experiments_doc.py::", "`")
    assert problems(text) == ["FIG1 — Figure 1: names no test"]


def test_a_missing_command_fails():
    text = GOOD.replace("`PYTHONPATH=src python -m repro figure1`", "repro")
    assert problems(text) == ["FIG1 — Figure 1: names no command"]


def test_a_class_member_resolves_and_params_are_stripped():
    text = GOOD.replace(
        "test_experiments_doc.py::test_the_document_has_claim_sections",
        "test_cli.py::TestCountValidation::test_check_ops_below_one[0]",
    )
    assert problems(text) == []
    assert problems(text.replace("TestCountValidation", "TestCounts")) == [
        "FIG1 — Figure 1: tests/analysis/test_cli.py defines no "
        "TestCounts::test_check_ops_below_one"
    ]
