"""The mutation catalogue cannot rot silently: every mutant's original line is still there, once,
and every test it names still exists.

``tools/mutate.py`` runs the catalogue itself, which takes minutes, so the
suite checks only, and statically, that each entry still applies.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

ENTRIES = mutate.load_catalogue()


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["what"] for e in ENTRIES])
def test_original_line_occurs_exactly_once(entry):
    assert mutate.occurrences(entry) == 1


def _defines(test_id):
    """Whether the file of a pytest node id defines its class and function, any ``[param]`` stripped."""
    path, *names = test_id.split("::")
    names[-1] = names[-1].split("[")[0]
    file = ROOT / path
    if not file.is_file():
        return False
    scope = ast.parse(file.read_text(encoding="utf-8")).body
    for name in names:
        found = [node.body for node in scope
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return False
        scope = found[0]
    return True


def test_every_named_test_exists():
    named = sorted({test for entry in ENTRIES for test in entry["tests"]})
    assert [test for test in named if not _defines(test)] == []
