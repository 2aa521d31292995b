"""The mutation catalogue cannot rot silently: every mutant's original line is still there, once.

``tools/mutate.py`` runs the catalogue itself; it takes a minute or so, so
the suite checks only that each entry still applies.
"""

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
