"""The mutation catalogue cannot rot silently: every mutant's original line is still there, once,
every entry is named after code its file still defines, every test it names still exists, and no
two entries repeat a mutant or a name.

``tools/mutate.py`` runs the catalogue itself, which takes minutes, so the
suite checks only, and statically, that each entry still applies.
"""

import ast
import functools
import importlib.util
import re
from collections import Counter
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


@functools.lru_cache(maxsize=None)
def _module(path):
    return ast.parse((ROOT / path).read_text(encoding="utf-8")).body


@functools.lru_cache(maxsize=None)
def _defined_names(path):
    """The functions and classes a file defines, at any depth, and ``Class.name`` for each method and attribute.

    An attribute is assigned in the class body or to ``self`` in one of its methods.
    """
    names = set()
    for node in ast.walk(ast.Module(body=_module(path), type_ignores=[])):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, ast.ClassDef):
            continue
        for inner in node.body:
            if isinstance(inner, ast.FunctionDef):
                names.add(f"{node.name}.{inner.name}")
            targets = inner.targets if isinstance(inner, ast.Assign) else [getattr(inner, "target", None)]
            names |= {f"{node.name}.{t.id}" for t in targets if isinstance(t, ast.Name)}
        names |= {f"{node.name}.{inner.attr}" for inner in ast.walk(node)
                  if isinstance(inner, ast.Attribute) and isinstance(inner.ctx, ast.Store)
                  and getattr(inner.value, "id", None) == "self"}
    return names


def test_every_entry_names_live_code():
    """Each ``what`` begins with a name its file defines: a function, a class, ``Class.method`` or ``Class.attr``.

    A possessive "'s" and trailing punctuation are not part of the name.  An
    entry whose code was renamed or deleted, while its line lived on
    elsewhere, would otherwise keep the old name.
    """
    stale = [e["what"] for e in ENTRIES
             if re.match(r"[\w.]+", e["what"]).group().rstrip(".") not in _defined_names(e["file"])]
    assert stale == []


def _function(test_id):
    """The ``ast.FunctionDef`` of a pytest node id, any ``[param]`` stripped; None when its file lacks it."""
    path, *names = test_id.split("::")
    names[-1] = names[-1].split("[")[0]
    if not (ROOT / path).is_file():
        return None
    node, scope = None, _module(path)
    for name in names:
        found = [node for node in scope
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return None
        node = found[0]
        scope = node.body
    return node


def _draws(test_id):
    """Whether the test takes its inputs from hypothesis's ``@given``; False when it does not exist."""
    function = _function(test_id)
    for decorator in function.decorator_list if function is not None else ():
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "given":
            return True
    return False


def test_entries_are_distinct():
    """No two entries make the same mutant, and no two share a ``what``, which names a test above."""
    mutants = Counter((e["file"], e["original"], e["replacement"]) for e in ENTRIES)
    assert [m for m, n in mutants.items() if n > 1] == []
    names = Counter(e["what"] for e in ENTRIES)
    assert [what for what, n in names.items() if n > 1] == []


def test_every_named_test_exists():
    named = sorted({test for entry in ENTRIES for test in entry["tests"]})
    assert [test for test in named if _function(test) is None] == []


def test_every_mutant_is_killed_without_draws():
    """Each entry names a test that is not ``@given``.

    A ``@given`` test's draws change with its body (the suite derandomizes
    them from it), so a kill that rests on ``@given`` tests alone can be lost
    to an edit of one; a plain test keeps the kill.
    """
    assert [entry["what"] for entry in ENTRIES if all(map(_draws, entry["tests"]))] == []
