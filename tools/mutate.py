"""Run the mutation catalogue: each mutant must fail the tests it names.

Usage, from the root of a checkout::

    python3 tools/mutate.py

``tools/mutants.json`` lists the mutants.  Each entry names a ``file``, an
exact ``original`` line of it (indentation included), the ``replacement``
line and the ``tests`` (pytest node ids) that must fail once the original
is replaced; ``what`` says what the mutant breaks.  The runner first runs
every named test on an unmutated copy, where all must pass.  Then, one
mutant at a time, it copies ``src/``, ``tests/``, ``fixtures/`` and
``pyproject.toml`` to a temporary directory, replaces the line there and
runs the mutant's tests.  A mutant is killed when every test it names
fails.  The exit code is 0 when every mutant is killed and 1 otherwise
(a survivor, an original line that is missing or not unique, or a named
test that does not pass unmutated).  Only the standard library and the
test suite's own requirements are used.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = ROOT / "tools" / "mutants.json"
COPIED = ("src", "tests", "fixtures", "pyproject.toml")


def load_catalogue(path=CATALOGUE):
    """The catalogue's entries, each checked for its fields."""
    entries = json.loads(Path(path).read_text(encoding="utf-8"))
    for i, entry in enumerate(entries):
        missing = {"what", "file", "original", "replacement", "tests"} - set(entry)
        if missing:
            raise ValueError(f"{path}: entry {i} lacks {sorted(missing)}")
        if not entry["tests"]:
            raise ValueError(f"{path}: entry {i} names no test")
    return entries


def occurrences(entry, root=ROOT):
    """How many lines of the entry's file equal its original line."""
    lines = (Path(root) / entry["file"]).read_text(encoding="utf-8").split("\n")
    return lines.count(entry["original"])


def copy_tree(dest):
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)


def apply(entry, root):
    """Replace the entry's original line in the copy at ``root``."""
    path = Path(root) / entry["file"]
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[lines.index(entry["original"])] = entry["replacement"]
    path.write_text("\n".join(lines), encoding="utf-8")


def failed_tests(root, tests):
    """The ids among ``tests`` that fail in the copy at ``root``; None when pytest cannot run them."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests],
        cwd=root, capture_output=True, text=True,
    )
    if result.returncode not in (0, 1):  # a test id not found, or a usage error
        sys.stderr.write(result.stdout[-2000:] + result.stderr[-2000:])
        return None
    failed = set()
    for line in result.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ")[0])
    return failed & set(tests)


def main():
    entries = load_catalogue()
    broken = [e["what"] for e in entries if occurrences(e) != 1]
    for what in broken:
        print(f"BROKEN    {what}: the original line is missing or not unique")
    named = sorted({test for e in entries for test in e["tests"]})
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        baseline = failed_tests(tmp, named)
    if baseline != set():
        print(f"BROKEN    unmutated copy: failing or missing tests {sorted(baseline or named)}")
        return 1
    survivors = len(broken)
    for entry in entries:
        if entry["what"] in broken:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(Path(tmp))
            apply(entry, tmp)
            failed = failed_tests(tmp, entry["tests"])
        passed = sorted(set(entry["tests"]) - (failed or set()))
        if failed is None:
            survivors += 1
            print(f"BROKEN    {entry['what']}: pytest could not run its tests")
        elif passed:
            survivors += 1
            print(f"SURVIVED  {entry['what']}: still passing {passed}")
        else:
            print(f"KILLED    {entry['what']}")
    print(f"{len(entries) - survivors} of {len(entries)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
