"""Every private top-level function or class in the package has a caller
in the package.

A second implementation kept only for the tests belongs in `tests/`, as an
oracle beside the test that reads it.
"""

import ast
from collections import Counter
from pathlib import Path

import latticetwist


def _referenced_names(tree):
    """How often each name is read, as a bare name or an attribute."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def private_without_caller(sources):
    """The private top-level functions and classes of `sources`, a map of
    file names to text, that no file references outside the definition
    itself, as (file, name) pairs."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    everywhere = sum(map(_referenced_names, trees.values()), Counter())
    found = []
    for file, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and everywhere[node.name] == _referenced_names(node)[node.name]):
                found.append((file, node.name))
    return found


def test_every_private_definition_has_a_caller():
    package = Path(latticetwist.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert private_without_caller(sources) == []


def test_the_guard_finds_a_definition_without_a_caller():
    sources = {
        "one.py": (
            "def _used():\n    return 1\n"
            "def _read_by_attribute():\n    return 2\n"
            "def _only_imported():\n    return 3\n"
            "def _recursive(k):\n    return _recursive(k - 1) if k else 0\n"
            "class _Unused:\n    pass\n"
            "def public():\n    return _used()\n"
        ),
        "two.py": (
            "from . import one\n"
            "from .one import _only_imported\n"
            "def caller():\n    return one._read_by_attribute()\n"
        ),
    }
    # an import alone is no caller, and neither is a call from itself
    assert private_without_caller(sources) == [
        ("one.py", "_only_imported"), ("one.py", "_recursive"), ("one.py", "_Unused")]
