"""Every private top-level function or class in the package has a caller
in the package, and every private name that its text names in backticks
is defined there.

A second implementation kept only for the tests belongs in `tests/`, as an
oracle beside the test that reads it.  A docstring or comment that still
names a deleted private helper is stale.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import latticetwist

# A backticked span on one line, and each dotted name in it
_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


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


def _defined_names(tree):
    """The names that a function, class or assignment anywhere in `tree`
    defines, methods and class attributes included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return names


def stale_private_names(sources):
    """The private names in backticks in `sources`, a map of file names to
    text, that no function, class or assignment there defines, as (file,
    dotted name) pairs.  A name after a module's name, as in `words._eval`,
    must be defined in that module; after any other qualifier, as in
    `PrismTile._of_ints`, anywhere.  Dunders are skipped."""
    defined = {Path(name).stem: _defined_names(ast.parse(text, filename=name))
               for name, text in sources.items()}
    everywhere = set().union(*defined.values())
    found = []
    for file, text in sources.items():
        for span in _SPAN.findall(text):
            for dotted in _DOTTED.findall(span):
                parts = dotted.split(".")
                for qualifier, part in zip([None, *parts], parts):
                    if (part.startswith("_")
                            and not (part.startswith("__") and part.endswith("__"))
                            and part not in defined.get(qualifier, everywhere)):
                        found.append((file, dotted))
    return found


def _package_sources():
    package = Path(latticetwist.__file__).parent
    return {path.name: path.read_text() for path in sorted(package.glob("*.py"))}


def test_every_private_definition_has_a_caller():
    assert private_without_caller(_package_sources()) == []


def test_every_backticked_private_name_is_defined():
    assert stale_private_names(_package_sources()) == []


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


def test_the_guard_finds_a_stale_backticked_name():
    sources = {
        "one.py": (
            "_CONSTANT = (1,)\n"
            "def _kept():\n"
            '    """`_kept`, `one._kept(x)`, `_CONSTANT[0]` and `x.__init__`."""\n'
            "class Box:\n"
            "    def _method(self):\n"
            '        """`Box._method`, `two._kept`, `_gone` and `one._helper`."""\n'
        ),
        "two.py": (
            '"""Names `one._kept`, `Box._method` and `_removed(x)`."""\n'
            "def _helper():\n    pass\n"
        ),
    }
    # a module's name asks for the name in that module
    assert stale_private_names(sources) == [
        ("one.py", "two._kept"), ("one.py", "_gone"), ("one.py", "one._helper"),
        ("two.py", "_removed")]
