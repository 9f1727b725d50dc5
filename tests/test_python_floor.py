"""Every source file parses under the grammar of the oldest Python that
`pyproject.toml` declares.

`ast.parse(..., feature_version=...)` refuses syntax newer than that
version, such as `except*` or a `type` statement, as far as the running
parser can tell.  It does not see a call to a newer standard library
name (`tomllib`, say) or a change in behaviour; only a run under that
Python does.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def floor():
    """The (major, minor) of `requires-python = ">=X.Y"` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text,
                             re.MULTILINE).groups()
    return int(major), int(minor)


def test_every_source_parses_at_the_floor():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "tests").rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=floor())


def test_newer_syntax_is_refused():
    # an exception group handler is 3.11 syntax
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
