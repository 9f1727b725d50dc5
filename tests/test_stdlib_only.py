"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

import latticetwist


def test_every_import_is_relative_or_stdlib():
    found = set()
    for path in sorted(Path(latticetwist.__file__).parent.glob("*.py")):
        # ast.walk also reaches imports made inside functions
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                found.add(top)
                assert top in sys.stdlib_module_names, (path.name, module)
    assert {"concurrent", "fractions", "math"} <= found
