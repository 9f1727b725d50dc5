"""Every cap in `latticetwist.limits` bounds some code: another module reads it."""

import ast
from pathlib import Path

import latticetwist
from latticetwist import limits


def test_every_cap_is_read_outside_limits():
    caps = {name for name in vars(limits) if name.startswith("MAX_")}
    read = set()
    for path in Path(latticetwist.__file__).parent.glob("*.py"):
        if path.name == "limits.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "limits"):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "limits":
                read.update(alias.name for alias in node.names)
    assert caps
    assert caps <= read, f"caps no module reads: {sorted(caps - read)}"
