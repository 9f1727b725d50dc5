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


# Caps on a size argument: each is enforced by `twisted._as_int`, and read
# nowhere but in the arguments of a call to it.
SIZE_CAPS = {"MAX_PERMUTOHEDRON_N", "MAX_VERIFY_N", "MAX_CLOSURE_BUDGET",
             "MAX_IDENTITY_DRAWS", "MAX_WORKERS"}


def test_size_caps_are_read_only_by_the_one_reader():
    stray = []
    for path in Path(latticetwist.__file__).parent.glob("*.py"):
        if path.name == "limits.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_as_int"):
                for arg in (*node.args, *(kw.value for kw in node.keywords)):
                    allowed.update(map(id, ast.walk(arg)))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "limits":
                stray += [(path.name, node.lineno, a.name) for a in node.names
                          if a.name in SIZE_CAPS]
            elif (isinstance(node, ast.Attribute) and node.attr in SIZE_CAPS
                    and id(node) not in allowed):
                stray.append((path.name, node.lineno, node.attr))
    assert SIZE_CAPS <= set(vars(limits))
    assert not stray, f"size caps read outside _as_int: {stray}"


def test_verify_cap_fits_a_byte():
    # word evaluation (words.eval_word) and generated_closure store each
    # permutation as a byte string of its images 1..n and compose with
    # bytes.translate, so n must stay below 256.
    assert limits.MAX_VERIFY_N <= 255, (
        "MAX_VERIFY_N above 255 breaks the byte-string permutations of "
        "word evaluation (words.eval_word) and words.generated_closure")
