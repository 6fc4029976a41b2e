"""Every public library function has a caller outside the tests.

A public top-level function of src/postgroup_lab, or a public method
of one of its classes, counts as used when its name is referenced,
outside its own body, from src/, scripts/ or bench/, or when README.md
names it.  A helper that only tests call belongs in a
tests/reference_*.py module, or inlined at its call sites.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "postgroup_lab"


def _names(tree: ast.AST, skip: range = range(0)) -> set[str]:
    """Identifiers referenced in tree, outside the lines in skip."""
    out = set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _public_functions(module: ast.Module):
    """The module's public top-level functions and its classes' public methods."""
    for node in module.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield item


def test_every_public_function_has_a_caller_outside_tests():
    files = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in files}
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in _public_functions(trees[path]):
            body = range(node.lineno, node.end_lineno + 1)
            if node.name in readme or any(
                node.name in _names(tree, body if other == path else range(0))
                for other, tree in trees.items()
            ):
                continue
            unused.append(f"{path.name}:{node.name}")
    assert unused == []
