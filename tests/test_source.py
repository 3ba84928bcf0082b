"""Rules that the package source itself must keep."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slnc"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no runtime check may be one.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_security_verdicts_use_no_floating_point():
    # README: no floating point anywhere security is decided.  The rule covers
    # the deciding functions and every oracle.py function they reach by name.
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo = ["verify_security", "mutual_information", "rank_security_criterion", "refute_key_rate"]
    checked: set[str] = set()
    found = []
    while todo:
        name = todo.pop()
        if name in checked:
            continue
        checked.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name) and node.id in functions:
                todo.append(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{name}:{node.lineno}: float constant {node.value!r}")
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math":
                found.append(f"{name}:{node.lineno}: math.{node.attr}")
            elif isinstance(node, ast.Div):
                found.append(f"{name}: true division")
    assert found == []
