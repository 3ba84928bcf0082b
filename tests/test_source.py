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


def test_hot_paths_ask_rank_questions_of_an_echelon():
    # Construction, basis search and the sink decoders extend one incremental
    # echelon; none of them may eliminate from scratch per question again.
    banned = {"rank_of_rows", "in_span", "kernel_matrix", "spans_intersect_trivially", "hstack"}
    found = []
    for module, names in (("lnc.py", {"construct_lnc"}), ("secure.py", {"choose_secure_basis", "_sink_decoder"})):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                names = names - {fn.name}
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        called = getattr(node.func, "id", getattr(node.func, "attr", None))
                        if called in banned:
                            found.append(f"{fn.name}:{node.lineno}: {called}")
        assert names == set(), f"{module} no longer defines {names}"
    field = ast.parse((PACKAGE / "field.py").read_text(encoding="utf-8"))
    found += [
        f"field.py:{node.lineno}: {node.name}"
        for node in ast.walk(field)
        if isinstance(node, ast.FunctionDef) and node.name == "_echelon"
    ]
    assert found == []
