"""Rules that the package source itself must keep."""

import ast
import importlib
from pathlib import Path

import slnc

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slnc"
# The oracle's two modules: verification, and the key-rate refutation search
# whose leakage rule and budget check verification imports.
ORACLE = ("oracle.py", "refute.py")


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no runtime check may be one.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _oracle_functions_reached_from(*roots: str) -> list[ast.FunctionDef]:
    """The named oracle functions and every function of ORACLE's modules they reach by name."""
    functions = {
        node.name: node
        for module in ORACLE
        for node in ast.parse((PACKAGE / module).read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    todo = list(roots)
    reached: dict[str, ast.FunctionDef] = {}
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached[name] = functions[name]
        todo += [
            node.id
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Name) and node.id in functions
        ]
    return list(reached.values())


# The modules that may compute in floating point: Han's entropy profile, and
# the CLI for `hancheck --base`.  No security verdict reaches either.
FLOATING = ("entropy.py", "cli.py")
# The `math` functions that take and return integers only.
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def test_security_verdicts_use_no_floating_point():
    # README: no floating point anywhere security is decided.  Every other
    # module of the package computes in exact integers: no float constant,
    # `float(...)`, true division or `math` function with a float value.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in FLOATING:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno}: float constant {node.value!r}")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
                found.append(f"{path.name}:{node.lineno}: float(...)")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}: true division")
            elif (
                isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math"
                and node.attr not in INTEGER_MATH
            ):
                found.append(f"{path.name}:{node.lineno}: math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [
                    f"{path.name}:{node.lineno}: from math import {alias.name}"
                    for alias in node.names
                    if alias.name not in INTEGER_MATH
                ]
    assert found == []


def test_oracle_encodes_by_columns():
    # The oracle builds each channel's symbols once, as a column over every
    # input; no per-input encoding loop may come back into it.
    banned = {"encode_source", "dot", "_symbol_rows"}
    found = [
        f"{fn.name}:{node.lineno}: {node.id if isinstance(node, ast.Name) else node.attr}"
        for fn in _oracle_functions_reached_from("verify_security", "observation_distribution")
        for node in ast.walk(fn)
        if (isinstance(node, ast.Name) and node.id in banned)
        or (isinstance(node, ast.Attribute) and node.attr in banned)
    ]
    assert found == []


def _functions(module: str, names: set[str]) -> list[ast.FunctionDef]:
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    found = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in names]
    assert {fn.name for fn in found} == names, f"{module} no longer defines {names}"
    return found


def _calls(fn: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every call in fn, nested functions included."""
    return [
        (node.lineno, getattr(node.func, "id", getattr(node.func, "attr", None)))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
    ]


def test_hot_paths_ask_rank_questions_of_an_echelon():
    # Construction, basis search and the sink decoders extend one incremental
    # echelon; none of them may eliminate from scratch per question again.
    banned = {"rank_of_rows", "in_span", "kernel_matrix", "kernel_rank", "spans_intersect_trivially", "hstack"}
    found = []
    for module, names in (("lnc.py", {"construct_lnc"}), ("secure.py", {"choose_secure_basis", "_sink_decoder"})):
        for fn in _functions(module, names):
            found += [f"{fn.name}:{line}: {called}" for line, called in _calls(fn) if called in banned]
    field = ast.parse((PACKAGE / "field.py").read_text(encoding="utf-8"))
    found += [
        f"field.py:{node.lineno}: {node.name}"
        for node in ast.walk(field)
        if isinstance(node, ast.FunctionDef) and node.name == "_echelon"
    ]
    assert found == []


def test_one_leakage_rule():
    # The rank criterion and the refutation search read leakage the same way,
    # as the rank gap `_leakage` computes; no second row-span test may return.
    for module in ORACLE:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "_message_in_key_span" not in defined, module
    for module, name in (("oracle.py", "rank_security_criterion"), ("refute.py", "refute_key_rate")):
        (fn,) = _functions(module, {name})
        assert "_leakage" in {called for _line, called in _calls(fn)}, fn.name


def test_one_direction_normal_form():
    # A nonzero vector scaled to a leading 1 is `Echelon(field, n, [v]).basis()`:
    # the basis search and the refutation search name kernel directions by it
    # and the oracle names gain lines by it.  No module but field.py may scale
    # by an inverse itself, and the oracle may not relabel whole columns to
    # learn what a gain line says.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "field.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{path.name}:{line}: inv" for line, called in _calls(tree) if called == "inv"]
    for module, name in (
        ("secure.py", "choose_secure_basis"),
        ("oracle.py", "verify_security"),
        ("refute.py", "refute_key_rate"),
    ):
        (fn,) = _functions(module, {name})
        assert "basis" in {called for _line, called in _calls(fn)}, name
    for module in ORACLE:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        assert "_partition" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert found == []


def test_oracle_uses_only_public_names_of_the_code_it_checks():
    # The oracle stays independent of the construction it checks: it decodes
    # through decode_at_sink, and no private decode rule or id-parsing kernel
    # lookup may come back for it to lean on.  Its two modules share private
    # rules with each other and with nothing else.
    own = {module.removesuffix(".py") for module in ORACLE}
    private = [
        f"{path}: {node.module}.{alias.name}"
        for path in ORACLE
        for node in ast.walk(ast.parse((PACKAGE / path).read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("slnc"))
        and (node.module or "").removeprefix("slnc.") not in own
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    secure = ast.parse((PACKAGE / "secure.py").read_text(encoding="utf-8"))
    assert "_decode" not in {node.name for node in secure.body if isinstance(node, ast.FunctionDef)}
    lnc = ast.parse((PACKAGE / "lnc.py").read_text(encoding="utf-8"))
    (code,) = [node for node in lnc.body if isinstance(node, ast.ClassDef) and node.name == "GlobalCode"]
    assert "kernel" not in {node.name for node in code.body if isinstance(node, ast.FunctionDef)}


def test_wiretap_enumeration_extends_prefixes():
    # Both wiretap collections grow one state per prefix (a flow, an echelon):
    # no set may get a fresh max-flow or elimination, and the flow's arcs are
    # built once per network, not per call.  The subset check counts both
    # collections in one walk: it may not list either one and look its sets up.
    # The walk hands each prefix and set up through one generator, with no
    # nested walk to recurse into.
    banned = {"min_cut_to_edges", "_unit_flow", "rank_of_rows", "combinations"}
    found = []
    for module, name in (
        ("walk.py", "enumerate_topology_wiretap_sets"),
        ("walk.py", "cut_family"),
        ("walk.py", "enumerate_code_wiretap_sets"),
        ("walk.py", "span_family"),
        ("walk.py", "verify_subset_bound"),
    ):
        for fn in _functions(module, {name}):
            found += [f"{name}:{line}: {called}" for line, called in _calls(fn) if called in banned]
    for fn in _functions("flow.py", {"_unit_flow"}):
        found += [f"_unit_flow:{line}: append" for line, called in _calls(fn) if called == "append"]
    listing = {
        "enumerate_topology_wiretap_sets", "enumerate_code_wiretap_sets", "members",
        "downward_closed_subsets",
    }
    for fn in _functions("walk.py", {"verify_subset_bound"}):
        found += [
            f"verify_subset_bound:{node.lineno}: {node.id if isinstance(node, ast.Name) else node.attr}"
            for node in ast.walk(fn)
            if (isinstance(node, ast.Name) and node.id in listing)
            or (isinstance(node, ast.Attribute) and node.attr in listing)
        ]
    for fn in _functions("walk.py", {"downward_closed_prefixes", "downward_closed_subsets"}):
        found += [
            f"{fn.name}:{node.lineno}: nested {getattr(node, 'name', 'lambda')}"
            for node in ast.walk(fn)
            if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not fn
        ]
        found += [f"{fn.name}:{line}: recursion" for line, called in _calls(fn) if called == fn.name]
    assert found == []


def test_construction_and_basis_search_walk_linear_forms():
    # Both find their first admissible vector with the one linear-form search:
    # neither may scan candidate tuples or columns, or enumerate code wiretap
    # sets only to find their spans.
    banned = {"product", "vector_from_index", "enumerate_code_wiretap_sets"}
    found = [
        f"{fn.name}:{node.lineno}: {node.id if isinstance(node, ast.Name) else node.attr}"
        for module, name in (("lnc.py", "construct_lnc"), ("secure.py", "choose_secure_basis"))
        for fn in _functions(module, {name})
        for node in ast.walk(fn)
        if (isinstance(node, ast.Name) and node.id in banned)
        or (isinstance(node, ast.Attribute) and node.attr in banned)
    ]
    assert found == []


def test_every_definition_is_referenced_in_the_package():
    # A function, class, method or property that no package code names is
    # only kept alive by the tests; it belongs in the tests or nowhere.  A
    # name in `slnc.__all__` is a reference, and dunder methods are exempt.
    # `perfectly_secure` is the exact count-table check that the tests hold
    # `mutual_information` against, so the package keeps it for them.
    defined: dict[str, str] = {}
    referenced = {"perfectly_secure", *slnc.__all__}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    found = sorted(
        f"{where}: {name}"
        for name, where in defined.items()
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    )
    assert found == []


# Stored fields that no package code reads, each with the reason it stays.
UNREAD_FIELDS = {
    # The report's whole content, returned to library callers.
    "CodeValidityReport.recursion_violations",
    "CodeValidityReport.sink_rank_deficits",
    # The search's work counter, which the refutation tests pin.
    "RefutationResult.visited",
}


def _stored_fields(cls: ast.ClassDef) -> list[str]:
    """A NamedTuple's fields and the attributes that `__init__` sets on self."""
    fields = []
    if any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases):
        fields += [
            node.target.id
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        ]
    for method in cls.body:
        if isinstance(method, ast.FunctionDef) and method.name == "__init__":
            fields += [
                node.attr
                for node in ast.walk(method)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            ]
    return fields


def test_every_stored_field_is_read():
    # Each fact is stored once, and no record keeps a field that no code
    # reads: every stored field is loaded as an attribute somewhere in the
    # package outside its own class's dunder methods.  Matched by name.
    stored: dict[str, str] = {}
    loads: set[tuple[str, str, str]] = set()  # (attribute, enclosing class, its method)

    def visit(node: ast.AST, path: str, cls: str, method: str) -> None:
        if isinstance(node, ast.ClassDef):
            cls, method = node.name, ""
            for name in _stored_fields(node):
                stored.setdefault(f"{cls}.{name}", f"{path}:{node.lineno}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not method:
            method = node.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.add((node.attr, cls, method))
        for child in ast.iter_child_nodes(node):
            visit(child, path, cls, method)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "", "")

    def read(field: str) -> bool:
        owner, name = field.split(".")
        return any(
            attr == name and not (cls == owner and method.startswith("__") and method.endswith("__"))
            for attr, cls, method in loads
        )

    found = sorted(
        f"{where}: {field}" for field, where in stored.items() if field not in UNREAD_FIELDS and not read(field)
    )
    assert found == []


# The package root's public names in `__all__` order, each with its defining module.
PUBLIC = [
    (name, module)
    for module, names in (
        ("errors", "errors"),
        ("field", "FieldSpec"),
        ("secure", "Matrix"),
        ("field", "ff_op"),
        ("network", "Edge Network parse_network serialize_network"),
        ("flow", "min_cut_to_sink min_cut_to_edges c_min"),
        ("lnc", "GlobalCode construct_lnc check_code_validity write_code parse_code"),
        ("walk", "enumerate_topology_wiretap_sets enumerate_code_wiretap_sets verify_subset_bound"),
        ("secure", "SecureCodeBundle choose_secure_basis build_secure_bundle encode_source "
                   "decode_at_sink write_bundle parse_bundle"),
        ("oracle", "JointDistribution SecurityReport"),
        ("refute", "RefutationResult"),
        ("oracle", "observation_distribution mutual_information verify_security "
                   "rank_security_criterion"),
        ("refute", "refute_key_rate"),
        ("entropy", "han_profile"),
    )
    for name in names.split()
]


def test_package_root_resolves_every_public_name_lazily():
    # `import slnc` loads no submodule (test_cli checks that in a fresh
    # interpreter); each name resolves to its defining module's binding.
    assert slnc.__all__ == [name for name, _ in PUBLIC] == list(slnc._HOME)
    for name, module in PUBLIC:
        home = importlib.import_module(f"slnc.{module}")
        assert getattr(slnc, name) is (home if name == module else getattr(home, name)), name
    star: dict = {}
    exec("from slnc import *", star)
    assert {name: star[name] for name, _ in PUBLIC} == {name: getattr(slnc, name) for name, _ in PUBLIC}
    assert set(star) - {"__builtins__"} == set(slnc.__all__)
    assert not hasattr(slnc, "nope")
    from slnc import oracle

    assert oracle.DEFAULT_SEARCH_BUDGET == 10**8


def test_no_module_imports_dataclasses():
    # Importing `dataclasses` pulls in inspect, ast and tokenize, and each
    # decorator builds its methods by exec at import time: start-up cost that
    # every CLI process would pay.  Records are NamedTuples or plain classes.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []
