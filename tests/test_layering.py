"""Package layering, read from the sources: imports at module top, no cycles, no test-only API or operator, one record base, bounded caches.

One test also starts a fresh interpreter to see which modules importing the package loads.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

from fanocalc import dsl, syntax

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fanocalc"
MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}


def imports(tree):
    """Every import statement of a module, with its enclosing function (or None)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((child, function))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, function)

    visit(tree, None)
    return found


def internal_targets(node):
    """The package modules an import statement names."""
    if isinstance(node, ast.Import):
        names = [a.name.split(".") for a in node.names]
        targets = [parts[1] for parts in names if parts[0] == "fanocalc" and len(parts) > 1]
    elif node.level == 0 and (node.module or "").split(".")[0] != "fanocalc":
        targets = []
    else:
        module = node.module or ""
        if node.level == 0:
            module = module.partition(".")[2]
        targets = [module.split(".")[0]] if module else [a.name for a in node.names]
    return [t for t in targets if t in MODULES]


def absolute_targets(node):
    """The top-level modules an import statement names by absolute path."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[0] for a in node.names]
    return [node.module.split(".")[0]] if node.level == 0 else []


def test_no_import_inside_a_function():
    nested = [
        f"{name}.py:{node.lineno} in {function}()"
        for name, tree in MODULES.items()
        for node, function in imports(tree)
        if function is not None
    ]
    assert nested == []


def test_no_module_imports_dataclasses():
    # a @dataclass execs generated source at every start, and importing the
    # module loads inspect, ast, dis and tokenize: the records are plain classes
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for node, _ in imports(tree)
        if "dataclasses" in absolute_targets(node)
    ]
    assert found == []


def test_importing_the_cli_loads_no_dataclasses_inspect_or_ast():
    # -I -S: no environment variables, user site or site hooks, so only the
    # interpreter's own start and the package's imports are in sys.modules;
    # -B, as -I ignores PYTHONDONTWRITEBYTECODE: the test writes no bytecode
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fanocalc.cli;"
        " print(' '.join(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    loaded = set(proc.stdout.split())
    assert "fanocalc.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "typing", "json"} == set()


def test_only_the_frozen_base_defines_the_record_guards():
    # the frozen records inherit these from record.FrozenRecord, which reads
    # the fields from each class's __slots__; a copy in a record is regrowth
    guards = {"__setattr__", "__delattr__", "__reduce__"}
    found = sorted(
        f"{name}.{cls.name}.{stmt.name}"
        for name, tree in MODULES.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in guards
    )
    assert found == [f"record.FrozenRecord.{guard}" for guard in sorted(guards)]


def scoped_nodes(tree, prefix):
    """Every node of a module with the path of its innermost class or function,
    as ``module.Class.method``; a class or function is under its own path."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            inner = path
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{path}.{child.name}"
            found.append((inner, child))
            visit(child, inner)

    visit(tree, prefix)
    return found


def test_records_store_and_compare_through_the_bases():
    # a frozen record sets its fields only through the _store that
    # FrozenRecord.__init_subclass__ binds to its class, from the per-arity
    # factories of record.py and the slot setters it reads there, and
    # compares through FrozenRecord.__eq__, both read from __slots__; what
    # else writes an equality out is the Schubert kernel
    nodes = [(path, node) for name, tree in MODULES.items() for path, node in scoped_nodes(tree, name)]
    assert not [
        (path, ast.unparse(node))
        for path, node in nodes
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("setattr", "object.__setattr__")
    ]
    setters = sorted({
        path
        for path, node in nodes
        if isinstance(node, ast.Attribute) and node.attr in ("_setters", "__set__")
    })
    assert setters == ["record.FrozenRecord.__init_subclass__"]
    stores = sorted({
        path
        for path, node in nodes
        if isinstance(node, ast.Attribute) and node.attr == "_store" and isinstance(node.ctx, ast.Store)
        or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_store"
    })
    assert stores == ["record.FrozenRecord.__init_subclass__"] + [f"record._store{n}._store" for n in range(1, 6)]
    methods = [
        (f"{name}.{cls.name}.{stmt.name}", stmt)
        for name, tree in MODULES.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef)
    ]
    equalities = sorted(path for path, method in methods if method.name == "__eq__")
    assert equalities == ["record.FrozenRecord.__eq__", "schubert.SchubertCycle.__eq__"]


# Every special method but __init__, __init_subclass__ and __repr__, with the
# README contract or the package caller it serves.  An operator that only
# tests reach is API that no caller needs: adding one means naming its
# contract or caller here, and a name whose caller goes leaves the list.
DUNDERS = {
    "record.FrozenRecord.__eq__": "README: records compare by value, every field read by one C-level getter",
    "record.FrozenRecord.__hash__": "README: records hash by their fields, Gr(k, n) and the divisors included",
    "record.FrozenRecord.__reduce__": "README: records copy and pickle through __init__",
    "record.FrozenRecord.__setattr__": "README: records refuse assignment",
    "record.FrozenRecord.__delattr__": "README: records refuse deletion",
    "schubert.SchubertCycle.__eq__": "README: two Schubert cycles compare in an assertion",
    "schubert.SchubertCycle.__add__": "README: + on cycles (dsl._additive)",
    "schubert.SchubertCycle.__sub__": "README: - on cycles (dsl._additive)",
    "schubert.SchubertCycle.__neg__": "README: unary - on cycles (dsl._value); SchubertCycle.__sub__",
    "schubert.SchubertCycle.__mul__": "README: * on cycles (dsl._times); profiles.section_profile",
    "schubert.SchubertCycle.__rmul__": "README: an int scales a cycle (dsl._times); profiles.section_profile",
    "schubert.SchubertCycle.__pow__": "README: ^ on cycles (dsl._power); profiles.section_profile",
    "blowup.Divisor.__add__": "README: + on divisors (dsl._additive)",
    "blowup.Divisor.__sub__": "README: - on divisors (dsl._additive)",
    "blowup.Divisor.__neg__": "README: unary - on divisors (dsl._value)",
    "blowup.Divisor.__mul__": "README: an int scales a divisor (dsl._times)",
    "blowup.Divisor.__rmul__": "README: an int scales a divisor, 2*H (dsl._times)",
}


def test_every_special_method_names_its_contract_or_caller():
    # a method, or a class-level alias of one such as __rmul__ = __mul__;
    # __hash__ = None takes an operator away and defines none
    found = set()
    for name, tree in MODULES.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined = [stmt.name]
                elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name):
                    defined = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                else:
                    defined = []
                found.update(
                    f"{name}.{cls.name}.{method}"
                    for method in defined
                    if method.startswith("__") and method.endswith("__")
                    and method not in {"__init__", "__init_subclass__", "__repr__"}
                )
    assert found == set(DUNDERS)


def test_the_syntax_tree_compares_and_hashes_by_identity():
    # the parser's sharing table and the evaluator's memo key on the nodes
    # themselves, so the scenario language reads no id() and no class of it
    # takes an equality or a hash from anywhere but object
    calls = [
        f"{name}.py:{node.lineno}"
        for name in ("syntax", "dsl")
        for node in ast.walk(MODULES[name])
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "id"
    ]
    assert calls == []
    classes = [
        value for module in (syntax, dsl) for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    assert {"SigmaAtom", "Call", "BinOp", "Neg", "AssertStmt", "Document"} <= {
        cls.__name__ for cls in classes
    }
    assert [
        cls.__name__ for cls in classes
        if cls.__eq__ is not object.__eq__ or cls.__hash__ is not object.__hash__
    ] == []


def test_only_syntax_fail_makes_a_parse_error():
    # every document rule is enforced while parsing, and a line and column are
    # worked out of the source in one place, for an error
    def functions(body, prefix):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}.{stmt.name}", stmt
            elif isinstance(stmt, ast.ClassDef):
                yield from functions(stmt.body, f"{prefix}.{stmt.name}")

    makers = sorted(
        path
        for name, tree in MODULES.items()
        for path, function in functions(tree.body, name)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "ParseError"
    )
    assert makers == ["syntax._fail"]


def test_syntax_imports_only_the_divisor_leaves_from_the_package():
    # the printer tells a leaf by its class or identity, so reading and
    # printing scenario text needs no evaluation and no engine class
    internal = [
        (node.module, sorted(alias.name for alias in node.names))
        for node, _ in imports(MODULES["syntax"])
        if internal_targets(node)
    ]
    assert internal == [("blowup", ["E", "H"])]


# The names dsl takes from syntax: the parser, the printer, the error dsl
# re-exports, and the node classes and operator key the evaluator reads.  A
# name the seam gains joins this set.
SEAM = {"ParseError", "_Parser", "_print_scenario", "SigmaAtom", "Call", "Neg", "_UNARY_MINUS"}


def test_dsl_takes_a_pinned_set_of_names_from_syntax():
    taken = {
        alias.name
        for node, _ in imports(MODULES["dsl"])
        if internal_targets(node) == ["syntax"]
        for alias in node.names
    }
    assert taken == SEAM
    assert dsl.ParseError is syntax.ParseError


def test_one_routine_reads_the_pieri_tables():
    # the strips, the transpose and the Giambelli words are read by _carry
    # alone, the one Pieri routine every Schubert product and power calls
    tables = {"_row_strips", "_conjugate", "_giambelli_monomials"}
    calls = set()

    def visit(node, owner, in_function):
        # a call is owned by its outermost enclosing function or method
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func) in tables:
                calls.add((owner, ast.unparse(child.func)))
            if in_function:
                visit(child, owner, True)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{owner}.{child.name}", False)
            else:
                function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                visit(child, f"{owner}.{child.name}" if function else owner, function)

    visit(MODULES["schubert"], "schubert", False)
    assert calls == {("schubert._carry", table) for table in tables}


def test_no_syntax_tree_class_keeps_a_position():
    positioned = [
        value.__name__ for value in vars(syntax).values()
        if isinstance(value, type) and value.__module__ == syntax.__name__
        and {"line", "column"} & set(getattr(value, "__slots__", ()))
    ]
    assert positioned == []


# Every table keyed by user input is bounded (ROADMAP item 6), so no name
# may join this list.
UNBOUNDED_CACHES = set()


def test_every_cache_has_an_integer_maxsize():
    # each functools cache decorates a top-level function, and its maxsize is
    # read from the cache itself; any other use of one counts as unbounded
    caches = {"lru_cache", "cache", "functools.lru_cache", "functools.cache"}
    maxsizes = {}
    for module, tree in MODULES.items():
        decorated = {
            id(getattr(d, "func", d)): stmt.name
            for stmt in tree.body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            for d in stmt.decorator_list
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(node) in caches:
                name = decorated.get(id(node))
                if name is None:
                    maxsizes[f"{module}, line {node.lineno}"] = None
                else:
                    wrapped = getattr(importlib.import_module(f"fanocalc.{module}"), name)
                    maxsizes[f"{module}.{name}"] = wrapped.cache_parameters()["maxsize"]
    unbounded = {use for use, maxsize in maxsizes.items() if not isinstance(maxsize, int)}
    assert unbounded == UNBOUNDED_CACHES
    assert {"scenarios._builtin_document", "cli._arg_parser"} <= set(maxsizes)


def test_internal_import_graph_is_acyclic():
    graph = {
        name: {t for node, _ in imports(tree) for t in internal_targets(node)} - {name}
        for name, tree in MODULES.items()
    }
    assert graph["dsl"] and graph["scenarios"], "the graph reader finds no edges"
    # peel off modules whose imports are all peeled; what is left sits on or above a cycle
    remaining = dict(graph)
    while True:
        leaves = [name for name, targets in remaining.items() if not targets & remaining.keys()]
        if not leaves:
            break
        for name in leaves:
            del remaining[name]
    assert remaining == {}


def mentions(nodes):
    """The names the code of ``nodes`` uses: names, attributes and imported names, not words in docs."""
    found = set()
    for node in nodes:
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                found.add(child.id)
            elif isinstance(child, ast.Attribute):
                found.add(child.attr)
            elif isinstance(child, ast.alias):
                found.update(child.name.split("."))
    return found


def test_no_unused_private_names():
    # each top-level statement of each module, with the names it defines and mentions
    statements = []
    for module, tree in MODULES.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defines = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defines = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                defines = []
            statements.append((module, defines, mentions([stmt])))
    unused = [
        f"{module}.{name}"
        for i, (module, defines, _) in enumerate(statements)
        for name in defines
        if name.startswith("_") and not name.startswith("__")
        and not any(name in found for j, (_, _, found) in enumerate(statements) if j != i)
    ]
    assert unused == []


def test_no_public_name_only_tests_reach():
    # A unit is a top-level statement, one method of a top-level class, or the
    # rest of that class.  A public def, class or method must be used by the
    # code of another unit; a mention in a docstring or a comment does not
    # count, nor does a re-export in __init__ or a listing in __all__.
    units = []
    for module, tree in MODULES.items():
        if module == "__init__":
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                units.append((f"{module}.{stmt.name}", stmt.name, [stmt]))
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                units.extend((f"{module}.{stmt.name}.{m.name}", m.name, [m]) for m in methods)
                rest = stmt.decorator_list + stmt.bases + [s for s in stmt.body if s not in methods]
                units.append((f"{module}.{stmt.name}", stmt.name, rest))
            else:
                units.append((None, None, [stmt]))
    used = [mentions(nodes) for _, _, nodes in units]
    unreached = [
        qualified
        for i, (qualified, name, _) in enumerate(units)
        if name is not None and not name.startswith("_")
        and not any(name in found for j, found in enumerate(used) if j != i)
    ]
    assert unreached == []
