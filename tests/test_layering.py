"""Package layering, read from the sources: imports at module top, no cycles, no test-only API."""

import ast
import re
from pathlib import Path

import fanocalc

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


def test_no_import_inside_a_function():
    nested = [
        f"{name}.py:{node.lineno} in {function}()"
        for name, tree in MODULES.items()
        for node, function in imports(tree)
        if function is not None
    ]
    assert nested == []


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
            mentions = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    mentions.add(node.id)
                elif isinstance(node, ast.Attribute):
                    mentions.add(node.attr)
                elif isinstance(node, ast.alias):
                    mentions.add(node.name)
            statements.append((module, defines, mentions))
    unused = [
        f"{module}.{name}"
        for i, (module, defines, _) in enumerate(statements)
        for name in defines
        if name.startswith("_") and not name.startswith("__")
        and not any(name in mentions for j, (_, _, mentions) in enumerate(statements) if j != i)
    ]
    assert unused == []


def test_no_public_name_only_tests_reach():
    # A unit is a top-level statement, one method of a top-level class, or the
    # rest of that class.  A public def, class or method must be named in the
    # text of another unit, its code or its docs, or be exported in __all__.
    units = []
    for module, tree in MODULES.items():
        lines = (PACKAGE / f"{module}.py").read_text(encoding="utf-8").splitlines()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                units.append((f"{module}.{stmt.name}", stmt.name, [stmt], lines))
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                units.extend((f"{module}.{stmt.name}.{m.name}", m.name, [m], lines) for m in methods)
                rest = stmt.decorator_list + stmt.bases + [s for s in stmt.body if s not in methods]
                units.append((f"{module}.{stmt.name}", stmt.name, rest, lines))
            else:
                units.append((None, None, [stmt], lines))
    words = [
        {w for node in nodes for line in lines[node.lineno - 1:node.end_lineno]
         for w in re.findall(r"\w+", line)}
        for _, _, nodes, lines in units
    ]
    exported = set(fanocalc.__all__)
    unreached = [
        qualified
        for i, (qualified, name, _, _) in enumerate(units)
        if name is not None and not name.startswith("_") and name not in exported
        and not any(name in found for j, found in enumerate(words) if j != i)
    ]
    assert unreached == []
