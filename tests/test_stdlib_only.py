"""The package imports nothing outside the standard library, and its modules
import one another without a cycle."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rerail"


def _imports():
    """(module name, node) for every import statement of the package,
    those inside functions included."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path.stem, node


def test_package_imports_only_stdlib():
    foreign = []
    for module, node in _imports():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += ["%s imports %s" % (module, name) for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign


def test_package_modules_import_no_cycle():
    graph = {}
    for module, node in _imports():
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # `from .m import x` imports m; `from . import m` imports each m
            targets = [node.module] if node.module else [a.name for a in node.names]
            graph.setdefault(module, set()).update(targets)
    # peel off the modules that import no module left, or that no module
    # left imports, until none goes; only modules on or between cycles stay
    left, before = set(graph), None
    while left != before:
        before = left
        left = {m for m in left if graph[m] & left and any(m in graph[k] for k in left)}
    assert not left, sorted("%s imports %s" % (m, t) for m in left for t in graph[m] & left)
