"""Every public module-level function or class of the package is either
exported in `rerail.__all__` or used by some other code of the package:
a helper that only tests call is deleted, not kept as API."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rerail"


def _exported():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("rerail/__init__.py defines no __all__")


def _used_names(node):
    """Names read anywhere inside `node`, as plain names or attributes."""
    loads = [n for n in ast.walk(node) if isinstance(getattr(n, "ctx", None), ast.Load)]
    return ({n.id for n in loads if isinstance(n, ast.Name)}
            | {n.attr for n in loads if isinstance(n, ast.Attribute)})


def test_public_definitions_have_a_caller():
    defined = []    # (module, name, its top-level statement)
    statements = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append(stmt)
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined.append((path.stem, stmt.name, stmt))
    assert defined
    exported = _exported()
    orphans = []
    for module, name, own in defined:
        if name in exported:
            continue
        # a definition calling itself is no caller of its own
        if not any(name in _used_names(stmt) for stmt in statements if stmt is not own):
            orphans.append("%s.%s" % (module, name))
    assert not orphans, "public, unexported and uncalled in src/: %s" % orphans
