"""Every module-level function or class of the package has a use outside
itself: a public one is exported in `rerail.__all__` or used by some other
code of the package, and a private (`_`-prefixed) helper is used by some
other code of the package.  A helper that only tests call, or that nothing
calls any more, is deleted, not kept."""

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


def _uncalled(private):
    """The private or the public module-level definitions of src/ that no other
    top-level statement of src/ uses, as (module, name) pairs, and how many were checked."""
    defined = []    # (module, name, its top-level statement)
    statements = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append(stmt)
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") == private):
                defined.append((path.stem, stmt.name, stmt))
    # a definition calling itself is no caller of its own
    uncalled = [(module, name) for module, name, own in defined
                if not any(name in _used_names(stmt) for stmt in statements if stmt is not own)]
    return uncalled, len(defined)


def test_public_definitions_have_a_caller():
    uncalled, checked = _uncalled(private=False)
    assert checked
    exported = _exported()
    orphans = ["%s.%s" % (module, name) for module, name in uncalled if name not in exported]
    assert not orphans, "public, unexported and uncalled in src/: %s" % orphans


def test_private_helpers_have_a_caller():
    uncalled, checked = _uncalled(private=True)
    assert checked
    orphans = ["%s.%s" % pair for pair in uncalled]
    assert not orphans, "private and uncalled in src/: %s" % orphans
