"""Every module-level function or class of the package has a use outside
itself: a public one is exported in `rerail.__all__` or used by some other
code of the package, and a private (`_`-prefixed) helper is used by some
other code of the package.  Every public method or property of a package
class is read as an attribute by code outside the tests.  A helper that only
tests call, or that nothing calls any more, is deleted, not kept."""

import ast
import importlib
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rerail"
CALLERS = ("src", "demos", "scripts", "perfbench")     # the code that is not a test


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


def _attribute_reads(node):
    """How often each attribute name is read inside `node`."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _public_methods():
    """(module, class, def statement) of each public method or property of a src/
    class that overrides no method of a base class, such as `argparse`'s."""
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            bases = getattr(importlib.import_module("rerail." + path.stem), stmt.name).__mro__[1:]
            for node in stmt.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and not any(node.name in vars(base) for base in bases)):
                    yield path.stem, stmt.name, node


def test_public_methods_have_a_caller():
    reads = Counter()
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            reads += _attribute_reads(ast.parse(path.read_text(encoding="utf-8")))
    methods = list(_public_methods())
    assert methods
    # a method reading its own name is no caller of its own
    orphans = ["%s.%s.%s" % (module, cls, node.name) for module, cls, node in methods
               if reads[node.name] == _attribute_reads(node)[node.name]]
    assert not orphans, "public methods read as an attribute only by tests: %s" % orphans
