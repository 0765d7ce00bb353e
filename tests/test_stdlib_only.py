"""The package imports nothing outside the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rerail"


def test_package_imports_only_stdlib():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += ["%s imports %s" % (path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign
