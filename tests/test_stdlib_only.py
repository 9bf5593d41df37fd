"""The package promises the standard library only: every absolute import in
``src/loopext`` names a standard-library module or ``loopext`` itself."""

import ast
import pathlib
import sys

import loopext

ALLOWED = sys.stdlib_module_names | {"loopext"}


def test_imports_are_stdlib():
    outside = []
    for path in sorted(pathlib.Path(loopext.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []
