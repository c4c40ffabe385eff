"""Every module imports at its top, so the package's import graph is the one
its module headers show (geometry <- model <- evaluation <- training <- cli)
and an import cycle cannot hide inside a function body."""

import ast
import pathlib

import hkge

SRC = pathlib.Path(hkge.__file__).parent


def test_no_import_inside_a_function():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{node.lineno} in {fn.name}"
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(found) == []
