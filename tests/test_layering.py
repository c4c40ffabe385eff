"""Every module imports at its top, so the package's import graph is the one
its module headers show, and that graph has no cycle:

    geometry <- model <- checkpoint <- training <- cli
                model <- evaluation <- training
    data <- evaluation, hierarchy, training;  hierarchy <- cli

(``training`` and ``cli`` also import ``geometry``, ``model`` and ``data``
directly.)  An import cycle cannot hide inside a function body."""

import ast
import graphlib
import pathlib

import hkge

SRC = pathlib.Path(hkge.__file__).parent


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_import_inside_a_function():
    found = set()
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{node.lineno} in {fn.name}"
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(found) == []


def test_import_graph_is_acyclic():
    # module -> the package modules it imports (`from . import x` or `from .x import y`)
    graph = {}
    for path, tree in _trees():
        graph[path.stem] = {
            dep
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for dep in ([node.module] if node.module else [a.name for a in node.names])
        }
    assert {"model", "checkpoint"} <= graph["training"]
    assert graph["geometry"] == set()
    # raises graphlib.CycleError, naming the cycle, if there is one
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert order.index("checkpoint") < order.index("training") < order.index("cli")
