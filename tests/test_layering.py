"""Every module imports at its top, so the package's import graph is the one
its module headers show, and that graph has no cycle:

    geometry <- model <- checkpoint <- training <- cli
                model <- evaluation <- training
    data <- evaluation, hierarchy, training;  hierarchy <- cli

(``training`` and ``cli`` also import ``geometry``, ``model`` and ``data``
directly.)  An import cycle cannot hide inside a function body.

Two records are built only by the modules that own their rules: a
``TripleStore`` in ``data`` (which checks relation names), a ``KGEModel``
in ``model`` and ``checkpoint`` (which make its tables).

``cli`` writes every file of a run directory, and every table through its
``write_csv``: no other module names ``write_csv`` or opens a file for
writing, apart from ``checkpoint.save``, which writes its own format, and
``data.make_tree_dataset``, which writes a toy dataset."""

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


def test_every_top_level_import_is_used():
    # a name imported at a module's top is read in that module, or exported
    unused = set()
    for path, tree in _trees():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        unused |= {f"{path.name}:{node.lineno} {alias.asname or alias.name.split('.')[0]}"
                   for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in read}
    assert sorted(unused) == []


def test_records_are_built_only_by_their_owners():
    # a call of TripleStore(...) or KGEModel(...), by name or as a module attribute
    built = set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in ("TripleStore", "KGEModel"):
                    built.add((name, path.name))
    assert built == {("TripleStore", "data.py"), ("KGEModel", "model.py"),
                     ("KGEModel", "checkpoint.py")}


# callables that create or write a file whatever their arguments
FILE_WRITERS = {"mkstemp", "NamedTemporaryFile", "write_text", "write_bytes", "tofile",
                "savetxt", "savez", "savez_compressed"}


def _writes_a_file(call):
    """A call of one of FILE_WRITERS, or of open/fdopen with a mode that is not
    a literal read mode (a mode held in a variable counts as writing)."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in ("open", "fdopen"):
        mode = (call.args[1] if len(call.args) > 1 else
                next((k.value for k in call.keywords if k.arg == "mode"), None))
        return mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt"))
    return name in FILE_WRITERS


def _scopes(tree):
    """(name, node) of each top-level statement; a class's are its members."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{node.name}.{getattr(item, 'name', '<body>')}", item
        else:
            yield getattr(node, "name", "<module>"), node


def test_only_cli_writes_run_files():
    found = set()
    for path, tree in _trees():
        if path.name == "cli.py":
            continue
        for scope, node in _scopes(tree):
            for sub in ast.walk(node):
                # a read, an attribute, an import or a definition of the name
                named = {getattr(sub, key, None) for key in ("id", "attr", "name")}
                if "write_csv" in named or isinstance(sub, ast.Call) and _writes_a_file(sub):
                    found.add(f"{path.stem}.{scope}")
    assert found == {"checkpoint.save", "data.make_tree_dataset"}
