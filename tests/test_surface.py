"""Public-surface guards.

Every public module-level name under the package is used somewhere in the
package itself: a function, class or constant that only tests reach is a
second code path to keep in step with the real one; tests should drive the
API the pipeline uses. References inside a name's own definition and the
``__init__`` re-exports do not count.

Every field of a package dataclass is read as an attribute somewhere in the
package: a field nothing reads is state every constructor must fill for no
behaviour.

Every callable the benchmark's tracer wraps exists, so a rename cannot
quietly drop a layer from the traced benchmark.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "deepagent"

def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _package_trees():
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))}


def unreferenced_names():
    trees = _package_trees()
    uses = []  # (path, node) for every Name or attribute access
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, path, node))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path, node))
    unused = []
    for path, tree in trees.items():
        for name, definition in _public_definitions(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if not any(used == name and not (where == path and id(node) in inside)
                       for used, where, node in uses):
                unused.append(f"{path.relative_to(SRC)}:{name}")
    return unused


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def unread_dataclass_fields():
    trees = _package_trees()
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in reads):
                    unread.append(f"{path.relative_to(SRC)}:{cls.name}.{stmt.target.id}")
    return unread


def test_every_public_name_is_used_in_the_package():
    unused = unreferenced_names()
    assert unused == [], f"public names no package code uses: {unused}"


def test_every_dataclass_field_is_read_in_the_package():
    unread = unread_dataclass_fields()
    assert unread == [], f"dataclass fields no package code reads: {unread}"


def test_every_traced_benchmark_target_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, names in tracer.TARGETS.items():
        module = importlib.import_module(f"deepagent.{module_name}")
        for name in names:
            try:
                functools.reduce(getattr, name.split("."), module)
            except AttributeError:
                missing.append(f"{module_name}.{name}")
    assert missing == [], f"traced targets missing from deepagent: {missing}"
