"""Public-surface guards.

Every public module-level name under the package is used somewhere in the
package itself: a function, class or constant that only tests reach is a
second code path to keep in step with the real one; tests should drive the
API the pipeline uses. References inside a name's own definition do not
count.

Every parameter with a default, of a public function or method, is set by
some call in the package: a default no caller overrides is a fixed design
choice dressed up as a knob, and belongs in a constant. A field with a
default of a public dataclass is a parameter of its constructor and is held
to the same rule; the config dataclasses are exempt, since their fields are
keys set from a config file, and the README-table guard covers those.

Every field of a package dataclass is read as an attribute somewhere in the
package: a field nothing reads is state every constructor must fill for no
behaviour.

Every name a package module imports is used in that module: a deletion
that leaves its import behind is caught here, with no linter installed.

No package module uses ``os.environ``, ``os.getenv`` or ``os.putenv``: a
run's settings come from its flags and its ``--config`` file alone, so an
exported variable cannot change what a command does.

Every ``open`` call in the package passes a binary mode or ``encoding=``,
and every ``read_text`` and ``write_text`` call passes ``encoding=``: the
JSON artifacts, manifests and sidecars are UTF-8 whatever the locale. This
is read from the source, not from ``-X warn_default_encoding``, because the
tests' own file reads and their plugins warn under that flag.

Every callable the benchmark's tracer wraps exists, so a rename cannot
quietly drop a layer from the traced benchmark, and the tracer's
``forest.nodes`` count is the number of nodes the forest grower made.

Every DAMC record kind but the metadata is declared in exactly one layer's
``STATE``, so checkpoints hold no state defined outside the layers, and no
package module but ``nn/layers.py`` and ``nn/checkpoint.py`` names a
``KIND_*`` code, so the rules a record's values must meet live in the one
checkpoint loader.

No package module but ``files.py`` calls ``json.load`` or ``json.loads``,
so every JSON input meets the same read, depth and repeated-key rules.

Every layer with its own backward, and every head in ``nn/losses.py`` (a
function of ``(logits, targets)``), is in the acceptance gradient suite, so
no gradient that training runs goes unchecked by finite differences.

The README's configuration table lists every config key, nested agent keys
included, with its default, and no key the config lacks, so a key cannot
be added or removed without its row.
"""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import numpy as np

from deepagent import forest
from deepagent.config import PipelineConfig
from deepagent.nn import checkpoint, layers, losses

from test_acceptance import gradient_suite

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


# parameters no package call sets, kept on purpose
UNSET_ALLOWED = {
    "cli.py:main.argv",  # the console-script entry point runs main()
}


def _defaulted_parameters(fn, bound):
    """(name, position in a call) per parameter with a default; position
    is None for keyword-only ones, and ``bound`` leading parameters (self)
    take no call argument."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _defaulted_fields(cls):
    """(name, position in a call) per field with a default of a dataclass."""
    fields = [stmt for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    for i, stmt in enumerate(fields):
        if stmt.value is not None:
            yield stmt.target.id, i


def _call_sets(call, name, position):
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position < len(call.args)


def unset_parameters():
    """``file:function.parameter`` per defaulted parameter of a public
    function or method, or defaulted field of a public dataclass outside the
    config, that no package call sets. Calls are matched by the called name;
    a call to a class sets its ``__init__`` parameters or its fields."""
    trees = _package_trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for path, tree in trees.items():
        defs = []  # (called name, label, (parameter, position in a call) pairs)
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, node.name, _defaulted_parameters(node, 0)))
            elif isinstance(node, ast.ClassDef):
                # the config dataclasses' fields are keys set from a file
                if _is_dataclass(node) and path.name != "config.py":
                    defs.append((node.name, node.name, _defaulted_fields(node)))
                for method in node.body:
                    if not isinstance(method, ast.FunctionDef):
                        continue
                    if method.name == "__init__":
                        defs.append((node.name, node.name,
                                     _defaulted_parameters(method, 1)))
                    elif not method.name.startswith("_"):
                        defs.append((method.name, f"{node.name}.{method.name}",
                                     _defaulted_parameters(method, 1)))
        for called, label, params in defs:
            for name, position in params:
                key = f"{path.relative_to(SRC)}:{label}.{name}"
                if key not in UNSET_ALLOWED and not any(
                        _call_sets(c, name, position) for c in calls.get(called, [])):
                    unset.append(key)
    return unset


def test_every_public_name_is_used_in_the_package():
    unused = unreferenced_names()
    assert unused == [], f"public names no package code uses: {unused}"


def test_every_parameter_is_set_by_the_package():
    unset = unset_parameters()
    assert unset == [], f"parameters no package call sets: {unset}"


def test_every_dataclass_field_is_read_in_the_package():
    unread = unread_dataclass_fields()
    assert unread == [], f"dataclass fields no package code reads: {unread}"


def unused_imports():
    """``file:line name`` per name a package module imports and never reads."""
    unused = []
    for path, tree in _package_trees().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.relative_to(SRC)}:{node.lineno} {name}"
                       for name in names if name not in used]
    return unused


def test_every_import_is_used():
    unused = unused_imports()
    assert unused == [], f"imports no package code uses: {unused}"


# the process environment, read or written
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_uses():
    """``file:line name`` per use of an ``os`` environment name, as an
    attribute or imported from ``os``."""
    uses = []
    for path, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            uses += [f"{path.relative_to(SRC)}:{node.lineno} {name}"
                     for name in names if name in ENVIRONMENT_NAMES]
    return uses


def test_package_reads_no_environment():
    uses = environment_uses()
    assert uses == [], f"package code using the environment: {uses}"


def text_io_without_encoding():
    """``file:line call`` per package call that opens a file as text in the
    locale's encoding: ``open`` without a binary mode or ``encoding=``, or
    ``read_text``/``write_text`` without ``encoding=``."""
    found = []
    for path, tree in _package_trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in ("open", "read_text", "write_text"):
                continue
            keywords = {k.arg: k.value for k in node.keywords}
            if "encoding" in keywords:
                continue
            mode = keywords.get("mode", node.args[1] if len(node.args) > 1 else None)
            if (name == "open" and isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str) and "b" in mode.value):
                continue
            found.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    return found


def test_text_files_are_opened_with_an_encoding():
    found = text_io_without_encoding()
    assert found == [], f"text opened in the locale's encoding: {found}"


def _bench_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_benchmark_target_exists():
    tracer = _bench_tracer()
    missing = []
    for module_name, names in tracer.TARGETS.items():
        module = importlib.import_module(f"deepagent.{module_name}")
        for name in names:
            try:
                functools.reduce(getattr, name.split("."), module)
            except AttributeError:
                missing.append(f"{module_name}.{name}")
    assert missing == [], f"traced targets missing from deepagent: {missing}"


def test_every_layer_backward_is_in_the_gradient_suite():
    checked = {type(layer) for _, net, *_ in gradient_suite()
               for layer in [net, *net.layers]}
    with_backward = {cls for cls in vars(layers).values()
                     if isinstance(cls, type) and issubclass(cls, layers.Layer)
                     and cls is not layers.Layer and "backward" in vars(cls)}
    missing = sorted(cls.__name__ for cls in with_backward - checked)
    assert missing == [], f"layers the gradient suite never checks: {missing}"


def test_every_head_is_in_the_gradient_suite():
    heads = {f for f in vars(losses).values()
             if inspect.isfunction(f) and f.__module__ == losses.__name__
             and len(inspect.signature(f).parameters) == 2}
    checked = {loss for *_, loss in gradient_suite()}
    assert len(heads) == 2
    missing = sorted(f.__name__ for f in heads - checked)
    assert missing == [], f"heads the gradient suite never checks: {missing}"


def test_traced_forest_node_count_is_the_growers():
    # the tracer counts forest.nodes by walking each tree's root; the walk
    # must see every node the grower made, each once
    tracer = _bench_tracer()
    rng = np.random.default_rng(3)
    Z = rng.random((80, 2))
    y = rng.integers(0, 2, 80)
    model = forest.train_forest(Z, y, n_trees=20, seed=5)
    rngs = [np.random.default_rng(np.random.SeedSequence([5, t])) for t in range(20)]
    rows = np.stack([r.integers(0, 80, size=80) for r in rngs])
    grown = forest._grow(Z, y, rows, rngs)
    counters = {tracer.FOREST_NODES: 0}
    tracer._forest_nodes(counters, (Z, y), model)
    assert counters[tracer.FOREST_NODES] == len(grown[0]) > 20 * 2


def test_every_checkpoint_kind_is_declared_in_one_layer_state():
    kinds = {name: code for name, code in vars(checkpoint).items()
             if name.startswith("KIND_") and name != "KIND_META"}
    declared = [kind for cls in vars(layers).values()
                if isinstance(cls, type) and issubclass(cls, layers.Layer)
                for _, kind in vars(cls).get("STATE", ())]
    wrong = {name: declared.count(code) for name, code in kinds.items()
             if declared.count(code) != 1}
    assert wrong == {}, f"kinds not declared by exactly one layer STATE: {wrong}"


# the modules that name DAMC record kinds: the layers declare them in
# ``STATE``, and the checkpoint defines them and owns their value rules
KIND_OWNERS = {"nn/layers.py", "nn/checkpoint.py"}


def test_only_the_layers_and_the_checkpoint_name_a_record_kind():
    named = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        if where not in KIND_OWNERS:
            lines = path.read_text(encoding="utf-8").splitlines()
            named += [f"{where}:{n} {name}" for n, line in enumerate(lines, 1)
                      for name in re.findall(r"\bKIND_\w+", line)]
    assert named == [], f"record kinds named outside {sorted(KIND_OWNERS)}: {named}"


def json_parses():
    """``file:line name`` per package use of ``json.load`` or
    ``json.loads``, as an attribute or imported from ``json``."""
    uses = []
    for path, tree in _package_trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "json"):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                names = [alias.name for alias in node.names]
            else:
                continue
            uses += [f"{path.relative_to(SRC).as_posix()}:{node.lineno} {name}"
                     for name in names if name in ("load", "loads")]
    return uses


def test_only_files_parses_json():
    # files.read_json owns the faults of every JSON input: unreadable,
    # not UTF-8, not JSON, too deep, or a repeated key
    uses = [use for use in json_parses() if not use.startswith("files.py:")]
    assert uses == [], f"JSON parsed outside files.read_json: {uses}"


def _config_defaults(obj, prefix=""):
    """``{dotted key: default}`` over a config dataclass and its nested ones."""
    defaults = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            defaults.update(_config_defaults(value, f"{prefix}{f.name}."))
        else:
            defaults[f"{prefix}{f.name}"] = value
    return defaults


def readme_config_table():
    """``{dotted key: default}`` from the README's configuration table. A
    row's first two cells may list several keys and defaults split by
    `` / ``; a row whose default is ``{...}`` lists its nested keys in the
    third cell as comma-separated ``key value`` pairs."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        keys = [k.strip("`") for k in cells[0].split(" / ")]
        if cells[1] == "`{...}`":
            for pair in cells[2].split(", "):
                name, value = re.fullmatch(r"`(\w+)` (\S+)", pair).groups()
                table[f"{keys[0]}.{name}"] = json.loads(value)
            continue
        values = [json.loads(v.strip("`")) for v in cells[1].split(" / ")]
        assert len(keys) == len(values), line
        table.update(zip(keys, values))
    return table


def test_readme_config_table_matches_the_config():
    expected = _config_defaults(PipelineConfig())
    table = readme_config_table()
    assert sorted(table) == sorted(expected)
    wrong = {key: (table[key], value) for key, value in expected.items()
             if table[key] != value or isinstance(table[key], bool) != isinstance(value, bool)}
    assert wrong == {}, f"README default differs from the config's: {wrong}"
