"""Lint checks on the syntax tree of each ``src/ezdlab/*.py``: every
imported name is used there or re-exported, no module-level cache, no
numpy import outside ``Matrix.data``, no ``dataclasses`` import and no
``exec`` or ``eval`` call, and every top-level definition and every method
of a top-level class is named somewhere in the project.  Every name the
benchmark's tracer wraps exists.

No linter ships with the project's test dependencies, so these walk the
tree with ``ast``.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ezdlab"


def _imported(tree):
    """Names bound by the module's imports, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree):
    """Names the module reads, including those in string annotations and
    the entries of ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(
                    n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                    if isinstance(n, ast.Name)
                )
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _numpy_imports(node, scope=()):
    """(enclosing class and function names, line) of every import of numpy
    or of a numpy submodule under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "numpy" for name in names):
            yield scope, child.lineno
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        yield from _numpy_imports(child, inner)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_only_inside_matrix_data(path):
    """The engine is pure Python: only the ``Matrix.data`` property, the
    dense copy that tests and tools read, imports numpy, and only when it
    is called."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {("Matrix", "data")} if path.name == "linalg.py" else set()
    found = [(scope, line) for scope, line in _numpy_imports(tree) if scope not in allowed]
    assert not found, f"{path.name} imports numpy at {found}"
    if allowed:
        assert [scope for scope, _ in _numpy_imports(tree)] == list(allowed)


def _generated_code(tree):
    """(line, what) of every import of ``dataclasses`` and every call of the
    builtin ``exec`` or ``eval``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "dataclasses" for name in names):
            yield node.lineno, "import dataclasses"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("exec", "eval")):
            yield node.lineno, f"{node.func.id}()"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_generated_code(path):
    """Records are plain slotted classes (``ezdlab.record``).  The
    ``dataclass`` decorator ``exec``s generated methods for every class at
    import, and ``dataclasses`` loads ``inspect`` and ``ast``: that was a
    quarter of the start-up of every CLI process."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = list(_generated_code(tree))
    assert not found, f"{path.name} generates code: {found}"


def _is_empty_container(node):
    """``{}``, ``[]``, ``dict()``, ``list()`` or ``set()``."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set") and not node.args and not node.keywords
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_cache(path):
    """Caches live on the object they describe (``Module._mon_cache``,
    ``_resolution``, ``_semidual``).  An empty container bound at module
    level would be a process-wide cache that keeps everything it has seen."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = [
        ast.unparse(target)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and node.value is not None and _is_empty_container(node.value)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    assert not bound, f"{path.name} binds an empty container at module level: {bound}"


def _referenced(tree):
    """The names a module refers to: names read, attributes, imported names,
    and the parts of dotted-identifier strings (the benchmark's tracer names
    the functions it wraps by string)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def _definitions(tree):
    """(line, name) of every top-level function and class, and of every
    non-dunder method of a top-level class as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.lineno, f"{node.name}.{item.name}"


def test_no_dead_definitions():
    """Every top-level function and class of ``src/ezdlab``, and every
    non-dunder method of its top-level classes, is named in ``src/``,
    ``tests/`` or ``perfbench/``; one that nothing names is dead.  A method
    counts as named when any attribute access or dotted string uses its
    name."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    referenced = set().union(*map(_referenced, trees.values()))
    dead = [
        f"{path.name}:{line} {name}"
        for path, tree in trees.items() if path.parent == SRC
        for line, name in _definitions(tree)
        if name.rpartition(".")[2] not in referenced
    ]
    assert not dead, f"definitions nothing names: {', '.join(dead)}"


def _id_calls(tree):
    """Line numbers of calls to the builtin ``id``."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_identity_keys(path):
    """No code calls ``id``: an ``id()`` key outlives its object and can be
    reused by a new one, so memos hold the objects and coordinates their
    entries are built from in their keys (``Instance.once``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _id_calls(tree)
    assert not lines, f"{path.name} calls id() on lines {lines}"


def _traced_names():
    """(layer, name) of every entry of ``TRACED`` in ``perfbench/tracer.py``,
    read from its syntax tree without importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    return [(layer, name) for layer, names in traced.items() for name in names]


def test_traced_names_resolve():
    """Every function, class and ``Class.method`` the tracer wraps resolves
    on its ``ezdlab`` module.  The tracer looks each one up when a traced
    worker starts, so a renamed or deleted one would fail every worker."""
    absent = object()
    missing = []
    for layer, name in _traced_names():
        obj = importlib.import_module(f"ezdlab.{layer}")
        for part in name.split("."):
            obj = getattr(obj, part, absent)
        if obj is absent:
            missing.append(f"{layer}.{name}")
    assert _traced_names()
    assert not missing, f"traced names ezdlab lacks: {', '.join(missing)}"
