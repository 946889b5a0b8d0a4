"""Static checks over the library source."""

import ast
import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import dmdlab

SRC = Path(dmdlab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
TOOLS = ROOT / "tools"


def unused_imports(path: Path) -> list:
    """Names a module imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(SRC)}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # an __init__.py imports names to re-export them
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 5
    assert [u for path in modules for u in unused_imports(path)] == []


def third_party_imports() -> set:
    """Top-level names of the absolute imports anywhere in the library,
    inside functions too, less the standard library and dmdlab itself."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"dmdlab"}


def test_declared_dependencies_match_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group()
                for dep in project["dependencies"]}
    assert third_party_imports() == declared


def private_definitions(path: Path) -> dict:
    """Module-level functions and constants a module keeps private (a leading
    underscore, not a dunder), by name, with their line numbers."""
    names = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def names_read(path: Path) -> set:
    """Every name a module loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_unread_private_definitions():
    # a private helper or constant that no module in src/ reads is dead code
    modules = sorted(SRC.rglob("*.py"))
    read = set().union(*map(names_read, modules))
    assert sum(len(private_definitions(p)) for p in modules) > 10
    dead = [f"{path.relative_to(SRC)}:{line} {name}" for path in modules
            for name, line in sorted(private_definitions(path).items())
            if name not in read]
    assert dead == []


def library_calls(path: Path):
    """(call node, callee) for each call in a script to a name it imports
    from dmdlab, except calls that unpack * or ** arguments."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "dmdlab"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(module,
                                                               alias.name)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        yield node, imported[node.func.id]


def test_demo_calls_bind_to_the_library():
    # the demos run for tens of seconds each, so no test runs them; this
    # catches a call that a changed signature no longer accepts
    calls = [(path, *call) for path in sorted(DEMOS.glob("*.py"))
             for call in library_calls(path)]
    assert len({path for path, *_ in calls}) == 5
    unbound = []
    for path, node, obj in calls:
        try:
            inspect.signature(obj).bind(*[None] * len(node.args),
                                        **{k.arg: None for k in node.keywords})
        except TypeError as e:
            unbound.append(f"{path.name}:{node.lineno} {node.func.id}: {e}")
    assert unbound == []


def test_bench_traced_functions_resolve():
    # bench/run.py --trace 1 patches each (module, name) of bench/spans.py's
    # TRACED by name, so a renamed or deleted function breaks trace mode
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"{module}.{name}" for module, name in spans.TRACED
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert missing == []


# 17 non-blank lines; settable values: Point's 2 fields, move's dx and dy,
# make's args and kwargs and free's 5 parameters, but not Plain's field,
# self, cls or the lambda's; 3 raise statements
SIZED_MODULE = """from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    x: float
    y: float = 0.0
    NOTE = "not a field"


class Plain:
    z: int

    def move(self, dx, *, dy=0.0):
        if dx < 0:
            raise ValueError("dx")
        return lambda a, b: a + b

    @classmethod
    def make(cls, *args, **kwargs):
        raise NotImplementedError


def free(a, /, b, *rest, c, **opts):
    raise RuntimeError
"""


def test_src_size_counts(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(SIZED_MODULE)
    out = subprocess.run([sys.executable, str(TOOLS / "src_size.py"),
                          "--src", str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == {"nonblank_lines": 17, "settable_values": 11,
                               "raises": 3}
