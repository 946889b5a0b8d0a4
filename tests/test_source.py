"""Static checks over the library source."""

import ast
from pathlib import Path

import dmdlab

SRC = Path(dmdlab.__file__).resolve().parent


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
