"""Count the size of the library source, the progress measure of a change
meant to simplify it.

    python3 tools/src_size.py [--src SRC]

prints JSON with three counts over every .py file under SRC, by default the
src/ next to this directory:

    nonblank_lines   lines that hold more than whitespace
    settable_values  the parameters of every def (positional-only,
                     positional, keyword-only, *args and **kwargs) other
                     than self and cls, plus the annotated fields of
                     @dataclass classes; lambdas are not counted
    raises           raise statements
"""

import argparse
import ast
import json
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    # @dataclass, @dataclass(...) or @dataclasses.dataclass(...)
    return any(ast.unparse(dec).split("(")[0].endswith("dataclass")
               for dec in node.decorator_list)


def _settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            count += sum(p.arg not in ("self", "cls") for p in params)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


def count(src: Path) -> dict:
    totals = {"nonblank_lines": 0, "settable_values": 0, "raises": 0}
    for path in sorted(Path(src).rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        totals["nonblank_lines"] += sum(bool(line.strip())
                                        for line in text.splitlines())
        totals["settable_values"] += _settable_values(tree)
        totals["raises"] += sum(isinstance(n, ast.Raise)
                                for n in ast.walk(tree))
    return totals


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parents[1] / "src")
    args = ap.parse_args(argv)
    if not args.src.is_dir():
        ap.error(f"--src {args.src} is not a directory")
    print(json.dumps(count(args.src), indent=2))


if __name__ == "__main__":
    main()
