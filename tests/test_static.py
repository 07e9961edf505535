"""Static checks over the library source."""

import ast
from pathlib import Path

import aqpath

PROCESS_MODULES = {"multiprocessing", "subprocess", "concurrent"}


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_library_starts_no_process():
    sources = sorted(Path(aqpath.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        for name in imported_modules(path):
            assert name.split(".")[0] not in PROCESS_MODULES, (path.name, name)


def listed_views(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "vertices"]


def parse_module(name: str):
    path = Path(aqpath.__file__).parent / name
    return ast.parse(path.read_text(encoding="utf-8"))


def test_the_packing_search_lists_no_view():
    # the packing engine reads only the region its searches explore, so
    # no call there may list a view's vertices
    assert listed_views(parse_module("packing.py")) == []


def test_the_constructor_runs_no_whole_cube_search():
    # every triple is built by its dispatch case or raises, so the
    # constructor needs nothing from the oracle but its size guard and
    # lists no view
    tree = parse_module("construct.py")
    from_oracle = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module in ("oracle", "aqpath.oracle")
                   for alias in node.names]
    assert from_oracle == ["ResourceGuard"]
    assert listed_views(tree) == []
