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


def test_the_packing_search_lists_no_view():
    # the packing engine reads only the region its searches explore, so
    # no call there may list a view's vertices
    path = Path(aqpath.__file__).parent / "packing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    listed = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "vertices"]
    assert listed == []
