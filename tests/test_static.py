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
