"""numpy is the only runtime dependency: every import in the package is
relative, numpy, or part of the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "iqner").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_relative_numpy_or_stdlib(path):
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [name for name in names
                    if name.split(".")[0] != "numpy"
                    and name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, f"{path.name} imports {foreign}"
