"""numpy is the only runtime dependency: every import in the package is
relative, numpy, or part of the standard library. And every iqner name that
the bench imports or traces exists."""

import ast
import importlib
import importlib.util
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


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``from iqner... import name`` in the bench."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "iqner":
                found += [(node.module, alias.name) for alias in node.names]
    return found


def _traced_targets() -> list[tuple[str, str]]:
    """The (module, attribute) values of ``TARGETS`` in bench/spans.py, read
    without running the file."""
    tree = ast.parse((BENCH / "spans.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    return list(ast.literal_eval(value).values())


def test_every_name_the_bench_imports_or_traces_exists_in_iqner():
    """The Tier-1 suite does not run the bench, so this catches a rename in
    ``src/iqner`` that would break its imports or its tracer."""
    imports, traced = _bench_imports(), _traced_targets()
    assert imports and traced
    missing = []
    for module_name, attribute in imports + traced:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):  # "Class.method" names a method
            owner = getattr(owner, part, None)
            if owner is None and part == attribute:  # `from iqner import cli`, a submodule
                owner = importlib.util.find_spec(f"{module_name}.{part}")
        if owner is None:
            missing.append(f"{module_name}.{attribute}")
    assert not missing, f"the bench uses names iqner lacks: {missing}"
