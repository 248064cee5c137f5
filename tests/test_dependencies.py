"""The package imports nothing beyond the standard library and the runtime
dependencies that pyproject.toml declares, and those are numpy alone.

A second BLAS-linked library (scipy, say) brings its own thread pool, and on
a two-core host that pool slows the numpy BLAS calls that follow it; the
test keeps such an import from slipping into ``src/``.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "fracbeltrami").glob("*.py"))


def _declared() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.\-]+", dep).group(0).lower()
            for dep in project["dependencies"]}


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_dependencies_are_numpy_alone():
    assert _declared() == {"numpy"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_declared(path):
    allowed = set(sys.stdlib_module_names) | _declared() | {"fracbeltrami"}
    extra = _top_level_imports(path) - allowed
    assert not extra, (f"{path.name} imports {sorted(extra)}; runtime imports "
                       "are the standard library and pyproject.toml's "
                       "dependencies")
