"""The benchmark's traced run finds the package's public functions.

``benchmarks/tracing.py`` wraps functions by module and name, so a renamed
public function would first show up as a failed benchmark run.  Here the
tracing module is imported as the benchmark imports it, and every name it
patches must resolve and be put back untouched.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def tracing():
    saved = list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path[:] = saved


def test_traced_functions_resolve(tracing):
    for name, module, attr in tracing.TRACED:
        assert callable(getattr(module, attr, None)), (
            f"span {name}: {module.__name__}.{attr} does not exist")


def test_install_and_uninstall_restore_every_attribute(tracing):
    before = {module: dict(vars(module)) for module in tracing._MODULES}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _, module, attr in tracing.TRACED:
            assert getattr(module, attr) is not before[module][attr]
        assert tracer._patches
    finally:
        tracer.uninstall()
    for module, attrs in before.items():
        after = vars(module)
        assert after.keys() == attrs.keys()
        for attr, value in attrs.items():
            assert after[attr] is value, f"{module.__name__}.{attr} changed"
