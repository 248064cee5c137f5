"""Structural guards on the package source.

The log-time quadrature weights are applied in one place,
``LogQuadrature.moments``, which carries the overflow guard; every other
module hands it samples and exponents instead of contracting
``quad.weights`` itself.  Eigensolves stay behind ``spectral.decompose``,
which picks the cheapest route an operator allows: only ``spectral.py``
calls ``eigh``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "fracbeltrami").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "quadrature.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_quadrature_reads_the_weights(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "weights"]
    assert not lines, (f"{path.name} reads `.weights` at lines {lines}; "
                       "contract through LogQuadrature.moments instead")


def _eigh_lines(tree):
    """Lines that name ``eigh``: as an attribute or an imported name."""
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "eigh"]
    lines += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)
              and any(alias.name == "eigh" for alias in node.names)]
    return lines


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_spectral_calls_eigh(path):
    lines = _eigh_lines(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "spectral.py":
        assert lines, "spectral.py no longer names eigh; update this guard"
        return
    assert not lines, (f"{path.name} names `eigh` at lines {lines}; "
                       "decompose through spectral.decompose instead")


def test_eigh_guard_sees_both_spellings():
    for source in ("np.linalg.eigh(a)", "from numpy.linalg import eigh"):
        assert _eigh_lines(ast.parse(source)) == [1]
