"""Structural guards on the package source.

The log-time quadrature weights are applied in one place,
``LogQuadrature.moments``, which carries the overflow guard; every other
module hands it samples and exponents instead of contracting
``quad.weights`` itself.  Eigensolves stay behind ``spectral.decompose``,
which picks the cheaper route an operator allows: only ``spectral.py``
calls ``eigh``, and at one site, the symmetry-block route's (an operator
without grid symmetries is the trivial group's one block), so a second
eigensolve path cannot come back unnoticed.  Likewise ``exterior.py``
names numpy's ``solve`` at one site, the symmetry blocks' solve in
``_solve_blocks``, which every exterior reader shares and which carries
the residual guard.  Discrete Fourier transforms
stay there too, where the closed form reads the symbol: only
``spectral.py`` names ``fft``; the Fourier modes themselves are
``spectral._axis_modes``.  Heat factors minus
one go through ``expm1``: the semigroup windows start at lam t ~ 1e-17,
where ``exp(x) - 1`` formed by subtraction keeps no digit.
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


def _naming_lines(tree, name):
    """Lines that name ``name``: as an attribute, an imported name or a
    component of an imported module's path."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == name:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            paths = [getattr(node, "module", None) or ""]
            paths += [alias.name for alias in node.names]
            if any(name in path.split(".") for path in paths):
                lines.append(node.lineno)
    return lines


def _assert_only_spectral_names(path, name, instead):
    lines = _naming_lines(ast.parse(path.read_text(), filename=str(path)), name)
    if path.name == "spectral.py":
        assert lines, f"spectral.py no longer names {name}; update this guard"
        return
    assert not lines, f"{path.name} names `{name}` at lines {lines}; {instead}"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_spectral_calls_eigh(path):
    _assert_only_spectral_names(path, "eigh",
                                "decompose through spectral.decompose instead")


def test_eigh_guard_sees_both_spellings():
    for source in ("np.linalg.eigh(a)", "from numpy.linalg import eigh"):
        assert _naming_lines(ast.parse(source), "eigh") == [1]


def test_spectral_calls_eigh_at_one_site():
    path = ROOT / "src" / "fracbeltrami" / "spectral.py"
    lines = _naming_lines(ast.parse(path.read_text(), filename=str(path)), "eigh")
    assert len(lines) == 1, (f"spectral.py names `eigh` at lines {lines}; "
                             "solve every route through _block_eigenpairs")


def test_eigh_guard_counts_a_second_call():
    source = "vals = np.linalg.eigh(a)\nif dense:\n    vals = np.linalg.eigh(b)"
    assert _naming_lines(ast.parse(source), "eigh") == [1, 3]


def test_exterior_calls_solve_at_one_site():
    path = ROOT / "src" / "fracbeltrami" / "exterior.py"
    lines = _naming_lines(ast.parse(path.read_text(), filename=str(path)),
                          "solve")
    assert len(lines) == 1, (f"exterior.py names `solve` at lines {lines}; "
                             "solve every exterior problem through _solve_blocks")


def test_solve_guard_counts_a_second_call():
    source = ("z = np.linalg.solve(block, rhs)\nif dense:\n"
              "    z = np.linalg.solve(energy, rhs)")
    assert _naming_lines(ast.parse(source), "solve") == [1, 3]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_spectral_names_fft(path):
    _assert_only_spectral_names(
        path, "fft", "take the Fourier modes from spectral._axis_modes instead")


def test_fft_guard_sees_both_spellings():
    for source in ("np.fft.fftn(a)", "from numpy.fft import fftn",
                   "from numpy import fft"):
        assert _naming_lines(ast.parse(source), "fft") == [1]


def _exp_minus_one_lines(tree):
    """Lines that spell ``exp(...) - 1``, through a module or a bare name."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.Call)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 1):
            continue
        func = node.left.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "exp":
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_exp_minus_one(path):
    lines = _exp_minus_one_lines(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, (f"{path.name} spells `exp(...) - 1` at lines {lines}; "
                       "use np.expm1 instead")


def test_exp_minus_one_guard_sees_both_spellings():
    for source in ("np.exp(-x) - 1.0", "exp(x) - 1"):
        assert _exp_minus_one_lines(ast.parse(source)) == [1]
