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
where ``exp(x) - 1`` formed by subtraction keeps no digit.  Metric
sampling (``geometry.py``, ``recovery.py``) names no ``einsum``, ``inv`` or
``det``: their summation order is not one the grid symmetries only permute
within commutative pairs, and the 1 x 1 and 2 x 2 closed forms that replace
them are what keeps a symmetric sample symmetric to the bit, so that
``spectral._symmetry_blocks`` can compare exactly.  A decomposition holds
its symmetry blocks' eigenvectors (``SymmetryBlock.vectors``), not a
node-space basis, and those blocks are the one storage every basis read
goes through: only ``spectral.py`` reads them, where each reader of
``SpectralDecomposition`` checks that the nodes it reads are held, and
the exterior layer's ``_omega_blocks``, which solves Omega in the blocks'
own coordinates.  Deletions leave nothing
behind: every name a module lists in ``__all__`` is defined there, and
every name it imports is read there.
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


# where a block's held eigenvectors may be read: the module that stores them,
# and the exterior layer's Omega blocks, which read H_k off them in the
# blocks' own coordinates; every other reader goes through
# SpectralDecomposition, whose readers check the nodes they read
VECTORS_READERS = {"spectral.py": None, "exterior.py": {"_omega_blocks"}}


def _vectors_reads(tree):
    """(line, enclosing top-level definition) of every ``.vectors`` read."""
    return [(node.lineno, getattr(top, "name", None))
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "vectors"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_block_vectors_are_read_only_where_they_are_stored(path):
    reads = _vectors_reads(ast.parse(path.read_text(), filename=str(path)))
    allowed = VECTORS_READERS.get(path.name, set())
    if allowed is None:
        assert reads, f"{path.name} no longer reads `.vectors`; update this guard"
        return
    stray = [(line, owner) for line, owner in reads if owner not in allowed]
    assert not stray, (f"{path.name} reads `SymmetryBlock.vectors` at {stray}; "
                       "read the basis through SpectralDecomposition.rows, "
                       "project or synthesize instead")


def test_block_vectors_guard_sees_a_stray_read():
    source = ("def _omega_blocks(dec):\n"
              "    return [b.vectors for b in dec.symmetry.blocks]\n"
              "def _trace_sampler(dec, x):\n"
              "    return dec.symmetry.blocks[0].vectors[x]\n")
    assert _vectors_reads(ast.parse(source)) == [
        (2, "_omega_blocks"), (4, "_trace_sampler")]


SAMPLING = [ROOT / "src" / "fracbeltrami" / name
            for name in ("geometry.py", "recovery.py")]


@pytest.mark.parametrize("name", ["einsum", "inv", "det"])
@pytest.mark.parametrize("path", SAMPLING, ids=lambda p: p.name)
def test_sampling_writes_its_small_matrix_algebra_out(path, name):
    lines = _naming_lines(ast.parse(path.read_text(), filename=str(path)), name)
    assert not lines, (f"{path.name} names `{name}` at lines {lines}; write "
                       "the 1 x 1 / 2 x 2 closed form as sums in index order, "
                       "which keep the sampled metric bitwise symmetric")


def test_sampling_guard_sees_each_spelling():
    for source, name in (("np.einsum('mji,mjk->mik', a, b)", "einsum"),
                         ("np.linalg.inv(g)", "inv"),
                         ("from numpy.linalg import det", "det")):
        assert _naming_lines(ast.parse(source), name) == [1]


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


def _loose_names(tree):
    """(names ``__all__`` lists without a top-level definition, imported
    names never read); ``__future__`` imports are directives, not names."""
    defined, exported, imported = set(), [], {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = [elt.value for elt in node.value.elts]
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    defined |= set(imported)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    undefined = [name for name in exported if name not in defined]
    unused = sorted(name for name in imported
                    if name not in read and name not in exported)
    return undefined, unused


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_loose_names(path):
    undefined, unused = _loose_names(ast.parse(path.read_text(),
                                               filename=str(path)))
    assert not undefined, (f"{path.name} lists {undefined} in __all__ but "
                           "defines none of them")
    assert not unused, (f"{path.name} imports {unused} and never reads them; "
                        "drop the imports")


def test_loose_name_guard_sees_both_leftovers():
    source = ("from __future__ import annotations\n"
              "import math\nfrom .spectral import decompose, heat_kernel\n"
              "__all__ = ['run', 'gone']\n"
              "def run(op):\n    return decompose(op)\n")
    assert _loose_names(ast.parse(source)) == (["gone"], ["heat_kernel", "math"])
