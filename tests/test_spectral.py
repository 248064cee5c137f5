"""Laplace-Beltrami assembly, eigencalculus, heat semigroup, fractional powers.

The dense decomposition makes most oracles exact: circulant eigenvalues on
the identity metric are 2(1 - cos(2 pi k / N))/h^2 per axis, the flat-torus
heat kernel is a wrapped Gaussian, and both fractional routes must agree at
quadrature accuracy.
"""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracbeltrami.geometry import (
    AnisotropicBump,
    ConformalBump,
    ConformalRescale,
    IdentityMetric,
    build_grid,
    make_metric,
    weighted_inner,
    weighted_norm,
)
from fracbeltrami import extension, exterior, recovery
from fracbeltrami.exterior import RegionSpec, dtn_matrix
from fracbeltrami.quadrature import LogQuadrature
from fracbeltrami.recovery import PullbackProfile, RadialSquash
from fracbeltrami import spectral
from fracbeltrami.spectral import (
    DecompositionSizeError,
    DiscreteLaplaceBeltrami,
    SpectralDecomposition,
    SymmetryBlock,
    assemble_laplacian,
    decompose,
    energy_form,
    frac_apply_balakrishnan,
    frac_apply_spectral,
    frac_energy_matrix,
    heat_apply,
    heat_kernel,
    jump_kernel,
)

BUMP_1D = ConformalBump(1, beta=0.6, sigma=0.5, center=(2.0,), r0=1.5)
BUMP_2D = ConformalBump(2, beta=0.6, sigma=0.5, center=(2.0, 2.0), r0=1.5)
ANISO_2D = AnisotropicBump(2, beta=0.5, sigma=0.5, center=(2.0, 2.0), r0=1.5)
PULLBACK_2D = PullbackProfile(base=BUMP_2D, squash=RadialSquash(
    dim=2, center=(2.0, 2.0), radius=1.5, strength=0.15))
# off the grid's symmetries: centred off both mirror axes and the diagonal
ANISO_OFF_CENTRE_2D = dataclasses.replace(ANISO_2D, center=(1.7, 2.3))
# the transposition alone: a bump and a squash centred on the diagonal,
# off the mirror axes; the cross term is live
TAU_PULLBACK_2D = PullbackProfile(
    base=dataclasses.replace(BUMP_2D, center=(1.75, 1.75)),
    squash=RadialSquash(dim=2, center=(1.75, 1.75), radius=1.5, strength=0.15))


@pytest.fixture(scope="module")
def dec_1d_identity():
    grid = build_grid(1, 4.0, 16)
    return decompose(assemble_laplacian(make_metric(grid, IdentityMetric(1))))


@pytest.fixture(scope="module")
def dec_1d_bump():
    grid = build_grid(1, 4.0, 16)
    return decompose(assemble_laplacian(make_metric(grid, BUMP_1D)))


@pytest.fixture(scope="module")
def dec_2d_pullback():
    grid = build_grid(2, 4.0, 16)
    return decompose(assemble_laplacian(make_metric(grid, PULLBACK_2D)))


@pytest.fixture(scope="module")
def dec_2d_aniso():
    grid = build_grid(2, 4.0, 12)
    return decompose(assemble_laplacian(make_metric(grid, ANISO_2D)))


def _every_row(dec):
    """The whole (M, M) basis, the rows at every node."""
    return dec.rows(np.arange(dec.node_count))


# ----------------------------------------------------------------------
# assembly


def _dense_operator(op):
    """Dense A = W^{-1} B (M, M), read off the form."""
    return op.form_matrix / op.measure.node_weights[:, None]


def test_unit_stencil_row():
    grid = build_grid(1, 4.0, 4)  # h = 1
    op = assemble_laplacian(make_metric(grid, IdentityMetric(1)))
    np.testing.assert_allclose(_dense_operator(op)[0], [2.0, -1.0, 0.0, -1.0],
                               atol=1e-14)


def test_circulant_eigenvalues_n4():
    grid = build_grid(1, 4.0, 4)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(1))))
    np.testing.assert_allclose(dec.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-13)


def test_circulant_eigenvalues_closed_form_1d():
    N, L = 16, 4.0
    grid = build_grid(1, L, N)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(1))))
    h = L / N
    exact = np.sort(2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(N) / N)) / h**2)
    np.testing.assert_allclose(dec.eigenvalues, exact, atol=1e-11)


def test_circulant_eigenvalues_closed_form_2d():
    N, L = 8, 4.0
    grid = build_grid(2, L, N)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(2))))
    h = L / N
    sym = 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(N) / N)) / h**2
    exact = np.sort(np.add.outer(sym, sym).ravel())
    np.testing.assert_allclose(dec.eigenvalues, exact, atol=1e-11)


@pytest.mark.parametrize(
    "dim, profile",
    [(1, IdentityMetric(1)), (1, BUMP_1D), (2, BUMP_2D), (2, ANISO_2D)],
)
def test_constants_are_harmonic(dim, profile):
    grid = build_grid(dim, 4.0, 8 if dim == 2 else 16)
    op = assemble_laplacian(make_metric(grid, profile))
    res = op.apply(np.ones(grid.node_count))
    np.testing.assert_allclose(res, 0.0, atol=1e-13)


def test_weighted_self_adjointness():
    grid = build_grid(2, 4.0, 12)
    met = make_metric(grid, BUMP_2D)
    op = assemble_laplacian(met)
    w = met.measure()
    rng = np.random.default_rng(2)
    scale = np.abs(_dense_operator(op)).sum(axis=1).max()
    for _ in range(100):
        u = rng.standard_normal(grid.node_count)
        v = rng.standard_normal(grid.node_count)
        defect = abs(
            weighted_inner(op.apply(u), v, w) - weighted_inner(u, op.apply(v), w)
        )
        assert defect < 1e-12 * scale * weighted_norm(u, w) * weighted_norm(v, w)


def test_energy_nonnegative():
    grid = build_grid(2, 4.0, 12)
    met = make_metric(grid, ANISO_2D)
    op = assemble_laplacian(met)
    rng = np.random.default_rng(8)
    for _ in range(30):
        u = rng.standard_normal(grid.node_count)
        assert weighted_inner(op.apply(u), u, met.measure()) >= -1e-11


@pytest.mark.parametrize("dim, profile", [
    (1, BUMP_1D),
    (2, BUMP_2D),
    (2, PULLBACK_2D),
], ids=["bump-1d", "conformal-2d", "pullback-2d"])
def test_stencil_product_matches_dense_form(dim, profile):
    grid = build_grid(dim, 4.0, 16 if dim == 1 else 12)
    op = assemble_laplacian(make_metric(grid, profile))
    if isinstance(profile, PullbackProfile):  # the cross terms are live
        assert np.abs(op.metric.inverse_tensor[:, 0, 1]).max() > 0.1
    block = np.random.default_rng(9).standard_normal((grid.node_count, 5))
    dense = op.form_matrix @ block
    tol = 1e-14 * np.abs(dense).max()
    np.testing.assert_allclose(op.apply_form(block), dense, rtol=0, atol=tol)
    np.testing.assert_allclose(op.apply_form(block[:, 0]), dense[:, 0],
                               rtol=0, atol=tol)
    dense_a = _dense_operator(op) @ block
    tol_a = 1e-14 * np.abs(dense_a).max()
    np.testing.assert_allclose(op.apply(block), dense_a, rtol=0, atol=tol_a)
    np.testing.assert_allclose(op.apply(block[:, 0]), dense_a[:, 0],
                               rtol=0, atol=tol_a)
    assert np.array_equal(op.form_diagonal(), np.diag(op.form_matrix))
    # an oracle independent of the table: the averaged energy summed node by
    # node, with D+ and D- written by index arithmetic
    u, v = block[:, 1], block[:, 2]
    energy = u @ _averaged_energy_form(op.metric) @ v
    for got in (u @ op.form_matrix @ v, u @ op.apply_form(v)):
        assert abs(got - energy) <= 1e-13 * abs(energy)


@pytest.mark.parametrize("dim, profile", [
    (1, BUMP_1D),
    (2, BUMP_2D),
    (2, PULLBACK_2D),
    (2, ANISO_2D),
], ids=["bump-1d", "conformal-2d", "pullback-2d", "aniso-2d"])
def test_apply_form_is_the_same_in_either_layout(monkeypatch, dim, profile):
    # the extension solve passes the transposed view of a level-major
    # (levels, M) block; the product is bitwise that of the C-contiguous
    # (M, levels) block, keeps the operand's layout, and shifts by slices,
    # never by np.roll copies
    grid = build_grid(dim, 4.0, 16 if dim == 1 else 12)
    op = assemble_laplacian(make_metric(grid, profile))
    levels = np.random.default_rng(10).standard_normal((7, grid.node_count))
    block = np.ascontiguousarray(levels.T)
    assert not levels.T.flags.c_contiguous

    def no_roll(*args, **kwargs):
        raise AssertionError("apply_form copied a shifted operand")

    monkeypatch.setattr(np, "roll", no_roll)
    got = op.apply_form(block)
    transposed = op.apply_form(levels.T)
    monkeypatch.undo()
    assert np.array_equal(transposed, got)
    assert transposed.T.flags.c_contiguous and got.flags.c_contiguous
    dense = op.form_matrix @ block
    assert np.abs(got - dense).max() <= 1e-14 * np.abs(dense).max()


def _averaged_energy_form(metric):
    """The matrix of the averaged energy

        u.B.v = 2^{-dim} sum_sigma sum_i sum_jk C_jk,i (D^sigma_j u)_i (D^sigma_k v)_i ,

    C_jk = h^{dim-2} sqrt|g| g^{jk} and sigma a forward (s = 1) or backward
    (s = -1) difference per axis, (D^s_j u)_i = s (u_{i + s e_j} - u_i), summed
    node by node: each term adds its four products to B."""
    grid = metric.grid
    m, n, dim, h = grid.node_count, grid.points_per_side, grid.dim, grid.spacing
    c = h ** (dim - 2) * metric.sqrt_det[:, None, None] * metric.inverse_tensor
    coords = np.indices(grid.shape).reshape(dim, -1)
    node = np.arange(m)

    def neighbour(j, s):  # flat index of node i + s e_j
        shifted = coords.copy()
        shifted[j] = (shifted[j] + s) % n
        return np.ravel_multi_index(tuple(shifted), grid.shape)

    form = np.zeros((m, m))
    for sigma in itertools.product((1, -1), repeat=dim):
        for j, k in itertools.product(range(dim), repeat=2):
            term = sigma[j] * sigma[k] * c[:, j, k] / 2 ** dim
            nj, nk = neighbour(j, sigma[j]), neighbour(k, sigma[k])
            for rows, cols, sign in ((nj, nk, 1.0), (nj, node, -1.0),
                                     (node, nk, -1.0), (node, node, 1.0)):
                np.add.at(form, (rows, cols), sign * term)
    return form


@pytest.mark.parametrize("n", [4, 6, 10, 12, 14, 16, 22, 26])
@pytest.mark.parametrize("dim, profile", [
    (1, BUMP_1D),
    (2, ANISO_2D),
    (2, PULLBACK_2D),
], ids=["bump-1d", "aniso-2d", "pullback-2d"])
def test_form_matrix_is_read_off_the_stencil(monkeypatch, dim, profile, n):
    # B is read off the table, not off products with apply_form; it equals
    # the averaged energy's matrix to roundoff, column j of it is B e_j, and
    # the table lists every entry and its mirror as one value, so B is
    # symmetric to the bit
    grid = build_grid(dim, 4.0, n)
    op = assemble_laplacian(make_metric(grid, profile))
    products = []
    apply_form = op.apply_form
    monkeypatch.setattr(op, "apply_form",
                        lambda X: products.append(X.shape) or apply_form(X))
    form = op.form_matrix
    monkeypatch.undo()
    assert products == []
    oracle = _averaged_energy_form(op.metric)
    assert np.abs(form - oracle).max() <= 1e-15 * np.abs(oracle).max()
    columns = op.apply_form(np.eye(grid.node_count))
    assert np.abs(form - columns).max() <= 1e-15 * np.abs(columns).max()
    assert np.array_equal(form != 0, columns != 0)
    assert np.array_equal(form, form.T)
    # a diagonal metric (C_01 = 0) keeps the 5-point stencil, a cross term
    # fills the 9 points
    assert len(op.offsets) == {1: 3, 2: 9 if profile is PULLBACK_2D else 5}[dim]


# ----------------------------------------------------------------------
# decomposition


def test_decompose_invariants(dec_2d_aniso):
    dec = dec_2d_aniso
    assert dec.eigenvalues[0] == 0.0  # snapped zero mode
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    # phi_0 constant
    basis = _every_row(dec)
    phi0 = basis[:, 0]
    assert np.abs(phi0 - phi0.mean()).max() < 1e-10
    # weighted orthonormality
    gram = basis.T @ (basis * dec.measure.node_weights[:, None])
    np.testing.assert_allclose(gram, np.eye(dec.node_count), atol=1e-10)
    # reconstruction A = Phi Lambda Phi^T W
    rebuilt = (basis * dec.eigenvalues) @ (
        basis.T * dec.measure.node_weights[None, :]
    )
    dense = _dense_operator(dec.operator)
    np.testing.assert_allclose(rebuilt, dense, atol=1e-10 * np.abs(dense).max())


def test_decomposition_stores_geometry_once(dec_2d_aniso):
    # grid, metric and measure are read through the operator, so a
    # decomposition rebuilt from its fields carries the same geometry
    dec = dec_2d_aniso
    assert [f.name for f in dataclasses.fields(dec.operator)] == [
        "offsets", "stencil", "metric"]
    assert [f.name for f in dataclasses.fields(dec)] == [
        "eigenvalues", "operator", "generators", "blocks", "nodes"]
    assert dec.nodes is None  # the basis holds every node
    assert dec.grid is dec.operator.metric.grid
    assert dec.metric is dec.operator.metric
    grid = dec.grid
    expected = dec.metric.sqrt_det * grid.spacing ** grid.dim
    assert np.array_equal(dec.measure.node_weights, expected)
    rebuilt = type(dec)(**{f.name: getattr(dec, f.name)
                           for f in dataclasses.fields(dec)})
    assert rebuilt.grid is dec.grid
    assert np.array_equal(rebuilt.measure.node_weights, expected)
    assert rebuilt.blocks is dec.blocks  # the block labels travel too


def test_trace_identity(dec_1d_bump):
    # sum of eigenvalues = trace of A (similarity transforms preserve it)
    assert dec_1d_bump.eigenvalues.sum() == pytest.approx(
        np.trace(_dense_operator(dec_1d_bump.operator)), rel=1e-12
    )


@dataclasses.dataclass(frozen=True)
class ConstantProfile:
    """The same metric tensor at every node."""

    tensor: tuple

    @property
    def dim(self) -> int:
        return len(self.tensor)

    def sample(self, displace):
        g = np.asarray(self.tensor, float)
        m = len(displace((0.0,) * self.dim))
        return np.broadcast_to(g, (m,) + g.shape).copy()


def _pinned_dense(op):
    """The dense eigenpairs, formed out of place as an oracle.

    The eigensolve sees S = W^{-1/2} B W^{-1/2}, symmetric to the bit, so
    S = 0.5 (S + S') and its eigenpairs equal those of the trivial symmetry
    block, one eigensolve of size M, to the last bit (where S holds no -0.0
    entry), with the zero snap applied here.
    """
    root_w = np.sqrt(op.measure.node_weights)
    sym = op.form_matrix / np.outer(root_w, root_w)
    evals, evecs = np.linalg.eigh(0.5 * (sym + sym.T))
    lam_max = max(float(evals[-1]), 1.0)
    evals = np.where(evals < 1e-12 * lam_max, 0.0, evals)
    return evals, evecs / root_w[:, None]


def _counted_decompose(op):
    """decompose(op) and the sizes of the eigensolves it ran."""
    eigh = np.linalg.eigh
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigh",
                      lambda a: calls.append(a.shape[0]) or eigh(a))
        dec = decompose(op)
    return dec, calls


def _transposition_block_sizes(n):
    """Sizes of the even and odd transposition blocks of an N x N grid."""
    return sorted([n * (n + 1) // 2, n * (n - 1) // 2])


def _mirror_block_sizes(n):
    """Sizes of the even and odd blocks of one mirror of an N x N grid."""
    return sorted([n * (n + 2) // 2, n * (n - 2) // 2])


def _mirror_pair_block_sizes(n):
    """Sizes of the four blocks of both mirrors of an N x N grid: each
    mirror's even and odd subspaces of one axis have N/2 + 1 and N/2 - 1
    dimensions, and the blocks are their products."""
    even, odd = n // 2 + 1, n // 2 - 1
    return sorted([even * even, even * odd, odd * even, odd * odd])


def _dihedral_block_sizes(n):
    """Sizes of the eigensolves of a D4-invariant operator on an N x N grid,
    ascending: the blocks of D4's four 1-d representations and the block of
    its 2-d one, solved once for both of its sets of modes.  An empty block
    ((N^2 - 6N + 8)/8 = 0 at N = 4) runs no eigensolve."""
    sizes = [(n * n + 6 * n + 8) // 8, (n * n - 6 * n + 8) // 8,
             (n * n + 2 * n) // 8, (n * n - 2 * n) // 8, (n * n - 4) // 4]
    assert sum(sizes) + sizes[-1] == n * n  # the 2-d representation twice
    return sorted(size for size in sizes if size)


@pytest.mark.parametrize("dim, n, profile, sizes", [
    (1, 16, BUMP_1D, None),
    (2, 12, ANISO_2D, _mirror_pair_block_sizes),
    (2, 12, ANISO_OFF_CENTRE_2D, None),
    (2, 12, dataclasses.replace(BUMP_2D, center=(2.0, 1.5)),
     _mirror_block_sizes),
    (2, 16, BUMP_2D, _dihedral_block_sizes),
    (2, 4, BUMP_2D, _dihedral_block_sizes),
    (2, 6, BUMP_2D, _dihedral_block_sizes),
    (2, 10, BUMP_2D, _dihedral_block_sizes),
    (2, 16, PULLBACK_2D, _dihedral_block_sizes),
    (2, 12, TAU_PULLBACK_2D, _transposition_block_sizes),
    (2, 12, ConstantProfile(((1.3, 0.4), (0.4, 0.9))), None),
    (2, 12, ConstantProfile(((1.2, 0.3), (0.3, 1.2))),
     _transposition_block_sizes),
], ids=["bump-1d", "aniso-2d", "aniso-off-centre-2d", "conformal-off-diagonal",
        "conformal-2d", "conformal-2d-4", "conformal-2d-6", "conformal-2d-10",
        "pullback-2d", "pullback-diagonal-2d", "constant-cross-2d",
        "constant-cross-symmetric-2d"])
def test_decompose_pins_dense_reference(dim, n, profile, sizes):
    # an operator without grid symmetries (1-d, an anisotropic bump centred
    # off every mirror axis and off the diagonal, a constant metric with a
    # cross term and unequal diagonal, which no tensor product of per-axis
    # Fourier modes diagonalises) takes the trivial group's one block, an
    # eigensolve of size M, pinned to the last bit.  An
    # operator with grid symmetries takes one eigensolve per symmetry block,
    # and its eigenpairs match the dense ones to roundoff (eigenspaces are
    # degenerate, so the bases differ): the centred conformal bump and its
    # pullback by a centred radial squash hold both mirrors and the
    # transposition (D4; N = 4 has an empty block, N = 6 and 10 are 2 mod 4),
    # the centred axis-aligned anisotropic bump both mirrors, a bump centred
    # on one mirror axis only that mirror, and the pullback about a point of
    # the diagonal and a constant metric with a cross term and equal
    # diagonal only the transposition
    grid = build_grid(dim, 4.0, n)
    op = assemble_laplacian(make_metric(grid, profile))
    if profile is BUMP_2D:
        # a 2-d conformal metric has the same stencil at every node (here
        # to the bit) but not the same weight: it must not take the
        # closed-form route
        assert op.offsets == ((0, 0), (-1, 0), (0, -1), (0, 1), (1, 0))
        assert np.all(op.stencil == op.stencil[:, :1])
        assert np.ptp(op.measure.node_weights) > 0.0
    dec, calls = _counted_decompose(op)
    evals, basis = _pinned_dense(op)
    if sizes is None:
        assert calls == [grid.node_count]
        assert np.array_equal(dec.eigenvalues, evals)
        assert np.array_equal(_every_row(dec), basis)
        return
    assert sorted(calls) == sizes(n)
    lam_max = float(evals[-1])
    w = op.measure.node_weights
    assert dec.eigenvalues[0] == 0.0
    assert np.abs(dec.eigenvalues - evals).max() <= 1e-13 * lam_max
    got = _every_row(dec)
    gram = got.T @ (got * w[:, None])
    assert np.abs(gram - np.eye(grid.node_count)).max() <= 1e-13
    residual = op.apply(got) - got * dec.eigenvalues
    assert np.sqrt(w @ residual ** 2).max() <= 1e-13 * lam_max
    reference = _eigh_reference(op)
    u = np.random.default_rng(4).standard_normal(grid.node_count)
    for alpha in (0.25, 0.5, 0.75):
        got = frac_apply_spectral(dec, alpha, u)
        want = frac_apply_spectral(reference, alpha, u)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _form_miss(b, p):
    """How far B misses the node permutation p, relative to max|B|."""
    return np.abs(b[np.ix_(p, p)] - b).max() / np.abs(b).max()


@settings(max_examples=12, deadline=None)
@given(beta=st.floats(0.2, 0.8), sigma=st.floats(0.2, 0.5),
       strength=st.floats(0.05, 0.3), pull_in=st.booleans(),
       radius=st.floats(0.5, 1.5), n=st.sampled_from([12, 16, 24]))
def test_radial_pullback_form_holds_the_dihedral_group(beta, sigma, strength,
                                                       pull_in, radius, n):
    # the averaged stencil maps a mirror-invariant C (with C_01 -> -C_01)
    # onto a mirror-invariant B, so the pullback of a centred radial bump by
    # a centred radial squash has a B that holds D4 exactly; one entry of B
    # moved by one unit of roundoff breaks the mirrors
    grid = build_grid(2, 4.0, n)
    op = assemble_laplacian(make_metric(grid, PullbackProfile(
        base=ConformalBump(2, beta=beta, sigma=sigma, center=(2.0, 2.0),
                           r0=1.5),
        squash=RadialSquash(dim=2, center=(2.0, 2.0), radius=radius,
                            strength=-strength if pull_in else strength))))
    assert len(op.offsets) == 9  # the cross term is live
    symmetries = spectral._grid_symmetries(n)
    b = op.form_matrix
    assert all(_form_miss(b, p) == 0.0 for p in symmetries)
    # B_ii at node (1, 2), which no grid symmetry fixes
    stencil = op.stencil.copy()
    stencil[0, n + 2] = np.nextafter(stencil[0, n + 2], np.inf)
    moved = dataclasses.replace(op, stencil=stencil)
    assert all(_form_miss(moved.form_matrix, p) > 0.0 for p in symmetries)
    # the moved operator keeps the trivial group alone: one block of M
    [(generators, signs, copies)] = spectral._symmetry_blocks(moved)
    assert (generators, signs) == ([], ())
    assert len(copies) == 1 and np.array_equal(copies[0], np.arange(n * n))


def _offset_image(offset, which):
    """The stencil offset that grid symmetry ``which`` (0: sigma0, 1: sigma1,
    2: tau) maps ``offset`` to."""
    o0, o1 = offset
    return ((-o0, o1), (o0, -o1), (o1, o0))[which]


@settings(max_examples=20, deadline=None)
@given(beta=st.floats(0.2, 0.8), sigma=st.floats(0.2, 0.5),
       radius=st.floats(0.5, 1.5), strength=st.floats(0.05, 0.3),
       pull_in=st.booleans(), n=st.sampled_from([12, 16, 24, 32]))
def test_centred_pullback_is_sampled_bitwise_dihedral(beta, sigma, radius,
                                                      strength, pull_in, n):
    # over the strongly squashed range, the sampled tensor, w and the
    # stencil table map onto themselves under sigma0, sigma1 and tau to the
    # bit (C_01 -> -C_01 across a mirror), so the blocks need no tolerance
    grid = build_grid(2, 4.0, n)
    metric = make_metric(grid, PullbackProfile(
        base=ConformalBump(2, beta=beta, sigma=sigma, center=(2.0, 2.0),
                           r0=1.5),
        squash=RadialSquash(dim=2, center=(2.0, 2.0), radius=radius,
                            strength=-strength if pull_in else strength)))
    op = assemble_laplacian(metric)
    w = op.measure.node_weights
    table = dict(zip(op.offsets, op.stencil))
    reflections = [np.diag([-1.0, 1.0]), np.diag([1.0, -1.0]),
                   np.array([[0.0, 1.0], [1.0, 0.0]])]
    for which, (p, r) in enumerate(zip(spectral._grid_symmetries(n),
                                       reflections)):
        assert np.array_equal(metric.tensor[p], r @ metric.tensor @ r)
        assert np.array_equal(w[p], w)
        for offset, coefficients in table.items():
            assert np.array_equal(table[_offset_image(offset, which)][p],
                                  coefficients)


# three draws of the strongly squashed range whose w, sampled from node
# coordinates, misses the mirrors by 8 to 11 units of roundoff; without the
# five dihedral blocks, tau's two at N = 96 have 4656 rows each, above the cap
SQUASHED_DRAWS = [(0.72, 0.27, 0.64, -0.229), (0.65, 0.46, 0.64, -0.255),
                  (0.33, 0.37, 0.51, 0.228)]


@pytest.mark.parametrize("n", [96, 128])
@pytest.mark.parametrize("beta, sigma, radius, strength", SQUASHED_DRAWS)
def test_squashed_draws_take_the_dihedral_blocks(beta, sigma, radius,
                                                 strength, n):
    grid = build_grid(2, 4.0, n)
    op = assemble_laplacian(make_metric(grid, PullbackProfile(
        base=ConformalBump(2, beta=beta, sigma=sigma, center=(2.0, 2.0),
                           r0=1.5),
        squash=RadialSquash(dim=2, center=(2.0, 2.0), radius=radius,
                            strength=strength))))
    blocks = spectral._symmetry_blocks(op)
    assert [len(generators) for generators, _, _ in blocks] == [3, 3, 3, 3, 2]


def _perturbed(op, field, nodes):
    """``op`` moved off symmetry by one unit of roundoff at the grid nodes
    ``nodes``: B's diagonal entry there (``field="coefficients"``) or the
    volume density that scales the weight (``field="weights"``).  The
    operator then misses every grid symmetry that does not map ``nodes``
    onto themselves."""
    n = op.grid.points_per_side
    index = [i * n + j for i, j in nodes]
    if field == "coefficients":
        stencil = op.stencil.copy()
        stencil[0, index] = np.nextafter(stencil[0, index], np.inf)
        return dataclasses.replace(op, stencil=stencil)
    sqrt_det = op.metric.sqrt_det.copy()
    sqrt_det[index] = np.nextafter(sqrt_det[index], np.inf)
    return dataclasses.replace(
        op, metric=dataclasses.replace(op.metric, sqrt_det=sqrt_det))


# node (1, 2) alone breaks the diagonal pullback's transposition; (1, 2)
# with its transposed image (2, 1) breaks the bump's mirrors and keeps tau
PERTURBED = [
    pytest.param("coefficients", TAU_PULLBACK_2D, [(1, 2)], id="coefficients"),
    pytest.param("weights", TAU_PULLBACK_2D, [(1, 2)], id="weights"),
    pytest.param("coefficients", BUMP_2D, [(1, 2), (2, 1)],
                 id="bump-coefficients"),
    pytest.param("weights", BUMP_2D, [(1, 2), (2, 1)], id="bump-weights"),
]


@pytest.mark.parametrize("field, profile, nodes", PERTURBED)
def test_dense_route_beyond_the_roundoff_tolerance(field, profile, nodes):
    # one unit of roundoff off symmetry: the diagonal pullback falls back to
    # the trivial group's one eigensolve of size M, pinned bitwise; the bump
    # still holds tau, so it falls back to the two transposition blocks
    grid = build_grid(2, 4.0, 12)
    base = assemble_laplacian(make_metric(grid, profile))
    op = _perturbed(base, field, nodes)
    if field == "weights":  # one unit of roundoff in the density moves w
        assert not np.array_equal(op.measure.node_weights,
                                  base.measure.node_weights)
    dec, calls = _counted_decompose(op)
    evals, basis = _pinned_dense(op)
    if profile is TAU_PULLBACK_2D:
        assert calls == [grid.node_count]
        assert np.array_equal(dec.eigenvalues, evals)
        assert np.array_equal(_every_row(dec), basis)
        return
    assert sorted(calls) == _transposition_block_sizes(12)
    assert np.abs(dec.eigenvalues - evals).max() <= 1e-13 * evals[-1]


# the benchmark's operators (side 4, centre (2, 2)), restated here so that a
# fall-back to a slower route fails these tests before it shows in a timing
BENCH_BUMP = ConformalBump(dim=2, beta=0.5, sigma=0.3, center=(2.0, 2.0),
                           r0=0.9)
BENCH_PULLBACK = PullbackProfile(base=BENCH_BUMP, squash=RadialSquash(
    dim=2, center=(2.0, 2.0), radius=0.9, strength=0.15))


@pytest.mark.parametrize("profile, sizes", [
    (BENCH_BUMP, [55, 66, 78, 91, 143]),
    (BENCH_PULLBACK, [55, 66, 78, 91, 143]),
    (IdentityMetric(2), []),
], ids=["bump", "pullback", "identity"])
def test_benchmark_operators_take_their_routes(profile, sizes):
    op = assemble_laplacian(make_metric(build_grid(2, 4.0, 24), profile))
    _, calls = _counted_decompose(op)
    assert sorted(calls) == sizes



# one operator per symmetry group the block route finds, at N = 16 for the
# dihedral group and N = 12 (M = 144) for the others
BLOCK_PROFILES = [
    (16, BUMP_2D),
    (12, ANISO_2D),
    (12, dataclasses.replace(BUMP_2D, center=(2.0, 1.5))),
    (12, TAU_PULLBACK_2D),
    (12, ANISO_OFF_CENTRE_2D),
]
BLOCK_IDS = ["dihedral", "mirrors", "one-mirror", "transposition", "trivial"]


@pytest.mark.parametrize("n, profile", BLOCK_PROFILES, ids=BLOCK_IDS)
def test_largest_block_is_solved_first(monkeypatch, n, profile):
    # the eigensolves run largest first, so the largest one holds no other
    # block's eigenvectors; the blocks are still recorded in block order
    op = assemble_laplacian(make_metric(build_grid(2, 4.0, n), profile))
    sizes = [spectral._orbit_basis(generators, signs, n * n)[2].size
             for generators, signs, _ in spectral._symmetry_blocks(op)]
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(a.shape[0]) or eigh(a))
    dec = decompose(op)
    assert calls == sorted(sizes, reverse=True)
    assert [b.vectors.shape[1] for b in dec.blocks] == sizes


@pytest.mark.parametrize("dim, n, profile, generators, copies", [
    (2, 16, BUMP_2D, 3, 6),
    (2, 4, BUMP_2D, 3, 5),  # the empty block is not recorded
    (2, 12, PULLBACK_2D, 3, 6),
    (2, 12, ANISO_2D, 2, 4),
    (2, 12, TAU_PULLBACK_2D, 1, 2),
    (2, 12, dataclasses.replace(BUMP_2D, center=(2.0, 1.5)), 1, 2),
    (2, 12, ANISO_OFF_CENTRE_2D, 0, 1),
    (2, 12, IdentityMetric(2), 2, 4),
    (2, 12, ConstantProfile(((1.3, 0.0), (0.0, 0.9))), 2, 4),
    (1, 16, BUMP_1D, 0, 1),
    (1, 16, IdentityMetric(1), 0, 1),
], ids=["dihedral", "dihedral-4", "dihedral-pullback", "mirrors",
        "transposition", "one-mirror", "trivial-2d", "closed-form",
        "closed-form-aniso", "trivial-1d", "closed-form-1d"])
def test_recorded_blocks_label_the_modes(dim, n, profile, generators, copies):
    # every mode lies in one copy of one recorded block; a copy's node
    # vectors are coef[p n] v[index[p n]] for one set of coefficients v per
    # block, the block's vectors in its orbit coordinates; and each
    # generator g under which a copy's coefficients change by one sign chi
    # gives x[g n] = chi x[n] (x = W^{1/2} phi) on its modes, the copy's
    # character on g
    grid = build_grid(dim, 4.0, n)
    dec = decompose(assemble_laplacian(make_metric(grid, profile)))
    assert len(dec.generators) == generators
    assert sum(len(block.perms) for block in dec.blocks) == copies
    columns = np.concatenate([c for block in dec.blocks for c in block.columns])
    assert np.array_equal(np.sort(columns), np.arange(grid.node_count))
    x = _every_row(dec) * np.sqrt(dec.measure.node_weights)[:, None]
    labels = 0
    for block in dec.blocks:
        index, coef = block.index[block.perms[0]], block.coef[block.perms[0]]
        live = np.flatnonzero(coef)
        orbits, first = np.unique(index[live], return_index=True)
        reps = live[first]
        v = np.zeros((index.max() + 1, len(block.columns[0])))
        v[orbits] = x[np.ix_(reps, block.columns[0])] / coef[reps, None]
        assert np.abs(block.vectors - v).max() <= 1e-13  # orbit coordinates
        for p, cols in zip(block.perms, block.columns):
            assert np.array_equal(dec.eigenvalues[cols],
                                  dec.eigenvalues[block.columns[0]])
            c = block.coef[p]
            rebuilt = c[:, None] * v[block.index[p]]
            assert np.abs(rebuilt - x[:, cols]).max() <= 1e-13
            for g in dec.generators:
                for chi in (1.0, -1.0):
                    if np.array_equal(c[g], chi * c):
                        labels += 1
                        assert np.abs(x[g][:, cols] - chi * x[:, cols]).max() <= 1e-13
    # every copy is labelled by every generator but D4's 2-d block by tau
    two_d = sum(len(b.perms) for b in dec.blocks if len(b.perms) == 2)
    assert labels == copies * generators - two_d


def _eigh_reference(op):
    """The dense-eigensolve decomposition, formed here as an oracle."""
    evals, basis = _pinned_dense(op)
    vectors = basis * np.sqrt(op.measure.node_weights)[:, None]
    every = np.arange(evals.size)
    block = SymmetryBlock(index=every, coef=np.ones(every.size), perms=(every,),
                          columns=(every,), vectors=vectors)
    return SpectralDecomposition(eigenvalues=evals, operator=op,
                                 generators=(), blocks=(block,))


@pytest.mark.parametrize("dim, n, profile", [
    (1, 16, IdentityMetric(1)),
    (2, 12, IdentityMetric(2)),
    (2, 16, IdentityMetric(2)),
    (2, 12, ConstantProfile(((1.3, 0.0), (0.0, 0.9)))),
    (2, 16, ConstantProfile(((0.7, 0.0), (0.0, 1.6)))),
], ids=["identity-1d", "identity-2d-12", "identity-2d-16", "constant-aniso-2d",
        "constant-aniso-2d-16"])
def test_closed_form_matches_dense_eigensolve(dim, n, profile):
    # the constant metrics are diagonal, so the stencil is axis-separable
    # and its symbol differs between the axes
    grid = build_grid(dim, 4.0, n)
    op = assemble_laplacian(make_metric(grid, profile))
    dec, calls = _counted_decompose(op)
    assert calls == []  # translation invariant: no dense eigensolve
    ref = _eigh_reference(op)
    lam_max = float(ref.eigenvalues[-1])
    w = op.measure.node_weights
    assert dec.eigenvalues[0] == 0.0
    assert np.abs(dec.eigenvalues - ref.eigenvalues).max() <= 1e-12 * lam_max
    basis = _every_row(dec)
    gram = basis.T @ (basis * w[:, None])
    assert np.abs(gram - np.eye(grid.node_count)).max() <= 1e-13
    residual = _dense_operator(op) @ basis - basis * dec.eigenvalues
    assert np.linalg.norm(residual) <= 1e-12 * lam_max
    # eigenspaces are degenerate, so the bases differ; functions of A agree
    energy, energy_ref = frac_energy_matrix(dec, 0.5), frac_energy_matrix(ref, 0.5)
    assert np.abs(energy - energy_ref).max() <= 1e-12 * np.abs(energy_ref).max()
    region = RegionSpec(omega_center=(2.0,) * dim, omega_radius=0.55,
                        w1_center=(0.5,) + (2.0,) * (dim - 1), w1_radius=0.3,
                        w2_center=(3.4,) + (0.5,) * (dim - 1), w2_radius=0.3)
    config = region.build(grid)
    lam, lam_ref = dtn_matrix(dec, 0.5, config), dtn_matrix(ref, 0.5, config)
    assert np.abs(lam - lam_ref).max() <= 1e-10 * np.abs(lam_ref).max()


def test_decompose_is_deterministic():
    grid = build_grid(1, 4.0, 16)
    met = make_metric(grid, BUMP_1D)
    a = decompose(assemble_laplacian(met))
    b = decompose(assemble_laplacian(met))
    np.testing.assert_array_equal(_every_row(a), _every_row(b))
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)


def test_decompose_size_cap():
    grid = build_grid(1, 4.0, 16)
    op = assemble_laplacian(make_metric(grid, IdentityMetric(1)))
    # the message names the dense bytes at the requested size: 8 * 16^2
    with pytest.raises(DecompositionSizeError,
                       match=r"16 x 16 float64 matrix takes 0\.00205 MB"):
        decompose(op, cap=8)


# N = 16 (M = 256): every route is capped on the rows asked for, all M
# without nodes=, and the symmetry blocks also on the largest eigensolve:
# 63 rows, the dihedral 2-d representation's, or M for an operator without
# grid symmetries (the trivial group's one block)
@pytest.mark.parametrize("profile, cap, rows, message", [
    (IdentityMetric(2), 255, None, r"256 basis rows asked for, capped at 255; "
                                   r"one 256 x 256 float64 matrix takes "
                                   r"0\.524 MB; list only the nodes read in "
                                   r"nodes=, or raise cap"),
    (BUMP_2D, 255, None, r"256 basis rows asked for, capped at 255"),
    (IdentityMetric(2), 20, 30, r"30 basis rows asked for, capped at 20; "
                                r"one 30 x 256 float64 matrix takes 0\.0614 MB"),
    (BUMP_2D, 70, 80, r"80 basis rows asked for"),
    (BUMP_2D, 62, 10, r"largest eigensolve has 63 rows, capped at 62; "
                      r"one 63 x 63 float64 matrix"),
    (ANISO_OFF_CENTRE_2D, 255, 10, r"largest eigensolve has 256 rows, capped "
                                   r"at 255; one 256 x 256 float64 matrix"),
], ids=["closed-form", "blocks", "closed-form-rows", "blocks-rows",
        "blocks-largest", "dense-rows"])
def test_decompose_size_cap_on_every_route(profile, cap, rows, message):
    op = assemble_laplacian(make_metric(build_grid(2, 4.0, 16), profile))
    nodes = None if rows is None else np.arange(rows)
    with pytest.raises(DecompositionSizeError, match=message):
        decompose(op, cap=cap, nodes=nodes)


@pytest.mark.parametrize("profile", [IdentityMetric(2), BUMP_2D, PULLBACK_2D],
                         ids=["closed-form", "conformal", "pullback"])
def test_rows_only_decomposition_needs_no_m_cap(profile):
    # rows alone beyond M = cap: the closed form and the dihedral blocks
    # (largest 63 at N = 16) keep the eigenvalues of the whole decomposition
    # and its rows, to the bit
    op = assemble_laplacian(make_metric(build_grid(2, 4.0, 16), profile))
    nodes = np.arange(0, 256, 7)
    rows = decompose(op, cap=64, nodes=nodes)
    full = decompose(op)
    assert np.array_equal(rows.eigenvalues, full.eigenvalues)
    assert np.array_equal(rows.rows(nodes), _every_row(full)[nodes])


# a scattered node set with mirror and transposed partners: (1, 2), (2, 1),
# (N - 1, 2), (1, N - 2), (N/2, N/2), (0, 0) and every fifth node
def _scattered(n):
    pairs = [(1, 2), (2, 1), (n - 1, 2), (1, n - 2), (n // 2, n // 2), (0, 0)]
    return np.union1d(np.ravel_multi_index(np.transpose(pairs), (n, n)),
                      np.arange(0, n * n, 5))


@pytest.mark.parametrize("profile", [
    BUMP_2D, PULLBACK_2D, ANISO_2D,
    dataclasses.replace(BUMP_2D, center=(1.75, 1.75)),
    dataclasses.replace(BUMP_2D, center=(1.7, 2.3)),
], ids=["bump", "pullback", "aniso", "diagonal-bump", "off-centre-bump"])
def test_rows_only_rows_are_the_whole_rows(profile):
    # each block holds its eigenvectors one row per orbit, only for the
    # orbits the nodes reach when nodes= is given; any node's row is its
    # orbit's row times its coef, so the rows are bitwise the whole
    # decomposition's, under D4, both mirrors, tau alone and the trivial
    # group alike
    n = 12
    op = assemble_laplacian(make_metric(build_grid(2, 4.0, n), profile))
    nodes = _scattered(n)
    rows, whole = decompose(op, nodes=nodes), decompose(op)
    assert np.array_equal(rows.rows(nodes), whole.rows(nodes))
    assert np.array_equal(whole.rows(nodes), _every_row(whole)[nodes])
    assert (sum(b.vectors.size for b in rows.blocks)
            < sum(b.vectors.size for b in whole.blocks))


@pytest.mark.parametrize("dim, n, profile", [
    (2, 16, BUMP_2D),
    (2, 12, ANISO_2D),
    (2, 12, dataclasses.replace(BUMP_2D, center=(2.0, 1.5))),
    (2, 12, TAU_PULLBACK_2D),
    (2, 12, ANISO_OFF_CENTRE_2D),
    (2, 12, IdentityMetric(2)),
    (1, 16, BUMP_1D),
], ids=["dihedral", "mirrors", "one-mirror", "transposition", "trivial-2d",
        "closed-form", "trivial-1d"])
def test_project_and_synthesize_match_the_dense_basis(dim, n, profile):
    # the block-wise orbit sums and products agree with the node-space
    # products of the basis they form
    dec = decompose(assemble_laplacian(make_metric(build_grid(dim, 4.0, n),
                                                   profile)))
    basis, w = _every_row(dec), dec.measure.node_weights
    rng = np.random.default_rng(11)
    u, coeffs = rng.standard_normal((2, dec.node_count))
    want = basis.T @ (w * u)
    assert np.abs(dec.project(u) - want).max() <= 1e-13 * np.abs(want).max()
    want = basis @ coeffs
    assert np.abs(dec.synthesize(coeffs) - want).max() <= 1e-13 * np.abs(want).max()


def _held(dec):
    """The elements of every array a decomposition holds beside its
    operator: (largest array, the blocks' eigenvectors, the rest)."""
    arrays = {id(a): a for a in [dec.eigenvalues, *dec.generators] + [
        a for b in dec.blocks for a in (b.index, b.coef, *b.perms, *b.columns)]}
    vectors = sum(b.vectors.size for b in dec.blocks)
    largest = max([a.size for a in arrays.values()]
                  + [b.vectors.size for b in dec.blocks])
    return largest, vectors, sum(a.size for a in arrays.values())


def test_dihedral_decomposition_holds_its_blocks_only():
    # the D4 bump at N = 48 (M = 2304) holds no M x M array: its five
    # blocks' eigenvectors take about M^2 / 8 elements, and the benchmark
    # layout's rows about |nodes| M / 7; the node labels are O(M)
    bench = RegionSpec(omega_center=(2.0, 2.0), omega_radius=1.0,
                       w1_center=(0.2, 2.0), w1_radius=0.2,
                       w2_center=(2.0, 0.2), w2_radius=0.2)
    grid = build_grid(2, 4.0, 48)
    m = grid.node_count
    op = assemble_laplacian(make_metric(grid, BENCH_BUMP))
    largest, vectors, rest = _held(decompose(op))
    assert largest < m * m // 8
    assert vectors <= 0.13 * m * m
    assert rest <= 20 * m
    nodes = bench.build(grid).partial_map_nodes
    largest, vectors, rest = _held(decompose(op, nodes=nodes))
    assert vectors <= 0.15 * nodes.size * m
    assert rest <= 20 * m


def _traced_peak(call):
    """``call()`` and its traced peak in bytes above what was held before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_dihedral_peak_is_its_largest_eigensolve():
    # the traced peak of a whole D4 decomposition at N = 48 is the largest
    # block's matrix and eigenvectors (575 x 575 each, 5.29 MB) plus less
    # than the other four blocks' eigenvectors (2.69 MB), which are not yet
    # formed while it runs (3.32 MB above the two with the blocks solved in
    # block order, 1.19 MB largest first)
    op = assemble_laplacian(make_metric(build_grid(2, 4.0, 48), BUMP_2D))
    dec, peak = _traced_peak(lambda: decompose(op))
    sizes = sorted(b.vectors.shape[1] for b in dec.blocks)
    assert sizes == [253, 276, 300, 325, 575]
    others = 8 * sum(k * k for k in sizes[:-1])
    assert peak - 2 * 8 * sizes[-1] ** 2 < others


@pytest.mark.parametrize("n, profile", BLOCK_PROFILES + [
    (12, IdentityMetric(2))], ids=BLOCK_IDS + ["closed-form"])
def test_rows_formed_in_blocks_are_the_rows_read_one_by_one(n, profile):
    # rows forms its output _BLOCK = 64 rows at a time; every element goes
    # through the same arithmetic, so reads that end inside, at and just
    # past a block's last row are bitwise the rows read one node at a time,
    # from the whole decomposition and from one holding those nodes only
    assert spectral._BLOCK == 64
    op = assemble_laplacian(make_metric(build_grid(2, 4.0, n), profile))
    whole = decompose(op)
    order = np.random.default_rng(n).permutation(n * n)
    for count in (1, 63, 64, 65, 129):
        nodes = order[:count]
        one_by_one = np.stack([whole.rows(np.array([k]))[0] for k in nodes])
        for dec in (whole, decompose(op, nodes=nodes)):
            assert np.array_equal(dec.rows(nodes), one_by_one)


# the mixed-extension benchmark's operator and layout, restated
MIXED_PROFILE = ConformalBump(dim=2, beta=0.5, sigma=0.3, center=(2.0, 2.0),
                              r0=0.7)
MIXED_REGION = RegionSpec(omega_center=(2.0, 2.0), omega_radius=0.8,
                          w1_center=(0.3, 2.0), w1_radius=0.3,
                          w2_center=(2.0, 0.3), w2_radius=0.3)


def test_exterior_rows_peak_at_their_output_and_one_work_block():
    # the exterior solve's read at N = 32: 895 rows of M = 1024 (7.33 MB).
    # Beside them rows holds one (_BLOCK, M) work array (0.52 MB) and, per
    # copy, index arrays and one gather of at most _BLOCK rows of the
    # largest block (255 modes), which the 0.4 MB slack covers; forming
    # each copy's node vectors for every row at once holds 3.65 MB more
    grid = build_grid(2, 4.0, 32)
    m = grid.node_count
    dec = decompose(assemble_laplacian(make_metric(grid, MIXED_PROFILE)))
    nodes = MIXED_REGION.build(grid).exterior_nodes
    assert nodes.size == 895
    rows, peak = _traced_peak(lambda: dec.rows(nodes))
    assert peak - rows.nbytes <= 8 * spectral._BLOCK * m + 0.4e6


def _rows_only():
    """A 2-d decomposition holding the rows on Omega, W1 and W2 alone, its
    layout, a source off Omega and a node outside the source's support."""
    grid = build_grid(2, 4.0, 12)
    config = ROUTE_REGION.build(grid)
    op = assemble_laplacian(make_metric(grid, BUMP_2D))
    source = config.indicator(config.w1_nodes)
    return decompose(op, nodes=config.partial_map_nodes), config, source


# readers that read the rows on their nodes only: the source's support
# (W1), the observer (W2) or the pairs' nodes; the representation reads
# supp F and x, since H = A F enters through its modes lam_k <phi_k, F>_w.  BUMP_2D is the identity
# beyond r0 = 1.5 of the centre, so on W1 and W2 at N = 12, and its heat
# trace is compared with the flat torus's
HELD_NODE_READERS = {
    "project": lambda dec, config, F: dec.project(F),
    "extend_dirichlet": lambda dec, config, F: extension.extend_dirichlet(
        dec, 0.5, F).mode_coefficients,
    "jump_kernel": lambda dec, config, F: jump_kernel(dec, 0.5, np.stack(
        [config.w1_nodes[:3], config.w2_nodes[:3]], axis=1)).values,
    "heat_difference_trace": lambda dec, config, F:
        recovery.heat_difference_trace(dec, decompose(assemble_laplacian(
            make_metric(config.grid, IdentityMetric(2)))), F, config.w2_nodes[0],
            np.array([0.1, 0.5, 2.0])),
    "representation_solution": lambda dec, config, F:
        extension.representation_solution(dec, 0.5, F, config.w2_nodes[0], 0.1),
}


@pytest.mark.parametrize("reader", HELD_NODE_READERS)
def test_held_node_readers_serve_rows_only(reader):
    # the same values as the whole decomposition's, within 1e-13 (project
    # sums the support's orbits against the held rows only)
    dec, config, source = _rows_only()
    got = HELD_NODE_READERS[reader](dec, config, source)
    want = HELD_NODE_READERS[reader](decompose(dec.operator), config, source)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# readers that read every node: the node vectors of synthesize and of the
# spectral powers built on it, and the dense energy matrix
WHOLE_BASIS_READERS = {
    "synthesize": lambda dec, config, F: dec.synthesize(F),
    "heat_apply": lambda dec, config, F: heat_apply(dec, 0.5, F),
    "frac_apply_spectral": lambda dec, config, F: frac_apply_spectral(dec, 0.5, F),
    "frac_apply_balakrishnan":
        lambda dec, config, F: frac_apply_balakrishnan(dec, 0.5, F),
    "frac_energy_matrix": lambda dec, config, F: frac_energy_matrix(dec, 0.5),
    "poisson_solve": lambda dec, config, F: exterior.poisson_solve(
        dec, 0.5, config, F),
}


@pytest.mark.parametrize("reader", WHOLE_BASIS_READERS)
def test_whole_basis_readers_reject_rows_only(reader):
    dec, config, source = _rows_only()
    with pytest.raises(ValueError, match=r"not among .* decompose with them "
                                         r"in nodes="):
        WHOLE_BASIS_READERS[reader](dec, config, source)


def test_extension_evaluate_reads_the_rows_alone():
    # evaluate reads the basis row at its node only, so it serves a
    # decomposition holding that row alone, to the bit
    dec, config, source = _rows_only()

    def evaluate(held, node):
        return extension.ExtensionSolution(
            alpha=0.5, dec=held, mode_coefficients=source).evaluate(node, 0.1)

    x = config.w2_nodes[0]
    assert evaluate(dec, x) == evaluate(decompose(dec.operator), x)
    with pytest.raises(ValueError, match="not among"):
        evaluate(dec, 0)


@pytest.mark.parametrize("profile", [IdentityMetric(2), BUMP_2D, PULLBACK_2D],
                         ids=["closed-form", "conformal", "pullback"])
def test_heat_kernel_reads_the_rows_alone(profile):
    # heat_kernel reads the basis rows at i and j only, so a decomposition
    # holding those rows alone gives the whole basis's kernel to the bit
    op = assemble_laplacian(make_metric(build_grid(2, 4.0, 16), profile))
    nodes = np.array([0, 17, 40, 136, 255])
    rows = decompose(op, nodes=nodes)
    t = np.array([0.1, 1.0, 4.0])[:, None, None]
    i, j = nodes[:, None], nodes
    assert np.array_equal(heat_kernel(rows, t, i, j),
                          heat_kernel(decompose(op), t, i, j))
    with pytest.raises(ValueError, match="not among"):
        heat_kernel(rows, 1.0, 0, 1)


@pytest.mark.parametrize("held", [None, np.arange(0, 16, 3)],
                         ids=["whole", "rows-only"])
def test_rows_reject_nodes_outside_the_grid(dec_1d_bump, held):
    # numpy would read node -1 as node M - 1, so p_1(-1, 0) read p_1(15, 0)
    dec = (dec_1d_bump if held is None
           else decompose(dec_1d_bump.operator, nodes=held))
    for nodes in ([-1], [0, 16], [[3], [-2]]):
        with pytest.raises(ValueError, match=r"nodes must lie in \[0, 16\)"):
            dec.rows(np.array(nodes))
    with pytest.raises(ValueError, match=r"nodes must lie in \[0, 16\)"):
        heat_kernel(dec, 1.0, -1, 0)
    assert heat_kernel(dec, 1.0, 15, 0) == heat_kernel(dec_1d_bump, 1.0, 15, 0)
    # project reads the nonzero nodes of u, so u must be a whole node vector
    for u in (np.ones(15), np.ones(17)):
        with pytest.raises(ValueError, match=r"node vector of shape \(16,\)"):
            dec.project(u)


@pytest.mark.parametrize("held", [None, np.arange(0, 16, 3)],
                         ids=["whole", "rows-only"])
def test_node_arrays_must_be_integer(dec_1d_bump, held):
    # numpy would read the floats as nodes 3 and 9 and the mask as the
    # nodes 1, 0 and 1; both decompose and every basis read refuse them
    op = dec_1d_bump.operator
    dec = dec_1d_bump if held is None else decompose(op, nodes=held)
    for nodes in (np.array([3.7, 9.2]), np.array([True, False, True])):
        with pytest.raises(ValueError, match=r"nodes must be integer node "
                                             r"indices, got dtype .*flatnonzero"):
            decompose(op, nodes=nodes)
        with pytest.raises(ValueError, match="must be integer node indices"):
            dec.rows(nodes)
    assert np.array_equal(dec.rows(np.array([3, 9], dtype=np.uint8)),
                          dec.rows(np.array([3, 9])))


def test_rows_rejects_nodes_not_held():
    dec, config, _ = _rows_only()
    held = dec.nodes
    assert np.array_equal(dec.rows(held[::-1]), dec.rows(held)[::-1])
    outside = np.setdiff1d(config.exterior_nodes, held)
    for nodes in ([held[0], outside[0]], [outside[-1]], [dec.node_count - 1]):
        with pytest.raises(ValueError, match="not among"):
            dec.rows(np.array(nodes))
    # the exterior solve reads every exterior node
    with pytest.raises(ValueError, match="not among"):
        exterior.solve_exterior_dirichlet(dec, 0.5, config,
                                          np.ones(config.exterior_nodes.size))
    with pytest.raises(ValueError, match=r"nodes must lie in \[0, 144\)"):
        decompose(dec.operator, nodes=[0, 144])
    for nodes in ([], [[0, 1], [2, 3]]):
        with pytest.raises(ValueError, match=r"nodes must be a non-empty 1-d"):
            decompose(dec.operator, nodes=nodes)


# ----------------------------------------------------------------------
# heat semigroup


def test_heat_identity_at_t0(dec_1d_bump):
    u = np.sin(np.arange(16.0))
    np.testing.assert_array_equal(heat_apply(dec_1d_bump, 0.0, u), u)


def test_heat_preserves_constants(dec_2d_aniso):
    one = np.ones(dec_2d_aniso.node_count)
    for t in (0.01, 0.1, 1.0, 10.0):
        np.testing.assert_allclose(heat_apply(dec_2d_aniso, t, one), 1.0, atol=1e-12)


def test_heat_contracts(dec_1d_bump):
    rng = np.random.default_rng(4)
    u = rng.standard_normal(dec_1d_bump.node_count)
    n0 = weighted_norm(u, dec_1d_bump.measure)
    prev = n0
    for t in (0.01, 0.1, 1.0, 10.0):
        n = weighted_norm(heat_apply(dec_1d_bump, t, u), dec_1d_bump.measure)
        assert n <= prev * (1 + 1e-12)
        prev = n


def test_heat_long_time_limit(dec_1d_bump):
    rng = np.random.default_rng(9)
    u = rng.standard_normal(dec_1d_bump.node_count)
    w = dec_1d_bump.measure
    mean = weighted_inner(u, np.ones_like(u), w) / w.total
    np.testing.assert_allclose(heat_apply(dec_1d_bump, 1e8, u), mean, atol=1e-10)


def test_heat_rejects_negative_t(dec_1d_bump):
    with pytest.raises(ValueError):
        heat_apply(dec_1d_bump, -0.1, np.ones(16))
    with pytest.raises(ValueError):
        heat_kernel(dec_1d_bump, 0.0, 0, 1)


@pytest.mark.parametrize("profile", [IdentityMetric(2), BUMP_2D, ANISO_2D])
def test_stochastic_completeness(profile):
    grid = build_grid(2, 4.0, 10)
    met = make_metric(grid, profile)
    dec = decompose(assemble_laplacian(met))
    w = met.measure().node_weights
    i, j = np.indices((dec.node_count, dec.node_count))
    for t in (0.01, 0.1, 1.0, 10.0):
        rows = heat_kernel(dec, t, i, j) @ w
        np.testing.assert_allclose(rows, 1.0, atol=1e-10)


def test_heat_kernel_symmetric(dec_2d_aniso):
    rng = np.random.default_rng(6)
    for _ in range(10):
        i, j = rng.integers(0, dec_2d_aniso.node_count, 2)
        assert heat_kernel(dec_2d_aniso, 0.37, int(i), int(j)) == pytest.approx(
            heat_kernel(dec_2d_aniso, 0.37, int(j), int(i)), abs=1e-15
        )


def test_heat_kernel_positive_small_torus():
    # L = 1 keeps the farthest pair at distance^2/(4 t) ~ 12.5 for the
    # smallest t, i.e. kernel values ~ e^{-12.5}, far above round-off.
    for dim, N in ((1, 32), (2, 12)):
        grid = build_grid(dim, 1.0, N)
        bump = ConformalBump(dim, beta=0.5, sigma=0.1, center=(0.5,) * dim, r0=0.3)
        dec = decompose(assemble_laplacian(make_metric(grid, bump)))
        i, j = np.indices((dec.node_count, dec.node_count))
        for t in (0.01, 0.1, 1.0, 10.0):
            assert heat_kernel(dec, t, i, j).min() > 0.0


def test_heat_kernel_matches_wrapped_gaussian():
    # identity metric: p_t(x, y) = sum_m (4 pi t)^{-n/2} e^{-|x-y+mL|^2/(4t)}
    # up to O(h^2) lattice dispersion
    L, N, t = 8.0, 32, 0.5
    grid = build_grid(2, L, N)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(2))))
    coords = grid.coordinates()
    rng = np.random.default_rng(12)
    for _ in range(12):
        i, j = rng.integers(0, grid.node_count, 2)
        if grid.pair_distance(int(i), int(j)) > L / 4:
            continue
        diff = coords[int(i)] - coords[int(j)]
        wrapped = 0.0
        for mx in (-1, 0, 1):
            for my in (-1, 0, 1):
                d2 = (diff[0] + mx * L) ** 2 + (diff[1] + my * L) ** 2
                wrapped += math.exp(-d2 / (4 * t)) / (4 * math.pi * t)
        assert heat_kernel(dec, t, int(i), int(j)) == pytest.approx(wrapped, rel=0.05)


def test_heat_kernel_pairs_shape(dec_2d_aniso):
    ts = np.array([0.1, 1.0, 10.0])
    ii = np.array([0, 5, 9])
    jj = np.array([3, 2, 70])
    block = heat_kernel(dec_2d_aniso, ts[:, None], ii, jj)
    assert block.shape == (3, 3)
    for a, t in enumerate(ts):
        for b in range(3):
            assert block[a, b] == pytest.approx(
                heat_kernel(dec_2d_aniso, t, int(ii[b]), int(jj[b])), rel=1e-12
            )


def test_heat_derivative_decay_rate():
    # |d/dt p_t(x,x)| ~ t^{-n/2-1}; on a long 1D torus the window [1, 100]
    # sits between the lattice scale h^2 ~ 0.04 and the mixing time 1/lam_1 ~ 253
    grid = build_grid(1, 100.0, 512)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(1))))
    ts = np.geomspace(1.0, 100.0, 9)
    vals = []
    for t in ts:
        dp = (heat_kernel(dec, 1.01 * t, 7, 7) - heat_kernel(dec, 0.99 * t, 7, 7)) / (
            0.02 * t
        )
        vals.append(abs(dp))
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert slope == pytest.approx(-1.5, abs=0.2)


# ----------------------------------------------------------------------
# fractional powers: spectral route


def test_frac_alpha_one_is_laplacian(dec_1d_bump):
    rng = np.random.default_rng(1)
    u = rng.standard_normal(dec_1d_bump.node_count)
    np.testing.assert_allclose(
        frac_apply_spectral(dec_1d_bump, 1.0, u),
        dec_1d_bump.operator.apply(u),
        atol=1e-11,
    )


def test_frac_on_eigenvector(dec_1d_bump):
    k = 5
    phi = _every_row(dec_1d_bump)[:, k]
    lam = dec_1d_bump.eigenvalues[k]
    np.testing.assert_allclose(
        frac_apply_spectral(dec_1d_bump, 0.3, phi), lam**0.3 * phi, atol=1e-12
    )


def test_frac_semigroup_property(dec_2d_aniso):
    rng = np.random.default_rng(14)
    u = rng.standard_normal(dec_2d_aniso.node_count)
    once = frac_apply_spectral(dec_2d_aniso, 0.7, frac_apply_spectral(dec_2d_aniso, 0.3, u))
    direct = dec_2d_aniso.operator.apply(u)  # alpha + beta = 1
    np.testing.assert_allclose(once, direct, atol=1e-10 * np.abs(direct).max())


def test_frac_annihilates_constants(dec_2d_aniso):
    one = np.ones(dec_2d_aniso.node_count)
    for alpha in (0.25, 0.5, 0.75, 1.0):
        np.testing.assert_allclose(
            frac_apply_spectral(dec_2d_aniso, alpha, one), 0.0, atol=1e-12
        )


def test_frac_symmetric_in_weighted_product(dec_1d_bump):
    rng = np.random.default_rng(15)
    u = rng.standard_normal(dec_1d_bump.node_count)
    v = rng.standard_normal(dec_1d_bump.node_count)
    w = dec_1d_bump.measure
    a = weighted_inner(frac_apply_spectral(dec_1d_bump, 0.5, u), v, w)
    b = weighted_inner(u, frac_apply_spectral(dec_1d_bump, 0.5, v), w)
    assert a == pytest.approx(b, abs=1e-10)


def test_fractional_powers_emit_no_warnings(dec_2d_aniso):
    # lam^a is taken on the positive eigenvalues only; the zero mode gets an
    # exact 0 and nothing reads uninitialized memory
    dec = dec_2d_aniso
    lam = dec.eigenvalues
    u = np.random.default_rng(16).standard_normal(dec.node_count)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = frac_apply_spectral(dec, 0.4, u)
        energy = frac_energy_matrix(dec, 0.4)
    powers = np.zeros_like(lam)
    powers[lam > 0] = lam[lam > 0] ** 0.4
    assert np.array_equal(out, dec.synthesize(dec.project(u) * powers))
    weighted = _every_row(dec) * dec.measure.node_weights[:, None]
    e = (weighted * powers) @ weighted.T
    assert np.array_equal(energy, 0.5 * (e + e.T))


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, 2.0])
def test_frac_rejects_alpha_outside_range(dec_1d_bump, alpha):
    with pytest.raises(ValueError):
        frac_apply_spectral(dec_1d_bump, alpha, np.ones(16))


# 2-d profiles for each non-closed-form route of ``decompose``: a radial
# conformal bump centred on the grid's mirror axes, and its pullback by a
# radial squash with the same centre, hold the dihedral group; centred on
# the diagonal off the mirror axes they hold the grid transposition alone;
# an anisotropic bump centred off the mirror axes and the diagonal, and its
# conformal rescaling, hold no grid symmetry.  Centred on a grid symmetry
# centre, the profiles are sampled bitwise invariant under the symmetries
# they hold, so the route is read off exact comparisons.  The windows sit
# outside Omega.
ROUTE_REGION = RegionSpec(omega_center=(2.0, 2.0), omega_radius=0.8,
                          w1_center=(0.25, 2.0), w1_radius=0.3,
                          w2_center=(2.0, 0.25), w2_radius=0.3)
SWAPPED_REGION = dataclasses.replace(
    ROUTE_REGION, w1_center=ROUTE_REGION.w2_center,
    w2_center=ROUTE_REGION.w1_center)


def _route_profile(route, beta, sigma, variant):
    if route == "dense":
        base = AnisotropicBump(2, beta=beta, sigma=sigma, center=(1.7, 2.25),
                               r0=0.75, axis=1)
        return ConformalRescale(base=base, beta=0.3, sigma=0.2,
                                center=(2.0, 1.6), bump_r0=0.35) \
            if variant else base
    center = (2.0, 2.0) if route == "dihedral" else (1.8, 1.8)
    bump = ConformalBump(2, beta=beta, sigma=sigma, center=center, r0=0.75)
    if not variant:
        return bump
    return PullbackProfile(base=bump, squash=RadialSquash(
        dim=2, center=center, radius=0.75, strength=0.15))


@pytest.mark.parametrize("route", ["dihedral", "transposition", "dense"])
@settings(max_examples=8, deadline=None)
@given(beta=st.floats(0.2, 0.8), sigma=st.floats(0.2, 0.4),
       variant=st.booleans(), n=st.sampled_from([12, 16]),
       alpha=st.floats(0.2, 0.8), seed=st.integers(0, 2 ** 32 - 1))
def test_2d_identities_on_both_eigensolve_routes(route, beta, sigma, variant,
                                                 n, alpha, seed):
    grid = build_grid(2, 4.0, n)
    op = assemble_laplacian(make_metric(grid, _route_profile(
        route, beta, sigma, variant)))
    sizes = {"dihedral": _dihedral_block_sizes,
             "transposition": _transposition_block_sizes,
             "dense": lambda n: [n * n]}[route](n)
    dec, calls = _counted_decompose(op)
    assert sorted(calls) == sizes
    w, lam_max = op.measure, float(dec.eigenvalues[-1])
    u, v = np.random.default_rng(seed).standard_normal((2, grid.node_count))
    norms = weighted_norm(u, w) * weighted_norm(v, w)
    # weighted self-adjointness of A and of A^a
    for apply, bound in ((op.apply, lam_max),
                         (lambda x: frac_apply_spectral(dec, alpha, x),
                          lam_max ** alpha)):
        defect = weighted_inner(apply(u), v, w) - weighted_inner(u, apply(v), w)
        assert abs(defect) <= 1e-12 * bound * norms
    # A^a A^(1-a) = A, against the stencil
    composed = frac_apply_spectral(dec, alpha,
                                   frac_apply_spectral(dec, 1.0 - alpha, u))
    assert weighted_norm(composed - op.apply(u), w) \
        <= 1e-12 * lam_max * weighted_norm(u, w)
    # weighted symmetry of the partial DtN map
    forward = dtn_matrix(dec, alpha, ROUTE_REGION.build(grid))
    backward = dtn_matrix(dec, alpha, SWAPPED_REGION.build(grid))
    config = ROUTE_REGION.build(grid)
    node_w = w.node_weights
    left = node_w[config.w2_nodes, None] * forward
    right = (node_w[config.w1_nodes, None] * backward).T
    assert np.abs(left - right).max() <= 1e-9 * np.abs(left).max()


# ----------------------------------------------------------------------
# fractional powers: Balakrishnan route


def test_gamma_reflection_constant():
    # Gamma(-1/2) = -2 sqrt(pi); the prefactor both singular integrals divide by
    assert math.gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-15)
    assert math.gamma(-0.5) == pytest.approx(-3.5449077018110318, rel=1e-15)


def test_balakrishnan_matches_spectral_identity(dec_1d_identity):
    rng = np.random.default_rng(21)
    u = rng.standard_normal(dec_1d_identity.node_count)
    w = dec_1d_identity.measure
    exact = frac_apply_spectral(dec_1d_identity, 0.5, u)
    approx = frac_apply_balakrishnan(dec_1d_identity, 0.5, u)
    assert weighted_norm(approx - exact, w) < 1e-12 * weighted_norm(exact, w)


@pytest.mark.parametrize("case, alpha", [
    pytest.param("dec_1d_bump", 0.25, id="0.25"),
    pytest.param("dec_1d_bump", 0.75, id="0.75"),
    *(pytest.param("dec_2d_pullback", a, id=f"2d-{a}") for a in (0.25, 0.5, 0.75)),
    *(pytest.param("dec_1d_bump", a, id=f"{a}") for a in (0.05, 0.95)),
])
def test_balakrishnan_matches_spectral_bump(request, case, alpha):
    dec = request.getfixturevalue(case)
    rng = np.random.default_rng(22)
    u = rng.standard_normal(dec.node_count)
    w = dec.measure
    exact = frac_apply_spectral(dec, alpha, u)
    approx = frac_apply_balakrishnan(dec, alpha, u)
    assert weighted_norm(approx - exact, w) < 1e-12 * weighted_norm(exact, w)


@pytest.mark.parametrize("alpha", [0.02, 0.05, 0.25, 0.5, 0.75, 0.95, 0.98])
def test_semigroup_weights_match_gamma_power(alpha):
    # int_0^inf (e^{-lam t} - 1) t^{-1-a} dt = Gamma(-a) lam^a, over a
    # spectrum spanning the 1-d and 2-d fixtures' range of lam_max/lam_1
    lam = np.geomspace(0.5, 4000.0, 60)
    eta = spectral._semigroup_weights(lam, alpha)
    exact = math.gamma(-alpha) * lam ** alpha
    assert np.abs(eta / exact - 1.0).max() <= 2e-15


def test_balakrishnan_kills_constants(dec_1d_bump):
    out = frac_apply_balakrishnan(dec_1d_bump, 0.5, np.ones(16))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


# ----------------------------------------------------------------------
# jump kernel and energy form


def test_jump_kernel_symmetric(dec_1d_bump):
    fwd = jump_kernel(dec_1d_bump, 0.5, pairs=np.array([[0, 5], [2, 9]]))
    rev = jump_kernel(dec_1d_bump, 0.5, pairs=np.array([[5, 0], [9, 2]]))
    np.testing.assert_array_equal(fwd.values, rev.values)


def test_jump_kernel_rejects_diagonal(dec_1d_bump):
    with pytest.raises(ValueError):
        jump_kernel(dec_1d_bump, 0.5, pairs=np.array([[3, 3]]))


@pytest.mark.parametrize("pair", [[0, -1], [16, 3]])
def test_jump_kernel_rejects_indices_off_the_grid(dec_1d_bump, pair):
    # a negative index would wrap to K(0, 15) and be recorded as j = -1
    with pytest.raises(ValueError, match="pair indices"):
        jump_kernel(dec_1d_bump, 0.5, pairs=[pair])


@pytest.mark.parametrize("pairs, message", [
    ([[0.0, 5.0]], "pair indices must be integer node indices"),
    ([[True, False]], "pair indices must be integer node indices"),
    ([0, 5], r"pair indices must be a \(k, 2\) array, got shape \(2,\)"),
    ([[0, 5, 9]], r"pair indices must be a \(k, 2\) array"),
], ids=["float", "bool", "one-d", "triples"])
def test_jump_kernel_checks_its_pairs(dec_1d_bump, pairs, message):
    # the pairs go through the shared node check and a shape check, so
    # each message names the caller's argument
    with pytest.raises(ValueError, match=message):
        jump_kernel(dec_1d_bump, 0.5, pairs=pairs)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_jump_kernel_positive(dec_1d_bump, alpha):
    kernel = jump_kernel(dec_1d_bump, alpha)
    assert kernel.values.min() > 0.0


def test_jump_kernel_sandwich():
    # (1/C) d^{-n-2a} <= K <= C d^{-n-2a} with torus geodesic distance;
    # the fitted constant reflects the bump strength and stays modest.
    grid = build_grid(1, 8.0, 32)
    met = make_metric(grid, ConformalBump(1, beta=0.6, sigma=0.5, center=(4.0,), r0=1.5))
    dec = decompose(assemble_laplacian(met))
    alpha = 0.5
    kernel = jump_kernel(dec, alpha)
    d = grid.pair_distance(kernel.i_indices, kernel.j_indices)
    ratio = kernel.values * d ** (1 + 2 * alpha)
    C = max(ratio.max(), 1.0 / ratio.min())
    assert np.isfinite(C)
    assert C < 10.0  # fitted: ~2.6 at this bump strength


def test_jump_kernel_euclidean_decay_1d():
    # log-log slope of K vs distance approaches -(1+2a) well inside a period
    grid = build_grid(1, 16.0, 64)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(1))))
    alpha = 0.5
    ks = np.arange(2, 9)  # separations 0.5 ... 2.0 at h = 0.25
    pairs = np.stack([np.zeros_like(ks), ks], axis=1)
    kernel = jump_kernel(dec, alpha, pairs=pairs)
    d = grid.spacing * ks
    slope = np.polyfit(np.log(d), np.log(kernel.values), 1)[0]
    assert slope == pytest.approx(-(1 + 2 * alpha), abs=0.1)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("case", ["dec_1d_bump", "dec_2d_pullback"])
def test_jump_kernel_reads_no_dense_form(request, monkeypatch, case, alpha):
    # Oracle: the rule's sum of (e^{-lam t} - 1) t^{-1-a}, split into the
    # remainder e^{-lam t} - 1 + lam t, summed per mode, and the linear part
    # -lam t, whose mode sum off the diagonal is read from dense B,
    # s_i s_j sum_k lam_k phi_k(i) phi_k(j) = B_ij h^{-2 dim}.  The weights
    # are restated here: the window trapezoid, plus the end sums
    # (h/2) coth(c h/2) at the rates c = 1 - a (left) and a (right).  The
    # kernel must give the same values from the eigenpairs alone.
    dec = request.getfixturevalue(case)
    grid, m = dec.grid, dec.node_count
    if case == "dec_2d_pullback":  # cross-term neighbours carry weight
        assert np.abs(dec.metric.inverse_tensor[:, 0, 1]).max() > 0.1
    t = LogQuadrature.semigroup(dec.eigenvalues, 1.0 - alpha, alpha).nodes
    step = math.log(t[1] / t[0])
    weights = step * t
    weights[[0, -1]] *= [0.5 + 0.5 / math.tanh(0.5 * c * step)
                         for c in (1.0 - alpha, alpha)]
    lam_t = np.outer(dec.eigenvalues, t)
    eta = (np.expm1(-lam_t) + lam_t) @ (weights * t ** (-1.0 - alpha))
    linear = weights @ t ** (-alpha)
    form = dec.operator.form_matrix
    s = dec.metric.sqrt_det
    prefactor = 1.0 / (2.0 * abs(math.gamma(-alpha)))
    side = grid.shape[0]
    starts = np.arange(0, m, 4)
    listed = np.concatenate([np.stack([starts, (starts + off) % m], axis=1)
                             for off in (1, side + 1, m // 2)])
    assert len(listed) < m  # the row-wise branch
    cases = [(None, *np.triu_indices(m, 1)), (listed, listed[:, 0], listed[:, 1])]
    expected, basis = [], _every_row(dec)
    for _, lo, hi in cases:
        core = ((basis[lo] * eta) * basis[hi]).sum(axis=1)
        head = form[lo, hi] * linear / grid.spacing ** (2 * grid.dim)
        expected.append(prefactor * (s[lo] * s[hi] * core - head))

    def no_dense_form(self):
        raise AssertionError("jump_kernel assembled the dense form matrix")

    monkeypatch.setattr(DiscreteLaplaceBeltrami, "form_matrix", property(no_dense_form))
    for (pairs, _, _), want in zip(cases, expected):
        got = jump_kernel(dec, alpha, pairs=pairs).values
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_jump_kernel_dense_pair_list_reads_its_nodes_only(dec_2d_pullback):
    # every pair among six nodes: 15 pairs, at least as many as their nodes,
    # take one product over those six rows, which a decomposition holding
    # them alone forms to the bit; the values are those of pairs=None
    dec = dec_2d_pullback
    nodes = np.array([3, 40, 41, 57, 130, 255])
    pairs = np.array(list(itertools.combinations(nodes, 2)))[:, ::-1]
    whole = jump_kernel(dec, 0.5, pairs)
    held = jump_kernel(decompose(dec.operator, nodes=nodes), 0.5, pairs)
    assert np.array_equal(held.values, whole.values)
    every = jump_kernel(dec, 0.5)
    table = np.zeros((dec.node_count,) * 2)
    table[every.i_indices, every.j_indices] = every.values
    want = table[pairs[:, 1], pairs[:, 0]]
    assert np.abs(whole.values - want).max() <= 1e-13 * np.abs(want).max()


def test_energy_form_vanishes_on_constants(dec_1d_bump):
    kernel = jump_kernel(dec_1d_bump, 0.5)
    u = np.ones(dec_1d_bump.node_count)
    v = np.sin(np.arange(16.0))
    assert energy_form(kernel, u, v) == 0.0
    assert energy_form(kernel, v, u) == 0.0


def test_energy_form_symmetric_nonnegative(dec_1d_bump):
    kernel = jump_kernel(dec_1d_bump, 0.5)
    rng = np.random.default_rng(30)
    for _ in range(10):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        assert energy_form(kernel, u, v) == pytest.approx(energy_form(kernel, v, u))
        assert energy_form(kernel, u, u) >= 0.0


@pytest.mark.parametrize("N", [16, 32])
def test_energy_form_agrees_with_spectral_pairing(N):
    # E(u, v) = <A^a u, v>_w holds to roundoff on every grid (the left end
    # sum carries the kernel's linear-in-t part), so refinement keeps the
    # agreement instead of revealing a discretization order.
    grid = build_grid(1, 4.0, N)
    met = make_metric(grid, ConformalBump(1, beta=0.6, sigma=0.5, center=(2.0,), r0=1.5))
    dec = decompose(assemble_laplacian(met))
    rng = np.random.default_rng(31)
    u = rng.standard_normal(grid.node_count)
    v = rng.standard_normal(grid.node_count)
    for alpha in (0.25, 0.5, 0.75):
        kernel = jump_kernel(dec, alpha)
        lhs = energy_form(kernel, u, v)
        rhs = weighted_inner(frac_apply_spectral(dec, alpha, u), v, met.measure())
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_energy_dominates_fourier_seminorm():
    # E(u,u) >= c * sum_k |sym_k|^a |u_hat_k|^2 (discrete H^a seminorm);
    # on the identity metric both sides coincide, bumps only raise the energy.
    N, L, alpha = 32, 4.0, 0.5
    grid = build_grid(1, L, N)
    h = L / N
    sym = 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(N) / N)) / h**2
    rng = np.random.default_rng(33)
    for profile in (IdentityMetric(1), ConformalBump(1, beta=0.6, sigma=0.5, center=(2.0,), r0=1.5)):
        met = make_metric(grid, profile)
        dec = decompose(assemble_laplacian(met))
        kernel = jump_kernel(dec, alpha)
        for _ in range(10):
            u = rng.standard_normal(N)
            uhat = np.fft.fft(u)
            seminorm = (h / N) * np.sum(sym**alpha * np.abs(uhat) ** 2)
            assert energy_form(kernel, u, u) >= 0.9 * seminorm


# ----------------------------------------------------------------------
# quadrature helper


def test_log_uniform_window():
    quad = LogQuadrature.log_uniform(1e-8, 1e4, 400)
    assert quad.t_min == pytest.approx(1e-8)
    assert quad.t_max == pytest.approx(1e4)
    assert len(quad) == 400
    np.testing.assert_allclose(np.diff(np.log(quad.nodes)), math.log(1e12) / 399)


def test_log_uniform_integrates_power_law():
    # int_a^b t^{-3/2} dt = 2 (a^{-1/2} - b^{-1/2}); exponential in log t
    quad = LogQuadrature.log_uniform(1e-6, 1e2, 600)
    approx = quad.moments(np.ones(len(quad)), -1.5)
    exact = 2.0 * (quad.t_min ** (-0.5) - quad.t_max ** (-0.5))
    assert approx == pytest.approx(exact, rel=1e-4)


def test_moments_match_direct_sum():
    quad = LogQuadrature.log_uniform(1e-3, 1e2, 60)
    t = quad.nodes
    rng = np.random.default_rng(31)
    values = rng.standard_normal((3, len(quad)))
    values[0, ::3] = 0.0
    values[2] = 0.0
    exponents = np.array([0.0, -1.5, -3.0])
    got = quad.moments(values, exponents)
    assert got.shape == (3, 3)
    for k, e in enumerate(exponents):
        want = (values * t ** e) @ quad.weights
        scale = (np.abs(values) * t ** e) @ quad.weights
        assert np.all(np.abs(got[:, k] - want) <= 1e-13 * scale)
    assert quad.moments(values, -1.5).shape == (3,)
    np.testing.assert_array_equal(quad.moments(values, -1.5), got[:, 1])
    # |1 * t_min^{-20}| = 10^{600}: rejected before the contraction overflows
    deep = LogQuadrature.log_uniform(1e-30, 1.0, 50)
    with pytest.raises(ValueError, match="widen the window"):
        deep.moments(np.ones(len(deep)), -20.0)
    # the log-space form takes the log of every weight
    with pytest.raises(ValueError, match="weights must be positive"):
        LogQuadrature(nodes=quad.nodes, weights=-quad.weights)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t_min=1e-3, t_max=1e-4, count=50),  # reversed window
        dict(t_min=0.0, t_max=1.0, count=50),
        dict(t_min=1e-3, t_max=1.0, count=1),
        dict(t_min=1e-3, t_max=math.inf, count=50),
        # node sets go to the constructor
        dict(nodes=[1.0, 2.0, math.nan], weights=[1.0, 1.0, 1.0]),
    ],
)
def test_log_uniform_rejects_bad_windows(kwargs):
    build = LogQuadrature if "nodes" in kwargs else LogQuadrature.log_uniform
    with pytest.raises(ValueError):
        build(**kwargs)
