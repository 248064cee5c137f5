"""Divergence-form Laplace-Beltrami matrices and their fractional calculus.

The grid operator is

    (A u)_i = -(1/sqrt|g|_i) 2^{-dim} sum_sigma sum_jk
              (D^sigma_j' ( sqrt|g| g^{jk} D^sigma_k u ))_i

with periodic differences D^sigma, forward or backward per axis, averaged
over the 2^dim choices sigma: a second-order quadrature of the Dirichlet
energy that keeps the grid's mirror symmetries.  A is self-adjoint and
positive semi-definite in the weighted inner product, its kernel is the
constants, and for the identity metric in 1d it reduces to the classical
(-1, 2, -1)/h^2 circulant.  The operator is held as a table of stencil
coefficients, one per-node array per offset, built once by
``assemble_laplacian``; ``apply_form`` sums its coefficient x shifted-slice
products, and the dense matrix and its diagonal are read off the table.
All fractional powers are defined through the eigendecomposition of the
symmetric matrix, which ``decompose`` reaches in closed form for an
axis-separable circulant and otherwise by one eigensolve per block of the
grid symmetries the operator holds (the trivial group's one block of size
M when it holds none).  The Balakrishnan route and the jump-kernel route
below are independent cross-checks of that calculus, not substitutes for
it: both read one per-mode weight, the semigroup time integral of
(e^{-t lam} - 1) t^{-1-a} by the geometrically convergent rule
``LogQuadrature.semigroup``, so comparing them with the spectral power
tests lam^a to roundoff.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from .geometry import MetricField, TorusGrid, WeightedMeasure
from .quadrature import LogQuadrature

__all__ = [
    "DiscreteLaplaceBeltrami",
    "SpectralDecomposition",
    "FracKernel",
    "DecompositionSizeError",
    "assemble_laplacian",
    "decompose",
    "heat_apply",
    "heat_kernel",
    "frac_apply_spectral",
    "frac_apply_balakrishnan",
    "frac_energy_matrix",
    "jump_kernel",
    "energy_form",
]

DEFAULT_EIG_CAP = 4096


class DecompositionSizeError(ValueError):
    """Raised when a decomposition would hold more than its cap allows:
    the whole basis beyond M = cap, or more rows or a larger eigensolve
    than cap."""


@dataclasses.dataclass
class DiscreteLaplaceBeltrami:
    """Periodic stencil of A = W^{-1} B and of its quadratic form B = W A.

    B is held as a table: ``offsets`` lists the grid offsets o in
    {-1, 0, 1}^dim at which B has an entry at some node, the centre
    (0, ..., 0) first, and ``stencil[k, i] = B_{i, i + offsets[k]}``
    (indices periodic), one per-node coefficient array per offset: 5
    offsets in 2-d when C_01 = 0, 9 with a cross term, 3 in 1-d
    (:func:`assemble_laplacian`).  The table is the only stored
    representation and is symmetric to the bit
    (``stencil[k, i] = stencil[k', i + offsets[k]]`` for the opposite offset
    k'); :meth:`apply_form` sums its coefficient x shifted-slice products,
    and ``form_matrix`` and :meth:`form_diagonal` are read off it anew on
    each access.  ``grid`` and ``measure`` are read from ``metric``, so
    they cannot disagree with it.
    """

    offsets: tuple       # (K,) offsets, each a dim-tuple in {-1, 0, 1}
    stencil: np.ndarray  # (K, M), B_{i, i + offsets[k]} at row i
    metric: MetricField

    @property
    def grid(self) -> TorusGrid:
        return self.metric.grid

    @property
    def measure(self) -> WeightedMeasure:
        return self.metric.measure()

    @property
    def form_matrix(self) -> np.ndarray:
        """Dense B (M, M), symmetric PSD with u.B.v = <Au, v>_w.

        Filled from :meth:`_form_entries`, so B is symmetric to the bit.
        """
        rows, cols, values = self._form_entries()
        b = np.zeros((self.grid.node_count,) * 2)
        b[rows, cols] = values
        return b

    def _form_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stencil entries of B as (rows, cols, values), K per row.

        The table read offset by offset; N >= 4, so the offsets of a row
        reach distinct nodes and every (i, j) is listed once.
        """
        grid, m = self.grid, self.grid.node_count
        coords = np.indices(grid.shape).reshape(grid.dim, -1)
        cols = [np.ravel_multi_index(coords + np.array(offset)[:, None],
                                     grid.shape, mode="wrap")
                for offset in self.offsets]
        return (np.tile(np.arange(m), len(cols)), np.concatenate(cols),
                self.stencil.ravel())

    def form_diagonal(self) -> np.ndarray:
        """diag(B), the table's centre column, equal to
        ``np.diag(form_matrix)`` bitwise."""
        return self.stencil[0].copy()

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u = W^{-1} B u for a node vector or an (M, cols) block."""
        bu = self.apply_form(u)
        return bu / self.measure.node_weights.reshape((-1,) + (1,) * (bu.ndim - 1))

    def apply_form(self, X: np.ndarray) -> np.ndarray:
        """B X for a node vector or an (M, cols) block.

        The sum over the table of coefficient x shifted operand, with the
        node axis last (X.T, a view): in flattened node order the periodic
        shift by an offset is one shift along that axis, so each product
        is formed from two slices of X into one work array, and only the N
        nodes whose inner coordinate wraps are re-read at their true
        neighbour (:func:`_flat_shift`); no shifted copy of X is made.
        The level-major blocks of the extension solve come as the
        transposed view ((levels, M).T), whose node axis is contiguous.
        Every element goes through the same arithmetic in either layout,
        and the output keeps X's layout.
        """
        V = np.asarray(X, float).T
        m = V.shape[-1]
        out = np.multiply(self.stencil[0], V, out=np.empty_like(V))
        term = np.empty_like(V)
        for offset, coef in zip(self.offsets[1:], self.stencil[1:]):
            shift, to, at = _flat_shift(self.grid.shape, offset)
            np.multiply(coef[:m - shift], V[..., shift:], out=term[..., :m - shift])
            np.multiply(coef[m - shift:], V[..., :shift], out=term[..., m - shift:])
            term[..., to] = coef[to] * V[..., at]
            out += term
        return out.T


@functools.lru_cache(maxsize=64)
def _flat_shift(shape: tuple, offset: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """The periodic shift by ``offset`` in flattened (C-order) node indices.

    Node i reads node i + shift (modulo M), which is node i + offset except
    where an inner axis (all but the first) wraps; those nodes ``to`` read
    their neighbours ``at`` instead.  The index arrays are read-only, since
    every call with the same grid shape shares them.
    """
    strides = [math.prod(shape[j + 1:]) for j in range(len(shape))]
    shift = int(np.dot(offset, strides)) % math.prod(shape)
    target = np.indices(shape).reshape(len(shape), -1) + np.array(offset)[:, None]
    inner, sides = target[1:], np.array(shape[1:])[:, None]
    to = np.flatnonzero(np.any((inner < 0) | (inner >= sides), axis=0))
    at = np.ravel_multi_index(target[:, to], shape, mode="wrap")
    to.flags.writeable = at.flags.writeable = False
    return shift, to, at


def assemble_laplacian(metric: MetricField) -> DiscreteLaplaceBeltrami:
    """The periodic divergence-form operator of a sampled metric.

    With the node coefficients C_jk = h^{dim-2} sqrt|g| g^{jk}, B is the
    average over the 2^dim choices sigma of a forward or a backward
    difference per axis,

        u.B.v = 2^{-dim} sum_sigma sum_i sum_jk C_jk,i (D^sigma_j u)_i (D^sigma_k v)_i ,

    with A = W^{-1} B.  Its table (``DiscreteLaplaceBeltrami``) is built
    here once, in closed form:

    - the edge (i, i + e_j) carries the mean kappa_j = (C_jj,i + C_jj,i+e_j)/2
      of its two ends, B_{i, i + e_j} = B_{i + e_j, i} = -kappa_j, and the
      centre B_ii is the sum of kappa over the 2 dim edges at i;
    - a cross term enters only across a cell diagonal:
      B_{i, i+o} = -(o_j o_k / 4) (c_{i + o_j e_j} + c_{i + o_k e_k}) for
      o = o_j e_j + o_k e_k, with c = (C_jk + C_kj)/2 at the cell's two
      other corners (its products with a centre difference cancel over
      sigma, so it adds nothing to the centre or the edges).

    Every entry and its mirror B_{i+o, i} are the same sum with the operands
    swapped, so the table is symmetric to the bit.  Averaging the forward
    and the backward pairing centres each difference product on its
    coefficient, so u.B.u is a second-order quadrature of the Dirichlet
    energy where C varies (pairing C_i with (D+_k u)_i alone, which lives
    at i + e_k/2, is first-order).  B keeps positive semi-definiteness and
    the constants as kernel, and a mirror of the grid maps it onto itself
    whenever it maps C onto itself (with C_jk -> -C_jk across the mirrored
    axis).  Where every node carries the same diagonal C (the identity
    metric, constant diagonal metrics and, to roundoff, 2-d conformal
    metrics, whose C = I) it is the classical 5-point stencil.  Offsets
    whose coefficient is 0 at every node are left out.  Support-operator
    stencils of this kind: Shashkov and Steinberg, J. Comput. Phys. 118
    (1995).  No dense matrix is built.
    """
    grid = metric.grid
    h, dim = grid.spacing, grid.dim
    c = ((h ** dim / h ** 2) * metric.sqrt_det[:, None, None]
         * metric.inverse_tensor).reshape(grid.shape + (dim, dim))
    centre = (0,) * dim
    table = {centre: np.zeros(grid.shape)}
    for j in range(dim):
        step = np.eye(dim, dtype=int)[j]
        edge = 0.5 * (c[..., j, j] + np.roll(c[..., j, j], -1, axis=j))
        behind = np.roll(edge, 1, axis=j)  # the edge (i - e_j, i)
        table[tuple(step)], table[tuple(-step)] = -edge, -behind
        table[centre] = table[centre] + edge + behind
        for k in range(j + 1, dim):
            cross = 0.5 * (c[..., j, k] + c[..., k, j])
            for oj, ok in itertools.product((1, -1), repeat=2):
                offset = oj * step + ok * np.eye(dim, dtype=int)[k]
                table[tuple(offset)] = -0.25 * oj * ok * (
                    np.roll(cross, -oj, axis=j) + np.roll(cross, -ok, axis=k))
    offsets = [centre] + [o for o in itertools.product((-1, 0, 1), repeat=dim)
                          if o != centre and np.any(table[o])]
    return DiscreteLaplaceBeltrami(
        offsets=tuple(offsets),
        stencil=np.stack([table[o].ravel() for o in offsets]), metric=metric)


@dataclasses.dataclass(frozen=True)
class SymmetryBlock:
    """One symmetry block of S and the columns of the modes it holds.

    The block's matrix is written in the orbit vectors
    u_O = sum_{n in O} coef[n] e_n, with ``index[n]`` the block row of node
    n's orbit and ``coef[n]`` = +-1/sqrt|O| (0 on the orbits the block has
    no vector on).  Its eigenvectors v are read once per copy: copy c holds
    the modes at the columns ``columns[c]`` of the sorted basis (in the
    order of v), and the node vector of v in copy c is
    x_n = coef[p n] v[index[p n]] with p = ``perms[c]``, x = W^{1/2} phi.
    A generator g with coef[p g n] = chi coef[p n] at every node, chi = +-1,
    labels the copy: x[g n] = chi x[n] for each of its modes.
    """

    index: np.ndarray                  # (M,)
    coef: np.ndarray                   # (M,)
    perms: tuple[np.ndarray, ...]      # one row permutation per copy
    columns: tuple[np.ndarray, ...]    # per copy, its modes' sorted columns


@dataclasses.dataclass(frozen=True)
class SymmetryGroup:
    """The grid symmetries a decomposition's modes are labelled by.

    ``generators`` are node permutations (node n maps to p[n]); every mode
    lies in exactly one copy of one of ``blocks``.  The trivial group has
    no generators and one block, S itself: every column, c = 1 at every
    node.
    """

    generators: tuple[np.ndarray, ...]
    blocks: tuple[SymmetryBlock, ...]

    @classmethod
    def trivial(cls, node_count: int) -> "SymmetryGroup":
        every = np.arange(node_count)
        return cls(generators=(), blocks=(SymmetryBlock(
            index=every, coef=np.ones(node_count), perms=(every,),
            columns=(every,)),))


@dataclasses.dataclass
class SpectralDecomposition:
    """Eigenpairs of A, orthonormal in the weighted inner product.

    Columns of ``basis`` are the eigenvectors phi_k with
    <phi_j, phi_k>_w = delta_jk, each with the sign its eigensolve gives
    it (every reader is unchanged by a negation of a mode); eigenvalues
    are sorted ascending with the zero mode (constants) first and snapped
    to exactly 0.  ``grid``, ``metric`` and ``measure`` are those of
    ``operator``.  ``nodes`` is None when ``basis`` holds every node;
    otherwise ``basis`` holds only the rows at ``nodes`` (sorted, unique),
    bitwise those rows of the whole basis, and :meth:`rows` is the only
    reader that serves it.  ``symmetry`` records the symmetry block of
    every mode (:class:`SymmetryGroup`, the trivial group when there is
    none).
    """

    eigenvalues: np.ndarray  # (M,)
    basis: np.ndarray        # (M, M), or (len(nodes), M)
    operator: DiscreteLaplaceBeltrami
    symmetry: SymmetryGroup
    nodes: np.ndarray | None = None

    @property
    def grid(self) -> TorusGrid:
        return self.operator.grid

    @property
    def metric(self) -> MetricField:
        return self.operator.metric

    @property
    def measure(self) -> WeightedMeasure:
        return self.operator.measure

    @property
    def node_count(self) -> int:
        return self.eigenvalues.size

    @property
    def full_basis(self) -> np.ndarray:
        """The whole (M, M) basis; raises on a rows-only decomposition."""
        if self.nodes is not None:
            raise ValueError(
                f"this decomposition holds the eigenbasis at {self.nodes.size} "
                f"of {self.node_count} nodes only; call decompose(op) without "
                "nodes= for a reader of the whole basis")
        return self.basis

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """The basis rows phi_k(n) at the index array ``nodes``, (len, M).

        A new array.  Raises for a node whose row is not held.
        """
        if self.nodes is None:
            return self.basis[nodes]
        nodes = np.asarray(nodes)
        at = np.minimum(np.searchsorted(self.nodes, nodes), self.nodes.size - 1)
        missing = nodes[self.nodes[at] != nodes]
        if missing.size:
            raise ValueError(
                f"nodes {missing[:8].tolist()} are not among the "
                f"{self.nodes.size} nodes whose basis rows this decomposition "
                "holds; decompose with them in nodes=")
        return self.basis[at]

    def project(self, u: np.ndarray) -> np.ndarray:
        """Coefficients <phi_k, u>_w."""
        return self.full_basis.T @ (self.measure.node_weights * u)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return self.full_basis @ coeffs


def decompose(op: DiscreteLaplaceBeltrami, cap: int = DEFAULT_EIG_CAP,
              nodes: np.ndarray | None = None) -> SpectralDecomposition:
    """Eigenpairs of A, by the cheaper of two routes the operator allows.

    1. Closed form.  If every node carries bitwise the same stencil
       entries, the entry of each offset equals that of the offset negated
       along any one axis, and every node carries bitwise the same weight w
       (the identity metric, or any constant metric with a diagonal
       tensor), A is a circulant whose symbol is even along every axis,
       and tensor products of the per-axis Fourier modes diagonalise it
       exactly; see :func:`_fourier_eigenpairs`.  Each condition is
       needed: in 2-d a conformal metric has C_jk = sqrt|g| g^{jk} = I at
       every node (the Dirichlet energy is conformally invariant) while its
       weights vary, and a constant C_01 != 0 fills the cell diagonals with
       entries of opposite sign on the two diagonals, a term odd in each
       frequency separately (even only under theta -> -theta as a whole),
       which mixes the cosine and the sine of one axis, so no tensor
       product of real per-axis modes diagonalises A.  Such operators take
       the symmetry blocks.
    2. Symmetry blocks.  In 2-d, three node permutations are candidate
       symmetries: the mirrors sigma0 (i, j) -> (-i, j) and
       sigma1 (i, j) -> (i, -j), indices modulo N, and the transposition
       tau (i, j) -> (j, i).  One holds if it maps B's stencil entries and
       w onto themselves to within ``_SYMMETRY_ULPS`` units of roundoff of
       max|B| and max w.  B is checked, not C, since B is what the blocks
       split; the averaged stencil (:func:`assemble_laplacian`) maps a
       mirror-invariant C (with C_01 -> -C_01) onto a mirror-invariant B.
       S = W^{-1/2} B W^{-1/2} then commutes with the group G that the
       holding symmetries generate and splits into one block per
       irreducible representation of G (Bossavit, Comput. Methods Appl.
       Mech. Engrg. 1986; Fassler and Stiefel, Group Theoretical Methods
       and Their Applications, 1992); see :func:`_symmetry_blocks` and
       :func:`_block_eigenpairs`.
       - The centred conformal bump (C = I) and its pullback by a centred
         radial squash hold all three, and G is the dihedral group D4 of
         the square.  The blocks of its four 1-d representations have
         sizes (N^2 + 6N + 8)/8, (N^2 - 6N + 8)/8, (N^2 + 2N)/8 and
         (N^2 - 2N)/8, and that of its 2-d one (N^2 - 4)/4, solved once
         for both of its sets of modes: at N = 48, 325, 253, 300, 276 and
         575, against M = 2304.
       - A centred axis-aligned ``AnisotropicBump`` holds both mirrors:
         four blocks, (N/2 + 1)^2, (N/2 - 1)^2 and twice (N^2 - 4)/4.
       - Metrics centred on the diagonal off the mirror axes (a bump, its
         pullback) and constant metrics with a cross term and an equal
         diagonal hold tau alone: blocks of N(N+1)/2 and N(N-1)/2.
       - A conformal bump centred on one mirror axis only holds that
         mirror: blocks of N(N+2)/2 and N(N-2)/2.
       Bumps centred elsewhere, and every 1-d operator, hold none: G is
       the trivial group, whose one block is S itself, solved by one
       eigensolve of size M.

    Both routes record the block of every mode on the result
    (``SpectralDecomposition.symmetry``): the symmetry-block route the
    blocks it solved, each copy with its columns in the sorted order, and
    the closed form in 2-d the four blocks of the mirror group
    {sigma0, sigma1}, read off each mode's cos/sin parity on each axis (the
    trivial group in 1-d).  The exterior layer solves its Omega problem one
    block at a time on them (``exterior._solve_blocks``).

    ``nodes`` asks for the basis rows at those nodes only (sorted and made
    unique, a non-empty 1-d index array; ``SpectralDecomposition.rows``
    reads them).  The eigenvalues and the eigensolves are the same, and
    each route fills only the rows asked for, so the rows are bitwise those
    of the whole basis.

    Cost is memory as much as time: every M x M float64 matrix takes
    8 M^2 bytes (42.5 MB at M = 2304, 2-d N = 48).  The block route sums
    each block from the stencil entries just before its eigensolve, and the
    closed form fills the basis from two N x M per-axis tables, so only
    the trivial group's one block is an M x M matrix besides the basis.
    Its eigensolve peaks at about five of them -- S, numpy's working copy
    of it, the eigenvectors and the 2 M^2 workspace of LAPACK's divide and
    conquer -- and the whole basis is allocated only after it returns.
    With ``nodes`` the basis is len(nodes) x M rows (475 x 2304 on the
    benchmark layout at N = 48, 8.8 MB), and the block route reads each
    block's eigenvectors into them right after its eigensolve.  Measured
    at M = 2304 (x86-64, numpy 2.4, OpenBLAS at 2 threads), the peak
    resident set rises above the caller's by 209 MiB for the trivial
    group, with or without ``nodes``; with the whole basis by 104 MiB for
    the transposition blocks, 50 MiB for the dihedral blocks (the bump
    and its pullback alike) and 43 MiB for the closed form; with the
    benchmark layout's rows by 62, 24 and 12 MiB.  With glibc's mmap threshold fixed
    at 128 KiB, so that every freed block leaves the heap, the two block
    routes rise 65 and 47 MiB with the whole basis.  Of the transposition
    route's 62 MiB with rows, about 48 MiB is its larger eigensolve, of
    N(N+1)/2 = 1176, with its input.

    ``cap`` bounds what each route holds.  The whole basis is M x M on
    both routes, so without ``nodes`` M must not exceed it.  With ``nodes``
    a route holds only the rows and each block's eigensolve, so it is
    capped on len(nodes) and on the largest eigensolve, which is M for the
    trivial group; with a larger group it may run beyond M = cap: at
    N = 96 (M = 9216) the dihedral blocks are at most 2303 and the
    benchmark layout's rows 1933.  Both routes share the zero snap of
    :func:`_finish_eigenpairs`.  The result keeps its basis alive for as
    long as it is referenced: callers should drop a decomposition once they
    have read the blocks they need from it (``exterior.dtn_matrix``, say),
    before the next call.
    """
    m = op.grid.node_count
    if nodes is None:
        if m > cap:
            raise _size_error(f"grid has {m} nodes, whole eigenbasis capped at "
                              f"{cap}", m, m)
        at = np.arange(m)
    else:
        nodes = np.asarray(nodes, dtype=int)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError(f"nodes must be a non-empty 1-d index array, got "
                             f"shape {nodes.shape}")
        nodes = at = np.unique(nodes)
        if np.any((at < 0) | (at >= m)):
            raise ValueError(f"nodes must lie in [0, {m})")
        if at.size > cap:
            raise _size_error(f"{at.size} basis rows asked for, capped at {cap}",
                              at.size, m)
    w = op.measure.node_weights
    root_w = np.sqrt(w)
    first = dict(zip(op.offsets, op.stencil[:, 0]))
    if (np.all(op.stencil == op.stencil[:, :1]) and np.all(w == w[0])
            and all(first.get(o[:j] + (-o[j],) + o[j + 1:]) == b
                    for o, b in first.items() for j in range(op.grid.dim))):
        evals, evecs, group = _fourier_eigenpairs(op, w[0], at)
    else:
        entries = op._form_entries()
        evals, evecs, group = _block_eigenpairs(
            entries, root_w, _symmetry_blocks(op, entries), at, cap)
    return SpectralDecomposition(
        eigenvalues=_finish_eigenpairs(evals, evecs, root_w[at]),
        basis=evecs, operator=op, symmetry=group, nodes=nodes)


def _size_error(what: str, rows: int, cols: int) -> DecompositionSizeError:
    return DecompositionSizeError(
        f"{what}; one {rows} x {cols} float64 matrix takes "
        f"{8 * rows * cols / 1e6:.3g} MB")


# how far, in units of roundoff of max|B| and max w, a 2-d operator may miss
# a grid symmetry (sigma0, sigma1 or tau) and still take the block route.
# Measured misses of B's stencil entries and of w, in those units:
# - the centred conformal bump misses the mirrors by at most 0.125 and 1.5
#   (the benchmark's bumps at N = 16 to 96), and tau by 0;
# - its pullback by a centred radial squash misses the three by at most
#   1.94 and 3.40 (the benchmark's pullbacks at N = 16 to 96): its tensors
#   come out of an einsum whose summation order differs between a node and
#   its image, and the node coordinates i h and (N - i) h are not mirror
#   images to the bit;
# - over the 2-d property tests' ranges (N = 12 to 24) B misses by at most
#   2.89, and w by at most 4.10; a strongly squashed pullback can miss the
#   mirrors in w by up to 8.9 and then takes a smaller group's blocks (the
#   trivial group's at worst), which is slower but not less exact.
# An operator without the symmetry misses it by O(1) relative: a pullback
# centred on the diagonal but off the mirror axes misses the mirrors by
# 0.05 max|B| and 0.4 max w.
_SYMMETRY_ULPS = 8.0


def _grid_symmetries(n: int) -> list[np.ndarray]:
    """sigma0, sigma1 and tau of the N x N grid, each as the node
    permutation p that maps node n to node p[n]."""
    i, j = np.indices((n, n))
    return [np.ravel_multi_index(image, (n, n)).ravel()
            for image in (((-i) % n, j), (i, (-j) % n), (j, i))]


def _symmetry_blocks(op: DiscreteLaplaceBeltrami, entries: tuple
                     ) -> list[tuple[list[np.ndarray], tuple, list[np.ndarray]]]:
    """The blocks of S under the grid symmetries of the operator.

    A symmetry p holds if B_{p r, p c} = B_rc over the stencil entries
    ``entries`` (:meth:`DiscreteLaplaceBeltrami._form_entries`, every
    (r, c) once) and w_{p n} = w_n, within ``_SYMMETRY_ULPS``.  Each block
    is (generators, signs, copies): the node permutations that generate its
    group, the value of its character on each of them, and the row
    permutations at which its eigenvectors are read, one set of modes per
    copy.  A group of commuting involutions (one mirror, both, or tau alone)
    has one block per sign pattern.  Tau with a mirror generates D4, since
    it conjugates one mirror into the other.  D4's four 1-d representations are the sign
    patterns with equal signs on the mirrors.  Its 2-d one, E, is the block
    of the mirror group's pattern (+1, -1): tau maps it onto the pattern
    (-1, +1), so the block's eigenvectors read at tau-permuted rows are E's
    partner modes.  In 1-d, and in 2-d when no symmetry holds, the group is
    the trivial one: a single block with no generators, S itself.
    """
    m = op.grid.node_count
    identity = np.arange(m)
    if op.grid.dim != 2:
        return [([], (), [identity])]
    rows, cols, values = entries
    keys = rows * m + cols
    order = np.argsort(keys)
    w = op.measure.node_weights
    tol = _SYMMETRY_ULPS * np.finfo(float).eps

    def holds(p: np.ndarray) -> bool:
        image = order[np.searchsorted(keys, p[rows] * m + p[cols], sorter=order)]
        return bool(np.abs(values[image] - values).max()
                    <= tol * np.abs(values).max()
                    and np.abs(w[p] - w).max() <= tol * w.max())

    sigma0, sigma1, tau = _grid_symmetries(op.grid.points_per_side)
    mirrors = [p for p in (sigma0, sigma1) if holds(p)]
    tau_holds = holds(tau)
    if tau_holds and mirrors:
        return [([sigma0, sigma1, tau], (a, a, b), [identity])
                for a, b in itertools.product((1.0, -1.0), repeat=2)
                ] + [([sigma0, sigma1], (1.0, -1.0), [identity, tau])]
    generators = mirrors or ([tau] if tau_holds else [])
    return [(generators, signs, [identity])
            for signs in itertools.product((1.0, -1.0), repeat=len(generators))]


def _orbit_basis(generators: list[np.ndarray], signs: tuple, node_count: int
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """The orthonormal basis of one character's block, node by node.

    The group's elements are the products of the generators over all their
    subsets (commuting involutions, or sigma0, sigma1 and tau, whose eight
    such products are D4; the identity alone for no generators), acting on
    ``node_count`` nodes, the character chi of each the product of the
    signs.  For the orbit O of node n, sum_g chi(g) e_{g n} is zero unless
    chi is 1 on the stabiliser of n, and otherwise a multiple of
    u_O = sum_{m in O} c_m e_m with c_m = +-1/sqrt|O|.  Returns per node m
    the block row of its orbit (ordered by the orbit's smallest node), c_m
    (0 on the orbits without a vector) and the block size.
    """
    perms, chars = [np.arange(node_count)], [1.0]
    for gen, sign in zip(generators, signs):
        perms += [gen[p] for p in perms]
        chars += [sign * c for c in chars]
    perms = np.array(perms)
    rep = perms.min(axis=0)  # the smallest node of each orbit
    reps = np.flatnonzero(rep == np.arange(rep.size))
    coef = np.bincount(perms[:, reps].ravel(), minlength=rep.size,
                       weights=np.repeat(chars, reps.size))
    norm2 = np.bincount(rep, weights=coef ** 2, minlength=rep.size)
    live = coef != 0.0
    index = np.where(live, np.cumsum(norm2 > 0.0)[rep] - 1, 0)
    coef[live] /= np.sqrt(norm2[rep[live]])
    return index, coef, int(np.count_nonzero(norm2))


def _block_eigenpairs(entries: tuple, root_w: np.ndarray, blocks: list,
                      at: np.ndarray, cap: int
                      ) -> tuple[np.ndarray, np.ndarray, SymmetryGroup]:
    """Eigenvalues of S from its symmetry blocks (:func:`_symmetry_blocks`),
    the rows at the nodes ``at`` of its eigenvectors, and the record of the
    blocks (:func:`_symmetry_group`).

    In a block's basis u_O (:func:`_orbit_basis`) its matrix is
    K_OP = u_O' S u_P, the sum of c_r c_c S_rc over the stencil entries
    (r, c) of B (``entries``) with r in O and c in P, so it is summed from
    the entries with ``np.bincount`` just before its eigensolve, and no
    M x M matrix is formed before the basis.  K is the block of the
    G-average of S, which is S itself for an exactly invariant operator
    and for the trivial group (c = 1, K = S summed onto +0.0, so a -0.0
    entry of B enters as +0.0).
    An eigenvector v of K is the node vector x_m = c_m v_{row of m}, read
    once per copy of the block at the copy's row permutation
    (:func:`_fill_rows`).  Rows alone are read right after each
    eigensolve, so one block's eigenvectors are alive at a time.  The
    whole M x M basis is allocated only after the last eigensolve, so that
    it never sits beside an eigensolve's workspace.  The eigenvalues of
    all copies are merged by a stable ascending sort (block order on ties)
    and the columns sorted to match, one block of rows at a time, so no
    temporary of the basis's size is formed.  An empty block
    ((N^2 - 6N + 8)/8 = 0 at N = 4) is skipped.  Every block's orbit basis
    is formed first, so a block larger than ``cap`` raises before any
    eigensolve.
    """
    m = root_w.size
    bases = [_orbit_basis(generators, signs, m) for generators, signs, _ in blocks]
    largest = max(k for _, _, k in bases)
    if largest > cap:
        raise _size_error(f"largest eigensolve has {largest} rows, capped at "
                          f"{cap}", largest, largest)
    rows, cols, values = entries
    values = values / (root_w[rows] * root_w[cols])
    basis = np.empty((at.size, m)) if at.size < m else None
    evals, solved, start = [], [], 0
    for (index, coef, k), (_, _, copies) in zip(bases, blocks):
        if k:
            vals, vecs = np.linalg.eigh(np.bincount(
                index[rows] * k + index[cols], minlength=k * k,
                weights=values * (coef[rows] * coef[cols])).reshape(k, k))
            evals += [vals] * len(copies)
            solved.append((vecs, index, coef, copies))
            del vecs  # held by ``solved`` alone, until it is written
        if basis is not None:
            start = _fill_rows(basis, at, solved, start)
    del rows, cols, values
    if basis is None:
        basis = np.empty((m, m))
        _fill_rows(basis, at, solved, start)
    evals = np.concatenate(evals)
    order = np.argsort(evals, kind="stable")
    for r0 in range(0, at.size, _BLOCK):  # order is a permutation: no bounds check
        basis[r0:r0 + _BLOCK] = np.take(basis[r0:r0 + _BLOCK], order, axis=1,
                                        mode="clip")
    return evals[order], basis, _symmetry_group(blocks, bases, order)


def _symmetry_group(blocks: list, bases: list, order: np.ndarray) -> SymmetryGroup:
    """The record of the solved blocks.

    The eigenvalues entered the sort block by block and copy by copy, so
    the columns of a copy are where the stable sort ``order`` put its
    entries; nothing is sorted again (a re-sort would break the ties
    between the copies of one block, which have equal eigenvalues, in
    another order).  The group's generators are the longest list among the
    blocks (D4's 1-d blocks list sigma0, sigma1 and tau; its 2-d block
    only the mirrors).  Empty blocks are left out.
    """
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    group = max((generators for generators, _, _ in blocks), key=len)
    out, start = [], 0
    for (_, _, copies), (index, coef, k) in zip(blocks, bases):
        if not k:
            continue
        columns = tuple(column[start + c * k:start + (c + 1) * k]
                        for c in range(len(copies)))
        start += k * len(copies)
        out.append(SymmetryBlock(index=index, coef=coef, perms=tuple(copies),
                                 columns=columns))
    return SymmetryGroup(generators=tuple(group), blocks=tuple(out))


def _fill_rows(basis: np.ndarray, at: np.ndarray, solved: list,
               start: int) -> int:
    """Write the solved blocks' eigenvectors at the nodes ``at`` into the
    columns of ``basis`` from ``start`` on, emptying ``solved`` (each
    block's eigenvectors are dropped once written); returns the next free
    column."""
    while solved:
        vecs, index, coef, copies = solved.pop(0)
        for p in copies:
            for r0 in range(0, at.size, _BLOCK):
                nodes = p[at[r0:r0 + _BLOCK]]
                np.multiply(vecs[index[nodes]], coef[nodes, None],
                            out=basis[r0:r0 + _BLOCK, start:start + len(vecs)])
            start += len(vecs)
        del vecs
    return start


# rows per block of the basis fills and of the block route's column sort.
# A freed row block stays resident through the next eigensolve; at 64
# (1.2 MB at M = 2304) the next block reuses it, and the peak stays the
# eigensolve's.
_BLOCK = 64


def _finish_eigenpairs(evals: np.ndarray, evecs: np.ndarray,
                       root_w: np.ndarray) -> np.ndarray:
    """Zero snap and W-scaling shared by both routes.

    ``evals`` ascend and ``evecs`` are rows of the matching
    Euclidean-orthonormal eigenvectors of W^{1/2} A W^{-1/2}, ``root_w``
    W^{1/2} at those rows.  Eigenvalues below 1e-12 lam_max are snapped to
    0 (and a clearly negative one is an error).  The rows are divided by
    W^{1/2} in place, so ``evecs`` becomes (rows of) the W-orthonormal
    basis.  No sign is fixed: each eigenvector keeps the sign its route
    gives it.  Returns the snapped eigenvalues.
    """
    lam_max = max(float(evals[-1]), 1.0)
    if evals[0] < -1e-10 * lam_max:
        raise ArithmeticError(
            f"eigensolve produced spurious negative eigenvalue {evals[0]:.3e}")
    evals = np.where(evals < 1e-12 * lam_max, 0.0, evals)
    evecs /= root_w[:, None]
    return evals


def _fourier_eigenpairs(op: DiscreteLaplaceBeltrami, weight: float,
                        at: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, SymmetryGroup]:
    """Closed-form eigenpairs of an axis-separable circulant operator.

    With the same stencil entries and the same w at every node, each entry
    equal to that of its offset negated along any one axis, B is a
    circulant whose symbol sigma(theta) is even in every theta_j
    separately (for a diagonal C, sum_j C_jj 4 sin^2(theta_j / 2)), so the
    tensor products of the per-axis modes of :func:`_axis_modes`
    diagonalise it: mode (c_0, ..., c_{dim-1}), flattened like the nodes,
    has eigenvalue lam = sigma / w at theta_j = 2 pi c_j / N.  The symbol
    is the DFT of B's column at node 0, ``op.apply_form`` on the unit
    vector e_0.  The modes are ordered by a stable ascending sort of
    lam (ties keep the flattened mode order).  Returns the basis rows at
    the nodes ``at``; in 2-d the row of node (i, j) is Q[i, c_0] Q[j, c_1],
    filled one block of rows at a time.  In 2-d the modes come labelled by
    the mirror blocks (:func:`_mirror_labels`); in 1-d by the trivial
    group.
    """
    grid = op.grid
    n, m = grid.points_per_side, grid.node_count
    column = op.apply_form(np.eye(1, m).ravel()).reshape(grid.shape)
    evals = np.fft.fftn(column).real.ravel() / weight
    order = np.argsort(evals, kind="stable")
    q = _axis_modes(n)
    if grid.dim == 1:
        return evals[order], q[np.ix_(at, order)], SymmetryGroup.trivial(m)
    first, second = q[:, order // n], q[:, order % n]  # (N, M), per axis
    basis = np.empty((at.size, m))
    for r0 in range(0, at.size, _BLOCK):
        nodes = at[r0:r0 + _BLOCK]
        np.multiply(first[nodes // n], second[nodes % n],
                    out=basis[r0:r0 + _BLOCK])
    return evals[order], basis, _mirror_labels(order, n)


def _mirror_labels(order: np.ndarray, n: int) -> SymmetryGroup:
    """The closed form's modes on the blocks of the mirror group
    {sigma0, sigma1}: column c of the per-axis table is a cosine, even
    under i -> -i, for 2c <= N and a sine, odd, beyond, so the mode of
    frequency (c_0, c_1) lies in the block of the signs of its two
    factors.  Each block holds one copy of its modes."""
    sigma0, sigma1, _ = _grid_symmetries(n)
    parity = [np.where(2 * (order // n) <= n, 1.0, -1.0),
              np.where(2 * (order % n) <= n, 1.0, -1.0)]
    blocks = []
    for signs in itertools.product((1.0, -1.0), repeat=2):
        index, coef, _ = _orbit_basis([sigma0, sigma1], signs, n * n)
        columns = np.flatnonzero((parity[0] == signs[0]) & (parity[1] == signs[1]))
        blocks.append(SymmetryBlock(index=index, coef=coef,
                                    perms=(np.arange(n * n),), columns=(columns,)))
    return SymmetryGroup(generators=(sigma0, sigma1), blocks=tuple(blocks))


def _axis_modes(n: int) -> np.ndarray:
    """The real orthonormal Fourier modes of one periodic axis, (N, N).

    Column c of Q is the mode of frequency c at the nodes 0..N-1:
    sqrt(2/N) cos(2 pi c n / N) for 0 < c < N/2, sqrt(2/N) sin(2 pi c n / N)
    for c > N/2 (minus the sine of frequency N - c), and 1/sqrt(N) cos at
    c = 0 and c = N/2 (N is even).  A periodic stencil whose symbol is even
    in the frequency maps column c to its symbol at 2 pi c / N times
    itself: the second difference to 4 sin^2(pi c / N) (Lynch, Rice and
    Thomas, Numer. Math. 1964).  Reducing c n modulo N first keeps the
    phases below 2 pi.
    """
    c = np.arange(n)
    phase = 2.0 * np.pi * (np.outer(c, c) % n) / n
    scale = np.where((c == 0) | (2 * c == n), math.sqrt(1.0 / n), math.sqrt(2.0 / n))
    return np.where(2 * c <= n, np.cos(phase), np.sin(phase)) * scale


# --------------------------------------------------------------------------
# heat semigroup


def heat_apply(dec: SpectralDecomposition, t: float, u: np.ndarray) -> np.ndarray:
    """e^{-tA} u; a weighted-L2 contraction for t >= 0."""
    if t < 0:
        raise ValueError("heat semigroup requires t >= 0")
    if t == 0:
        return np.array(u, dtype=float, copy=True)
    coeffs = dec.project(u) * np.exp(-dec.eigenvalues * t)
    return dec.synthesize(coeffs)


def heat_kernel(dec: SpectralDecomposition, t, i, j):
    """Heat kernel p_t(x_i, x_j) = sum_k e^{-lam_k t} phi_k(i) phi_k(j).

    ``t``, ``i`` and ``j`` broadcast against each other like numpy arrays
    and the result has their broadcast shape: ``np.indices((M, M))`` as
    (i, j) gives the whole kernel matrix at one time, and ``ts[:, None]``
    against a pair list (i, j) gives one row per time.  Scalar arguments
    give a float.  Memory is the broadcast size times M.  The product
    phi_k(i) phi_k(j) is formed first, so p_t(i, j) == p_t(j, i) bitwise.
    """
    t = np.asarray(t, float)
    if np.any(t <= 0):
        raise ValueError("heat kernel requires t > 0")
    basis = dec.full_basis
    decay = np.exp(-t[..., None] * dec.eigenvalues)
    values = (basis[i] * basis[j] * decay).sum(axis=-1)
    return float(values) if values.ndim == 0 else values


# --------------------------------------------------------------------------
# fractional powers


def _check_alpha(alpha: float, *, allow_one: bool) -> None:
    ok = 0.0 < alpha <= 1.0 if allow_one else 0.0 < alpha < 1.0
    if not ok:
        span = "(0, 1]" if allow_one else "(0, 1)"
        raise ValueError(f"alpha must lie in {span}, got {alpha}")


def _spectral_power(lam: np.ndarray, alpha: float) -> np.ndarray:
    """lam^alpha on the positive eigenvalues and exactly 0 elsewhere."""
    out = np.zeros_like(lam)
    np.power(lam, alpha, out=out, where=lam > 0)
    return out


def frac_apply_spectral(dec: SpectralDecomposition, alpha: float,
                        u: np.ndarray) -> np.ndarray:
    """A^alpha u through the eigenpairs, with the zero mode annihilated."""
    _check_alpha(alpha, allow_one=True)
    powers = _spectral_power(dec.eigenvalues, alpha)
    return dec.synthesize(dec.project(u) * powers)


def frac_energy_matrix(dec: SpectralDecomposition, alpha: float) -> np.ndarray:
    """Dense symmetric PSD matrix E = W A^alpha, u.E.v = <A^alpha u, v>_w.

    Built anew on each call (M x M); the exterior layer forms only the
    blocks it needs, so this serves as a dense oracle.
    """
    _check_alpha(alpha, allow_one=True)
    powers = _spectral_power(dec.eigenvalues, alpha)
    weighted = dec.full_basis * dec.measure.node_weights[:, None]
    e = (weighted * powers) @ weighted.T
    return 0.5 * (e + e.T)


def _semigroup_weights(lam: np.ndarray, alpha: float) -> np.ndarray:
    """Per-mode eta_k = Gamma(-alpha) lam_k^alpha, the time integral

        int_0^inf (e^{-t lam} - 1) t^{-1-alpha} dt,

    shared by the Balakrishnan operator and the jump kernel.  In log-time
    the integrand decays like -lam e^{(1-alpha) s} below the window and like
    -e^{-alpha s} above it, the end rates of ``LogQuadrature.semigroup``, so
    the weights converge geometrically: within 3.5e-15 relative for alpha
    in [0.02, 0.98] and lam in [0.5, 4000], on 209 nodes (7e-16 at
    alpha = 0.02, 0.05, 0.25, 0.5, 0.75, 0.95 and 0.98).  The heat factor goes
    through expm1: the window starts at lam t <= 1e-17, where
    e^{-t lam} - 1 formed by subtraction keeps no digit.
    """
    quad = LogQuadrature.semigroup(lam, left=1.0 - alpha, right=alpha)
    return quad.moments(np.expm1(-np.outer(lam, quad.nodes)), -1.0 - alpha)


def frac_apply_balakrishnan(dec: SpectralDecomposition, alpha: float,
                            u: np.ndarray) -> np.ndarray:
    """A^alpha u via the semigroup integral

        A^alpha u = (1/Gamma(-alpha)) int_0^inf (e^{-tA} u - u) t^{-1-alpha} dt,

    mode by mode: the coefficients of u are scaled by the weights of
    ``_semigroup_weights`` and divided by Gamma(-alpha).  The eigenpairs only
    carry the semigroup; lam^alpha itself is never formed, so comparing with
    ``frac_apply_spectral`` tests the power by quadrature.
    """
    _check_alpha(alpha, allow_one=False)
    eta = _semigroup_weights(dec.eigenvalues, alpha)
    return dec.synthesize(dec.project(u) * eta) / math.gamma(-alpha)


# --------------------------------------------------------------------------
# jump kernel and nonlocal energy form


@dataclasses.dataclass(frozen=True)
class FracKernel:
    """Nonlocal kernel samples K(x_i, x_j) over an unordered pair list."""

    alpha: float
    i_indices: np.ndarray
    j_indices: np.ndarray
    values: np.ndarray
    grid: TorusGrid

    def __len__(self) -> int:
        return self.values.size


def jump_kernel(dec: SpectralDecomposition, alpha: float,
                pairs: np.ndarray | None = None) -> FracKernel:
    """Jump kernel of A^alpha,

        K(z, x) = sqrt|g(z)| sqrt|g(x)| / (2 |Gamma(-alpha)|)
                  * int_0^inf p_t(z, x) t^{-1-alpha} dt ,

    evaluated per eigenmode as s_i s_j / (2 |Gamma(-alpha)|)
    sum_k eta_k phi_k(i) phi_k(j), with eta_k ~ Gamma(-alpha) lam_k^alpha the
    Balakrishnan weights of ``_semigroup_weights``.  Off the diagonal the
    t-integral of p_t and that of p_t - p_0 agree, because
    sum_k phi_k(i) phi_k(j) vanishes there by completeness; the weights
    integrate the difference over all of (0, inf).  For small t,
    p_t(i, j) = -t B_ij / (w_i w_j) + O(t^2) is nonzero at first order only
    for stencil neighbours: the discrete kernel is linear in t there (it
    decays only polynomially, unlike its continuum counterpart), and the
    left end sum of the weights carries that part, so the nonlocal energy
    form below agrees with the spectral pairing to roundoff on every grid.
    On the periodic grid the kernel reproduces the Euclidean power law at
    separations well inside a period.
    """
    _check_alpha(alpha, allow_one=False)
    m = dec.node_count
    if pairs is None:
        ii, jj = np.triu_indices(m, 1)
    else:
        pairs = np.asarray(pairs)
        ii, jj = pairs[:, 0], pairs[:, 1]
        if np.any(ii == jj):
            raise ValueError("jump kernel is defined for distinct node pairs")
        if np.any(pairs < 0) or np.any(pairs >= m):
            raise ValueError(f"pair indices must lie in [0, {m})")
    # evaluate on the canonical (low, high) ordering so K(i,j) == K(j,i)
    # bitwise, then report the caller's index order
    lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)

    basis = dec.full_basis
    eta = _semigroup_weights(dec.eigenvalues, alpha)
    prefactor = 1.0 / (2.0 * abs(math.gamma(-alpha)))
    s = dec.metric.sqrt_det
    if lo.size >= m:  # full (or near-full) pair sets: one dense product
        full = (basis * eta) @ basis.T
        core = full[lo, hi]
    else:
        core = ((basis[lo] * eta) * basis[hi]).sum(axis=1)
    values = prefactor * s[lo] * s[hi] * core
    return FracKernel(alpha=alpha, i_indices=ii, j_indices=jj, values=values,
                      grid=dec.grid)


def energy_form(kernel: FracKernel, u: np.ndarray, v: np.ndarray) -> float:
    """Nonlocal Dirichlet form

        E(u, v) = h^{2 dim} sum_{i != j} K(i, j) (u_i - u_j)(v_i - v_j),

    evaluated from the unordered pair list (each unordered pair counts twice
    in the ordered sum).
    """
    grid = kernel.grid
    du = np.asarray(u)[kernel.i_indices] - np.asarray(u)[kernel.j_indices]
    dv = np.asarray(v)[kernel.i_indices] - np.asarray(v)[kernel.j_indices]
    h2d = grid.spacing ** (2 * grid.dim)
    return float(2.0 * h2d * np.dot(kernel.values * du, dv))
