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
import numbers

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
    more basis rows (every node without ``nodes=``) or a larger eigensolve
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
      centre B_ii is the sum of kappa over the 2 dim edges at i, paired by
      axis, (kappa_0 + kappa_0') + (kappa_1 + kappa_1'), an order the grid
      symmetries only permute within commutative sums;
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
    the constants as kernel, and a grid mirror or the transposition maps
    it onto itself to the bit whenever it maps C onto itself (with
    C_jk -> -C_jk across a mirrored axis).  Where every node carries the
    same diagonal C (the identity metric, constant diagonal metrics and, to
    roundoff, 2-d conformal metrics, whose C = I) it is the classical
    5-point stencil.  Offsets
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
        table[centre] = table[centre] + (edge + behind)
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
    """One set of modes of a symmetry block of S: eigenvectors and columns.

    The modes are written in the orbit vectors u_O = sum_{n in O} coef[n] e_n,
    with ``coef[n]`` = +-1/sqrt|O| (0 on the orbits without a vector).
    ``vectors`` holds the eigenvectors v in those coordinates, one row per
    orbit held: every orbit when the decomposition holds every node, else
    the orbits its nodes read with a nonzero coef.  ``index[n]`` is the row
    of ``vectors`` holding node n's orbit, wherever that orbit is held;
    node n's vector is x_n = coef[n] v[index[n]], x = W^{1/2} phi, and the
    modes take the columns ``columns`` of the sorted basis.  A generator g
    with coef[g n] = chi coef[n] at every node, chi = +-1, labels the set:
    x[g n] = chi x[n].  D4's 2-d block is two records over one ``vectors``:
    the partner's index and coef are the first's at tau-permuted nodes.
    """

    index: np.ndarray    # (M,)
    coef: np.ndarray     # (M,)
    columns: np.ndarray  # (k,) the modes' sorted columns
    vectors: np.ndarray  # (R, k) v at the R orbits held

    def node_vectors(self, nodes: np.ndarray, out: np.ndarray) -> np.ndarray:
        """x = W^{1/2} phi of the modes at ``nodes``, written into ``out``,
        (len, k)."""
        return np.multiply(self.vectors[self.index[nodes]],
                           self.coef[nodes][:, None], out=out)


# rows per block of SpectralDecomposition.rows: each block of output rows
# is formed in one reused work array of _BLOCK rows, so no temporary beside
# the output grows with the number of rows read
_BLOCK = 64


@dataclasses.dataclass
class SpectralDecomposition:
    """Eigenpairs of A, orthonormal in the weighted inner product.

    The eigenvectors phi_k, <phi_j, phi_k>_w = delta_jk, are held set by
    set: ``blocks`` holds one :class:`SymmetryBlock` per set of modes of
    the group that the node permutations ``generators`` (node n maps to
    p[n]) generate, every mode in exactly one of them (with no generators,
    the trivial group's one block, S itself: every column, coef = 1 at
    every node).  Each holds its eigenvectors in its orbit coordinates,
    each with the sign its route gives it (every reader is unchanged by a
    negation of a mode).  No node-space basis is held; :meth:`rows` forms
    phi at given nodes, bitwise the same whether the decomposition holds
    every node or only some.  Eigenvalues are sorted ascending with the zero
    mode (constants) first and snapped to exactly 0.  ``grid``, ``metric``
    and ``measure`` are those of ``operator``.  ``nodes`` is None when every
    node's row can be formed; otherwise only the rows at ``nodes`` (sorted,
    unique).  Every read of the basis makes one check (:meth:`_held`) on the
    nodes it reads: :meth:`rows` on its nodes, :meth:`project` on the
    support of its vector and :meth:`synthesize` on every node.  So a
    decomposition holding some rows serves each reader whose nodes it holds.
    """

    eigenvalues: np.ndarray  # (M,)
    operator: DiscreteLaplaceBeltrami
    generators: tuple[np.ndarray, ...]
    blocks: tuple[SymmetryBlock, ...]
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

    def _held(self, nodes: np.ndarray) -> np.ndarray:
        """``nodes`` flattened, after the one check every basis read makes:
        they are node indices (:func:`_node_indices`) whose rows are held."""
        flat = _node_indices(nodes, self.node_count).ravel()
        if self.nodes is not None:
            at = np.minimum(np.searchsorted(self.nodes, flat), self.nodes.size - 1)
            missing = flat[self.nodes[at] != flat]
            if missing.size:
                raise ValueError(
                    f"nodes {missing[:8].tolist()} are not among the "
                    f"{self.nodes.size} nodes whose basis rows this "
                    "decomposition holds; decompose with them in nodes=")
        return flat

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """The basis rows phi_k(n) at the index array ``nodes``,
        nodes.shape + (M,).

        A new array, formed _BLOCK rows at a time: every record's node
        vectors (:meth:`SymmetryBlock.node_vectors`) are written in record
        order into one reused (_BLOCK, M) work array, which is taken into
        the sorted columns of the output rows and divided there by W^{1/2}.
        So beside the output a read holds that work array and per-record
        temporaries of at most _BLOCK rows, whatever the number of rows,
        and every element goes through the same gather, coef scale,
        permutation and division: a row is bitwise the same read alone or
        with others.
        """
        flat, m = self._held(nodes), self.node_count
        column = np.empty(m, dtype=int)
        column[np.concatenate([b.columns for b in self.blocks])] = np.arange(m)
        root_w = np.sqrt(self.measure.node_weights[flat])[:, None]
        out = np.empty((flat.size, m))
        work = np.empty((min(_BLOCK, flat.size), m))
        for r0 in range(0, flat.size, _BLOCK):
            part, start = slice(r0, r0 + _BLOCK), 0
            at = flat[part]
            for block in self.blocks:
                k = block.columns.size
                block.node_vectors(at, work[:at.size, start:start + k])
                start += k
            # column is a permutation, so clipping never acts, and the
            # output slice is contiguous: take writes it with no copy
            np.take(work[:at.size], column, axis=1, out=out[part], mode="clip")
            out[part] /= root_w[part]
        return out.reshape(np.shape(nodes) + (m,))

    def project(self, u: np.ndarray) -> np.ndarray:
        """Coefficients <phi_k, u>_w = x_k' W^{1/2} u of a node vector.

        Per record, W^{1/2} u is summed onto its orbit vectors (weights
        coef[n]) over u's nonzero nodes only, whose rows are all it reads
        (an exact zero leaves a sum bitwise as it is), and the sums are
        multiplied by the held rows: one product per record, v' s.
        """
        u = np.asarray(u)
        if u.shape != (self.node_count,):
            raise ValueError(f"u must be a node vector of shape "
                             f"({self.node_count},), got {u.shape}")
        support = self._held(np.flatnonzero(u))
        y = np.sqrt(self.measure.node_weights[support]) * u[support]
        out = np.empty(self.node_count)
        for block in self.blocks:
            sums = np.bincount(block.index[support],
                               weights=block.coef[support] * y,
                               minlength=block.vectors.shape[0])
            out[block.columns] = block.vectors.T @ sums
        return out

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """The node vector sum_k coeffs_k phi_k: per record, the held rows
        times its coefficients (v c), read at every node's orbit times coef
        there, so every node's row must be held."""
        self._held(np.arange(self.node_count))
        x = np.zeros(self.node_count)
        for block in self.blocks:
            x += block.coef * (block.vectors @ coeffs[block.columns])[block.index]
        return x / np.sqrt(self.measure.node_weights)


def decompose(op: DiscreteLaplaceBeltrami, cap: int = DEFAULT_EIG_CAP,
              nodes: np.ndarray | None = None) -> SpectralDecomposition:
    """Eigenpairs of A, by the cheaper of two routes the operator allows.

    1. Closed form.  If every node carries bitwise the same stencil
       entries, the entry of each offset equals that of the offset negated
       along any one axis, and every node carries bitwise the same weight w
       (the identity metric, or any constant metric with a diagonal
       tensor), A is a circulant whose symbol is even along every axis,
       and tensor products of the per-axis Fourier modes diagonalise it
       exactly; see :func:`_fourier_blocks`.  Each condition is
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
       w onto themselves exactly.  B is checked, not C, since B is what the
       blocks split; the averaged stencil (:func:`assemble_laplacian`) maps
       a mirror-invariant C (with C_01 -> -C_01) onto a mirror-invariant B,
       and profiles centred on a grid symmetry centre are sampled so to the
       bit (``geometry.TorusGrid.displacement``).
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

    The two routes differ only in how one block's eigenpairs are found:
    the symmetry-block route solves the blocks of the group it found, and
    the closed form in 2-d takes the four blocks of the mirror group
    {sigma0, sigma1}, whose modes it reads off each mode's cos/sin parity
    on each axis (the trivial group's one block in 1-d).  Everything else
    is :func:`_block_eigenpairs`: the orbit bases, the rows held, the
    merge of the eigenvalues and the records of the result
    (``SpectralDecomposition.blocks``), one per set of modes, each keeping
    its eigenvectors in its orbit coordinates, one row per orbit, so no
    node-space basis is formed; the exterior layer solves its Omega
    problem one record at a time straight from them
    (``exterior._solve_blocks``).

    ``nodes`` asks for the basis rows at those nodes only (sorted and made
    unique, a non-empty 1-d index array), which serve every reader that
    reads them alone: each block then keeps only the orbits those nodes
    read with a nonzero coef in one of its sets of modes.  The eigenvalues
    and the eigensolves are the same, and a row is read the same way from
    either, so the rows are bitwise those of the whole decomposition.

    Cost is memory as much as time: every M x M float64 matrix takes
    8 M^2 bytes (42.5 MB at M = 2304, 2-d N = 48).  The block route sums
    each block from the stencil entries just before its eigensolve and
    keeps its held rows right after it, largest block first, and the
    closed form reads its rows off the N x N per-axis table, so only the
    trivial group's one block is an M x M matrix.  Its eigensolve peaks at
    about five of them -- S, numpy's working copy of it, the eigenvectors
    and the 2 M^2 workspace of LAPACK's divide and conquer.  The dihedral
    blocks hold about M^2 / 8 numbers, the mirror blocks and the
    transposition blocks about M^2 / 4 and M^2 / 2.  Measured at M = 2304
    (x86-64, numpy 2.4, OpenBLAS at 2 threads), the peak resident set
    rises above the caller's by 209 MiB for the trivial group, with or
    without ``nodes``; for every node by 65 MiB for the transposition
    blocks, 16 MiB for the dihedral blocks (the bump and its pullback
    alike) and 14 MiB for the closed form; with the benchmark layout's 475
    nodes by 57, 16 and 4 MiB.  With glibc's mmap threshold fixed at
    128 KiB, so that every freed block leaves the heap, the two block
    routes rise 63 and 16 MiB for every node.  Readers hold basis rows,
    8 M bytes a node, and :meth:`SpectralDecomposition.rows` forms them
    _BLOCK = 64 at a time, so a read holds one 64 x M work array beside
    its output: the exterior solve's 3587 rows at N = 64 (118 MB) peak
    at 120 MB traced.

    ``cap`` bounds the basis rows asked for, len(nodes) or every node
    without ``nodes``, and the largest eigensolve, which is M for the
    trivial group (the closed form solves none); with ``nodes`` and a
    larger group a route may run beyond M = cap: at N = 96 (M = 9216) the
    dihedral blocks are at most 2303 and the benchmark layout's rows 1933.
    Both routes share the zero snap of :func:`_snapped`.  The result keeps
    its blocks alive for as long as it is referenced: callers should drop a
    decomposition once they have read what they need from it
    (``exterior.dtn_matrix``, say), before the next call.
    """
    m = op.grid.node_count
    if nodes is None:
        at = np.arange(m)
    else:
        nodes = _node_indices(nodes, m)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError(f"nodes must be a non-empty 1-d index array, got "
                             f"shape {nodes.shape}")
        nodes = at = np.unique(nodes)
    if at.size > cap:
        raise _size_error(f"{at.size} basis rows asked for, capped at {cap}",
                          at.size, m, "list only the nodes read in nodes=, "
                          "or raise cap")
    w = op.measure.node_weights
    first = dict(zip(op.offsets, op.stencil[:, 0]))
    if (np.all(op.stencil == op.stencil[:, :1]) and np.all(w == w[0])
            and all(first.get(o[:j] + (-o[j],) + o[j + 1:]) == b
                    for o, b in first.items() for j in range(op.grid.dim))):
        blocks, solve = _fourier_blocks(op, w[0])
    else:
        blocks, solve = _symmetry_blocks(op), _eigensolve(op, cap)
    evals, generators, records = _block_eigenpairs(blocks, solve, at)
    return SpectralDecomposition(eigenvalues=_snapped(evals), operator=op,
                                 generators=generators, blocks=records,
                                 nodes=nodes)


def _node_indices(nodes, m: int, name: str = "nodes") -> np.ndarray:
    """``nodes`` as an integer array, after the check that every node
    array the package is given shares (:func:`decompose`, every basis
    read, :func:`jump_kernel`'s pairs, ``exterior.make_exterior_config``,
    ``extension.fd_extension_solve``, ``extension.representation_solution``
    and ``series_coefficients``, and the observer of the heat differences
    in ``recovery``): integer node indices (numpy would read a boolean
    mask as the nodes 0 and 1, and a float array is truncated) in [0, m)
    (numpy would wrap a negative index).  ``name`` names the array in the
    messages."""
    nodes = np.asarray(nodes)
    if nodes.size and nodes.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integer node indices, got dtype "
                         f"{nodes.dtype}; pass np.flatnonzero(mask) for a "
                         "boolean mask, and round float nodes to int")
    outside = (nodes < 0) | (nodes >= m)
    if np.any(outside):
        raise ValueError(f"{name} must lie in [0, {m}); "
                         f"{nodes[outside][:8].tolist()} are out of range")
    return nodes.astype(int, copy=False)


def _check_integers(values, name: str) -> None:
    """Refuse a float or a bool among ``values``, which int() would read."""
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral)
           for v in values):
        raise ValueError(f"{name} must be an integer, got {list(values)}")


def _size_error(what: str, rows: int, cols: int,
                remedy: str) -> DecompositionSizeError:
    return DecompositionSizeError(
        f"{what}; one {rows} x {cols} float64 matrix takes "
        f"{8 * rows * cols / 1e6:.3g} MB; {remedy}")


def _grid_symmetries(n: int) -> list[np.ndarray]:
    """sigma0, sigma1 and tau of the N x N grid, each as the node
    permutation p that maps node n to node p[n]."""
    i, j = np.indices((n, n))
    return [np.ravel_multi_index(image, (n, n)).ravel()
            for image in (((-i) % n, j), (i, (-j) % n), (j, i))]


def _symmetry_blocks(op: DiscreteLaplaceBeltrami
                     ) -> list[tuple[list[np.ndarray], tuple, list[np.ndarray]]]:
    """The blocks of S under the grid symmetries of the operator.

    A symmetry p holds if B_{p r, p c} = B_rc and w_{p n} = w_n, both
    exactly; one unit of roundoff off symmetry leaves a smaller group,
    slower but not less exact.  B is read on its stencil table: p maps
    the offset o to its image L o ((-o0, o1) for sigma0, (o0, -o1) for
    sigma1, (o1, o0) for tau), and holds if ``stencil[L o][p] ==
    stencil[o]`` for every listed offset o; an offset whose image is not
    listed (zero at every node) fails.  Each block is (generators, signs,
    copies): the node permutations that generate its group, the value of
    its character on each of them, and the row permutations at which its
    eigenvectors are read, one set of modes (one record of
    :func:`_block_eigenpairs`) per copy.  A group of
    commuting involutions (one mirror, both, or tau alone) has one block
    per sign pattern.  Tau with a mirror generates D4, since it conjugates
    one mirror into the other.  D4's four 1-d representations are the sign
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
    table = dict(zip(op.offsets, op.stencil))
    w = op.measure.node_weights

    def holds(p: np.ndarray, image) -> bool:
        return np.array_equal(w[p], w) and all(
            image(o) in table and np.array_equal(table[image(o)][p], coefs)
            for o, coefs in table.items())

    sigma0, sigma1, tau = _grid_symmetries(op.grid.points_per_side)
    mirrors = [p for p, image in ((sigma0, lambda o: (-o[0], o[1])),
                                  (sigma1, lambda o: (o[0], -o[1])))
               if holds(p, image)]
    tau_holds = holds(tau, lambda o: (o[1], o[0]))
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
    u_O = sum_{m in O} c_m e_m with c_m = +-1/sqrt|O|, the same magnitude
    on every node of O.  Returns per node m the block row of its orbit
    (ordered by the orbit's smallest node) and c_m (0 on the orbits without
    a vector), and per block row its orbit's smallest node.
    """
    elements, chars = [np.arange(node_count)], [1.0]
    for gen, sign in zip(generators, signs):
        elements += [gen[g] for g in elements]
        chars += [sign * c for c in chars]
    elements = np.array(elements)
    rep = elements.min(axis=0)  # the smallest node of each orbit
    reps = np.flatnonzero(rep == np.arange(rep.size))
    coef = np.bincount(elements[:, reps].ravel(), minlength=rep.size,
                       weights=np.repeat(chars, reps.size))
    norm2 = np.bincount(rep, weights=coef ** 2, minlength=rep.size)
    live = coef != 0.0
    index = np.where(live, np.cumsum(norm2 > 0.0)[rep] - 1, 0)
    coef[live] /= np.sqrt(norm2[rep[live]])
    return index, coef, reps[norm2[reps] > 0.0]


def _block_eigenpairs(blocks: list, solve, at: np.ndarray
                      ) -> tuple[np.ndarray, tuple, tuple[SymmetryBlock, ...]]:
    """Eigenvalues of S, sorted, the generators of its group and its
    records, with their eigenvectors at the orbits that the nodes ``at``
    read.

    ``blocks`` lists (generators, signs, copies) per block
    (:func:`_symmetry_blocks`), and ``solve(signs, index, coef, reps,
    held)`` finds one block's eigenvalues, given its orbit basis
    (:func:`_orbit_basis`), and its eigenvectors v at the block rows
    ``held``: by an eigensolve (:func:`_eigensolve`) or in closed form
    (:func:`_fourier_blocks`).  The rows held are the orbits that the nodes
    ``at`` read with a nonzero coef in some copy (a block none reads keeps
    its first, the row its zero-coef nodes read), and ``index`` is
    renumbered onto them.  Every block's orbit basis is formed first, and
    the blocks are solved largest first (a stable sort by size, block order
    on equal sizes): the largest eigensolve, which sets the peak, then runs
    with no other block's eigenvectors held (in block order D4's 2-d block,
    575 rows at N = 48, ran last, beside the 2.7 MB of the four others), and
    a block over the eigensolve's cap raises before any eigensolve.  An
    empty block ((N^2 - 6N + 8)/8 = 0 at N = 4) is skipped.  Each copy p is
    one record over the block's ``vectors``, with ``index[p]`` and
    ``coef[p]``.  The eigenvalues of all records are merged in block order
    by a stable ascending sort (block order on ties), so the order of the
    solves changes no bit of the result, and the columns of a record are
    where the sort put its entries; nothing is sorted again (a re-sort would
    break the ties between the copies of one block, which have equal
    eigenvalues, in another order).  The group's generators are the longest
    list among the blocks (D4's 1-d blocks list sigma0, sigma1 and tau; its
    2-d block only the mirrors).
    """
    m = blocks[0][2][0].size  # a copy's permutation maps every node
    bases = [_orbit_basis(generators, signs, m) for generators, signs, _ in blocks]
    solved = [[]] * len(blocks)
    for b in sorted(range(len(blocks)), key=lambda b: bases[b][2].size,
                    reverse=True):  # stable: block order on equal sizes
        (index, coef, reps), (_, signs, copies) = bases[b], blocks[b]
        if not reps.size:
            continue
        read = np.concatenate([index[p[at]][coef[p[at]] != 0.0] for p in copies])
        held = np.unique(read) if read.size else np.zeros(1, dtype=int)
        vals, vectors = solve(signs, index, coef, reps, held)
        if held.size < reps.size:
            index = np.searchsorted(held, index)
        solved[b] = [(vals, index[p], coef[p], vectors) for p in copies]
    solved = sum(solved, [])
    evals = np.concatenate([vals for vals, _, _, _ in solved])
    order = np.argsort(evals, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    records, start = [], 0
    for vals, index, coef, vectors in solved:
        records.append(SymmetryBlock(index=index, coef=coef, vectors=vectors,
                                     columns=column[start:start + vals.size]))
        start += vals.size
    generators = max((generators for generators, _, _ in blocks), key=len)
    return evals[order], tuple(generators), tuple(records)


def _snapped(evals: np.ndarray) -> np.ndarray:
    """The zero snap shared by both routes: of the ascending ``evals``,
    those below 1e-12 lam_max are set to 0 (and a clearly negative one is
    an error).  No sign is fixed: each eigenvector keeps the sign its
    route gives it."""
    lam_max = max(float(evals[-1]), 1.0)
    if evals[0] < -1e-10 * lam_max:
        raise ArithmeticError(
            f"eigensolve produced spurious negative eigenvalue {evals[0]:.3e}")
    return np.where(evals < 1e-12 * lam_max, 0.0, evals)


def _eigensolve(op: DiscreteLaplaceBeltrami, cap: int):
    """The ``solve`` of :func:`_block_eigenpairs` by one eigensolve a block.

    In a block's basis u_O (:func:`_orbit_basis`) its matrix is
    K_OP = u_O' S u_P, the sum of c_r c_c S_rc over the stencil entries
    (r, c) of B with r in O and c in P, so it is summed from the entries
    with ``np.bincount`` just before its eigensolve, and no M x M matrix
    is formed.  K is the block of S itself, since a symmetry holds only if
    S is exactly invariant under it (:func:`_symmetry_blocks`); for the
    trivial group c = 1 and K = S, summed onto +0.0, so a -0.0 entry of B
    enters as +0.0.  Only the rows ``held`` of its eigenvectors are kept,
    right after the eigensolve.  A block larger than ``cap`` raises before
    its eigensolve, and the largest block comes first.
    """
    rows, cols, values = op._form_entries()
    root_w = np.sqrt(op.measure.node_weights)
    values = values / (root_w[rows] * root_w[cols])

    def solve(signs, index, coef, reps, held):
        k = reps.size
        if k > cap:
            raise _size_error(f"largest eigensolve has {k} rows, capped at "
                              f"{cap}", k, k, "raise cap (fewer nodes= "
                              "leave the eigensolves as they are)")
        vals, vecs = np.linalg.eigh(np.bincount(
            index[rows] * k + index[cols], minlength=k * k,
            weights=values * (coef[rows] * coef[cols])).reshape(k, k))
        return vals, vecs[held] if held.size < k else vecs

    return solve


def _fourier_blocks(op: DiscreteLaplaceBeltrami, weight: float):
    """The blocks and the closed-form ``solve`` of an axis-separable
    circulant operator, for :func:`_block_eigenpairs`.

    With the same stencil entries and the same w at every node, each entry
    equal to that of its offset negated along any one axis, B is a
    circulant whose symbol sigma(theta) is even in every theta_j
    separately (for a diagonal C, sum_j C_jj 4 sin^2(theta_j / 2)), so the
    tensor products of the per-axis modes of :func:`_axis_modes`
    diagonalise it: mode (c_0, ..., c_{dim-1}), flattened like the nodes,
    has eigenvalue lam = sigma / w at theta_j = 2 pi c_j / N.  The symbol
    is the DFT of B's column at node 0, ``op.apply_form`` on the unit
    vector e_0.  In 1-d the modes are the trivial group's one block.  In
    2-d they lie in the blocks of the mirror group {sigma0, sigma1}:
    column c of the per-axis table is a cosine, even under i -> -i, for
    2c <= N and a sine, odd, beyond, so the mode of frequency (c_0, c_1)
    lies in the block of the signs of its two factors, with one copy.  A
    block's ``solve`` takes the modes of its parity in flattened order and
    forms v at the held orbits' smallest nodes (i, j),
    v = Q[i, c_0] Q[j, c_1] / coef(i, j).  It runs no eigensolve, so no
    block is capped.
    """
    grid = op.grid
    n, m = grid.points_per_side, grid.node_count
    column = op.apply_form(np.eye(1, m).ravel()).reshape(grid.shape)
    evals = np.fft.fftn(column).real.ravel() / weight
    q = _axis_modes(n)
    freqs = np.unravel_index(np.arange(m), grid.shape)
    parity = [np.where(2 * f <= n, 1.0, -1.0) for f in freqs]
    mirrors = _grid_symmetries(n)[:2] if grid.dim == 2 else []
    blocks = [(mirrors, signs, [np.arange(m)])
              for signs in itertools.product((1.0, -1.0), repeat=len(mirrors))]

    def solve(signs, index, coef, reps, held):
        modes = np.flatnonzero(functools.reduce(
            np.logical_and, [p == s for p, s in zip(parity, signs)],
            np.ones(m, dtype=bool)))
        at = np.unravel_index(reps[held], grid.shape)
        x = functools.reduce(np.multiply, [q[np.ix_(i, f[modes])]
                                           for i, f in zip(at, freqs)])
        return evals[modes], x / coef[reps[held], None]

    return blocks, solve


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
    if not t >= 0:
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
    Only the rows at i and j are read, so a decomposition holding those
    rows alone (``decompose(op, nodes=...)``) gives the same bits.
    """
    t = np.asarray(t, float)
    if not np.all(t > 0):
        raise ValueError("heat kernel requires t > 0")
    decay = np.exp(-t[..., None] * dec.eigenvalues)
    values = (dec.rows(i) * dec.rows(j) * decay).sum(axis=-1)
    return float(values) if values.ndim == 0 else values


def _heat_series(dec: SpectralDecomposition, modes, nodes, t) -> np.ndarray:
    """(e^{-tA} G)(x) = sum_k e^{-t lam_k} phi_k(x) G_k at ``nodes`` (the
    rows it reads) from the modes G_k, shape t.shape + nodes.shape."""
    return np.exp(-np.multiply.outer(t, dec.eigenvalues)) @ (dec.rows(nodes) * modes).T


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

    Built anew on each call from the rows at every node (M x M), so it
    needs a decomposition that holds them all; the exterior layer forms
    only the blocks it needs, so this serves as a dense oracle.
    """
    _check_alpha(alpha, allow_one=True)
    powers = _spectral_power(dec.eigenvalues, alpha)
    weighted = dec.rows(np.arange(dec.node_count))
    weighted *= dec.measure.node_weights[:, None]
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

    Only the basis rows at the pairs' nodes are read (every node for
    ``pairs=None``): one product over them when the pairs are at least as
    many, else one row product per pair.
    """
    _check_alpha(alpha, allow_one=False)
    m = dec.node_count
    if pairs is None:
        ii, jj = np.triu_indices(m, 1)
        nodes, lo, hi = np.arange(m), ii, jj
    else:
        pairs = _node_indices(pairs, m, "pair indices")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pair indices must be a (k, 2) array, got shape "
                             f"{pairs.shape}")
        ii, jj = pairs[:, 0], pairs[:, 1]
        if np.any(ii == jj):
            raise ValueError("jump kernel is defined for distinct node pairs")
        # evaluate on the canonical (low, high) ordering so K(i,j) == K(j,i)
        # bitwise, then report the caller's index order
        nodes, at = np.unique(np.concatenate([np.minimum(ii, jj),
                                              np.maximum(ii, jj)]),
                              return_inverse=True)
        lo, hi = np.split(at, 2)
    rows = dec.rows(nodes)
    eta = _semigroup_weights(dec.eigenvalues, alpha)
    prefactor = 1.0 / (2.0 * abs(math.gamma(-alpha)))
    if lo.size >= nodes.size:  # dense pair sets: one product over their rows
        core = ((rows * eta) @ rows.T)[lo, hi]
    else:
        core = ((rows[lo] * eta) * rows[hi]).sum(axis=1)
    s = dec.metric.sqrt_det[nodes]
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
