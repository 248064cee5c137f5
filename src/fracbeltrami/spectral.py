"""Divergence-form Laplace-Beltrami matrices and their fractional calculus.

The grid operator is

    (A u)_i = -(1/sqrt|g|_i) sum_j D-_j ( sqrt|g| g^{jk} D+_k u )_i

with periodic forward/backward differences D+/D-.  A is self-adjoint and
positive semi-definite in the weighted inner product, its kernel is the
constants, and for the identity metric in 1d it reduces to the classical
(-1, 2, -1)/h^2 circulant.  The operator is held as its stencil
coefficients and applied by periodic shifts (``apply_form``, the one place
that states the stencil); the dense matrix, its diagonal and the Fourier
symbol are read off that product.  All fractional powers are defined through
the eigendecomposition of the symmetric matrix, which ``decompose`` reaches
by the cheapest of its routes that the operator allows.  The Balakrishnan
route and the jump-kernel route below are independent cross-checks of that
calculus, not substitutes for it: both read one per-mode weight, the
semigroup time integral of (e^{-t lam} - 1) t^{-1-a} by the geometrically
convergent rule ``LogQuadrature.semigroup``, so comparing them with the
spectral power tests lam^a to roundoff.
"""

from __future__ import annotations

import dataclasses
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
    """Raised when a grid exceeds the dense eigendecomposition cap."""


@dataclasses.dataclass
class DiscreteLaplaceBeltrami:
    """Periodic stencil of A = W^{-1} B and of its quadratic form B = W A.

    ``coefficients`` holds the node coefficients C_jk = h^{dim-2} sqrt|g| g^{jk}
    of the stencil B = sum_jk D+_j' C_jk D+_k (5 nonzeros per row for a
    conformal metric, at most 7 otherwise).  They are the only stored
    representation and :meth:`apply_form` the only code that states the
    stencil; ``form_matrix``, ``matrix`` and :meth:`form_diagonal` are read
    off it anew on each access.  ``grid`` and ``measure`` are read from
    ``metric``, so they cannot disagree with it.
    """

    coefficients: np.ndarray  # (M, dim, dim), the stencil's C_jk per node
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
        """The stencil entries of B as (rows, cols, values), 3^dim per row.

        Read off :meth:`apply_form` by probing (Curtis-Powell-Reid): with
        nodes coloured along every axis so that any three consecutive nodes
        of the cycle differ (:func:`_cycle_colours`, at most 4 colours), the
        stencil's steps -1, 0, +1 fall in distinct colours, so
        B_ij = (B 1_colour(j))_i from at most 4^dim probe columns.  Each
        pair of opposite offsets is read once and listed both ways, so
        B_ij and B_ji carry bitwise the same value; every (i, j) is listed
        once.
        """
        grid, m = self.grid, self.grid.node_count
        probes, coords, colour = self._probe(_cycle_colours(grid.points_per_side))
        rows = np.arange(m)
        parts = []
        for offset in itertools.product((-1, 0, 1), repeat=grid.dim):
            if offset >= (0,) * grid.dim:  # the others are mirrors
                cols = np.ravel_multi_index(coords + np.array(offset)[:, None],
                                            grid.shape, mode="wrap")
                values = probes[rows, colour[cols]]
                parts.append((rows, cols, values))
                if any(offset):
                    parts.append((cols, rows, values))
        return tuple(np.concatenate(part) for part in zip(*parts))

    @property
    def matrix(self) -> np.ndarray:
        """Dense A = W^{-1} B (M, M), acting on node vectors."""
        return self.form_matrix / self.measure.node_weights[:, None]

    def form_diagonal(self) -> np.ndarray:
        """diag(B), equal to ``np.diag(form_matrix)`` bitwise.

        N is even, so a parity colouring separates every node from its
        stencil neighbours, and B_ii = (B 1_colour(i))_i.
        """
        probes, _, colour = self._probe(np.arange(self.grid.points_per_side) % 2)
        return probes[np.arange(colour.size), colour]

    def _probe(self, axis_colours: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """B X, the node coordinates (dim, M) and the node colours.

        ``axis_colours[x]`` colours coordinate x along each axis, and node
        i's colour is the tuple of its coordinates' colours; column c of X
        is the indicator of colour c.
        """
        grid = self.grid
        coords = np.indices(grid.shape).reshape(grid.dim, -1)
        per_axis = int(axis_colours.max()) + 1
        colour = np.ravel_multi_index(axis_colours[coords], (per_axis,) * grid.dim)
        indicators = np.zeros((grid.node_count, per_axis ** grid.dim))
        indicators[np.arange(grid.node_count), colour] = 1.0
        return self.apply_form(indicators), coords, colour

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u = W^{-1} B u for a node vector or an (M, cols) block."""
        bu = self.apply_form(u)
        return bu / self.measure.node_weights.reshape((-1,) + (1,) * (bu.ndim - 1))

    def apply_form(self, X: np.ndarray) -> np.ndarray:
        """B X for a node vector or an (M, cols) block, by periodic shifts.

        The one statement of the stencil: the forward difference
        (D+_k X)_i = X_{i+e_k} - X_i and its transpose
        (D+_j' G)_i = G_{i-e_j} - G_i are rolls along the grid axes.
        """
        X = np.asarray(X, float)
        dim = self.grid.dim
        U = X.reshape(self.grid.shape + X.shape[1:])
        per_node = self.grid.shape + (1,) * (X.ndim - 1)
        diffs = [np.roll(U, -1, axis=k) - U for k in range(dim)]
        out = np.zeros_like(U)
        for j in range(dim):
            flux = self.coefficients[:, j, 0].reshape(per_node) * diffs[0]
            for k in range(1, dim):
                flux += self.coefficients[:, j, k].reshape(per_node) * diffs[k]
            out += np.roll(flux, 1, axis=j)
            out -= flux
        return out.reshape(X.shape)


def _cycle_colours(n: int) -> np.ndarray:
    """Colours of the nodes 0..N-1 of a cycle, any three consecutive distinct.

    Runs of 0, 1, 2 followed by N mod 3 runs of 0, 1, 2, 3 fill the cycle
    (4 = 1 mod 3), so every window of three, the ones across the wrap
    included, holds distinct colours; 3 colours when 3 divides N, 4
    otherwise.  Valid for N = 3, 4 and every N >= 6.
    """
    fours = 4 * (n % 3)
    return np.concatenate([np.arange(n - fours) % 3, np.arange(fours) % 4])


def assemble_laplacian(metric: MetricField) -> DiscreteLaplaceBeltrami:
    """The periodic divergence-form operator of a sampled metric.

    Stores the stencil coefficients C_jk = h^{dim-2} sqrt|g| g^{jk} of

        u.B.v = h^dim sum_i sqrt|g|_i g^{jk}_i (D+_j u)_i (D+_k v)_i ,

    with A = W^{-1} B; no dense matrix is built.
    """
    grid = metric.grid
    h = grid.spacing
    coeffs = (h ** grid.dim / h ** 2) * metric.sqrt_det[:, None, None] * metric.inverse_tensor
    return DiscreteLaplaceBeltrami(coefficients=coeffs, metric=metric)


@dataclasses.dataclass
class SpectralDecomposition:
    """Eigenpairs of A, orthonormal in the weighted inner product.

    Columns of ``basis`` are the eigenvectors phi_k with
    <phi_j, phi_k>_w = delta_jk; eigenvalues are sorted ascending with the
    zero mode (constants) first and snapped to exactly 0.  ``grid``,
    ``metric`` and ``measure`` are those of ``operator``.
    """

    eigenvalues: np.ndarray  # (M,)
    basis: np.ndarray        # (M, M)
    operator: DiscreteLaplaceBeltrami

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

    def project(self, u: np.ndarray) -> np.ndarray:
        """Coefficients <phi_k, u>_w."""
        return self.basis.T @ (self.measure.node_weights * u)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return self.basis @ coeffs


def decompose(op: DiscreteLaplaceBeltrami,
              cap: int = DEFAULT_EIG_CAP) -> SpectralDecomposition:
    """Eigenpairs of A, by the cheapest of three routes the operator allows.

    1. Closed form.  If every node carries bitwise the same stencil
       coefficients C_jk, with C_01 = 0, and bitwise the same weight w (the
       identity metric, or any constant metric with a diagonal tensor), A
       is a circulant whose symbol is even along every axis, and tensor
       products of the per-axis Fourier modes diagonalise it exactly; see
       :func:`_fourier_eigenpairs`.  Each condition is needed: in 2-d a
       conformal metric has C_jk = sqrt|g| g^{jk} = I at every node (the
       Dirichlet energy is conformally invariant) while its weights vary,
       and a constant C_01 != 0 adds a term odd in each frequency
       separately (even only under theta -> -theta as a whole), which
       mixes the cosine and the sine of one axis, so no tensor product of
       real per-axis modes diagonalises A.  Such operators take one of the
       routes below.
    2. Symmetry blocks.  In 2-d, three node permutations are candidate
       symmetries: the mirrors sigma0 (i, j) -> (-i, j) and
       sigma1 (i, j) -> (i, -j), indices modulo N, and the transposition
       tau (i, j) -> (j, i).  One holds if it maps B's stencil entries and
       w onto themselves to within ``_SYMMETRY_ULPS`` units of roundoff of
       max|B| and max w.  B is checked, never C: a mirror turns the forward
       difference D+ into -D-, so the pullback of a centred bump by a radial
       squash has a C that is mirror-invariant to 7e-16 and a B that misses
       the mirrors by 0.26 max|B|.  S = W^{-1/2} B W^{-1/2} then commutes
       with the group G that the holding symmetries generate and splits
       into one block per irreducible representation of G (Bossavit,
       Comput. Methods Appl. Mech. Engrg. 1986; Fassler and Stiefel,
       Group Theoretical Methods and Their Applications, 1992); see
       :func:`_symmetry_blocks` and :func:`_block_eigenpairs`.
       - The centred conformal bump (C = I) holds all three, and G is the
         dihedral group D4 of the square.  The blocks of its four 1-d
         representations have sizes (N^2 + 6N + 8)/8, (N^2 - 6N + 8)/8,
         (N^2 + 2N)/8 and (N^2 - 2N)/8, and that of its 2-d one
         (N^2 - 4)/4, solved once for both of its sets of modes: at
         N = 48, 325, 253, 300, 276 and 575, against M = 2304.
       - The bump's pullback by a radial squash holds tau alone: blocks of
         N(N+1)/2 and N(N-1)/2.
       - A conformal bump centred on one mirror axis only holds that
         mirror: blocks of N(N+2)/2 and N(N-2)/2.
       ``AnisotropicBump`` and bumps centred elsewhere hold none.
    3. Otherwise, a dense symmetric eigendecomposition of S.

    Cost is memory as much as time: every M x M float64 matrix takes
    8 M^2 bytes (42.5 MB at M = 2304, 2-d N = 48).  The dense route peaks
    at about five of them -- S, numpy's working copy of it, the
    eigenvectors and the 2 M^2 workspace of LAPACK's divide and conquer;
    its scaling and sign steps work on rows and row blocks and add no
    M x M temporary.  The block route forms no M x M matrix but the basis:
    it sums its blocks from the stencil entries and fills the basis from
    their eigenvectors one block of rows at a time.  Measured at M = 2304
    (x86-64, numpy 2.4, OpenBLAS at 2 threads), the peak resident set
    rises 207 MiB above the caller's for the dense route, 105 MiB for the
    transposition blocks, 53 MiB for the dihedral blocks and 44 MiB for the
    closed form (its basis and two N x M per-axis tables).  With glibc's
    mmap threshold fixed at 128 KiB, so that every freed block leaves the
    heap, the two block routes rise 68 and 51 MiB.

    Every route holds an M x M basis, so every route obeys ``cap``, and all
    share the zero snap and sign convention of :func:`_finish_eigenpairs`.
    The result keeps its basis alive for as long as it is referenced:
    callers should drop a decomposition once they have read the blocks
    they need from it (``exterior.dtn_matrix``, say), before the next call.
    """
    m = op.grid.node_count
    if m > cap:
        raise DecompositionSizeError(
            f"grid has {m} nodes, dense eigendecomposition capped at {cap}; "
            f"one {m} x {m} float64 matrix takes {8 * m * m / 1e6:.3g} MB")
    w = op.measure.node_weights
    root_w = np.sqrt(w)
    c = op.coefficients[0]
    if (np.all(op.coefficients == c) and np.array_equal(c, np.diag(np.diag(c)))
            and np.all(w == w[0])):
        evals, evecs = _fourier_eigenpairs(op, w[0])
    elif blocks := _symmetry_blocks(op):
        evals, evecs = _block_eigenpairs(op, root_w, blocks)
    else:
        # the freshly assembled B, symmetric to the bit, is scaled in place,
        # one row at a time, to S = W^{-1/2} B W^{-1/2}, also symmetric
        sym = op.form_matrix
        for i in range(m):
            sym[i] /= root_w[i] * root_w
        evals, evecs = np.linalg.eigh(sym)
        del sym
    return SpectralDecomposition(
        eigenvalues=_finish_eigenpairs(evals, evecs, root_w),
        basis=evecs, operator=op)


# how far, in units of roundoff of max|B| and max w, a 2-d operator may miss
# a grid symmetry (sigma0, sigma1 or tau) and still take the block route.
# Measured misses of B's stencil entries and of w, in those units:
# - the centred conformal bump misses the mirrors by at most 0.125 and 2.25
#   (the benchmark's bumps at N = 24, 32 and 48; 0.5 and 2.53 over the 2-d
#   property tests' range at N = 12 and 16), and tau by 0;
# - its pullback by a radial squash misses tau by at most 1.68 and 0.57
#   (0.92 and 0.69 over that range): its tensors come out of an einsum
#   whose summation order differs between (x, y) and (y, x).
# An operator without the symmetry misses it by O(1) relative: that
# pullback misses the mirrors by 0.26 max|B|, although its C, read as a
# tensor, misses them by only 7e-16 relative.
_SYMMETRY_ULPS = 8.0


def _grid_symmetries(n: int) -> list[np.ndarray]:
    """sigma0, sigma1 and tau of the N x N grid, each as the node
    permutation p that maps node n to node p[n]."""
    i, j = np.indices((n, n))
    return [np.ravel_multi_index(image, (n, n)).ravel()
            for image in (((-i) % n, j), (i, (-j) % n), (j, i))]


def _symmetry_blocks(op: DiscreteLaplaceBeltrami
                     ) -> list[tuple[list[np.ndarray], tuple, list[np.ndarray]]]:
    """The blocks of S under the grid symmetries of the operator, or [].

    A symmetry p holds if B_{p r, p c} = B_rc over the stencil entries
    (:meth:`DiscreteLaplaceBeltrami._form_entries`, every (r, c) once) and
    w_{p n} = w_n, within ``_SYMMETRY_ULPS``.  Each block is (generators,
    signs, copies): the node permutations that generate its group, the
    value of its character on each of them, and the row permutations at
    which its eigenvectors are read, one set of modes per copy.  A group
    of commuting involutions (one mirror, both, or tau alone) has one block
    per sign pattern.  Tau with a mirror generates D4, since it conjugates
    one mirror into the other.  D4's four 1-d representations are the sign
    patterns with equal signs on the mirrors.  Its 2-d one, E, is the block
    of the mirror group's pattern (+1, -1): tau maps it onto the pattern
    (-1, +1), so the block's eigenvectors read at tau-permuted rows are E's
    partner modes.
    """
    if op.grid.dim != 2:
        return []
    m = op.grid.node_count
    rows, cols, values = op._form_entries()
    keys = rows * m + cols
    order = np.argsort(keys)
    w = op.measure.node_weights
    tol = _SYMMETRY_ULPS * np.finfo(float).eps

    def holds(p: np.ndarray) -> bool:
        image = order[np.searchsorted(keys, p[rows] * m + p[cols], sorter=order)]
        return bool(np.abs(values[image] - values).max()
                    <= tol * np.abs(values).max()
                    and np.abs(w[p] - w).max() <= tol * w.max())

    identity = np.arange(m)
    sigma0, sigma1, tau = _grid_symmetries(op.grid.points_per_side)
    mirrors = [p for p in (sigma0, sigma1) if holds(p)]
    tau_holds = holds(tau)
    if tau_holds and mirrors:
        return [([sigma0, sigma1, tau], (a, a, b), [identity])
                for a, b in itertools.product((1.0, -1.0), repeat=2)
                ] + [([sigma0, sigma1], (1.0, -1.0), [identity, tau])]
    generators = mirrors or ([tau] if tau_holds else [])
    return [(generators, signs, [identity])
            for signs in itertools.product((1.0, -1.0), repeat=len(generators))
            ] if generators else []


def _orbit_basis(generators: list[np.ndarray], signs: tuple
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """The orthonormal basis of one character's block, node by node.

    The group's elements are the products of the generators over all their
    subsets (commuting involutions, or sigma0, sigma1 and tau, whose eight
    such products are D4), the character chi of each the product of the
    signs.  For the orbit O of node n, sum_g chi(g) e_{g n} is zero unless
    chi is 1 on the stabiliser of n, and otherwise a multiple of
    u_O = sum_{m in O} c_m e_m with c_m = +-1/sqrt|O|.  Returns per node m
    the block row of its orbit (ordered by the orbit's smallest node), c_m
    (0 on the orbits without a vector) and the block size.
    """
    perms, chars = [np.arange(generators[0].size)], [1.0]
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


def _block_eigenpairs(op: DiscreteLaplaceBeltrami, root_w: np.ndarray,
                      blocks: list) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of S from its symmetry blocks (:func:`_symmetry_blocks`).

    In a block's basis u_O (:func:`_orbit_basis`) its matrix is
    K_OP = u_O' S u_P, the sum of c_r c_c S_rc over the stencil entries
    (r, c) with r in O and c in P, so it is summed from the entries with
    ``np.bincount`` and no M x M matrix is formed before the basis.  K is
    the block of the G-average of S, which is S itself for an exactly
    invariant operator.  An eigenvector v of K is the node vector
    x_m = c_m v_{row of m}, read once per copy of the block at the copy's
    row permutation.  The basis is filled in block order, one block's
    eigenvectors at a time, each dropped once written; the eigenvalues of
    all copies are merged by a stable ascending sort (block order on ties)
    and the basis columns sorted to match, one block of rows at a time, so
    no M x M temporary is formed.  An empty block ((N^2 - 6N + 8)/8 = 0 at
    N = 4) is skipped.
    """
    rows, cols, values = op._form_entries()
    values /= root_w[rows] * root_w[cols]
    evals, solved = [], []
    for generators, signs, copies in blocks:
        index, coef, k = _orbit_basis(generators, signs)
        if k:  # summed just before its eigensolve: one block alive at a time
            vals, vecs = np.linalg.eigh(np.bincount(
                index[rows] * k + index[cols], minlength=k * k,
                weights=values * (coef[rows] * coef[cols])).reshape(k, k))
            evals += [vals] * len(copies)
            solved.append((vecs, index, coef, copies))
    del rows, cols, values
    m = root_w.size
    basis = np.empty((m, m))
    start = 0
    while solved:  # each block's eigenvectors are dropped once written
        vecs, index, coef, copies = solved.pop(0)
        for p in copies:
            for r0 in range(0, m, _BLOCK):
                nodes = p[r0:r0 + _BLOCK]
                np.multiply(vecs[index[nodes]], coef[nodes, None],
                            out=basis[r0:r0 + _BLOCK, start:start + len(vecs)])
            start += len(vecs)
        del vecs
    evals = np.concatenate(evals)
    order = np.argsort(evals, kind="stable")
    for r0 in range(0, m, _BLOCK):  # order is a permutation: no bounds check
        basis[r0:r0 + _BLOCK] = np.take(basis[r0:r0 + _BLOCK], order, axis=1,
                                        mode="clip")
    return evals[order], basis


# rows per block of the sign step and of the block route's basis fill and
# column sort.  A freed block stays in the heap, resident, through the next
# eigensolve; at 64 (a 1.2 MB row block at M = 2304) later blocks reuse it
# and the peak stays that of the eigensolve.
_BLOCK = 64


def _finish_eigenpairs(evals: np.ndarray, evecs: np.ndarray,
                       root_w: np.ndarray) -> np.ndarray:
    """Zero snap, sign convention and W-scaling shared by every route.

    ``evals`` ascend and ``evecs`` are the matching Euclidean-orthonormal
    eigenvectors of W^{1/2} A W^{-1/2}.  Eigenvalues below 1e-12 lam_max are
    snapped to 0 (and a clearly negative one is an error); each eigenvector
    is signed so that its largest-magnitude entry (the first, on ties) is
    positive, then divided by W^{1/2} in place, so ``evecs`` becomes the
    W-orthonormal basis.  Returns the snapped eigenvalues.
    """
    lam_max = max(float(evals[-1]), 1.0)
    if evals[0] < -1e-10 * lam_max:
        raise ArithmeticError(
            f"eigensolve produced spurious negative eigenvalue {evals[0]:.3e}")
    evals = np.where(evals < 1e-12 * lam_max, 0.0, evals)
    evecs *= _signs_of_largest(evecs)
    evecs /= root_w[:, None]
    return evals


def _signs_of_largest(v: np.ndarray) -> np.ndarray:
    """Per column, the sign of its first largest-magnitude entry (0 -> 1).

    Equals ``np.sign(v[np.abs(v).argmax(axis=0), cols])``, reduced one block
    of rows at a time: a column's anchor moves to a later block only where
    that block holds a strictly larger magnitude.  A max over contiguous
    rows is about 3x faster than an argmax down the columns.
    """
    m = v.shape[1]
    best = np.full(m, -1.0)
    anchor_values = np.zeros(m)
    for r0 in range(0, v.shape[0], _BLOCK):
        rows = v[r0:r0 + _BLOCK]
        mag = np.abs(rows)
        top = mag.max(axis=0)
        later = np.flatnonzero(top > best)
        first = (mag[:, later] == top[later]).argmax(axis=0)
        best[later] = top[later]
        anchor_values[later] = rows[first, later]
    signs = np.sign(anchor_values)
    signs[signs == 0] = 1.0
    return signs


def _fourier_eigenpairs(op: DiscreteLaplaceBeltrami,
                        weight: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of an axis-separable circulant operator.

    With the same diagonal C and the same w at every node, B is a circulant
    whose symbol sigma(theta) = sum_j C_jj 4 sin^2(theta_j / 2) is even in
    every theta_j separately, so the tensor products of the per-axis modes
    of :func:`_axis_modes` diagonalise it: mode (c_0, ..., c_{dim-1}),
    flattened like the nodes, has eigenvalue lam = sigma / w at
    theta_j = 2 pi c_j / N.  The symbol is the DFT of B's column at node 0,
    read off ``op.apply_form`` on the unit vector e_0, so the stencil is
    stated only there.  The modes are ordered by a stable ascending sort of
    lam (ties keep the flattened mode order), and in 2-d the basis
    Q[:, c_0] (x) Q[:, c_1] is filled one grid row at a time.
    """
    grid = op.grid
    n, m = grid.points_per_side, grid.node_count
    column = op.apply_form(np.eye(1, m).ravel()).reshape(grid.shape)
    evals = np.fft.fftn(column).real.ravel() / weight
    order = np.argsort(evals, kind="stable")
    q = _axis_modes(n)
    if grid.dim == 1:
        return evals[order], q[:, order]
    first, second = q[:, order // n], q[:, order % n]  # (N, M), per axis
    basis = np.empty((m, m))
    for i in range(n):
        np.multiply(second, first[i], out=basis[i * n:(i + 1) * n])
    return evals[order], basis


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
    decay = np.exp(-t[..., None] * dec.eigenvalues)
    values = (dec.basis[i] * dec.basis[j] * decay).sum(axis=-1)
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
    weighted = dec.basis * dec.measure.node_weights[:, None]
    e = (weighted * powers) @ weighted.T
    return 0.5 * (e + e.T)


def _semigroup_weights(lam: np.ndarray, alpha: float) -> np.ndarray:
    """Per-mode eta_k = Gamma(-alpha) lam_k^alpha, the time integral

        int_0^inf (e^{-t lam} - 1) t^{-1-alpha} dt,

    shared by the Balakrishnan operator and the jump kernel.  In log-time
    the integrand decays like -lam e^{(1-alpha) s} below the window and like
    -e^{-alpha s} above it, the end rates of ``LogQuadrature.semigroup``, so
    the weights converge geometrically: within 6e-15 relative for alpha in
    [0.02, 0.98] and lam in [0.5, 4000], on 209 nodes.  The heat factor goes
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

    eta = _semigroup_weights(dec.eigenvalues, alpha)
    prefactor = 1.0 / (2.0 * abs(math.gamma(-alpha)))
    s = dec.metric.sqrt_det
    if lo.size >= m:  # full (or near-full) pair sets: one dense product
        full = (dec.basis * eta) @ dec.basis.T
        core = full[lo, hi]
    else:
        core = ((dec.basis[lo] * eta) * dec.basis[hi]).sum(axis=1)
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
