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
       real per-axis modes diagonalises A.  Such an operator takes the
       transposition route if C_00 = C_11 and the dense route otherwise.
    2. Two half-size eigensolves.  In 2-d, if the operator is invariant
       under the grid transposition tau (i, j) -> (j, i), that is

           C(tau n) = P C(n) P  and  w(tau n) = w(n)

       at every node n, with P the swap of the two axes, to within
       ``_TRANSPOSE_ULPS`` units of roundoff of max|C| and max w, then
       S = W^{-1/2} B W^{-1/2} commutes with tau and splits into an even
       block on the N diagonal nodes and N(N-1)/2 node pairs and an odd
       block on the pairs; see :func:`_transposition_eigenpairs`.  Every
       profile centred on the grid diagonal and invariant under swapping
       the coordinates qualifies (the radial bumps, their pullbacks by a
       radial squash); the pullback misses bitwise symmetry by up to 1.75
       units of roundoff (its tensors come out of an einsum whose summation
       order differs between (x, y) and (y, x)), hence the tolerance.
       ``AnisotropicBump`` and bumps centred off the diagonal miss it by
       O(1).
    3. Otherwise, a dense symmetric eigendecomposition of S.

    Cost is memory as much as time: every M x M float64 matrix takes
    8 M^2 bytes (42.5 MB at M = 2304, 2-d N = 48).  The dense route peaks
    at about five of them -- S, numpy's working copy of it, the
    eigenvectors and the 2 M^2 workspace of LAPACK's divide and conquer;
    its scaling and sign steps work on rows and row blocks and add no
    M x M temporary.  The transposition route forms no M x M matrix
    before the basis: it sums its two blocks (about M/2 square, a quarter
    of S, each) from the stencil entries, so it peaks near one block's
    eigensolve, or the basis plus the blocks' eigenvectors.  Measured at
    M = 2304 (x86-64, numpy 2.4, OpenBLAS at 2 threads), the peak resident
    set rises 207 MiB above the caller's for the dense route, 93 MiB for
    the transposition route and 44 MiB for the closed form (its basis and
    two N x M per-axis tables).

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
    elif _transposition_invariant(op):
        evals, evecs = _transposition_eigenpairs(op, root_w)
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


# how far, in units of roundoff of max|C| and max w, a 2-d operator may miss
# transposition symmetry and still take the two-block route.  The pullback
# of a radial bump by a radial squash misses it by at most 1.75 units in
# every case measured (the gauge pair at N <= 48, the 2-d property tests'
# range at N = 12 and 16); an operator that is not symmetric misses it by
# O(1) relative.
_TRANSPOSE_ULPS = 8.0


def _transposition_invariant(op: DiscreteLaplaceBeltrami) -> bool:
    """Whether C(tau n) = P C(n) P and w(tau n) = w(n) within the tolerance
    ``_TRANSPOSE_ULPS``; always False outside 2-d."""
    if op.grid.dim != 2:
        return False
    n = op.grid.points_per_side
    tau = np.arange(n * n).reshape(n, n).T.ravel()  # node (j, i) at (i, j)
    c, w = op.coefficients, op.measure.node_weights
    tol = _TRANSPOSE_ULPS * np.finfo(float).eps
    return bool(np.abs(c[tau] - c[:, ::-1, ::-1]).max() <= tol * np.abs(c).max()
                and np.abs(w[tau] - w).max() <= tol * w.max())


def _transposition_eigenpairs(op: DiscreteLaplaceBeltrami,
                              root_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a transposition-invariant S from two half-size blocks.

    The nodes fall into the N diagonal nodes d = (i, i) and the pairs
    {p, tau p} with p = (i, j), i < j.  In the orthonormal basis of

        even:  e_d,  (e_p + e_{tau p}) / sqrt 2,
        odd:   (e_p - e_{tau p}) / sqrt 2,

    the tau-average S~ = (S + tau S tau) / 2 is block diagonal:

        even block  [[S~_dd,            sqrt 2 S~_{d p}],
                     [sqrt 2 S~_{p d},  S~_{p q} + S~_{p, tau q}]],
        odd block   S~_{p q} - S~_{p, tau q},

    of sizes N(N+1)/2 and N(N-1)/2.  Both blocks are summed straight from
    the stencil entries of S (:meth:`DiscreteLaplaceBeltrami._form_entries`),
    so no M x M matrix is formed before the basis.  The eigenvalues of the
    two blocks are merged by a stable ascending sort (even before odd on
    ties), and the eigenvectors are scattered into the M x M basis: v on
    the diagonal rows, v / sqrt 2 on both rows of a pair for an even mode,
    +v / sqrt 2 on p and -v / sqrt 2 on tau p for an odd one.
    """
    n, m = op.grid.points_per_side, op.grid.node_count
    index = np.arange(m).reshape(n, n)
    diag = np.diagonal(index)
    upper, lower = index[np.triu_indices(n, 1)], index.T[np.triu_indices(n, 1)]
    n_even, n_odd = n + upper.size, upper.size
    even_of = np.empty(m, dtype=np.intp)  # even-block row of every node
    even_of[diag] = np.arange(n)
    even_of[upper] = even_of[lower] = np.arange(n, n_even)
    odd_of = np.zeros(m, dtype=np.intp)   # odd-block row of a pair node
    odd_of[upper] = odd_of[lower] = np.arange(n_odd)
    sign = np.zeros(m)
    sign[upper], sign[lower] = 1.0, -1.0

    rows, cols, values = op._form_entries()
    values /= root_w[rows] * root_w[cols]
    # sums of S over the tau-orbits of (row, col); the pair sums are twice
    # S~, hence the factors sqrt(1/2) and 1/2 below
    even = np.bincount(even_of[rows] * n_even + even_of[cols], weights=values,
                       minlength=n_even * n_even).reshape(n_even, n_even)
    values *= sign[rows] * sign[cols]  # zero unless both nodes are in pairs
    odd = np.bincount(odd_of[rows] * n_odd + odd_of[cols], weights=values,
                      minlength=n_odd * n_odd).reshape(n_odd, n_odd)
    del rows, cols, values
    even[:n, n:] *= math.sqrt(0.5)
    even[n:, :n] *= math.sqrt(0.5)
    even[n:, n:] *= 0.5
    odd *= 0.5
    even_vals, even_vecs = np.linalg.eigh(even)
    del even
    odd_vals, odd_vecs = np.linalg.eigh(odd)
    del odd

    # the basis in block order (even, then odd), then its columns sorted by
    # eigenvalue one block of rows at a time
    basis = np.empty((m, m))
    basis[diag, :n_even] = even_vecs[:n]
    basis[diag, n_even:] = 0.0
    even_vecs[n:] *= math.sqrt(0.5)
    basis[upper, :n_even] = basis[lower, :n_even] = even_vecs[n:]
    del even_vecs
    odd_vecs *= math.sqrt(0.5)
    basis[upper, n_even:] = odd_vecs
    basis[lower, n_even:] = np.negative(odd_vecs, out=odd_vecs)
    del odd_vecs
    evals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(evals, kind="stable")
    for r0 in range(0, m, _BLOCK):
        basis[r0:r0 + _BLOCK] = basis[r0:r0 + _BLOCK, order]
    return evals[order], basis


# rows per block of the sign step (and of the column sort of the
# transposition route's basis).  A freed block stays in the heap,
# resident, through the next eigensolve; at 64 (a 1.2 MB row block at
# M = 2304) later blocks reuse it and the peak stays that of the eigensolve.
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
