"""Exterior Dirichlet problems and the maps measured from outside.

The torus nodes are split into an interior region Omega and its complement
(the exterior); data live outside, the equation holds inside:

    (-Lap_g)^a u = 0  on Omega,    u = f  on the exterior.

In the spectral calculus this is an exact block system: writing
E = W A^a (the weighted energy matrix, symmetric PSD with only constants in
its kernel), the solution solves E_OO u_O = -E_OE f_E, and the principal
block is SPD whenever Omega is a proper subset.  E is never formed whole:
with the rows G_S = W_S Phi_S Lambda^{a/2} of the eigenbasis, every block is
E_ST = G_S G_T', so a solve needs only the rows on Omega and on the support
of the data, once for a whole block of data given as columns.  Nor is E_OO
formed in node space.  The decomposition holds one record per set of
modes of a symmetry block (``SpectralDecomposition.blocks``), and when
the grid symmetries it holds map Omega onto itself (a ball about the
grid's centre, say), E_OO is block diagonal in the orbit basis of Omega
(Bossavit, Comput. Methods Appl. Mech. Engrg. 1986): each record's block
is formed from its own modes in its orbit coordinates, read straight off
the record, and solved once per eigensolve; for the dihedral group they take
about 1/40 of the multiply-adds of the node-space Gram matrix, and the
largest solve about a quarter of |Omega|.  Otherwise one block, every mode
at every node of Omega, is the same loop's only pass (:func:`_omega_blocks`,
:func:`_solve_blocks`).  The data and the measurement read their rows
through ``SpectralDecomposition.rows``, so a decomposition that holds only
some rows serves every solve whose nodes it holds: the partial map reads
Omega, W1 and W2 (``ExteriorConfig.partial_map_nodes``), 475 of 2304 nodes
on the benchmark layout at 2-d N = 48, and the exterior Dirichlet solve
reads Omega and every exterior node.  The Poisson solve is a spectral
power of a full node vector, so it needs every node.  The solve has
two readers: the exterior Dirichlet solve, and the partial
Dirichlet-to-Neumann map  f |-> (A^a u^f)|_W2, as its |W2| x |W1| matrix
Lambda = Lambda^{W1,W2} (one solve with the |W1| unit data as columns;
column j is the W2 output of the unit datum at W1 node j) or for one datum
as a record.  The matrix is all a caller needs to keep of a decomposition
to measure the partial map: |W2| x |W1| numbers instead of M x M.  The full
map on the exterior is A^a of the Dirichlet solution.  Beside them sits the
fractional Poisson solve  w^F = A^{1-a} F  for exterior sources, whose
records are the source-to-solution data.  Outputs are
unweighted nodal samples; the symmetric pairing of the problem weights
them by sqrt|g|.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .geometry import TorusGrid
from .spectral import (
    SpectralDecomposition,
    _check_alpha,
    _node_indices,
    _spectral_power,
    frac_apply_spectral,
)

__all__ = [
    "ExteriorConfig",
    "RegionSpec",
    "nodes_in_ball",
    "make_exterior_config",
    "solve_exterior_dirichlet",
    "DtNRecord",
    "dtn_partial",
    "dtn_matrix",
    "SourceSolutionRecord",
    "poisson_solve",
    "coercivity_constant",
]


# ----------------------------------------------------------------------
# region configuration


@dataclasses.dataclass(frozen=True)
class ExteriorConfig:
    """Node partition: interior Omega, exterior complement, windows W1, W2."""

    grid: TorusGrid
    omega_nodes: np.ndarray
    w1_nodes: np.ndarray
    w2_nodes: np.ndarray
    exterior_nodes: np.ndarray

    @property
    def interior_count(self) -> int:
        return len(self.omega_nodes)

    @property
    def partial_map_nodes(self) -> np.ndarray:
        """Omega, W1 and W2, sorted: the nodes whose basis rows the partial
        map reads (``decompose(op, nodes=config.partial_map_nodes)``)."""
        return np.union1d(np.union1d(self.omega_nodes, self.w1_nodes),
                          self.w2_nodes)

    def indicator(self, nodes: np.ndarray) -> np.ndarray:
        out = np.zeros(self.grid.node_count)
        out[nodes] = 1.0
        return out


def nodes_in_ball(grid: TorusGrid, center, radius: float) -> np.ndarray:
    """Indices of nodes within torus distance `radius` of `center`."""
    return np.flatnonzero(grid.distance_to(center) <= radius)


def _set_distance(grid: TorusGrid, a_nodes: np.ndarray,
                  b_nodes: np.ndarray) -> float:
    return float(grid.pair_distance(a_nodes[:, None], b_nodes).min())


def _stencil_neighbors(grid: TorusGrid) -> np.ndarray:
    idx = np.arange(grid.node_count).reshape(grid.shape)
    cols = []
    for axis in range(grid.dim):
        cols.append(np.roll(idx, 1, axis=axis).ravel())
        cols.append(np.roll(idx, -1, axis=axis).ravel())
    return np.stack(cols, axis=1)


def _connected(grid: TorusGrid, nodes: np.ndarray) -> bool:
    """Is the node set connected in the grid-graph (stencil adjacency)?"""
    member = np.zeros(grid.node_count, dtype=bool)
    member[nodes] = True
    nbrs = _stencil_neighbors(grid)
    seen = np.zeros(grid.node_count, dtype=bool)
    frontier = np.array([nodes[0]])
    seen[frontier] = True
    while frontier.size:
        step = np.unique(nbrs[frontier].ravel())
        step = step[member[step] & ~seen[step]]
        seen[step] = True
        frontier = step
    return bool(np.all(seen[member]))


def make_exterior_config(grid: TorusGrid, omega_nodes, w1_nodes, w2_nodes,
                         allow_overlap: bool = False) -> ExteriorConfig:
    """Validate a region layout and freeze it.

    Guards: W1, W2 live in the exterior with a 2h-separation from Omega
    (one-cell overlaps of indicator shapes are configuration bugs, not
    physics); W1-W2 separation is likewise enforced unless `allow_overlap`
    (the recovery pipeline legitimately uses overlapping windows).  The
    exterior must be connected as a grid graph.
    """
    n = grid.node_count
    omega, w1, w2 = (np.unique(_node_indices(s, n, name)) for name, s in (
        ("omega", omega_nodes), ("w1", w1_nodes), ("w2", w2_nodes)))
    for name, s in (("omega", omega), ("w1", w1), ("w2", w2)):
        if s.size == 0:
            raise ValueError(f"{name} node set is empty")
    mask = np.ones(n, dtype=bool)
    mask[omega] = False
    exterior = np.flatnonzero(mask)
    if exterior.size == 0:
        raise ValueError("omega covers the whole grid; no exterior remains")
    for name, s in (("w1", w1), ("w2", w2)):
        if np.any(~mask[s]):
            raise ValueError(f"{name} must lie in the exterior")
    two_h = 2.0 * grid.spacing
    for name, s in (("w1", w1), ("w2", w2)):
        if _set_distance(grid, s, omega) <= two_h:
            raise ValueError(f"dist({name}, omega) must exceed 2h")
    if not allow_overlap and _set_distance(grid, w1, w2) <= two_h:
        raise ValueError("dist(w1, w2) must exceed 2h (pass allow_overlap=True "
                         "for deliberately overlapping windows)")
    if not _connected(grid, exterior):
        raise ValueError("exterior region is not connected")
    return ExteriorConfig(grid=grid, omega_nodes=omega, w1_nodes=w1,
                          w2_nodes=w2, exterior_nodes=exterior)


@dataclasses.dataclass(frozen=True)
class RegionSpec:
    """Grid-independent layout: screened region and two windows, as balls.

    Refinement studies must sample the *same* geometric regions on every
    grid; node index sets cannot be reused across resolutions, so this
    records centres and radii and instantiates per grid via :meth:`build`.
    """

    omega_center: tuple[float, ...]
    omega_radius: float
    w1_center: tuple[float, ...]
    w1_radius: float
    w2_center: tuple[float, ...]
    w2_radius: float
    allow_overlap: bool = False

    def __post_init__(self) -> None:
        dims = {len(self.omega_center), len(self.w1_center), len(self.w2_center)}
        if len(dims) != 1:
            raise ValueError("region centres must share a dimension")
        for radius in (self.omega_radius, self.w1_radius, self.w2_radius):
            if not radius > 0.0:
                raise ValueError("region radii must be positive")

    @property
    def dim(self) -> int:
        return len(self.omega_center)

    def build(self, grid: TorusGrid) -> ExteriorConfig:
        return make_exterior_config(
            grid,
            nodes_in_ball(grid, self.omega_center, self.omega_radius),
            nodes_in_ball(grid, self.w1_center, self.w1_radius),
            nodes_in_ball(grid, self.w2_center, self.w2_radius),
            allow_overlap=self.allow_overlap,
        )


# ----------------------------------------------------------------------
# the exterior Dirichlet solve


def _omega_blocks(dec: SpectralDecomposition, alpha: float,
                  config: ExteriorConfig):
    """The Omega problem one record of the decomposition at a time.

    If every generator of ``dec.generators`` maps Omega onto itself, E_OO
    commutes with the group, and in the orbit basis U of Omega (the
    vectors u_O of each :class:`spectral.SymmetryBlock` on the orbits
    inside Omega, orthonormal and complete on Omega)

        W_O^{-1/2} E_OO W_O^{-1/2} = U diag(Y_k) U',   Y_k = H_k H_k',

    with H_k the eigenvector coefficients v of record k at its live Omega
    orbits times lam^{a/2}: the record's held rows at those orbits
    (``SymmetryBlock.vectors``, which are in orbit coordinates).  Otherwise
    one record of every mode at every node of Omega serves:
    H = W_O^{1/2} Phi_O Lambda^{a/2}.  Yields per ``vectors`` with a live
    Omega orbit (H, parts), parts holding per record over it (D4's 2-d block
    has two, adjacent in ``dec.blocks``) the columns of its modes, and per
    Omega node the row of its orbit in H and its coefficient, so
    (U_k z)_n = coef_n z[slot_n].  Omega's rows must be held; they pass the
    check every basis read makes (``SpectralDecomposition._held``).
    """
    om = dec._held(config.omega_nodes)
    half = _spectral_power(dec.eigenvalues, 0.5 * alpha)
    if not _maps_onto_itself(dec.generators, om, dec.node_count):
        h = dec.rows(om)
        h *= np.sqrt(dec.measure.node_weights[om])[:, None]
        h *= half
        yield h, [(np.arange(h.shape[1]), np.arange(om.size), np.ones(om.size))]
        return
    for _, shared in itertools.groupby(dec.blocks, key=lambda b: id(b.vectors)):
        shared = [(b, b.index[om], b.coef[om]) for b in shared]
        rows = np.unique(np.concatenate([o[c != 0.0] for _, o, c in shared]))
        if rows.size == 0:
            continue
        first, last = shared[0][0], rows.size - 1
        h = first.vectors[rows]
        h *= half[first.columns]
        yield h, [(b.columns, np.minimum(np.searchsorted(rows, o), last), c)
                  for b, o, c in shared]


def _maps_onto_itself(generators: tuple, nodes: np.ndarray,
                      node_count: int) -> bool:
    member = np.zeros(node_count, dtype=bool)
    member[nodes] = True
    return all(member[g[nodes]].all() for g in generators)


def _solve_blocks(dec: SpectralDecomposition, alpha: float,
                  config: ExteriorConfig, in_nodes: np.ndarray,
                  f_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve E_OO U_O = -E_O,in F for data F on the exterior set `in_nodes`.

    ``f_in`` holds one datum per column, shape (|in|, k).  The half-power
    modes of the data, d = G_in' F, are formed once; then, block by block
    (:func:`_omega_blocks`), with z_k = U_k' W_O^{1/2} U_O the system is
    Y_k z_k = -H_k d_k on the record's columns d_k of d, solved by one
    ``np.linalg.solve`` for all k data of every record that shares H_k, and
    only the record's columns of the modes change:
    d_k <- d_k - H_k' Y_k^{-1} H_k d_k.  W_O drops out, since W_O^{1/2}
    does not change the row space of G_O.  Returns
    U_O = W_O^{-1/2} sum_k U_k z_k (|O|, k) and the half-power modes
    G' U = Lambda^{a/2} Phi' W U (M, k) of the full solutions U (F on
    `in_nodes`, 0 on the rest of the exterior).  Every exterior solve is
    guarded: the worst column's relative residual ||b - Y z|| / ||b||,
    each norm summed over the records (the residual of the symmetrically
    scaled system W_O^{-1/2} E_OO W_O^{-1/2} in the orbit basis), must
    stay below 1e-9, or ``ArithmeticError`` is raised.
    """
    _check_alpha(alpha, allow_one=False)
    w = dec.measure.node_weights
    # G_in = W_in Phi_in Lambda^{a/2}, scaled in place in the gathered copy:
    # one |in| x M block (near M x M for the exterior), not three
    g_in = dec.rows(in_nodes)
    g_in *= _spectral_power(dec.eigenvalues, 0.5 * alpha)
    g_in *= w[in_nodes, None]
    modes = g_in.T @ f_in
    del g_in
    count = f_in.shape[1]
    u_omega = np.zeros((config.interior_count, count))
    b_norm2, r_norm2 = np.zeros(count), np.zeros(count)
    for h, parts in _omega_blocks(dec, alpha, config):
        block = h @ h.T
        rhs = -np.hstack([h @ modes[cols] for cols, _, _ in parts])
        z = np.linalg.solve(block, rhs)
        for norm2, r in ((b_norm2, rhs), (r_norm2, rhs - block @ z)):
            norm2 += np.square(r).sum(axis=0).reshape(-1, count).sum(axis=0)
        for (cols, slot, coef), zk in zip(parts, np.hsplit(z, len(parts))):
            modes[cols] += h.T @ zk
            u_omega += coef[:, None] * zk[slot]
    u_omega /= np.sqrt(w[config.omega_nodes])[:, None]
    residual = float(np.sqrt(np.divide(r_norm2, b_norm2,
                                       out=np.zeros_like(r_norm2),
                                       where=b_norm2 > 0.0)).max())
    if not residual < 1e-9:
        raise ArithmeticError(
            f"exterior solve residual {residual:.2e} exceeds 1e-9")
    return u_omega, modes


def solve_exterior_dirichlet(dec: SpectralDecomposition, alpha: float,
                             config: ExteriorConfig,
                             f_exterior: np.ndarray) -> np.ndarray:
    """Energy solution of (A^a u)|_Omega = 0 with u = f on the exterior.

    Returned as a full node vector that keeps the datum verbatim on the
    exterior.  The interior block E_OO = G_O G_O' is SPD (the only PSD kernel
    direction, the constant, never fits inside a proper Omega) and is solved
    directly, one symmetry block at a time (:func:`_solve_blocks`).
    """
    f_exterior = np.asarray(f_exterior, dtype=float)
    if f_exterior.shape != config.exterior_nodes.shape:
        raise ValueError("exterior datum must align with config.exterior_nodes")
    u_omega, _ = _solve_blocks(dec, alpha, config, config.exterior_nodes,
                               f_exterior[:, None])
    u = np.zeros(dec.node_count)
    u[config.exterior_nodes] = f_exterior
    u[config.omega_nodes] = u_omega[:, 0]
    return u


def coercivity_constant(dec: SpectralDecomposition, alpha: float,
                        config: ExteriorConfig) -> float:
    """Discrete Poincare constant: min of E(u,u)/||u||_w^2 over supp u in Omega.

    The smallest eigenvalue of W^{-1/2} E_OO W^{-1/2} = U diag(Y_k) U'
    (:func:`_omega_blocks`, U orthogonal), so the smallest over the blocks'
    Y_k = H_k H_k', one per eigensolve; strictly positive for a proper
    Omega, and a per-grid diagnostic for the energy estimates.
    """
    return float(min(np.linalg.eigvalsh(h @ h.T)[0]
                     for h, _ in _omega_blocks(dec, alpha, config)))


# ----------------------------------------------------------------------
# the partial Dirichlet-to-Neumann map


@dataclasses.dataclass
class DtNRecord:
    """One partial-map measurement: the datum f on W1 (input) and
    A^a u^f on W2 (output), both as unweighted nodal samples."""

    alpha: float
    input_nodes: np.ndarray
    input_values: np.ndarray
    output_nodes: np.ndarray
    output_values: np.ndarray


def _measured(dec: SpectralDecomposition, alpha: float, nodes: np.ndarray,
              modes: np.ndarray) -> np.ndarray:
    """(A^a U)_S = Phi_S Lambda^{a/2} (G' U) from the modes G' U, (M, k),
    with G = W Phi Lambda^{a/2}.

    At nodes S away from the support of U the sum over modes cancels: on
    the 2-d layouts of the tests its terms add up to about 1.7e4 times the
    result, and accumulating them in float64 alone costs some 1e-12 of the
    output.  The product is therefore formed by :func:`_accurate_product`,
    to about the rounding of the result.
    """
    rows = dec.rows(nodes) * _spectral_power(dec.eigenvalues, 0.5 * alpha)
    return _accurate_product(rows, modes)


def _accurate_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b to about one rounding of the result, from one float64 BLAS
    product.

    An error-free split (Ozaki, Ogita, Oishi and Rump, Numer. Algorithms
    2012): each row of ``a`` and each column of ``b`` is cut into two
    slices of ``bits`` significant bits below the row's (column's) largest
    magnitude and an exact remainder, so a = a1 + a2 + a3 and
    b = b1 + b2 + b3 exactly.  The slices are stacked, so one product forms
    all nine ai bj.  A slice product sums n terms, each one power of two
    times an integer below 2^(2 bits + 1); with 2 bits + 1 + log2 n <= 53
    every partial sum is exact in float64, whatever order BLAS sums in.
    The products with a remainder carry rounding only at 2^(-2 bits) of
    the row's and column's scale.  The nine products are summed with an
    error-free two-sum and one final correction (Ogita, Rump and Oishi,
    SISC 2005).
    """
    bits = (52 - math.ceil(math.log2(a.shape[1]))) // 2
    stacked = (np.concatenate(_split(a, 1, bits))
               @ np.concatenate(_split(b, 0, bits), axis=1))
    rows, cols = a.shape[0], b.shape[1]
    terms = stacked.reshape(3, rows, 3, cols).transpose(0, 2, 1, 3).reshape(
        9, rows, cols)
    total, error = terms[0], 0.0
    for term in terms[1:]:
        new = total + term
        back = new - total
        error = error + ((total - (new - back)) + (term - back))
        total = new
    return total + error


def _split(x: np.ndarray, axis: int, bits: int) -> list[np.ndarray]:
    """x = x1 + x2 + x3 exactly: x1 and x2 integer multiples of
    2^(e - bits) and of 2^(e2 - bits), rounded off by adding and removing
    0.75 * 2^(e + 53 - bits), with 2^e and 2^e2 the powers of two at or
    above the largest magnitude of each line along ``axis`` of x and of
    x - x1; x3 the rest."""
    slices = []
    for _ in range(2):
        _, exponent = np.frexp(np.abs(x).max(axis=axis, keepdims=True))
        shift = np.ldexp(0.75, exponent + 53 - bits)
        head = (x + shift) - shift
        slices.append(head)
        x = x - head
    return slices + [x]


def _partial_map(dec: SpectralDecomposition, alpha: float,
                 config: ExteriorConfig, f_w1: np.ndarray) -> np.ndarray:
    """(A^a U)|_W2 for the data F on W1 given as columns, (|W1|, k)."""
    _, modes = _solve_blocks(dec, alpha, config, config.w1_nodes, f_w1)
    return _measured(dec, alpha, config.w2_nodes, modes)


def dtn_partial(dec: SpectralDecomposition, alpha: float,
                config: ExteriorConfig, f_on_w1: np.ndarray) -> DtNRecord:
    """Partial map Lambda^{W1,W2}: datum on W1, measurement on W2.

    ``f_on_w1`` holds one value per node of ``config.w1_nodes``; it is
    solved as one column, so a datum costs one column, not |W1|.
    """
    values = np.array(f_on_w1, dtype=float)
    if values.shape != config.w1_nodes.shape:
        raise ValueError(f"datum of shape {values.shape} must align with "
                         f"config.w1_nodes of shape {config.w1_nodes.shape}")
    flux = _partial_map(dec, alpha, config, values[:, None])[:, 0]
    return DtNRecord(alpha=alpha, input_nodes=config.w1_nodes,
                     input_values=values, output_nodes=config.w2_nodes,
                     output_values=flux)


def dtn_matrix(dec: SpectralDecomposition, alpha: float,
               config: ExteriorConfig) -> np.ndarray:
    """The partial map Lambda^{W1,W2} as its |W2| x |W1| matrix.

    Column j is the W2 output for the unit datum at W1 node j, so
    ``dtn_matrix(...) @ f`` is ``dtn_partial(..., f).output_values`` for any
    datum f on W1.  One solve of E_OO X = -E_O,W1 covers every column, and
    the worst column's relative residual must stay below 1e-9.  The caller
    holds the matrix; once it is built, the decomposition is no longer
    needed to measure the partial map.
    """
    return _partial_map(dec, alpha, config, np.eye(len(config.w1_nodes)))


# ----------------------------------------------------------------------
# fractional Poisson and source-to-solution


@dataclasses.dataclass
class SourceSolutionRecord:
    """Exterior source F and the restriction of its Poisson solution."""

    alpha: float
    exterior_nodes: np.ndarray
    source_values: np.ndarray    # F at exterior nodes
    solution_values: np.ndarray  # w^F = A^{1-a} F at exterior nodes


def poisson_solve(dec: SpectralDecomposition, alpha: float,
                  config: ExteriorConfig, F: np.ndarray) -> SourceSolutionRecord:
    """Solve (-Lap)^a w = (-Lap) F by the closed form w = (-Lap)^{1-a} F.

    The identity A^a A^{1-a} = A holds exactly in the spectral calculus
    (both sides annihilate the constant), so no iteration is involved; the
    record keeps the exterior restrictions a paired comparison reads.
    """
    _check_alpha(alpha, allow_one=False)
    F = np.asarray(F, dtype=float)
    if F.shape != (dec.node_count,):
        raise ValueError("source must be a full node vector")
    if np.any(F[config.omega_nodes] != 0.0):
        raise ValueError("source must vanish identically on omega")
    w = frac_apply_spectral(dec, 1.0 - alpha, F)
    ex = config.exterior_nodes
    return SourceSolutionRecord(alpha=alpha, exterior_nodes=ex,
                                source_values=F[ex], solution_values=w[ex])
