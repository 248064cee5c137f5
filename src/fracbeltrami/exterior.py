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
of the data, and factors the |Omega| x |Omega| block directly, once for a
whole block of data given as columns.  The rows are read through
``SpectralDecomposition.rows``, so a decomposition that holds only some
rows serves every solve whose nodes it holds: the partial map reads Omega,
W1 and W2 (``ExteriorConfig.partial_map_nodes``), 475 of 2304 nodes on the
benchmark layout at 2-d N = 48, while the full map, the Poisson solve and
the exterior Dirichlet solve need the whole basis.  On top of the solve sit

  * the partial and full Dirichlet-to-Neumann maps  f |-> (A^a u^f)|_W2,
    one datum at a time as records;
  * the partial map as its |W2| x |W1| matrix Lambda = Lambda^{W1,W2},
    from one solve with the |W1| unit data as columns.  Column j is the W2
    output of the unit datum at W1 node j, so Lambda f is the output of any
    datum f.  The matrix is all a caller needs to keep of a decomposition
    to measure the partial map: |W2| x |W1| numbers instead of M x M;
  * the fractional Poisson solve  w^F = A^{1-a} F  for exterior sources,
  * the source-to-solution batches consumed by the recovery pipeline.

Measurements are stored in the unweighted nodal basis; both the plain and
the sqrt|g|-weighted pairings are exposed, since the weighted one is the
symmetric bilinear form of the problem.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .geometry import TorusGrid
from .spectral import (
    SpectralDecomposition,
    _check_alpha,
    _spectral_power,
    frac_apply_spectral,
)

__all__ = [
    "ExteriorConfig",
    "RegionSpec",
    "nodes_in_ball",
    "nodes_in_annulus",
    "make_exterior_config",
    "solve_exterior_dirichlet",
    "DtNRecord",
    "dtn_partial",
    "dtn_full",
    "dtn_matrix",
    "SourceSolutionRecord",
    "poisson_solve",
    "source_to_solution_map",
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


def nodes_in_annulus(grid: TorusGrid, center, r_inner: float,
                     r_outer: float) -> np.ndarray:
    if not 0.0 <= r_inner < r_outer:
        raise ValueError("annulus needs 0 <= r_inner < r_outer")
    d = grid.distance_to(center)
    return np.flatnonzero((d >= r_inner) & (d <= r_outer))


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
    omega = np.unique(np.asarray(omega_nodes, dtype=int))
    w1 = np.unique(np.asarray(w1_nodes, dtype=int))
    w2 = np.unique(np.asarray(w2_nodes, dtype=int))
    n = grid.node_count
    for name, s in (("omega", omega), ("w1", w1), ("w2", w2)):
        if s.size == 0:
            raise ValueError(f"{name} node set is empty")
        if s.min() < 0 or s.max() >= n:
            raise ValueError(f"{name} node indices out of range")
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
        if min(self.omega_radius, self.w1_radius, self.w2_radius) <= 0.0:
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


def _half_power_rows(dec: SpectralDecomposition, alpha: float,
                     nodes: np.ndarray) -> np.ndarray:
    """Rows Phi_S Lambda^{a/2} of the eigenbasis at the nodes S.

    Scaled by the node weights they give G_S = W_S Phi_S Lambda^{a/2}, and
    (A^a u)_S = Phi_S Lambda^{a/2} (G' u).
    """
    return dec.rows(nodes) * _spectral_power(dec.eigenvalues, 0.5 * alpha)


def _measured(dec: SpectralDecomposition, alpha: float, nodes: np.ndarray,
              modes: np.ndarray) -> np.ndarray:
    """(A^a u)_S = Phi_S Lambda^{a/2} (G' u) from the modes G' u, (M[, k]).

    At nodes S away from the support of u the sum over modes cancels: on
    the 2-d layouts of the tests its terms add up to about 1.7e4 times the
    result, and accumulating them in float64 alone costs some 1e-12 of the
    output.  The products and sums are therefore taken in extended
    precision (numpy's longdouble; the same as float64 where the platform
    has no wider type), which removes that part of the roundoff.
    """
    rows = _half_power_rows(dec, alpha, nodes).astype(np.longdouble)
    return (rows @ modes.astype(np.longdouble)).astype(float)


def _solve_blocks(dec: SpectralDecomposition, alpha: float,
                  config: ExteriorConfig, in_nodes: np.ndarray,
                  f_in: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve E_OO U_O = -E_O,in F for data F on the exterior set `in_nodes`.

    ``f_in`` holds one datum per column, shape (|in|, k); E_OO is formed and
    factored once for all k.  Returns U_O (|O|, k), the half-power modes
    G' U = Lambda^{a/2} Phi' W U (M, k) of the full solutions U (F on
    `in_nodes`, 0 on the rest of the exterior), and the worst column's
    explicit relative residual ||b - E_OO u_O|| / ||b||, which must stay
    below 1e-9 (``ArithmeticError`` otherwise), so every exterior solve is
    guarded.
    """
    w = dec.measure.node_weights
    om = config.omega_nodes
    g_om = _half_power_rows(dec, alpha, om) * w[om, None]
    # G_in = W_in Phi_in Lambda^{a/2}, scaled in place in the gathered copy:
    # one |in| x M block (near M x M for the exterior), not three
    g_in = dec.rows(in_nodes)
    g_in *= _spectral_power(dec.eigenvalues, 0.5 * alpha)
    g_in *= w[in_nodes, None]
    datum_modes = g_in.T @ f_in
    rhs = -(g_om @ datum_modes)
    block = g_om @ g_om.T
    u_omega = np.linalg.solve(block, rhs)
    b_norms = np.linalg.norm(rhs, axis=0)
    r_norms = np.linalg.norm(rhs - block @ u_omega, axis=0)
    residual = float(np.divide(r_norms, b_norms, out=np.zeros_like(r_norms),
                               where=b_norms > 0.0).max())
    _require_small_residual(residual)
    return u_omega, datum_modes + g_om.T @ u_omega, residual


def _require_small_residual(residual: float) -> None:
    if not residual < 1e-9:
        raise ArithmeticError(
            f"exterior solve residual {residual:.2e} exceeds 1e-9")


def solve_exterior_dirichlet(dec: SpectralDecomposition, alpha: float,
                             config: ExteriorConfig,
                             f_exterior: np.ndarray) -> np.ndarray:
    """Energy solution of (A^a u)|_Omega = 0 with u = f on the exterior.

    Returned as a full node vector that keeps the datum verbatim on the
    exterior.  The interior block E_OO = G_O G_O' is SPD (the only PSD kernel
    direction, the constant, never fits inside a proper Omega) and is solved
    directly.
    """
    _check_alpha(alpha, allow_one=False)
    f_exterior = np.asarray(f_exterior, dtype=float)
    if f_exterior.shape != config.exterior_nodes.shape:
        raise ValueError("exterior datum must align with config.exterior_nodes")
    u_omega, _, _ = _solve_blocks(dec, alpha, config, config.exterior_nodes,
                                  f_exterior[:, None])
    u = np.zeros(dec.node_count)
    u[config.exterior_nodes] = f_exterior
    u[config.omega_nodes] = u_omega[:, 0]
    return u


def coercivity_constant(dec: SpectralDecomposition, alpha: float,
                        config: ExteriorConfig) -> float:
    """Discrete Poincare constant: min of E(u,u)/||u||_w^2 over supp u in Omega.

    The smallest eigenvalue of W^{-1/2} E_OO W^{-1/2} = R R' with
    R = W_O^{1/2} Phi_O Lambda^{a/2}; strictly positive for a proper Omega,
    and a per-grid diagnostic for the energy estimates.
    """
    om = config.omega_nodes
    root_w = np.sqrt(dec.measure.node_weights[om])
    rows = _half_power_rows(dec, alpha, om) * root_w[:, None]
    return float(np.linalg.eigvalsh(rows @ rows.T)[0])


# ----------------------------------------------------------------------
# Dirichlet-to-Neumann records


@dataclasses.dataclass
class DtNRecord:
    """One DtN measurement: datum on the input set, A^a u^f on the output set.

    `output_values` are unweighted nodal samples; `weighted_pairing` applies
    the sqrt|g| node weights and is the symmetric pairing of the problem.
    """

    alpha: float
    input_nodes: np.ndarray
    input_values: np.ndarray
    output_nodes: np.ndarray
    output_values: np.ndarray
    output_weights: np.ndarray
    residual: float

    def __post_init__(self):
        _require_small_residual(self.residual)

    def pairing(self, h: np.ndarray) -> float:
        """Plain nodal pairing sum_i (Lambda f)_i h_i on the output set."""
        return float(np.dot(self.output_values, np.asarray(h, float)))

    def weighted_pairing(self, h: np.ndarray) -> float:
        """Measure-weighted pairing <Lambda f, h sqrt|g|> (the symmetric one)."""
        return float(np.dot(self.output_values * self.output_weights,
                            np.asarray(h, float)))


def _dtn(dec: SpectralDecomposition, alpha: float, config: ExteriorConfig,
         in_nodes: np.ndarray, values: np.ndarray, out_nodes: np.ndarray,
         label: str) -> DtNRecord:
    """DtN record for a datum given node by node on `in_nodes`."""
    _check_alpha(alpha, allow_one=False)
    values = np.array(values, dtype=float)
    if values.shape != in_nodes.shape:
        raise ValueError(f"datum of shape {values.shape} must align with "
                         f"{label} of shape {in_nodes.shape}")
    _, modes, residual = _solve_blocks(dec, alpha, config, in_nodes,
                                       values[:, None])
    flux = _measured(dec, alpha, out_nodes, modes[:, 0])
    return DtNRecord(alpha=alpha, input_nodes=in_nodes,
                     input_values=values, output_nodes=out_nodes,
                     output_values=flux,
                     output_weights=dec.measure.node_weights[out_nodes],
                     residual=residual)


def dtn_partial(dec: SpectralDecomposition, alpha: float,
                config: ExteriorConfig, f_on_w1: np.ndarray) -> DtNRecord:
    """Partial map Lambda^{W1,W2}: datum on W1, measurement on W2.

    ``f_on_w1`` holds one value per node of ``config.w1_nodes``.
    """
    return _dtn(dec, alpha, config, config.w1_nodes, f_on_w1,
                config.w2_nodes, "config.w1_nodes")


def dtn_full(dec: SpectralDecomposition, alpha: float, config: ExteriorConfig,
             h_on_exterior: np.ndarray) -> DtNRecord:
    """Full map Lambda~: datum on the whole exterior, measured there too.

    ``h_on_exterior`` holds one value per node of ``config.exterior_nodes``.
    """
    return _dtn(dec, alpha, config, config.exterior_nodes, h_on_exterior,
                config.exterior_nodes, "config.exterior_nodes")


def dtn_matrix(dec: SpectralDecomposition, alpha: float,
               config: ExteriorConfig) -> np.ndarray:
    """The partial map Lambda^{W1,W2} as its |W2| x |W1| matrix.

    Column j is the W2 output for the unit datum at W1 node j, so
    ``dtn_matrix(...) @ f`` is ``dtn_partial(..., f).output_values`` for any
    datum f on W1.  One solve of E_OO X = -E_O,W1 covers every column, and
    the worst column's relative residual must stay below 1e-9, as for one
    DtN record.  The caller holds the matrix; once it is built, the
    decomposition is no longer needed to measure the partial map.
    """
    _check_alpha(alpha, allow_one=False)
    _, modes, _ = _solve_blocks(dec, alpha, config, config.w1_nodes,
                                np.eye(len(config.w1_nodes)))
    return _measured(dec, alpha, config.w2_nodes, modes)


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
    record keeps the exterior restrictions the recovery pipeline consumes.
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


def source_to_solution_map(dec: SpectralDecomposition, alpha: float,
                           config: ExteriorConfig,
                           F_list) -> list[SourceSolutionRecord]:
    """Batch of Poisson records, one per supplied exterior source."""
    return [poisson_solve(dec, alpha, config, F) for F in F_list]
