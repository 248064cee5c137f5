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
of the datum, and factors the |Omega| x |Omega| block directly.  On top of
the solve sit

  * the partial and full Dirichlet-to-Neumann maps  f |-> (A^a u^f)|_W2,
  * the fractional Poisson solve  w^F = A^{1-a} F  for exterior sources,
  * the source-to-solution batches consumed by the recovery pipeline.

Measurements are stored in the unweighted nodal basis; both the plain and
the sqrt|g|-weighted pairings are exposed, since the weighted one is the
symmetric bilinear form of the problem.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .geometry import TorusGrid, wrap_displacement
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
    coords = grid.coordinates()
    delta = wrap_displacement(coords[a_nodes][:, None, :] - coords[b_nodes][None, :, :],
                              grid.side_length)
    return float(np.sqrt((delta**2).sum(axis=-1)).min())


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
    return dec.basis[nodes] * _spectral_power(dec.eigenvalues, 0.5 * alpha)


def _solve_blocks(dec: SpectralDecomposition, alpha: float,
                  config: ExteriorConfig, in_nodes: np.ndarray,
                  f_in: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve E_OO u_O = -E_O,in f for a datum f on the exterior set `in_nodes`.

    Returns u_O, the half-power modes G' u = Lambda^{a/2} Phi' W u of the
    full solution u (f on `in_nodes`, 0 on the rest of the exterior), and
    the explicit relative residual ||b - E_OO u_O|| / ||b||.
    """
    w = dec.measure.node_weights
    om = config.omega_nodes
    g_om = _half_power_rows(dec, alpha, om) * w[om, None]
    g_in = _half_power_rows(dec, alpha, in_nodes) * w[in_nodes, None]
    datum_modes = g_in.T @ f_in
    rhs = -(g_om @ datum_modes)
    block = g_om @ g_om.T
    u_omega = np.linalg.solve(block, rhs)
    b_norm = float(np.linalg.norm(rhs))
    residual = (float(np.linalg.norm(rhs - block @ u_omega)) / b_norm
                if b_norm > 0.0 else 0.0)
    return u_omega, datum_modes + g_om.T @ u_omega, residual


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
                                  f_exterior)
    u = np.zeros(dec.node_count)
    u[config.exterior_nodes] = f_exterior
    u[config.omega_nodes] = u_omega
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
        if not self.residual < 1e-9:
            raise ArithmeticError(
                f"DtN solve residual {self.residual:.2e} exceeds 1e-9")

    def pairing(self, h: np.ndarray) -> float:
        """Plain nodal pairing sum_i (Lambda f)_i h_i on the output set."""
        return float(np.dot(self.output_values, np.asarray(h, float)))

    def weighted_pairing(self, h: np.ndarray) -> float:
        """Measure-weighted pairing <Lambda f, h sqrt|g|> (the symmetric one)."""
        return float(np.dot(self.output_values * self.output_weights,
                            np.asarray(h, float)))


def _expand_datum(config: ExteriorConfig, nodes: np.ndarray,
                  values: np.ndarray, label: str) -> np.ndarray:
    """Accept a datum aligned with `nodes`, or a full vector supported there."""
    values = np.asarray(values, dtype=float)
    full = np.zeros(config.grid.node_count)
    if values.shape == nodes.shape:
        full[nodes] = values
        return full
    if values.shape == (config.grid.node_count,):
        outside = np.setdiff1d(np.flatnonzero(values != 0.0), nodes,
                               assume_unique=False)
        if outside.size:
            raise ValueError(f"datum must be supported in {label}; found "
                             f"{outside.size} nonzero nodes outside")
        return values.copy()
    raise ValueError(f"datum shape {values.shape} matches neither {label} "
                     f"({nodes.shape}) nor the full grid")


def _dtn(dec: SpectralDecomposition, alpha: float, config: ExteriorConfig,
         in_nodes: np.ndarray, values: np.ndarray, out_nodes: np.ndarray,
         label: str) -> DtNRecord:
    _check_alpha(alpha, allow_one=False)
    full = _expand_datum(config, in_nodes, values, label)
    _, modes, residual = _solve_blocks(dec, alpha, config, in_nodes,
                                       full[in_nodes])
    flux = _half_power_rows(dec, alpha, out_nodes) @ modes
    return DtNRecord(alpha=alpha, input_nodes=in_nodes,
                     input_values=full[in_nodes], output_nodes=out_nodes,
                     output_values=flux,
                     output_weights=dec.measure.node_weights[out_nodes],
                     residual=residual)


def dtn_partial(dec: SpectralDecomposition, alpha: float,
                config: ExteriorConfig, f_on_w1: np.ndarray) -> DtNRecord:
    """Partial map Lambda^{W1,W2}: datum on W1, measurement on W2."""
    return _dtn(dec, alpha, config, config.w1_nodes, f_on_w1,
                config.w2_nodes, "w1")


def dtn_full(dec: SpectralDecomposition, alpha: float, config: ExteriorConfig,
             h_on_exterior: np.ndarray) -> DtNRecord:
    """Full map Lambda~: datum on the whole exterior, measured there too."""
    return _dtn(dec, alpha, config, config.exterior_nodes, h_on_exterior,
                config.exterior_nodes, "the exterior")


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
