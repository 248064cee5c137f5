"""Degenerate elliptic extension realization of the fractional operator.

A boundary function u on the torus extends to the half-space {z > 0} as the
solution of

    div(z^{1-2a} grad_g u~) = 0,   u~(x, 0) = u(x),

and the fractional operator is read off the weighted Neumann trace,

    lim_{z->0} z^{1-2a} d_z u~(x, z) = -d_a (-Lap_g)^a u(x),
    d_a = 2^{1-2a} Gamma(1-a) / Gamma(a).

Mode-wise the extension ODE

    phi'' + (1-2a)/z phi' = lam phi,   phi(0) = 1,  phi bounded,

is solved by phi(z) = (sqrt(lam) z)^a K_a(sqrt(lam) z) / (2^{a-1} Gamma(a)),
with K_a the modified Bessel function of the second kind; its small-argument
expansion

    z^a K_a(z) = 2^{a-1} Gamma(a) [ 1 - (Gamma(1-a)/Gamma(1+a)) (z/2)^{2a}
                                      + (z/2)^2/(1-a) + O(z^{2+2a}) ]

carries both the trace constant (the z^{2a} slope) and the derivative
identity d/dz (z^a K_a(z)) = -z^a K_{1-a}(z).

Three independent routes live here: the analytic Bessel extension, a
graded-mesh FEM solve of the degenerate problem (preconditioned CG), and
the heat-kernel representation of the Neumann-problem solution

    w^F(x, z) = c^_a int_0^inf e^{t Lap}((-Lap) F)(x) e^{-z^2/4t} t^{a-1} dt,

whose Taylor coefficients in z^2 are the normal-series coefficients C_j.
The constant is the closed form c^_a = 1/Gamma(a): mode by mode
int_0^inf e^{-lam t} t^{a-1} dt = Gamma(a) lam^{-a}, so at z = 0 the
integral is Gamma(a) A^{-a} A F = Gamma(a) A^{1-a} F; it is evaluated by the
semigroup rule ``LogQuadrature.semigroup``, exact to roundoff.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .quadrature import LogQuadrature
from .solvers import conjugate_gradient
from .geometry import TorusGrid
from .spectral import (SpectralDecomposition, _axis_modes, _check_alpha,
                       _node_indices, frac_apply_spectral)

__all__ = [
    "bessel_k",
    "d_alpha",
    "mode_profile",
    "ExtensionSolution",
    "extend_dirichlet",
    "neumann_trace",
    "ExtensionMesh",
    "graded_mesh",
    "ExtensionField",
    "fd_extension_solve",
    "representation_solution",
    "SeriesCoefficients",
    "series_coefficients",
]


# ----------------------------------------------------------------------
# modified Bessel function of the second kind, order in (0, 1)

_SERIES_CUTOFF = 2.0
# beyond s ~ 3.9 the factor e^{-z cosh s} is below e^{-z-46} for z >= 2
_COSH_S = np.linspace(0.0, 3.9, 801)
_COSH_W = np.full(801, 3.9 / 800)
_COSH_W[0] = _COSH_W[-1] = 3.9 / 1600


def _bessel_k_series(alpha: float, z: np.ndarray) -> np.ndarray:
    # K_a = pi (I_{-a} - I_a) / (2 sin(pi a)); both I series converge in a
    # few dozen terms for z <= 2 and the subtraction is mild for a in (0,1)
    half = 0.5 * z
    q = half * half
    out = np.zeros_like(z)
    for nu, sign in ((-alpha, 1.0), (alpha, -1.0)):
        term = half**nu / math.gamma(1.0 + nu)
        total = term.copy()
        for m in range(1, 60):
            term = term * q / (m * (m + nu))
            total += term
            if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
                break
        out += sign * total
    return out * math.pi / (2.0 * math.sin(math.pi * alpha))


def _bessel_k_integral(alpha: float, z: np.ndarray) -> np.ndarray:
    # K_a(z) = int_0^inf e^{-z cosh s} cosh(a s) ds; the integrand is even
    # in s and decays below round-off before the fixed endpoint, so the
    # trapezoid sum converges like a periodic one (no boundary terms)
    body = np.exp(-np.outer(z, np.cosh(_COSH_S))) * np.cosh(alpha * _COSH_S)
    return body @ _COSH_W


def bessel_k(alpha: float, z):
    """K_alpha(z) for alpha in (0,1), elementwise in z > 0.

    Series below z = 2, cosh-integral above; relative accuracy ~1e-12 over
    z in [1e-6, 50] (checked against the half-integer closed form and an
    independent library evaluation in the test suite).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"Bessel order must lie in (0, 1), got {alpha}")
    arr = np.asarray(z, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("bessel_k requires z > 0")
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    small = flat <= _SERIES_CUTOFF
    if small.any():
        out[small] = _bessel_k_series(alpha, flat[small])
    if (~small).any():
        out[~small] = _bessel_k_integral(alpha, flat[~small])
    out = out.reshape(np.atleast_1d(arr).shape)
    return float(out[0]) if scalar else out


def d_alpha(alpha: float) -> float:
    """Trace constant d_a = 2^{1-2a} Gamma(1-a)/Gamma(a); d_{1/2} = 1."""
    _check_alpha(alpha, allow_one=False)
    return 2.0 ** (1.0 - 2.0 * alpha) * math.gamma(1.0 - alpha) / math.gamma(alpha)


def mode_profile(alpha: float, lam, z):
    """Normalized extension profile (sqrt(lam) z)^a K_a(sqrt(lam) z) / (2^{a-1} Gamma(a)).

    Equals 1 at z = 0 (and identically 1 for the lam = 0 mode); broadcasts
    over lam and z.  Arguments large enough to underflow K_a return 0.
    """
    _check_alpha(alpha, allow_one=False)
    lam_arr, z_arr = np.broadcast_arrays(np.asarray(lam, float), np.asarray(z, float))
    if np.any(z_arr < 0.0):
        raise ValueError("extension height must satisfy z >= 0")
    s = np.sqrt(lam_arr) * z_arr
    out = np.ones_like(s)
    # e^{-s} underflow: profile is exactly 0 to double precision
    live = (s > 0.0) & (s < 700.0)
    out[s >= 700.0] = 0.0
    if live.any():
        sv = s[live]
        norm = 2.0 ** (alpha - 1.0) * math.gamma(alpha)
        out[live] = sv**alpha * bessel_k(alpha, sv) / norm
    result = out if out.ndim else float(out)
    return result


@dataclasses.dataclass
class ExtensionSolution:
    """Bessel-mode extension of a boundary function into the half-space."""

    alpha: float
    dec: SpectralDecomposition
    mode_coefficients: np.ndarray  # weighted projections of the boundary datum

    def level_values(self, z: float) -> np.ndarray:
        """The extension restricted to height z, as a node vector."""
        profiles = mode_profile(self.alpha, self.dec.eigenvalues, float(z))
        return self.dec.synthesize(self.mode_coefficients * profiles)

    def evaluate(self, x_index: int, z: float) -> float:
        profiles = mode_profile(self.alpha, self.dec.eigenvalues, float(z))
        return float(np.dot(self.dec.rows(x_index),
                            self.mode_coefficients * profiles))

    def field(self, heights: np.ndarray) -> np.ndarray:
        """Sampled extension, shape (node_count, len(heights))."""
        cols = [self.level_values(z) for z in np.asarray(heights, float)]
        return np.stack(cols, axis=1)


def extend_dirichlet(dec: SpectralDecomposition, alpha: float,
                     u: np.ndarray) -> ExtensionSolution:
    """Solve the extension problem with Dirichlet datum u at z = 0."""
    _check_alpha(alpha, allow_one=False)
    coeffs = dec.project(np.asarray(u, float))
    return ExtensionSolution(alpha=alpha, dec=dec, mode_coefficients=coeffs)


def neumann_trace(sol: ExtensionSolution) -> np.ndarray:
    """Weighted Neumann trace lim_{z->0} z^{1-2a} d_z u~ = -d_a A^a u.

    Analytic per mode: the z^{2a} slope of the profile is
    -(Gamma(1-a)/Gamma(1+a)) (lam/4)^a, so the weighted derivative limit is
    -d_a lam^a per unit boundary coefficient.  (The test suite re-derives
    the same constant by numeric z->0 extrapolation of the profile.)
    """
    u0 = sol.dec.synthesize(sol.mode_coefficients)
    return -d_alpha(sol.alpha) * frac_apply_spectral(sol.dec, sol.alpha, u0)


# ----------------------------------------------------------------------
# graded mesh and the degenerate graded-mesh FEM solve


@dataclasses.dataclass(frozen=True)
class ExtensionMesh:
    """Graded heights 0 = z_0 < ... < z_P = H for the weighted solver."""

    alpha: float
    heights: np.ndarray
    grading: float

    def __post_init__(self):
        z = np.asarray(self.heights, float)
        if z.ndim != 1 or len(z) < 3:
            raise ValueError("extension mesh needs at least three heights")
        if z[0] != 0.0 or np.any(np.diff(z) <= 0.0):
            raise ValueError("heights must increase strictly from z_0 = 0")
        if self.grading < 1.0:
            raise ValueError("mesh grading exponent must be >= 1")
        object.__setattr__(self, "heights", z)

    @property
    def intervals(self) -> int:
        return len(self.heights) - 1

    @property
    def height(self) -> float:
        return float(self.heights[-1])

    def conductances(self) -> np.ndarray:
        """Harmonic-mean vertical conductances c_p = (int_cell z^{2a-1} dz)^{-1}.

        The flux q = z^{1-2a} du~/dz is the smooth variable across the
        degenerate boundary (the solution itself has a z^{2a} layer), and
        u(z_{p+1}) - u(z_p) = int q z^{2a-1} dz, so the harmonic average
        reproduces the pure-flux solution A + B z^{2a} exactly at the nodes;
        the arithmetic average W_p / dz_p^2 loses half an order in the first
        cells instead.
        """
        z = self.heights
        p = 2.0 * self.alpha
        return p / (z[1:] ** p - z[:-1] ** p)

    def mass_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Consistent P1 mass of the weight: (diagonal, codiagonal), exact.

        Per cell [a, b] with hats N0 = (b-z)/dz, N1 = (z-a)/dz, expanding
        the products in powers of z reduces everything to the moments
        S_k = int z^{k+1-2a} dz, k = 0, 1, 2:

            I00 = (b^2 S0 - 2b S1 + S2) / dz^2
            I01 = (-ab S0 + (a+b) S1 - S2) / dz^2
            I11 = (a^2 S0 - 2a S1 + S2) / dz^2

        Row sums are the lumped weights int z^{1-2a} hat_p dz; keeping the
        codiagonal instead of lumping cuts the error constant of the
        discrete trace roughly threefold for a <= 1/2, which is what the
        mixed-solve accuracy budget is spent on.
        """
        z = self.heights
        a, b = z[:-1], z[1:]

        def moment(k):
            p = k + 2.0 - 2.0 * self.alpha
            return (b**p - a**p) / p

        s0, s1, s2 = moment(0), moment(1), moment(2)
        dz2 = (b - a) ** 2
        i00 = (b * b * s0 - 2.0 * b * s1 + s2) / dz2
        i01 = (-a * b * s0 + (a + b) * s1 - s2) / dz2
        i11 = (a * a * s0 - 2.0 * a * s1 + s2) / dz2
        diag = np.zeros(len(z))
        diag[:-1] += i00
        diag[1:] += i11
        return diag, i01


def graded_mesh(dec: SpectralDecomposition, alpha: float,
                height: float | None = None, count: int = 96) -> ExtensionMesh:
    """Mesh z_p = H (p/P)^kappa with kappa = 4 - 2a.

    The grading budget is set by the discrete trace (flux at z = 0): the
    mode-lam profile has a z^{2a} layer over depth 1/sqrt(lam), and the
    per-mode trace error behaves like (number of cells below that depth)^-2,
    i.e. (sqrt(lam) H)^{2/kappa} / P^2 once the first cell stops dominating.
    Sweeping kappa against the Bessel oracle shows the returns flatten past
    kappa ~ 4 for small a, while large a (weaker layer, weight singular at 0
    instead) prefers milder compression; kappa = 4 - 2a tracks the measured
    sweet spots to within the P^-2 floor at all of a = 0.25..0.9.  Steeper
    grading makes the assembled diagonal span many decades and the vertical
    coupling stiff; the graded-mesh FEM solve absorbs both with its diagonal
    scaling and its flat-metric preconditioner, which solves the vertical
    coupling exactly, one tridiagonal z-system per flat tangential mode.
    Modes decay like e^{-sqrt(lam_1) z}, so the default cap H = 8/sqrt(lam_1)
    leaves a ~3e-4 relative truncation floor in the field away from z = 0;
    pass a larger height when an error budget below that matters.
    """
    _check_alpha(alpha, allow_one=False)
    positive = dec.eigenvalues[dec.eigenvalues > 0]
    if len(positive) == 0:
        raise ValueError("decomposition has no positive modes to set a height scale")
    lam1 = float(positive[0])
    if height is None:
        height = 8.0 / math.sqrt(lam1)
    if height < 5.0 / math.sqrt(lam1):
        raise ValueError(
            f"truncation height {height:.3g} is below 5/sqrt(lam_1) = "
            f"{5.0 / math.sqrt(lam1):.3g}; modes would still be active at the cap")
    if count < 2:
        raise ValueError("extension mesh needs at least two intervals")
    kappa = 4.0 - 2.0 * alpha
    p = np.arange(count + 1) / count
    return ExtensionMesh(alpha=alpha, heights=height * p**kappa, grading=kappa)


@dataclasses.dataclass
class ExtensionField:
    """Graded-mesh FEM solve result: values[i, p] at node i and height z_p."""

    mesh: ExtensionMesh
    values: np.ndarray
    iterations: int
    residual: float

    def boundary_values(self) -> np.ndarray:
        return self.values[:, 0]


def _flat_modes(grid: TorusGrid):
    """Real orthonormal eigenbasis of the Euclidean stiffness on ``grid``.

    The stiffness h^{dim-2} sum_j D+_j' D+_j is a Kronecker sum of 1-d
    periodic second differences, so the tensor product of the per-axis
    modes Q of ``spectral._axis_modes`` diagonalises it (Lynch, Rice and
    Thomas, Numer. Math. 1964): mode k = (c_0, ..., c_{dim-1}), flattened
    like the nodes, has the closed-form eigenvalue
    mu_k = h^{dim-2} sum_j 4 sin^2(pi c_j / N).

    Returns ``to_modes``, ``to_nodes`` and ``mu``: the transforms apply Q^T
    and Q along every grid axis to the rows of a (rows, M) array or to one
    node vector, as GEMMs over whole levels, and mu has shape (M,).
    """
    n, dim = grid.points_per_side, grid.dim
    q = _axis_modes(n)
    axis_mu = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
    mu = axis_mu if dim == 1 else np.add.outer(axis_mu, axis_mu).ravel()
    mu = mu * grid.spacing ** (dim - 2)

    def transform(X: np.ndarray, along: np.ndarray) -> np.ndarray:
        Y = X.reshape(-1, n) @ along           # the last axis, every row at once
        if dim == 2:
            Y = along.T @ Y.reshape(-1, n, n)  # the first, one level at a time
        return Y.reshape(X.shape)

    return (lambda X: transform(X, q)), (lambda Y: transform(Y, q.T)), mu


def fd_extension_solve(dec: SpectralDecomposition, alpha: float,
                       mesh: ExtensionMesh, dirichlet_nodes: np.ndarray,
                       neumann_nodes: np.ndarray,
                       f_dirichlet: np.ndarray, f_neumann: np.ndarray,
                       iteration_callback=None) -> ExtensionField:
    """Graded-mesh FEM solve of the mixed degenerate problem.

    P1 elements in z on the graded mesh with *exact* integrals of the
    z^{1-2a} weight (endpoint sampling would misweight the first cell for
    a > 1/2): harmonic-mean conductances vertically, and the consistent
    tridiagonal z-mass against the metric stiffness B = W A tangentially.
    Dirichlet nodes prescribe u~(x_i, 0) = f_dirichlet; Neumann nodes
    prescribe the weighted flux lim z^{1-2a} d_z u~ = f_neumann, entering
    the right-hand side as -w_i f_i.  Conjugate gradients on the free
    unknowns of the diagonally scaled system, stopped at relative residual
    1e-9 of the scaled system; the tangential stiffness is applied as a
    stencil, never as a dense matrix.

    The preconditioner is the exact inverse of the same mixed system for the
    Euclidean metric (node weight h^dim, coefficients h^{dim-2} I).  Its
    tangential stiffness is a Kronecker sum of periodic second differences,
    diagonalised by the real orthonormal tensor product of the per-axis
    cos/sin modes of ``spectral._axis_modes``, the closed form's basis, with
    eigenvalues mu_k = h^{dim-2} sum_j 4 sin^2(pi k_j / N) (:func:`_flat_modes`;
    the transforms are small GEMMs over whole levels), so levels 1..P split
    into one tridiagonal z-system per mode.  Those are factored by
    elimination once per solve, not diagonalised: the z-pencil of a steeply
    graded mesh is ill-conditioned, and its eigenbasis loses the exactness
    that keeps the iteration count low.  The level-0 unknowns on the
    Neumann nodes couple only to level 1; eliminating levels 1..P leaves on
    them the restriction of a circulant (the flat discrete Dirichlet-to-
    Neumann map), which is Cholesky-factored once per solve: the
    capacitance-matrix method of Buzbee, Dorr, George and Golub.  The
    metric equals the Euclidean one outside its compact support and is
    uniformly equivalent to it inside, so the preconditioned spectrum is
    bounded independently of the grid: 4 to 7 iterations from N = 16 to 128
    on the 2-d test profiles, and one for the Euclidean metric itself.
    Without Dirichlet nodes (pure Neumann) the circulant's kernel is the
    constants, and the Neumann-node step divides by its symbol with the zero
    mode dropped.

    The truncation cap at z = H is reflecting (zero weighted flux):
    decaying modes would see an O(e^{-2 sqrt(lam) H}) trace perturbation
    under a pinned cap too, but the constant mode -- which extends
    *unchanged* in the half-space problem -- is exact under reflection,
    while pinning the cap to zero would charge it a spurious stiffness
    2a/H^{2a} that pollutes mixed solves at the 1e-1 level.
    """
    _check_alpha(alpha, allow_one=False)
    op = dec.operator
    if mesh.alpha != alpha:
        raise ValueError("mesh was graded for a different alpha")
    w = op.measure.node_weights
    n = len(w)

    dir_nodes = _node_indices(dirichlet_nodes, n, "dirichlet_nodes")
    neu_nodes = _node_indices(neumann_nodes, n, "neumann_nodes")
    listed = np.concatenate([dir_nodes.ravel(), neu_nodes.ravel()])
    if np.any(np.bincount(listed, minlength=n) != 1):
        raise ValueError("dirichlet_nodes and neumann_nodes must partition "
                         "the grid, each node once")
    f_dirichlet = np.asarray(f_dirichlet, float)
    f_neumann = np.asarray(f_neumann, float)
    if f_dirichlet.shape != dir_nodes.shape or f_neumann.shape != neu_nodes.shape:
        raise ValueError("boundary data must align with the node index lists")
    # before any arithmetic: one inf would only surface, as a NaN residual,
    # after every CG iteration
    for name, nodes, f in (("f_dirichlet", dir_nodes, f_dirichlet),
                           ("f_neumann", neu_nodes, f_neumann)):
        bad = ~np.isfinite(f)
        if np.any(bad):
            raise ValueError(f"{name} must be finite; it is not at the nodes "
                             f"{nodes[bad][:8].tolist()}")
    if dir_nodes.size == 0 and f_neumann.size:
        total_flux = float(np.dot(w[neu_nodes], f_neumann))
        if abs(total_flux) > 1e-10 * float(np.dot(w[neu_nodes], np.abs(f_neumann)) + 1e-300):
            raise ValueError(
                "pure-Neumann data is incompatible: the weighted flux must sum to zero")

    P = mesh.intervals
    diag_m, off_m = mesh.mass_rows()    # tangential z-mass, len P+1 / P
    cond = mesh.conductances()          # vertical couplings, len P
    # as columns, to broadcast over the nodes of each level
    diag_m, off_m, cond = diag_m[:, None], off_m[:, None], cond[:, None]

    # unknowns are stored level-major, X[p, i] = u~(x_i, z_p), so the
    # vertical couplings and the mode transforms below run over whole rows
    def apply_full(X: np.ndarray) -> np.ndarray:
        # vertical fluxes G_p = cond_p (X_{p+1} - X_p) between levels
        G = cond * (X[1:] - X[:-1])
        out = np.zeros_like(X)
        out[:-1] -= G
        out[1:] += G
        out *= w
        Y = op.apply_form(X.T).T    # node axis first; both transposes are views
        out += Y * diag_m
        out[:-1] += Y[1:] * off_m
        out[1:] += Y[:-1] * off_m
        return out

    lift = np.zeros((P + 1, n))
    lift[0, dir_nodes] = f_dirichlet
    rhs = np.zeros((P + 1, n))
    rhs[0, neu_nodes] = -w[neu_nodes] * f_neumann
    # rhs -= apply_full(lift), whose terms reach levels 0 and 1 only, since
    # the lift lives on level 0: its vertical flux G_0 and its form B f,
    # each level's terms added in apply_full's order
    G0 = cond[0] * (0.0 - lift[0])
    Y0 = op.apply_form(lift[0])
    rhs[0] -= (0.0 - G0) * w + Y0 * diag_m[0]
    rhs[1] -= G0 * w + Y0 * off_m[0]

    # symmetric Jacobi scaling: the assembled diagonal spans many decades on
    # the strongly graded mesh (c_0 ~ z_1^{-2a}), so the meaning of a
    # relative residual tolerance needs the rescaled system
    # D^{-1/2} S D^{-1/2} y = D^{-1/2} b, x = D^{-1/2} y.  The fixed
    # unknowns (level 0 at the Dirichlet nodes) get a zero scale, so they
    # stay exactly zero throughout.
    b_diag = op.form_diagonal()
    vert = np.zeros((P + 1, 1))
    vert[:-1] += cond
    vert[1:] += cond
    d_half = np.sqrt(vert * w + diag_m * b_diag)
    inv_scale = 1.0 / d_half
    inv_scale[0, dir_nodes] = 0.0

    # Preconditioner: D^{1/2} S_flat^{-1} D^{1/2}, with S_flat the same
    # mixed system for the Euclidean metric (w0 = h^dim, C = h^{dim-2} I);
    # levels 1..P solve as T_k = w0 K_z + mu_k M_z, one per flat mode k, by
    # Thomas elimination (in the eigenbasis of the z-pencil (K_z, M_z)
    # instead, CG took about 1500 iterations, not 5, at N = 16, P = 768 and
    # a = 0.1)
    grid = op.grid
    w0 = grid.spacing ** grid.dim
    to_modes, to_nodes, mu = _flat_modes(grid)
    # per-level coefficients as (levels, 1), to broadcast over the modes;
    # ``lower`` holds T_k's codiagonal and is overwritten by the multipliers
    lower = off_m[1:] * mu - cond[1:] * w0
    pivots = vert[1:] * w0 + diag_m[1:] * mu
    for p in range(P - 1):
        pivots[p + 1] -= lower[p] ** 2 / pivots[p]
        lower[p] /= pivots[p]

    def tridiagonal_solve(R: np.ndarray) -> np.ndarray:
        # T_k^{-1} R in place, R of shape (P, M) in modes
        for p in range(P - 1):
            R[p + 1] -= lower[p] * R[p]
        R /= pivots
        for p in range(P - 2, -1, -1):
            R[p] -= lower[p] * R[p + 1]
        return R

    # level-0 / level-1 coupling c_k, col_k = T_k^{-1} e_1, and the level-0
    # Schur symbol sigma_k = (w0 K_00 + mu_k M_00) - c_k^2 (T_k^{-1})_11
    couple = mu * off_m[0, 0] - w0 * cond[0, 0]
    col = np.zeros((P, n))
    col[0] = 1.0
    col = tridiagonal_solve(col)
    sigma = w0 * cond[0, 0] + mu * diag_m[0, 0] - couple**2 * col[0]
    if dir_nodes.size:
        # the circulant's column at node 0 gives its entries at the wrapped
        # lags between Omega nodes
        kernel = to_nodes(sigma * to_modes(np.eye(1, n).ravel())).reshape(grid.shape)
        at = np.unravel_index(neu_nodes, grid.shape)
        lags = tuple((i[:, None] - i[None, :]) % nj for i, nj in zip(at, grid.shape))
        chol_inv = np.linalg.inv(np.linalg.cholesky(kernel[lags]))

        def omega_solve(s: np.ndarray) -> np.ndarray:
            return chol_inv.T @ (chol_inv @ s)
    else:
        # pure Neumann: Omega is the whole grid and the circulant's kernel is
        # the constants, mode 0, so that mode is dropped
        inv_sigma = np.zeros(n)
        inv_sigma[1:] = 1.0 / sigma[1:]

        def omega_solve(s: np.ndarray) -> np.ndarray:
            return to_nodes(inv_sigma * to_modes(s))

    def precondition(r: np.ndarray) -> np.ndarray:
        R = r.reshape(P + 1, n) * d_half
        V = tridiagonal_solve(to_modes(R[1:]))
        X = np.zeros((P + 1, n))
        coupled = to_nodes(couple * V[0])
        X[0, neu_nodes] = omega_solve(R[0, neu_nodes] - coupled[neu_nodes])
        V -= col * (couple * to_modes(X[0]))
        X[1:] = to_nodes(V)
        return (X * d_half).ravel()

    def matvec(y: np.ndarray) -> np.ndarray:
        X = y.reshape(P + 1, n) * inv_scale
        return (apply_full(X) * inv_scale).ravel()

    b_scaled = (rhs * inv_scale).ravel()
    callback = None
    if iteration_callback is not None:
        callback = lambda y: iteration_callback(y, matvec, b_scaled)
    y, iters, residual = conjugate_gradient(
        matvec, b_scaled, precondition, rtol=1e-9, max_iter=20000,
        callback=callback)

    values = (lift + y.reshape(P + 1, n) * inv_scale).T.copy()
    return ExtensionField(mesh=mesh, values=values, iterations=iters,
                          residual=residual)


# ----------------------------------------------------------------------
# heat-kernel representation of the Neumann-problem solution


def _representation_setup(dec: SpectralDecomposition, F: np.ndarray,
                          x_indices: np.ndarray, quad: LogQuadrature
                          ) -> tuple[np.ndarray, np.ndarray]:
    """F as floats and the heat series (e^{t Lap} H)(x) on the window (nodes
    along the last axis), one row per node x, for H = A F with the zero mode
    projected out.  The nodes must lie off supp F."""
    F = np.asarray(F, float)
    inside = x_indices[F[x_indices] != 0.0]
    if inside.size:
        raise ValueError(f"nodes {inside.tolist()} lie inside supp F; the "
                         "representation holds off-support")
    h_modes = dec.project(dec.operator.apply(F))
    h_modes[dec.eigenvalues == 0.0] = 0.0
    rows = dec.rows(x_indices)
    series = np.exp(-np.outer(quad.nodes, dec.eigenvalues)) @ (rows * h_modes).T
    return F, series.T


def representation_solution(dec: SpectralDecomposition, alpha: float,
                            F: np.ndarray, x_index: int, z: float) -> float:
    """Evaluate w^F(x, z) = c^_a int (e^{t Lap} H)(x) e^{-z^2/4t} t^{a-1} dt,
    H = (-Lap) F, valid off the support of F (even in z by construction).

    The integral runs over (0, inf) by ``LogQuadrature.semigroup``: below the
    window the log-time integrand is H(x) e^{a s} or steeper."""
    _check_alpha(alpha, allow_one=False)
    if z < 0.0:
        raise ValueError("representation height must satisfy z >= 0")
    quad = LogQuadrature.semigroup(dec.eigenvalues, left=alpha, right=math.inf)
    _, series = _representation_setup(dec, F, np.array([x_index]), quad)
    val = quad.moments(series[0] * np.exp(-z * z / (4.0 * quad.nodes)), alpha - 1.0)
    return float(val) / math.gamma(alpha)


@dataclasses.dataclass
class SeriesCoefficients:
    """Normal-series data: w^F(x, z) = sum_j C_j(x) z^{2j} near z = 0."""

    alpha: float
    x_indices: np.ndarray
    values: np.ndarray        # shape (len(x_indices), J+1)
    distances: np.ndarray     # torus distance from each x to supp F
    decay_slopes: np.ndarray  # fitted slope of log|C_j| vs j (j >= 1)

    @property
    def order(self) -> int:
        return self.values.shape[1] - 1

    def evaluate(self, z: float) -> np.ndarray:
        """Partial sums sum_{j<=J} C_j(x) z^{2j} for each stored x."""
        powers = float(z) ** (2 * np.arange(self.order + 1))
        return self.values @ powers


def series_quadrature(dec: SpectralDecomposition,
                      count: int = 400) -> LogQuadrature:
    """Default t-window for the series integrals.

    Below the cell diffusion time h^2/4 the discrete off-diagonal heat
    kernel is polynomial in t (not Gaussian-small), which would make the
    t^{a-1-j} integrals blow up for large j; above it the kernel tracks the
    continuum Gaussian and the integrals are tame.  The true mass lost by
    starting at h^2/4 is exponentially small at any off-support x.
    """
    t_min = dec.grid.spacing**2 / 4.0
    return LogQuadrature.log_uniform(t_min=t_min, t_max=1e4, count=count)


def series_coefficients(dec: SpectralDecomposition, alpha: float,
                        F: np.ndarray, x_indices, J: int,
                        quad: LogQuadrature | None = None) -> SeriesCoefficients:
    """Coefficients C_j(x) = c^_a (-1)^j 4^{-j}/j! int (e^{t Lap} H)(x) t^{a-1-j} dt."""
    _check_alpha(alpha, allow_one=False)
    if not 0 <= J <= 12:
        raise ValueError("series order J must lie in 0..12")
    if quad is None:
        quad = series_quadrature(dec)
    x_indices = np.atleast_1d(np.asarray(x_indices, dtype=int))
    F, series = _representation_setup(dec, F, x_indices, quad)
    support = np.flatnonzero(F != 0.0)
    if support.size == 0:
        raise ValueError("F vanishes identically; no source to expand around")
    dists = dec.grid.pair_distance(x_indices[:, None], support).min(axis=1)
    # the t^{a-1-j} integrand peaks at t_j* = d^2/(4 (j+1-a)); if the peak
    # of the highest coefficient falls below the window the data cannot
    # resolve it
    t_peak = dists.min() ** 2 / (4.0 * (J + 1.0 - alpha))
    if J > 0 and t_peak < quad.t_min:
        raise ValueError(
            f"quadrature window t_min = {quad.t_min:.3e} cannot resolve the "
            f"order-{J} weight (integrand peak at {t_peak:.3e}); enlarge the "
            f"window or reduce J")
    c_hat = 1.0 / math.gamma(alpha)
    factors = np.array([c_hat * (-0.25) ** j / math.factorial(j)
                        for j in range(J + 1)])
    values = factors * quad.moments(series, alpha - 1.0 - np.arange(J + 1))

    slopes = np.full(len(x_indices), np.nan)
    for row in range(len(x_indices)):
        mags = np.abs(values[row, 1:])
        js = 1 + np.flatnonzero(mags > 0)
        if len(js) >= 2:
            slopes[row] = np.polyfit(js, np.log(mags[js - 1]), 1)[0]
    return SeriesCoefficients(alpha=alpha, x_indices=x_indices, values=values,
                              distances=dists, decay_slopes=slopes)
