"""Divergence-form Laplace-Beltrami matrices and their fractional calculus.

The grid operator is

    (A u)_i = -(1/sqrt|g|_i) sum_j D-_j ( sqrt|g| g^{jk} D+_k u )_i

with periodic forward/backward differences D+/D-.  A is self-adjoint and
positive semi-definite in the weighted inner product, its kernel is the
constants, and for the identity metric in 1d it reduces to the classical
(-1, 2, -1)/h^2 circulant.  The operator is held as its stencil
coefficients and applied by periodic shifts; a dense matrix is assembled only
for the eigensolve (and on request, as an oracle).  All fractional powers are
defined through the dense eigendecomposition of the symmetrized matrix; the
Balakrishnan quadrature route and the jump-kernel route below are independent
cross-checks of that calculus, not substitutes for it.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .geometry import MetricField, TorusGrid, WeightedMeasure, weighted_inner
from .quadrature import LogQuadrature

__all__ = [
    "DiscreteLaplaceBeltrami",
    "SpectralDecomposition",
    "FracKernel",
    "DecompositionSizeError",
    "QuadratureWindowWarning",
    "assemble_laplacian",
    "decompose",
    "heat_apply",
    "heat_kernel",
    "heat_kernel_matrix",
    "heat_kernel_pairs",
    "frac_apply_spectral",
    "frac_apply_balakrishnan",
    "frac_energy_matrix",
    "jump_kernel",
    "energy_form",
]

DEFAULT_EIG_CAP = 4096


class DecompositionSizeError(ValueError):
    """Raised when a grid exceeds the dense eigendecomposition cap."""


class QuadratureWindowWarning(UserWarning):
    """The quadrature window does not bracket the spectral time scales."""


@dataclasses.dataclass
class DiscreteLaplaceBeltrami:
    """Periodic stencil of A = W^{-1} B and of its quadratic form B = W A.

    ``coefficients`` holds the node coefficients C_jk = h^{dim-2} sqrt|g| g^{jk}
    of the stencil B = sum_jk D+_j' C_jk D+_k (5 nonzeros per row for a
    conformal metric, at most 9 otherwise).  They are the only stored
    representation: :meth:`apply_form` and :meth:`apply` act by periodic
    shifts, and the dense ``form_matrix`` and ``matrix`` are assembled anew
    on each access, for the eigensolve and for dense oracles.
    """

    coefficients: np.ndarray  # (M, dim, dim), the stencil's C_jk per node
    metric: MetricField
    measure: WeightedMeasure
    grid: TorusGrid

    @property
    def form_matrix(self) -> np.ndarray:
        """Dense B (M, M), symmetric PSD with u.B.v = <Au, v>_w.

        Scatters the four point masses each (node, j, k) contributes,

            u.B.v = sum_i C_jk,i (D+_j u)_i (D+_k v)_i ,

        so summation by parts on the torus makes B exactly symmetric.
        """
        grid = self.grid
        m = grid.node_count
        idx = np.arange(m).reshape(grid.shape)
        # forward[a][i] = flat index of the +1 neighbour of node i along axis a
        forward = [np.roll(idx, -1, axis=a).ravel() for a in range(grid.dim)]
        base = np.arange(m)
        b = np.zeros((m, m))
        for j in range(grid.dim):
            for k in range(grid.dim):
                c = self.coefficients[:, j, k]
                np.add.at(b, (base, base), c)
                np.add.at(b, (base, forward[k]), -c)
                np.add.at(b, (forward[j], base), -c)
                np.add.at(b, (forward[j], forward[k]), c)
        return b

    @property
    def matrix(self) -> np.ndarray:
        """Dense A = W^{-1} B (M, M), acting on node vectors."""
        return self.form_matrix / self.measure.node_weights[:, None]

    def form_diagonal(self) -> np.ndarray:
        """diag(B) from the stencil: B_ii = sum_jk C_jk,i + sum_j C_jj,i-e_j.

        The terms are added in the order :attr:`form_matrix` scatters them,
        so the result equals ``np.diag(form_matrix)`` bitwise.
        """
        dim = self.grid.dim
        diag = np.zeros(self.grid.node_count)
        for j in range(dim):
            for k in range(dim):
                c = self.coefficients[:, j, k]
                diag += c
                if j == k:
                    diag += np.roll(c.reshape(self.grid.shape), 1, axis=j).ravel()
        return diag

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u = W^{-1} B u for a node vector or an (M, cols) block."""
        bu = self.apply_form(u)
        return bu / self.measure.node_weights.reshape((-1,) + (1,) * (bu.ndim - 1))

    def apply_form(self, X: np.ndarray) -> np.ndarray:
        """B X for a node vector or an (M, cols) block, by periodic shifts.

        Equals ``form_matrix @ X`` up to summation order; the forward
        difference (D+_k X)_i = X_{i+e_k} - X_i and its transpose
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


def assemble_laplacian(metric: MetricField) -> DiscreteLaplaceBeltrami:
    """The periodic divergence-form operator of a sampled metric.

    Stores the stencil coefficients C_jk = h^{dim-2} sqrt|g| g^{jk} of

        u.B.v = h^dim sum_i sqrt|g|_i g^{jk}_i (D+_j u)_i (D+_k v)_i ,

    with A = W^{-1} B; no dense matrix is built.
    """
    grid = metric.grid
    h = grid.spacing
    coeffs = (h ** grid.dim / h ** 2) * metric.sqrt_det[:, None, None] * metric.inverse_tensor
    return DiscreteLaplaceBeltrami(coefficients=coeffs, metric=metric,
                                   measure=metric.measure(), grid=grid)


@dataclasses.dataclass
class SpectralDecomposition:
    """Eigenpairs of A, orthonormal in the weighted inner product.

    Columns of ``basis`` are the eigenvectors phi_k with
    <phi_j, phi_k>_w = delta_jk; eigenvalues are sorted ascending with the
    zero mode (constants) first and snapped to exactly 0.
    """

    eigenvalues: np.ndarray  # (M,)
    basis: np.ndarray        # (M, M)
    operator: DiscreteLaplaceBeltrami
    grid: TorusGrid
    metric: MetricField
    measure: WeightedMeasure

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
    """Dense symmetric eigendecomposition of W^{1/2} A W^{-1/2}."""
    m = op.grid.node_count
    if m > cap:
        raise DecompositionSizeError(
            f"grid has {m} nodes, dense eigendecomposition capped at {cap}")
    root_w = np.sqrt(op.measure.node_weights)
    # the freshly assembled B is scaled in place to 0.5 (S + S') with
    # S = W^{-1/2} B W^{-1/2}; the basis is signed and rescaled in place too
    sym = op.form_matrix
    sym /= np.outer(root_w, root_w)
    sym += sym.T
    sym *= 0.5
    evals, evecs = np.linalg.eigh(sym)
    del sym

    lam_max = max(float(evals[-1]), 1.0)
    if evals[0] < -1e-10 * lam_max:
        raise ArithmeticError(
            f"eigensolve produced spurious negative eigenvalue {evals[0]:.3e}")
    evals = np.where(evals < 1e-12 * lam_max, 0.0, evals)

    # deterministic sign convention: largest-magnitude entry positive
    anchor = np.abs(evecs).argmax(axis=0)
    signs = np.sign(evecs[anchor, np.arange(m)])
    signs[signs == 0] = 1.0
    evecs *= signs

    evecs /= root_w[:, None]
    return SpectralDecomposition(eigenvalues=evals, basis=evecs, operator=op,
                                 grid=op.grid, metric=op.metric,
                                 measure=op.measure)


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


def heat_kernel(dec: SpectralDecomposition, t: float, i: int, j: int) -> float:
    """Heat kernel value p_t(x_i, x_j) = sum_k e^{-lam_k t} phi_k(i) phi_k(j)."""
    if t <= 0:
        raise ValueError("heat kernel requires t > 0")
    decay = np.exp(-dec.eigenvalues * t)
    return float(np.dot(dec.basis[i] * decay, dec.basis[j]))


def heat_kernel_matrix(dec: SpectralDecomposition, t: float) -> np.ndarray:
    if t <= 0:
        raise ValueError("heat kernel requires t > 0")
    decay = np.exp(-dec.eigenvalues * t)
    return (dec.basis * decay) @ dec.basis.T


def heat_kernel_pairs(dec: SpectralDecomposition, t_values: np.ndarray,
                      i_indices: np.ndarray, j_indices: np.ndarray) -> np.ndarray:
    """Kernel values for a pair list at many times; shape (len(t), len(pairs))."""
    t_values = np.atleast_1d(np.asarray(t_values, float))
    if np.any(t_values <= 0):
        raise ValueError("heat kernel requires t > 0")
    cross = dec.basis[np.asarray(i_indices)] * dec.basis[np.asarray(j_indices)]
    decay = np.exp(-np.outer(t_values, dec.eigenvalues))
    return decay @ cross.T


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


def _window_check(dec: SpectralDecomposition, quad: LogQuadrature,
                  slack: float) -> None:
    lam = dec.eigenvalues
    positive = lam[lam > 0]
    if positive.size == 0:
        return
    lam_min, lam_max = float(positive[0]), float(positive[-1])
    if quad.t_min * lam_max > slack or quad.t_max * lam_min < 1.0 / slack:
        warnings.warn(
            f"quadrature window [{quad.t_min:.2e}, {quad.t_max:.2e}] does not "
            f"bracket the spectral time scales "
            f"[{1.0 / lam_max:.2e}, {1.0 / lam_min:.2e}] (slack {slack})",
            QuadratureWindowWarning, stacklevel=3)


def frac_apply_balakrishnan(dec: SpectralDecomposition, alpha: float,
                            u: np.ndarray, quad: LogQuadrature | None = None,
                            window_slack: float = 10.0) -> np.ndarray:
    """A^alpha u via the semigroup integral

        A^alpha u = (1/Gamma(-alpha)) int_0^inf (e^{-tA} u - u) t^{-1-alpha} dt.

    The window part is the log-trapezoid quadrature of the semigroup
    differences.  The two cut-off ends are completed analytically from
    operator-level data only, keeping the route independent of the
    functional calculus: below t_min the difference is -t A u + O(t^2), so
    the head integral is -A u * t_min^{1-alpha}/(1-alpha); beyond t_max the
    semigroup has reached the weighted mean, so the tail contributes
    (mean(u) - u) * t_max^{-alpha}/alpha.  With both completions the
    remaining error is the (geometrically small) trapezoid error of a
    strip-analytic integrand.
    """
    _check_alpha(alpha, allow_one=False)
    if quad is None:
        quad = LogQuadrature.log_uniform()
    _window_check(dec, quad, window_slack)

    t = quad.nodes
    weights = quad.weights * t ** (-1.0 - alpha)
    coeffs = dec.project(u)
    core = (np.exp(-np.outer(dec.eigenvalues, t)) - 1.0) @ weights

    # analytic endpoint completions (see docstring)
    head = dec.project(dec.operator.apply(u))
    head *= -(quad.t_min ** (1.0 - alpha)) / (1.0 - alpha)
    w = dec.measure.node_weights
    mean = float(np.dot(w, u)) / float(w.sum())
    tail = dec.project(np.full_like(np.asarray(u, float), mean) - u)
    tail *= quad.t_max ** (-alpha) / alpha

    out = (core * coeffs + head + tail) / math.gamma(-alpha)
    return dec.synthesize(out)


# --------------------------------------------------------------------------
# jump kernel and nonlocal energy form


@dataclasses.dataclass(frozen=True)
class FracKernel:
    """Nonlocal kernel samples K(x_i, x_j) over an unordered pair list."""

    alpha: float
    i_indices: np.ndarray
    j_indices: np.ndarray
    values: np.ndarray
    window: tuple
    grid: TorusGrid

    def __len__(self) -> int:
        return self.values.size


def jump_kernel(dec: SpectralDecomposition, alpha: float,
                pairs: np.ndarray | None = None,
                quad: LogQuadrature | None = None) -> FracKernel:
    """Jump kernel of A^alpha,

        K(z, x) = sqrt|g(z)| sqrt|g(x)| / (2 |Gamma(-alpha)|)
                  * int_0^inf p_t(z, x) t^{-1-alpha} dt ,

    evaluated per eigenmode over the quadrature window, plus two analytic
    completions for the cut-off ends.  Beyond t_max the kernel has levelled
    at the constant-mode floor phi_0(z) phi_0(x), whose tail integral
    t_max^{-alpha}/alpha is added in closed form.  Below t_min the discrete
    off-diagonal kernel is linear in t, p_t(i, j) ~ -t A_ij / w_j (it decays
    only polynomially, unlike its continuum counterpart), so the head
    contributes -A_ij/w_j * t_min^{1-alpha}/(1-alpha); this touches stencil
    neighbours only but is what makes the nonlocal energy form below agree
    with the spectral pairing uniformly in the grid spacing.  On the
    periodic grid the kernel reproduces the Euclidean power law at
    separations well inside a period; the cancellation of the large
    per-mode truncation constants is carried by eigenvector completeness.
    """
    _check_alpha(alpha, allow_one=False)
    if quad is None:
        quad = LogQuadrature.log_uniform()
    m = dec.node_count
    if pairs is None:
        ii, jj = np.triu_indices(m, 1)
    else:
        pairs = np.asarray(pairs)
        ii, jj = pairs[:, 0], pairs[:, 1]
        if np.any(ii == jj):
            raise ValueError("jump kernel is defined for distinct node pairs")
    # evaluate on the canonical (low, high) ordering so K(i,j) == K(j,i)
    # bitwise, then report the caller's index order
    lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)

    t = quad.nodes
    eta = np.exp(-np.outer(dec.eigenvalues, t)) @ (quad.weights * t ** (-1.0 - alpha))
    eta[dec.eigenvalues == 0] += quad.t_max ** (-alpha) / alpha

    prefactor = 1.0 / (2.0 * abs(math.gamma(-alpha)))
    s = dec.metric.sqrt_det
    if lo.size >= m:  # full (or near-full) pair sets: one dense product
        full = (dec.basis * eta) @ dec.basis.T
        core = full[lo, hi]
    else:
        core = ((dec.basis[lo] * eta) * dec.basis[hi]).sum(axis=1)
    # Head completion: p_t(i, j) = -t B_ij / (w_i w_j) + O(t^2) off the
    # diagonal, and s_i s_j / (w_i w_j) = h^{-2 dim}.
    head = (dec.operator.form_matrix[lo, hi]
            * (quad.t_min ** (1.0 - alpha) / (1.0 - alpha))
            / dec.grid.spacing ** (2 * dec.grid.dim))
    values = prefactor * (s[lo] * s[hi] * core - head)
    return FracKernel(alpha=alpha, i_indices=ii, j_indices=jj, values=values,
                      window=(quad.t_min, quad.t_max), grid=dec.grid)


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
