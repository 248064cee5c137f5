"""Discrete function-space diagnostics: Sobolev norms and fitted constants.

Regularity is always measured with the flat torus Fourier symbol

    ||u||_{H^s}^2 = sum_xi (1 + |xi|^2)^s |u^(xi)|^2,   xi = 2 pi k / L,

even when the operator under study comes from a non-flat metric: for smooth
coefficients the metric and flat norms are equivalent, so boundedness
verdicts and refinement trends are insensitive to the choice, and the flat
symbol diagonalises exactly on the grid.  The hat is normalised so that
s = 0 reproduces the plain L^2 norm h^dim sum_i u_i^2.

The difference-quotient seminorm

    [u]_{mu,beta} = sup_h |h|^{-beta} sum_j ||tau_{j,h} u||_{H^mu},
    tau_{j,h} u(x) = u(x + h e_j) - u(x),

is the other direction of the same story: mode by mode the shift symbol
obeys |e^{i xi h} - 1| <= 2^{1-beta} |xi h|^beta, hence
[u]_{mu,beta} <= dim * 2^{1-beta} ||u||_{H^{mu+beta}}, while a uniform bound
on [u]_{mu,beta} certifies u in H^{mu+eps} for every eps < beta.  Both
directions are pinned against the Fourier norm in the test suite.

`regularity_probe` turns the norms into a refinement verdict (bounded vs
growing along a grid sequence), and `constant_estimates` fits the best
discrete constants in the trace inequality (boundary H^alpha seminorm
against the Dirichlet energy of the half-space extension) and the
Poincare inequality (weighted L^2 against the fractional energy) over a
family of omega-supported test vectors.  Constants are reported, never
asserted against absolute values: only their stability across grids is a
meaningful quantity at this scale.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

import numpy as np

from .extension import extend_dirichlet, neumann_trace
from .exterior import ExteriorConfig
from .geometry import TorusGrid, weighted_inner
from .spectral import SpectralDecomposition, _check_alpha

__all__ = [
    "sobolev_norm_fourier",
    "diff_quotient_seminorm",
    "RegularityTrend",
    "regularity_probe",
    "ConstantReport",
    "constant_estimates",
]

def _grid_field(grid: TorusGrid, u: np.ndarray) -> np.ndarray:
    """Reshape a nodal vector to the grid axes, validating shape and finiteness."""
    u = np.asarray(u)
    if u.shape != (grid.node_count,):
        raise ValueError(f"expected a nodal vector of shape ({grid.node_count},), got {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("nodal vector contains non-finite entries")
    return u.reshape(grid.shape)


def _frequency_sq(grid: TorusGrid) -> np.ndarray:
    """|xi|^2 on the FFT lattice of the grid, xi_j = 2 pi k_j / L."""
    axes = [2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing) for n in grid.shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    return sum(f * f for f in mesh)


def _fourier_weighted_norm(grid: TorusGrid, field: np.ndarray, s: float,
                           homogeneous: bool = False) -> float:
    # Parseval with the h^dim node measure: ||u||_{L^2}^2 = L^dim/N^{2 dim} sum|fft|^2.
    power = np.abs(np.fft.fftn(field)) ** 2
    xi_sq = _frequency_sq(grid)
    if homogeneous:
        with np.errstate(divide="ignore"):
            weight = np.where(xi_sq > 0.0, xi_sq ** s, 0.0)
    else:
        weight = (1.0 + xi_sq) ** s
    scale = grid.side_length ** grid.dim / grid.node_count ** 2
    return math.sqrt(scale * float(np.sum(weight * power)))


def sobolev_norm_fourier(grid: TorusGrid, u: np.ndarray, s: float) -> float:
    """Flat-symbol Sobolev norm (sum_xi (1+|xi|^2)^s |u^(xi)|^2)^{1/2}.

    A constant c has norm |c| sqrt(L^dim) at every order (only the zero mode
    contributes), and s = 0 is the plain L^2 norm.
    """
    return _fourier_weighted_norm(grid, _grid_field(grid, u), float(s))


def diff_quotient_seminorm(grid: TorusGrid, u: np.ndarray, mu: float, beta: float,
                           h_list: Iterable[float]) -> float:
    """sup_h |h|^{-beta} sum_j ||tau_{j,h} u||_{H^mu} over the given shifts.

    Shifts must be nonzero integer multiples of the grid spacing so that the
    translation is exact (a circular index shift); the H^mu norm inside is
    the Fourier one.  Finite for u in H^{mu+beta}; zero exactly for
    constants.
    """
    field = _grid_field(grid, u)
    mu = float(mu)
    beta = float(beta)
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    shifts = [float(h) for h in h_list]
    if not shifts:
        raise ValueError("h_list is empty; the sup over shifts is undefined")

    best = 0.0
    for h in shifts:
        cells = h / grid.spacing
        m = int(round(cells))
        if m == 0 or abs(cells - m) > 1e-9 * max(1.0, abs(cells)):
            raise ValueError(
                f"shift {h} is not a nonzero integer multiple of the grid spacing {grid.spacing}")
        total = 0.0
        for axis in range(grid.dim):
            tau = np.roll(field, -m, axis=axis) - field
            total += _fourier_weighted_norm(grid, tau, mu)
        best = max(best, abs(h) ** (-beta) * total)
    return best


@dataclasses.dataclass(frozen=True)
class RegularityTrend:
    """Sobolev norms of one solution family along a refinement sequence.

    The verdict is BOUNDED when the last/first ratio stays below 2 -- a
    trend check, deliberately loose, because the discrete norms of a fixed
    H^s function wander by quadrature error while those of a function
    missing the regularity grow geometrically with N.
    """

    order: float
    sizes: tuple[int, ...]
    norms: tuple[float, ...]
    verdict: str

    @property
    def growth(self) -> float:
        """Last/first norm ratio (0/0 counts as flat)."""
        if self.norms[0] == 0.0:
            return 1.0 if self.norms[-1] == 0.0 else math.inf
        return self.norms[-1] / self.norms[0]

    def rows(self) -> list[tuple[int, float, float, str]]:
        """(N, s, norm, verdict) rows, one per refinement level."""
        return [(n, self.order, v, self.verdict) for n, v in zip(self.sizes, self.norms)]

    def __str__(self) -> str:
        lines = [f"  N={n:<5d} ||u||_{{H^{self.order:g}}} = {v:.6e}"
                 for n, v in zip(self.sizes, self.norms)]
        lines.append(f"  growth {self.growth:.3f} -> {self.verdict}")
        return "\n".join(lines)


def regularity_probe(solutions: Sequence[tuple[TorusGrid, np.ndarray]],
                     s: float) -> RegularityTrend:
    """Bounded-or-growing verdict for H^s norms along a refinement sequence.

    `solutions` is a sequence of (grid, nodal vector) pairs for the same
    continuum problem solved on successively finer grids of the same torus.
    At least three levels are required; the verdict is BOUNDED when the
    last/first norm ratio is below 2.
    """
    pairs = list(solutions)
    if len(pairs) < 3:
        raise ValueError(f"need at least three refinement levels, got {len(pairs)}")
    dim = pairs[0][0].dim
    side = pairs[0][0].side_length
    sizes: list[int] = []
    norms: list[float] = []
    for grid, u in pairs:
        if grid.dim != dim or grid.side_length != side:
            raise ValueError("refinement levels must share the torus (dim and side length)")
        if sizes and grid.points_per_side <= sizes[-1]:
            raise ValueError("refinement sizes must be strictly increasing")
        sizes.append(grid.points_per_side)
        norms.append(sobolev_norm_fourier(grid, u, s))
    trend = RegularityTrend(order=float(s), sizes=tuple(sizes), norms=tuple(norms),
                            verdict="")
    verdict = "BOUNDED" if trend.growth < 2.0 else "GROWING"
    return dataclasses.replace(trend, verdict=verdict)


@dataclasses.dataclass(frozen=True)
class ConstantReport:
    """Fitted trace and Poincare constants over an omega-supported family.

    Per member v (supported in omega):

      trace ratio     |v|_{H^alpha-dot} / E_ext(v)^{1/2},
      Poincare ratio  ||v||_w / E(v, v)^{1/2},

    where E_ext is the weighted Dirichlet energy of the half-space extension
    of v, recovered from its boundary pairing with the weighted Neumann
    trace, and E is the fractional energy <A^alpha v, v>_w.  The trace fit
    uses the homogeneous |xi|^alpha symbol because both energies annihilate
    constants; the fitted constants are the maxima over the family, hence
    lower bounds for the true discrete best constants.
    """

    alpha: float
    trace_ratios: tuple[float, ...]
    poincare_ratios: tuple[float, ...]

    @property
    def trace_constant(self) -> float:
        return max(self.trace_ratios)

    @property
    def poincare_constant(self) -> float:
        return max(self.poincare_ratios)

    @property
    def family_size(self) -> int:
        return len(self.trace_ratios)

    def __str__(self) -> str:
        return (f"  trace constant    {self.trace_constant:.6e}\n"
                f"  Poincare constant {self.poincare_constant:.6e}\n"
                f"  (alpha={self.alpha:g}, family of {self.family_size})")


def _default_family(dec: SpectralDecomposition, config: ExteriorConfig,
                    count: int = 12) -> list[np.ndarray]:
    """Low eigenvectors cut off to omega: smooth inside, sharp at the rim.

    The first member is the indicator of omega itself (the constant mode cut
    off), the rest sample increasingly oscillatory shapes, which is what a
    best-constant fit wants to see.
    """
    mask = np.zeros(dec.node_count, dtype=bool)
    mask[config.omega_nodes] = True
    family = []
    for k in range(min(count, dec.node_count)):
        v = np.where(mask, dec.basis[:, k], 0.0)
        if np.linalg.norm(v) > 1e-13 * np.linalg.norm(dec.basis[:, k]):
            family.append(v)
    return family


def constant_estimates(dec: SpectralDecomposition, alpha: float, config: ExteriorConfig,
                       test_family: Sequence[np.ndarray] | None = None) -> ConstantReport:
    """Fit trace and Poincare constants over omega-supported test vectors.

    With no explicit family, the lowest eigenvectors restricted to omega are
    used.  Family members must vanish outside omega (support violation is an
    error) and at least one member must be nonzero.
    """
    _check_alpha(alpha, allow_one=False)
    if test_family is None:
        members = _default_family(dec, config)
    else:
        members = [np.asarray(v, dtype=float) for v in test_family]
    if not members:
        raise ValueError("empty test family: nothing to fit constants over")

    outside = np.ones(dec.node_count, dtype=bool)
    outside[config.omega_nodes] = False

    trace_ratios: list[float] = []
    poincare_ratios: list[float] = []
    for i, v in enumerate(members):
        if v.shape != (dec.node_count,):
            raise ValueError(f"family member {i} has shape {v.shape}, "
                             f"expected ({dec.node_count},)")
        if np.any(v[outside] != 0.0):
            raise ValueError(f"family member {i} is not supported in omega")
        if not np.any(v != 0.0):
            raise ValueError(f"family member {i} is identically zero")

        coeffs = dec.project(v)
        energy = float(np.sum(dec.eigenvalues ** alpha * coeffs ** 2))
        # Supported-in-omega and nonzero rules out the constant, so the
        # fractional energy is strictly positive.
        l2_w = math.sqrt(weighted_inner(v, v, dec.measure))
        poincare_ratios.append(l2_w / math.sqrt(energy))

        # Extension Dirichlet energy by parts: E_ext = <-neumann_trace, v>_w.
        trace = neumann_trace(extend_dirichlet(dec, alpha, v))
        ext_energy = weighted_inner(-trace, v, dec.measure)
        seminorm = _fourier_weighted_norm(dec.grid, v.reshape(dec.grid.shape),
                                          alpha, homogeneous=True)
        trace_ratios.append(seminorm / math.sqrt(ext_energy))

    return ConstantReport(alpha=float(alpha), trace_ratios=tuple(trace_ratios),
                          poincare_ratios=tuple(poincare_ratios))
