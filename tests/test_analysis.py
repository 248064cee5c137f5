"""Regularity and fitted constants of the exterior and extension solvers.

The solutions of `solve_exterior_dirichlet` are measured with the flat torus
Fourier norm ||u||_{H^s}^2 = sum_xi (1 + |xi|^2)^s |u^(xi)|^2 along the
refinement N = 16, 32, 64: smooth data give norms that stay bounded, jump
data give norms that grow beyond the regularity window.  Over a family of
omega-supported vectors v (low eigenvectors cut off to omega), the Poincare
ratio ||v||_w / E(v, v)^{1/2} stays below the best constant
1/sqrt(coercivity_constant), and the trace ratio
|v|_{H^alpha-dot} / E_ext(v)^{1/2}, with E_ext recovered by parts from
`neumann_trace(extend_dirichlet(...))`, is stable under refinement.
"""

import math

import numpy as np
import pytest

from fracbeltrami.extension import extend_dirichlet, neumann_trace
from fracbeltrami.exterior import (
    coercivity_constant,
    make_exterior_config,
    nodes_in_ball,
    solve_exterior_dirichlet,
)
from fracbeltrami.geometry import ConformalBump, build_grid, make_metric, weighted_inner
from fracbeltrami.spectral import assemble_laplacian, decompose

SIDE = 4.0
ALPHA = 0.5
BUMP = ConformalBump(dim=1, beta=0.4, sigma=0.3, center=(2.0,), r0=0.45)


@pytest.fixture(scope="module")
def probe_levels():
    """Grid, decomposition, and region at three 1d refinement levels."""
    levels = []
    for n in (16, 32, 64):
        grid = build_grid(1, SIDE, n)
        dec = decompose(assemble_laplacian(make_metric(grid, BUMP)))
        config = make_exterior_config(grid,
                                      nodes_in_ball(grid, (2.0,), 0.55),
                                      nodes_in_ball(grid, (0.5,), 0.3),
                                      nodes_in_ball(grid, (3.4,), 0.3))
        levels.append((grid, dec, config))
    return levels


def _fourier_norm(grid, u, s, homogeneous=False):
    """Flat-symbol H^s norm; `homogeneous` weights by |xi|^{2s} (s > 0) instead.

    Parseval with the h^dim node measure, so s = 0 is the plain L^2 norm.
    """
    power = np.abs(np.fft.fftn(u.reshape(grid.shape))) ** 2
    axes = [2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing) for n in grid.shape]
    xi_sq = sum(f * f for f in np.meshgrid(*axes, indexing="ij"))
    weight = xi_sq ** s if homogeneous else (1.0 + xi_sq) ** s
    scale = grid.side_length ** grid.dim / grid.node_count ** 2
    return math.sqrt(scale * float(np.sum(weight * power)))


# ---------------------------------------------------------------------------
# Regularity along refinement


def _norm_growth(levels, datum, s):
    """Last/first H^s norm of the exterior Dirichlet solutions over the levels."""
    norms = []
    for grid, dec, config in levels:
        f = datum(grid.coordinates()[:, 0])[config.exterior_nodes]
        norms.append(_fourier_norm(grid, solve_exterior_dirichlet(dec, ALPHA, config, f), s))
    return norms[-1] / norms[0]


def test_probe_smooth_data_bounded(probe_levels):
    smooth = lambda x: np.cos(2 * np.pi * x / SIDE) + 0.4 * np.sin(np.pi * x)
    for s in (ALPHA, ALPHA + 0.4):
        assert 1.0 < _norm_growth(probe_levels, smooth, s) < 1.5


def test_probe_jump_data_grows(probe_levels):
    jump = lambda x: np.where(np.abs(x - 0.5) < 0.25, 1.0, 0.0)
    assert _norm_growth(probe_levels, jump, 1.4) > 2.0
    # The same solutions are fine at the energy order.
    assert _norm_growth(probe_levels, jump, ALPHA) < 2.0


# ---------------------------------------------------------------------------
# Fitted constants


def _omega_family(dec, config, count=12):
    """Low eigenvectors cut off to omega: smooth inside, sharp at the rim."""
    mask = np.zeros(dec.node_count, dtype=bool)
    mask[config.omega_nodes] = True
    family, basis = [], dec.rows(np.arange(dec.node_count))
    for k in range(min(count, dec.node_count)):
        v = np.where(mask, basis[:, k], 0.0)
        if np.linalg.norm(v) > 1e-13 * np.linalg.norm(basis[:, k]):
            family.append(v)
    return family


def _poincare_ratios(dec, config):
    """||v||_w / <A^alpha v, v>_w^{1/2} over the omega family."""
    ratios = []
    for v in _omega_family(dec, config):
        energy = float(np.sum(dec.eigenvalues ** ALPHA * dec.project(v) ** 2))
        ratios.append(math.sqrt(weighted_inner(v, v, dec.measure)) / math.sqrt(energy))
    return ratios


def _trace_ratios(dec, config):
    """|v|_{H^alpha-dot} / E_ext(v)^{1/2}, E_ext = <-neumann_trace, v>_w."""
    ratios = []
    for v in _omega_family(dec, config):
        trace = neumann_trace(extend_dirichlet(dec, ALPHA, v))
        ext_energy = weighted_inner(-trace, v, dec.measure)
        seminorm = _fourier_norm(dec.grid, v, ALPHA, homogeneous=True)
        ratios.append(seminorm / math.sqrt(ext_energy))
    return ratios


def test_constants_positive_and_finite(probe_levels):
    _, dec, config = probe_levels[1]
    for ratios in (_poincare_ratios(dec, config), _trace_ratios(dec, config)):
        assert len(ratios) == 12
        assert all(0.0 < r < math.inf for r in ratios)


def test_fitted_poincare_below_true_best(probe_levels):
    # The family max is a lower bound for the true discrete best constant
    # 1/sqrt(min Rayleigh quotient), computed independently by dense eig.
    _, dec, config = probe_levels[1]
    best = 1.0 / math.sqrt(coercivity_constant(dec, ALPHA, config))
    assert max(_poincare_ratios(dec, config)) <= best * (1.0 + 1e-12)


def test_poincare_constant_shrinks_with_omega(probe_levels):
    grid, dec, config = probe_levels[1]
    small = make_exterior_config(grid,
                                 nodes_in_ball(grid, (2.0,), 0.3),
                                 nodes_in_ball(grid, (0.5,), 0.3),
                                 nodes_in_ball(grid, (3.4,), 0.3))
    assert max(_poincare_ratios(dec, small)) <= max(_poincare_ratios(dec, config))


def test_trace_constant_stable_under_refinement(probe_levels):
    values = [max(_trace_ratios(dec, config)) for _, dec, config in probe_levels[1:]]
    assert max(values) / min(values) < 1.2
