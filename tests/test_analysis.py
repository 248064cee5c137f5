"""Sobolev diagnostics: Fourier norms, difference quotients, fitted constants.

Oracles: a constant has norm |c| sqrt(volume) at every order; a single
Fourier mode scales by (1 + |xi0|^2)^{s/2}; the shift symbol obeys
|e^{i xi h} - 1| <= 2^{1-beta} |xi h|^beta, which bounds the
difference-quotient seminorm by the H^{mu+beta} norm; and the certification
direction (seminorm controls the H^{mu+eps} norm for eps < beta) is pinned
against measured ratios in tests/golden/sobolev_charact.json.
"""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbeltrami.analysis import (
    ConstantReport,
    constant_estimates,
    diff_quotient_seminorm,
    regularity_probe,
    sobolev_norm_fourier,
)
from fracbeltrami.exterior import (
    coercivity_constant,
    make_exterior_config,
    nodes_in_ball,
    solve_exterior_dirichlet,
)
from fracbeltrami.geometry import ConformalBump, build_grid, make_metric
from fracbeltrami.spectral import assemble_laplacian, decompose

SIDE = 4.0
ALPHA = 0.5
BUMP = ConformalBump(dim=1, beta=0.4, sigma=0.3, center=(2.0,), r0=0.45)
GOLDEN = pathlib.Path(__file__).parent / "golden" / "sobolev_charact.json"


@pytest.fixture(scope="module")
def grid64():
    return build_grid(1, SIDE, 64)


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


# ---------------------------------------------------------------------------
# Fourier norms


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 12)])
@pytest.mark.parametrize("s", [-1.0, 0.0, 0.7, 2.0])
def test_constant_has_volume_norm_at_every_order(dim, n, s):
    grid = build_grid(dim, SIDE, n)
    est = sobolev_norm_fourier(grid, np.full(grid.node_count, -2.5), s)
    assert type(est) is float
    np.testing.assert_allclose(est, 2.5 * math.sqrt(SIDE ** dim), rtol=1e-13)


def test_order_zero_is_plain_l2(grid64):
    rng = np.random.default_rng(7)
    u = rng.standard_normal(grid64.node_count)
    plain = math.sqrt(grid64.spacing * np.sum(u ** 2))
    np.testing.assert_allclose(sobolev_norm_fourier(grid64, u, 0.0), plain,
                               rtol=1e-12)


def test_single_mode_scales_by_symbol(grid64):
    x = grid64.coordinates()[:, 0]
    xi0 = 2.0 * np.pi * 5 / SIDE
    u = 2.0 * np.sin(xi0 * x)
    l2 = sobolev_norm_fourier(grid64, u, 0.0)
    np.testing.assert_allclose(l2, 2.0 * math.sqrt(SIDE / 2.0), rtol=1e-12)
    for s in (0.8, -0.3, 1.5):
        est = sobolev_norm_fourier(grid64, u, s)
        np.testing.assert_allclose(est, (1.0 + xi0 ** 2) ** (s / 2.0) * l2,
                                   rtol=1e-11)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       s1=st.floats(-2.0, 2.0), s2=st.floats(-2.0, 2.0))
def test_norm_monotone_in_order(seed, s1, s2):
    # (1 + |xi|^2)^s is nondecreasing in s for every mode, so the norm is too.
    grid = build_grid(1, SIDE, 32)
    u = np.random.default_rng(seed).standard_normal(32)
    lo, hi = min(s1, s2), max(s1, s2)
    a = sobolev_norm_fourier(grid, u, lo)
    b = sobolev_norm_fourier(grid, u, hi)
    assert a <= b * (1.0 + 1e-12)


def test_fourier_norm_input_validation(grid64):
    with pytest.raises(ValueError, match="shape"):
        sobolev_norm_fourier(grid64, np.zeros(63), 0.5)
    bad = np.zeros(64)
    bad[3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        sobolev_norm_fourier(grid64, bad, 0.5)


# ---------------------------------------------------------------------------
# Difference quotients


def test_diff_quotient_of_constant_is_zero(grid64):
    h = grid64.spacing
    val = diff_quotient_seminorm(grid64, np.full(64, 2.0), 0.3, 0.5, [h, 2 * h])
    assert val == 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       mu=st.floats(-0.5, 1.0), beta=st.floats(0.1, 1.0))
def test_diff_quotient_bounded_by_higher_norm(seed, mu, beta):
    # Mode by mode |e^{i xi h} - 1| <= 2^{1-beta} |xi h|^beta and
    # |xi|^beta (1+|xi|^2)^{mu/2} <= (1+|xi|^2)^{(mu+beta)/2}.
    grid = build_grid(1, SIDE, 32)
    u = np.random.default_rng(seed).standard_normal(32)
    h = grid.spacing
    dq = diff_quotient_seminorm(grid, u, mu, beta, [h, 2 * h, 4 * h])
    bound = 2.0 ** (1.0 - beta) * sobolev_norm_fourier(grid, u, mu + beta)
    assert dq <= bound * (1.0 + 1e-12)


def test_diff_quotient_symbol_bound_2d():
    grid = build_grid(2, SIDE, 16)
    u = np.random.default_rng(11).standard_normal(grid.node_count)
    h = grid.spacing
    dq = diff_quotient_seminorm(grid, u, 0.25, 0.6, [h, 2 * h])
    bound = 2.0 * 2.0 ** 0.4 * sobolev_norm_fourier(grid, u, 0.85)
    assert dq <= bound * (1.0 + 1e-12)


def test_sawtooth_seminorm_grows_toward_beta_one(grid64):
    # The Nyquist mode u_i = (-1)^i has ||tau u|| = 2||u|| for a one-cell
    # shift, so the seminorm is h^{-beta} * const: increasing in beta for
    # h < 1.  A rough function fails exactly at the high-beta end.
    u = np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
    h = grid64.spacing
    vals = [diff_quotient_seminorm(grid64, u, 0.0, b, [h]) for b in (0.3, 0.6, 0.9)]
    assert vals[0] < vals[1] < vals[2]
    np.testing.assert_allclose(vals[2] / vals[0], h ** (-0.6), rtol=1e-12)


def test_diff_quotient_validation(grid64):
    u = np.zeros(64)
    h = grid64.spacing
    with pytest.raises(ValueError, match="beta"):
        diff_quotient_seminorm(grid64, u, 0.0, 0.0, [h])
    with pytest.raises(ValueError, match="beta"):
        diff_quotient_seminorm(grid64, u, 0.0, 1.5, [h])
    with pytest.raises(ValueError, match="empty"):
        diff_quotient_seminorm(grid64, u, 0.0, 0.5, [])
    with pytest.raises(ValueError, match="multiple"):
        diff_quotient_seminorm(grid64, u, 0.0, 0.5, [1.37 * h])
    with pytest.raises(ValueError, match="multiple"):
        diff_quotient_seminorm(grid64, u, 0.0, 0.5, [0.0])


def test_certification_ratios_match_golden():
    # Power-law Fourier profiles marginally inside H^{mu+beta}: the direct
    # H^{mu+eps} norm for eps < beta stays a bounded multiple of
    # seminorm + H^mu norm, the constant depending only on (beta, eps).
    grid = build_grid(1, SIDE, 256)
    x = grid.coordinates()[:, 0]
    h = grid.spacing
    h_list = [h, 2 * h, 4 * h, 8 * h, 16 * h]
    golden = json.loads(GOLDEN.read_text())
    for key, pinned in golden.items():
        params = dict(part.split("=") for part in key.split(","))
        mu, beta, eps = (float(params[p]) for p in ("mu", "beta", "eps"))
        gamma = mu + beta + 0.75
        u = np.zeros(grid.node_count)
        for k in range(1, 65):
            u += k ** (-gamma) * np.cos(2 * np.pi * k * x / SIDE + 0.7 * k)
        certified = (diff_quotient_seminorm(grid, u, mu, beta, h_list)
                     + sobolev_norm_fourier(grid, u, mu))
        direct = sobolev_norm_fourier(grid, u, mu + eps)
        np.testing.assert_allclose(direct / certified, pinned, rtol=1e-12)
        assert direct <= certified  # the measured constants all sit below 1


# ---------------------------------------------------------------------------
# Regularity probe


def _probe_solutions(levels, datum):
    out = []
    for grid, dec, config in levels:
        f = datum(grid.coordinates()[:, 0])[config.exterior_nodes]
        out.append((grid, solve_exterior_dirichlet(dec, ALPHA, config, f)))
    return out


def test_probe_smooth_data_bounded(probe_levels):
    smooth = lambda x: np.cos(2 * np.pi * x / SIDE) + 0.4 * np.sin(np.pi * x)
    sols = _probe_solutions(probe_levels, smooth)
    for s in (ALPHA, ALPHA + 0.4):
        trend = regularity_probe(sols, s)
        assert trend.verdict == "BOUNDED"
        assert 1.0 < trend.growth < 1.5
        assert trend.sizes == (16, 32, 64)
    # Beyond the regularity window: informational only, no verdict asserted.
    regularity_probe(sols, ALPHA + 0.9)


def test_probe_jump_data_grows(probe_levels):
    jump = lambda x: np.where(np.abs(x - 0.5) < 0.25, 1.0, 0.0)
    sols = _probe_solutions(probe_levels, jump)
    trend = regularity_probe(sols, 1.4)
    assert trend.verdict == "GROWING"
    assert trend.growth > 2.0
    # The same solutions are fine at the energy order.
    assert regularity_probe(sols, ALPHA).verdict == "BOUNDED"


def test_probe_rows_and_str(probe_levels):
    sols = _probe_solutions(probe_levels, lambda x: np.sin(2 * np.pi * x / SIDE))
    trend = regularity_probe(sols, 0.7)
    rows = trend.rows()
    assert [r[0] for r in rows] == [16, 32, 64]
    assert all(r[1] == 0.7 and r[2] > 0 and r[3] == trend.verdict for r in rows)
    assert trend.verdict in str(trend)


def test_probe_validation(probe_levels):
    grid = probe_levels[0][0]
    u = np.zeros(grid.node_count)
    with pytest.raises(ValueError, match="three"):
        regularity_probe([(grid, u), (grid, u)], 0.5)
    with pytest.raises(ValueError, match="increasing"):
        regularity_probe([(grid, u), (grid, u), (grid, u)], 0.5)
    other = build_grid(1, 2 * SIDE, 128)
    with pytest.raises(ValueError, match="share the torus"):
        regularity_probe([(grid, u),
                          (build_grid(1, SIDE, 32), np.zeros(32)),
                          (other, np.zeros(128))], 0.5)


def test_probe_zero_solutions_count_as_bounded(probe_levels):
    sols = [(grid, np.zeros(grid.node_count)) for grid, _, _ in probe_levels]
    trend = regularity_probe(sols, 0.9)
    assert trend.growth == 1.0 and trend.verdict == "BOUNDED"


# ---------------------------------------------------------------------------
# Fitted constants


def test_constants_positive_and_finite(probe_levels):
    _, dec, config = probe_levels[1]
    report = constant_estimates(dec, ALPHA, config)
    assert isinstance(report, ConstantReport)
    assert report.family_size == 12
    assert 0.0 < report.trace_constant < math.inf
    assert 0.0 < report.poincare_constant < math.inf
    assert "Poincare" in str(report)


def test_fitted_poincare_below_true_best(probe_levels):
    # The family max is a lower bound for the true discrete best constant
    # 1/sqrt(min Rayleigh quotient), computed independently by dense eig.
    _, dec, config = probe_levels[1]
    report = constant_estimates(dec, ALPHA, config)
    best = 1.0 / math.sqrt(coercivity_constant(dec, ALPHA, config))
    assert report.poincare_constant <= best * (1.0 + 1e-12)


def test_poincare_constant_shrinks_with_omega(probe_levels):
    grid, dec, config = probe_levels[1]
    small = make_exterior_config(grid,
                                 nodes_in_ball(grid, (2.0,), 0.3),
                                 nodes_in_ball(grid, (0.5,), 0.3),
                                 nodes_in_ball(grid, (3.4,), 0.3))
    wide = constant_estimates(dec, ALPHA, config)
    narrow = constant_estimates(dec, ALPHA, small)
    assert narrow.poincare_constant <= wide.poincare_constant


def test_trace_constant_stable_under_refinement(probe_levels):
    values = []
    for _, dec, config in probe_levels[1:]:
        values.append(constant_estimates(dec, ALPHA, config).trace_constant)
    assert max(values) / min(values) < 1.2


def test_constant_estimates_custom_family(probe_levels):
    grid, dec, config = probe_levels[1]
    member = np.zeros(grid.node_count)
    member[config.omega_nodes] = np.linspace(0.5, 1.5, len(config.omega_nodes))
    report = constant_estimates(dec, ALPHA, config, test_family=[member, 2.0 * member])
    assert report.family_size == 2
    # Both ratios are scale-invariant, so the two members agree exactly.
    np.testing.assert_allclose(report.poincare_ratios[0], report.poincare_ratios[1],
                               rtol=1e-12)
    np.testing.assert_allclose(report.trace_ratios[0], report.trace_ratios[1],
                               rtol=1e-12)


def test_constant_estimates_validation(probe_levels):
    grid, dec, config = probe_levels[1]
    with pytest.raises(ValueError, match="empty test family"):
        constant_estimates(dec, ALPHA, config, test_family=[])
    with pytest.raises(ValueError, match="alpha"):
        constant_estimates(dec, 1.5, config)
    leaky = np.ones(grid.node_count)
    with pytest.raises(ValueError, match="supported in omega"):
        constant_estimates(dec, ALPHA, config, test_family=[leaky])
    with pytest.raises(ValueError, match="identically zero"):
        constant_estimates(dec, ALPHA, config,
                           test_family=[np.zeros(grid.node_count)])
    with pytest.raises(ValueError, match="shape"):
        constant_estimates(dec, ALPHA, config, test_family=[np.zeros(3)])
