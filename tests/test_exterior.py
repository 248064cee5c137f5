"""Exterior Dirichlet solves, DtN records, and the fractional Poisson map:
dense-block oracles, pairing symmetry, nonlocality, and the source pivot,
on a 1-d grid and on 2-d grids with conformal and cross-term metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fracbeltrami.geometry import ConformalBump, build_grid, make_metric
from fracbeltrami.spectral import (
    assemble_laplacian,
    decompose,
    frac_apply_spectral,
    frac_energy_matrix,
)
from fracbeltrami.extension import fd_extension_solve, graded_mesh
from fracbeltrami.exterior import (
    DtNRecord,
    RegionSpec,
    coercivity_constant,
    dtn_full,
    dtn_partial,
    make_exterior_config,
    nodes_in_annulus,
    nodes_in_ball,
    poisson_solve,
    solve_exterior_dirichlet,
    source_to_solution_map,
)
from fracbeltrami.recovery import PullbackProfile, RadialSquash

BUMP_1D = ConformalBump(1, beta=0.6, sigma=0.5, center=(2.0,), r0=1.5)

# 2-d layout on the side-4 torus: at N = 16 (h = 0.25) Omega has 37 nodes
# and each window 5, all more than 2h apart
REGION_2D = RegionSpec(omega_center=(2.0, 2.0), omega_radius=0.8,
                       w1_center=(0.25, 2.0), w1_radius=0.3,
                       w2_center=(2.0, 0.25), w2_radius=0.3)
BUMP_2D = ConformalBump(2, beta=0.5, sigma=0.3, center=(2.0, 2.0), r0=0.9)


def _pullback(base, strength=0.15):
    squash = RadialSquash(dim=2, center=(2.0, 2.0), radius=0.9,
                          strength=strength)
    return PullbackProfile(base=base, squash=squash)


@pytest.fixture(scope="module")
def dec_bump():
    grid = build_grid(1, 4.0, 32)
    return decompose(assemble_laplacian(make_metric(grid, BUMP_1D)))


@pytest.fixture(scope="module", params=["conformal", "pullback"])
def dec_2d(request):
    profile = BUMP_2D if request.param == "conformal" else _pullback(BUMP_2D)
    metric = make_metric(build_grid(2, 4.0, 16), profile)
    if request.param == "pullback":  # the cross terms are live
        assert np.abs(metric.inverse_tensor[:, 0, 1]).max() > 0.1
    return decompose(assemble_laplacian(metric))


@pytest.fixture(scope="module")
def config(dec_bump):
    grid = dec_bump.grid
    return make_exterior_config(grid,
                                nodes_in_ball(grid, (2.0,), 0.5),
                                nodes_in_ball(grid, (0.5,), 0.3),
                                nodes_in_ball(grid, (3.4,), 0.3))


def _swapped(config):
    return make_exterior_config(config.grid, config.omega_nodes,
                                config.w2_nodes, config.w1_nodes)


# ----------------------------------------------------------------------
# region configuration guards


def test_ball_and_annulus_selectors(dec_bump):
    grid = dec_bump.grid
    ball = nodes_in_ball(grid, (2.0,), 0.5)
    x = grid.coordinates()[:, 0]
    assert np.all(np.abs(x[ball] - 2.0) <= 0.5 + 1e-12)
    ann = nodes_in_annulus(grid, (2.0,), 0.25, 0.5)
    assert set(ann) < set(ball)
    assert np.all(np.abs(x[ann] - 2.0) >= 0.25 - 1e-12)
    with pytest.raises(ValueError):
        nodes_in_annulus(grid, (2.0,), 0.5, 0.25)


def test_config_partition(config):
    n = config.grid.node_count
    assert config.interior_count + len(config.exterior_nodes) == n
    assert np.intersect1d(config.omega_nodes, config.exterior_nodes).size == 0
    assert set(config.w1_nodes) <= set(config.exterior_nodes)
    assert set(config.w2_nodes) <= set(config.exterior_nodes)
    ind = config.indicator(config.w1_nodes)
    assert ind.sum() == len(config.w1_nodes)


def test_config_rejects_bad_layouts(dec_bump):
    grid = dec_bump.grid
    omega = nodes_in_ball(grid, (2.0,), 0.5)
    w1 = nodes_in_ball(grid, (0.5,), 0.3)
    w2 = nodes_in_ball(grid, (3.4,), 0.3)
    with pytest.raises(ValueError, match="empty"):
        make_exterior_config(grid, omega, np.array([], int), w2)
    with pytest.raises(ValueError, match="out of range"):
        make_exterior_config(grid, omega, np.array([99]), w2)
    with pytest.raises(ValueError, match="no exterior"):
        make_exterior_config(grid, np.arange(grid.node_count), w1, w2)
    with pytest.raises(ValueError, match="exterior"):
        make_exterior_config(grid, omega, nodes_in_ball(grid, (2.0,), 0.2), w2)
    # 2h buffer: windows one cell away from omega are configuration bugs
    with pytest.raises(ValueError, match="2h"):
        make_exterior_config(grid, omega, nodes_in_ball(grid, (1.25,), 0.1), w2)
    with pytest.raises(ValueError, match="2h"):
        make_exterior_config(grid, omega, w1, nodes_in_ball(grid, (0.9,), 0.1))
    cfg = make_exterior_config(grid, omega, w1,
                               nodes_in_ball(grid, (0.9,), 0.1),
                               allow_overlap=True)
    assert len(cfg.w2_nodes) > 0


def test_config_rejects_disconnected_exterior():
    grid = build_grid(2, 4.0, 16)
    ix = np.arange(grid.node_count) // 16   # first-axis index
    omega = np.flatnonzero((ix <= 1) | ((ix >= 8) & (ix <= 9)))
    w1 = np.flatnonzero(ix == 4)
    w2 = np.flatnonzero(ix == 13)
    with pytest.raises(ValueError, match="not connected"):
        make_exterior_config(grid, omega, w1, w2)
    # removing one band leaves the torus exterior in one piece
    omega_single = np.flatnonzero(ix <= 1)
    cfg = make_exterior_config(grid, omega_single, w1,
                               np.flatnonzero(ix == 12))
    assert len(cfg.exterior_nodes) == grid.node_count - len(omega_single)


# ----------------------------------------------------------------------
# the exterior Dirichlet solve


def test_solve_matches_dense_direct(dec_bump, config):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(len(config.exterior_nodes))
    u = solve_exterior_dirichlet(dec_bump, 0.6, config, f)
    energy = frac_energy_matrix(dec_bump, 0.6)
    om, ex = config.omega_nodes, config.exterior_nodes
    direct = np.linalg.solve(energy[np.ix_(om, om)],
                             -energy[np.ix_(om, ex)] @ f)
    assert_allclose(u[ex], f, rtol=0, atol=0)     # datum kept verbatim
    assert_allclose(u[om], direct, rtol=1e-10, atol=1e-13)
    # interior equation: the fractional operator vanishes on omega
    flux = frac_apply_spectral(dec_bump, 0.6, u)
    assert np.max(np.abs(flux[om])) < 1e-9 * np.max(np.abs(flux))


def test_solve_constant_datum_extends_constant(dec_bump, config):
    f = np.full(len(config.exterior_nodes), 2.3)
    u = solve_exterior_dirichlet(dec_bump, 0.4, config, f)
    assert_allclose(u, 2.3, rtol=1e-11)


def test_solve_zero_datum(dec_bump, config):
    u = solve_exterior_dirichlet(dec_bump, 0.5, config,
                                 np.zeros(len(config.exterior_nodes)))
    assert np.all(u == 0.0)


def test_solve_rejects_misaligned_datum(dec_bump, config):
    with pytest.raises(ValueError, match="align"):
        solve_exterior_dirichlet(dec_bump, 0.5, config, np.ones(3))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_solve_is_energy_minimizer(dec_bump, config, seed):
    # among fields with the same exterior values, the solve minimizes the
    # quadratic energy u.E.u -- perturbing inside omega can only increase it
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(len(config.exterior_nodes))
    u = solve_exterior_dirichlet(dec_bump, 0.5, config, f)
    energy = frac_energy_matrix(dec_bump, 0.5)
    v = u.copy()
    v[config.omega_nodes] += rng.standard_normal(config.interior_count)
    assert u @ energy @ u <= v @ energy @ v + 1e-12 * abs(v @ energy @ v)


def test_coercivity_positive_and_domain_monotone(dec_bump, config):
    grid = dec_bump.grid
    c_small = coercivity_constant(dec_bump, 0.5, config)
    assert c_small > 0.0
    bigger = make_exterior_config(grid, nodes_in_ball(grid, (2.0,), 1.0),
                                  nodes_in_ball(grid, (0.4,), 0.1),
                                  nodes_in_ball(grid, (3.6,), 0.1))
    # enlarging omega relaxes the support constraint: the constant drops
    assert coercivity_constant(dec_bump, 0.5, bigger) < c_small


# ----------------------------------------------------------------------
# DtN records


def test_dtn_weighted_pairing_symmetric(dec_bump, config):
    # <Lambda f, g>_w over W2 equals <Lambda g, f>_w over W1: the energy
    # form is symmetric, so the off-diagonal DtN blocks are adjoint
    swapped = _swapped(config)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        f = rng.standard_normal(len(config.w1_nodes))
        g = rng.standard_normal(len(config.w2_nodes))
        fg = dtn_partial(dec_bump, 0.5, config, f)
        gf = dtn_partial(dec_bump, 0.5, swapped, g)
        a, b = fg.weighted_pairing(g), gf.weighted_pairing(f)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    assert worst < 1e-10


def test_dtn_full_pairing_symmetric(dec_bump, config):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(len(config.exterior_nodes))
    g = rng.standard_normal(len(config.exterior_nodes))
    rf = dtn_full(dec_bump, 0.35, config, f)
    rg = dtn_full(dec_bump, 0.35, config, g)
    assert abs(rf.weighted_pairing(g) - rg.weighted_pairing(f)) \
        < 1e-10 * abs(rf.weighted_pairing(g))


def test_dtn_record_fields_and_pairings(dec_bump, config):
    f = np.sin(np.arange(len(config.w1_nodes)))
    rec = dtn_partial(dec_bump, 0.5, config, f)
    assert np.array_equal(rec.input_nodes, config.w1_nodes)
    assert np.array_equal(rec.output_nodes, config.w2_nodes)
    assert_allclose(rec.input_values, f)
    assert np.all(rec.output_weights > 0)
    h = np.cos(np.arange(len(config.w2_nodes)))
    assert rec.pairing(h) == pytest.approx(float(rec.output_values @ h))
    assert rec.weighted_pairing(h) == pytest.approx(
        float((rec.output_values * rec.output_weights) @ h))


def test_dtn_is_nonlocal(dec_bump, config):
    # a single-node source on W1 is felt at every node of W2
    e = np.zeros(len(config.w1_nodes))
    e[0] = 1.0
    rec = dtn_partial(dec_bump, 0.5, config, e)
    assert np.min(np.abs(rec.output_values)) > 1e-3


def test_dtn_accepts_full_vector_with_support_check(dec_bump, config):
    full = np.zeros(dec_bump.node_count)
    full[config.w1_nodes] = 1.0
    rec = dtn_partial(dec_bump, 0.5, config, full)
    aligned = dtn_partial(dec_bump, 0.5, config,
                          np.ones(len(config.w1_nodes)))
    assert_allclose(rec.output_values, aligned.output_values)
    bad = full.copy()
    bad[config.omega_nodes[0]] = 0.5
    with pytest.raises(ValueError, match="supported in"):
        dtn_partial(dec_bump, 0.5, config, bad)
    with pytest.raises(ValueError, match="neither"):
        dtn_partial(dec_bump, 0.5, config, np.ones(2))


def test_dtn_residual_guard():
    with pytest.raises(ArithmeticError, match="residual"):
        DtNRecord(alpha=0.5, input_nodes=np.array([0]),
                  input_values=np.array([1.0]), output_nodes=np.array([1]),
                  output_values=np.array([0.0]),
                  output_weights=np.array([1.0]), residual=1e-8)


# ----------------------------------------------------------------------
# 2-d layouts against the dense energy matrix


def _dtn_matrix(dec, alpha, config):
    """|W2| x |W1| partial DtN matrix, one unit datum per column."""
    eye = np.eye(len(config.w1_nodes))
    return np.stack([dtn_partial(dec, alpha, config, e).output_values
                     for e in eye], axis=1)


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_solve_2d_matches_dense_direct(dec_2d, alpha):
    config = REGION_2D.build(dec_2d.grid)
    om, ex = config.omega_nodes, config.exterior_nodes
    x = dec_2d.grid.coordinates()[ex]
    f = np.cos(np.pi * x[:, 0] / 2.0) + 0.3 * x[:, 1]
    u = solve_exterior_dirichlet(dec_2d, alpha, config, f)
    energy = frac_energy_matrix(dec_2d, alpha)
    direct = np.linalg.solve(energy[np.ix_(om, om)],
                             -energy[np.ix_(om, ex)] @ f)
    assert np.array_equal(u[ex], f)    # datum kept verbatim
    assert np.max(np.abs(u[om] - direct)) < 1e-10 * np.max(np.abs(direct))


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_coercivity_2d_matches_dense_block(dec_2d, alpha):
    config = REGION_2D.build(dec_2d.grid)
    om = config.omega_nodes
    energy = frac_energy_matrix(dec_2d, alpha)
    rw = np.sqrt(dec_2d.measure.node_weights[om])
    dense = np.linalg.eigvalsh(energy[np.ix_(om, om)] / np.outer(rw, rw))[0]
    assert coercivity_constant(dec_2d, alpha, config) == pytest.approx(
        dense, rel=1e-12)


@settings(max_examples=6, deadline=None)
@given(beta=st.floats(0.2, 0.8), sigma=st.floats(0.2, 0.4),
       strength=st.floats(0.05, 0.2), alpha=st.floats(0.2, 0.8))
def test_dtn_2d_weighted_symmetry(beta, sigma, strength, alpha):
    # the energy form is symmetric, so w_W2 Lambda^{W1,W2} is the transpose
    # of w_W1 Lambda^{W2,W1}, with or without cross terms in the metric
    base = ConformalBump(2, beta=beta, sigma=sigma, center=(2.0, 2.0), r0=0.9)
    grid = build_grid(2, 4.0, 16)
    config = REGION_2D.build(grid)
    for profile in (base, _pullback(base, strength)):
        dec = decompose(assemble_laplacian(make_metric(grid, profile)))
        w = dec.measure.node_weights
        forward = w[config.w2_nodes, None] * _dtn_matrix(dec, alpha, config)
        backward = w[config.w1_nodes, None] * _dtn_matrix(dec, alpha,
                                                          _swapped(config))
        assert np.max(np.abs(forward - backward.T)) \
            < 1e-9 * np.max(np.abs(forward))


# ----------------------------------------------------------------------
# fractional Poisson and source-to-solution


def _buffered_source(dec, config):
    # smooth bump at 0.5, support [0.15, 0.85]: 0.65 > 2h from omega
    x = dec.grid.coordinates()[:, 0]
    F = np.where(np.abs(x - 0.5) < 0.35,
                 np.cos(np.pi * (x - 0.5) / 0.7) ** 2, 0.0)
    assert np.all(F[config.omega_nodes] == 0.0)
    return F


def test_poisson_record_and_guards(dec_bump, config):
    F = _buffered_source(dec_bump, config)
    rec = poisson_solve(dec_bump, 0.3, config, F)
    ex = config.exterior_nodes
    assert_allclose(rec.source_values, F[ex])
    assert_allclose(rec.solution_values,
                    frac_apply_spectral(dec_bump, 0.7, F)[ex])
    bad = F.copy()
    bad[config.omega_nodes[2]] = 1e-14   # even tiny interior mass is a bug
    with pytest.raises(ValueError, match="vanish"):
        poisson_solve(dec_bump, 0.3, config, bad)
    with pytest.raises(ValueError, match="full node vector"):
        poisson_solve(dec_bump, 0.3, config, F[ex])


def test_poisson_pivot_identity(dec_bump, config):
    # w^F solves its own exterior problem (A^a w = A F vanishes on omega
    # because F is buffered), so the full DtN of w|_ext returns (A F)|_ext:
    # the computational pivot between source data and exterior DtN data
    F = _buffered_source(dec_bump, config)
    for alpha in (0.25, 0.5, 0.75):
        rec = poisson_solve(dec_bump, alpha, config, F)
        dtn = dtn_full(dec_bump, alpha, config, rec.solution_values)
        target = dec_bump.operator.apply(F)[config.exterior_nodes]
        scale = np.max(np.abs(target))
        assert np.max(np.abs(dtn.output_values - target)) < 1e-9 * scale


def test_poisson_alpha_near_one_returns_source(dec_bump, config):
    # as a -> 1 the solve degenerates to w = F less its weighted mean (the
    # zero mode never carries through the calculus); lam^{1-a} = 1 +
    # (1-a) log lam + ... makes the approach linear in 1 - a
    F = _buffered_source(dec_bump, config)
    w = dec_bump.measure.node_weights
    target = (F - (w @ F) / w.sum())[config.exterior_nodes]
    errs = []
    for alpha in (0.98, 0.99, 0.995):
        rec = poisson_solve(dec_bump, alpha, config, F)
        errs.append(np.linalg.norm(rec.solution_values - target)
                    / np.linalg.norm(target))
    assert errs[-1] < 2e-2
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)


def test_source_to_solution_batch_linear(dec_bump, config):
    F1 = _buffered_source(dec_bump, config)
    x = dec_bump.grid.coordinates()[:, 0]
    F2 = np.where(np.abs(x - 3.4) < 0.25,
                  np.cos(np.pi * (x - 3.4) / 0.5) ** 2, 0.0)
    recs = source_to_solution_map(dec_bump, 0.5, config,
                                  [F1, F2, F1 + 2.0 * F2])
    assert len(recs) == 3
    assert_allclose(recs[2].solution_values,
                    recs[0].solution_values + 2.0 * recs[1].solution_values,
                    rtol=1e-12, atol=1e-14)


# ----------------------------------------------------------------------
# cross-module equivalence with the direct degenerate solve


def test_mixed_fd_solve_restricts_to_exterior_solve(dec_bump, config):
    # Dirichlet on the exterior trace, zero weighted flux over omega: the
    # z = 0 restriction of the cylinder solve is the nonlocal solution
    x = dec_bump.grid.coordinates()[:, 0]
    f = (np.cos(2 * np.pi * x / 4.0)
         + 0.4 * np.sin(np.pi * x))[config.exterior_nodes]
    u_nl = solve_exterior_dirichlet(dec_bump, 0.5, config, f)
    om = config.omega_nodes
    w = dec_bump.measure.node_weights
    errs = []
    for count in (96, 192):
        mesh = graded_mesh(dec_bump, 0.5, count=count)
        fld = fd_extension_solve(dec_bump, 0.5, mesh, config.exterior_nodes,
                                 om, f, np.zeros(len(om)))
        tr = fld.boundary_values()
        errs.append(np.sqrt(w[om] @ (tr[om] - u_nl[om]) ** 2
                            / (w[om] @ u_nl[om] ** 2)))
    assert errs[0] < 5e-4
    assert errs[0] / errs[1] > 2.0
