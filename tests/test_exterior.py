"""Exterior Dirichlet solves, DtN maps, and the fractional Poisson map:
dense-block oracles, pairing symmetry, nonlocality, and the source pivot,
on a 1-d grid and on 2-d grids with conformal and cross-term metrics."""

import dataclasses
import fractions
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fracbeltrami.geometry import (
    AnisotropicBump,
    ConformalBump,
    IdentityMetric,
    build_grid,
    make_metric,
)
from fracbeltrami import exterior, spectral
from fracbeltrami.spectral import (
    assemble_laplacian,
    decompose,
    frac_apply_spectral,
    frac_energy_matrix,
)
from fracbeltrami.extension import fd_extension_solve, graded_mesh
from fracbeltrami.exterior import (
    RegionSpec,
    coercivity_constant,
    dtn_matrix,
    dtn_partial,
    make_exterior_config,
    nodes_in_ball,
    poisson_solve,
    solve_exterior_dirichlet,
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


def test_ball_selector(dec_bump):
    grid = dec_bump.grid
    ball = nodes_in_ball(grid, (2.0,), 0.5)
    x = grid.coordinates()[:, 0]
    assert np.all(np.abs(x[ball] - 2.0) <= 0.5 + 1e-12)


@pytest.mark.parametrize("n", [16, 20, 24, 40, 48, 80])
def test_ball_about_the_centre_holds_the_grid_symmetries(n):
    # the gauge layout's Omega (centre (2, 2), r 1.0): read from node-unit
    # displacements, a ball about a grid centre maps onto itself under
    # sigma0, sigma1 and tau at every N, so the Omega solve keeps the
    # operator's dihedral blocks
    grid = build_grid(2, 4.0, n)
    omega = nodes_in_ball(grid, (2.0, 2.0), 1.0)
    assert omega.size % 4 == 1  # the centre node and whole orbits of 4 or 8
    for p in spectral._grid_symmetries(n):
        assert np.array_equal(np.sort(p[omega]), omega)


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
    with pytest.raises(ValueError, match=r"w1 must lie in \[0, 32\); \[99\] "
                                         "are out of range"):
        make_exterior_config(grid, omega, np.array([99]), w2)
    # numpy would truncate the floats (W1 = [0, 1]) and read the Omega mask
    # as the nodes 0 and 1; the shared node check refuses both
    mask = np.isin(np.arange(grid.node_count), omega)
    for layout, name in (((omega + 0.7, w1, w2), "omega"),
                         ((omega, [0.2, 1.9], w2), "w1"),
                         ((omega, w1, [8.5]), "w2"),
                         ((mask, w1, w2), "omega")):
        with pytest.raises(ValueError, match=f"{name} must be integer node "
                                             "indices.*flatnonzero"):
            make_exterior_config(grid, *layout)
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


@pytest.mark.parametrize("field", ["omega_radius", "w1_radius", "w2_radius"])
def test_region_refuses_a_nan_radius(field):
    # min() of the three radii dropped a NaN after the first, and a NaN
    # compared false against zero; each radius is now checked on its own
    with pytest.raises(ValueError, match="region radii must be positive"):
        dataclasses.replace(REGION_2D, **{field: math.nan})


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
# the DtN maps


def _full_map(dec, alpha, config, f):
    """The full map on the exterior: A^a of the exterior Dirichlet solve."""
    u = solve_exterior_dirichlet(dec, alpha, config, f)
    return frac_apply_spectral(dec, alpha, u)[config.exterior_nodes]


def test_dtn_weighted_pairing_symmetric(dec_bump, config):
    # <Lambda f, g>_w over W2 equals <Lambda g, f>_w over W1: the energy
    # form is symmetric, so w_W2 Lambda^{W1,W2} is the transpose of
    # w_W1 Lambda^{W2,W1}
    w = dec_bump.measure.node_weights
    forward = w[config.w2_nodes, None] * dtn_matrix(dec_bump, 0.5, config)
    backward = w[config.w1_nodes, None] * dtn_matrix(dec_bump, 0.5,
                                                     _swapped(config))
    assert np.max(np.abs(forward - backward.T)) \
        < 1e-10 * np.max(np.abs(forward))


def test_dtn_full_pairing_symmetric(dec_bump, config):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(len(config.exterior_nodes))
    g = rng.standard_normal(len(config.exterior_nodes))
    w = dec_bump.measure.node_weights[config.exterior_nodes]
    fg = (w * _full_map(dec_bump, 0.35, config, f)) @ g
    gf = (w * _full_map(dec_bump, 0.35, config, g)) @ f
    assert abs(fg - gf) < 1e-10 * abs(fg)


def test_dtn_record_fields_and_pairings(dec_bump, config):
    # a record holds its datum and layout; its output pairs with a datum
    # on W2 as the swapped record's output pairs with f on W1
    f = np.sin(np.arange(len(config.w1_nodes)))
    rec = dtn_partial(dec_bump, 0.5, config, f)
    assert rec.alpha == 0.5
    assert np.array_equal(rec.input_nodes, config.w1_nodes)
    assert np.array_equal(rec.output_nodes, config.w2_nodes)
    assert_allclose(rec.input_values, f)
    h = np.cos(np.arange(len(config.w2_nodes)))
    back = dtn_partial(dec_bump, 0.5, _swapped(config), h)
    w = dec_bump.measure.node_weights
    fh = (w[config.w2_nodes] * rec.output_values) @ h
    hf = (w[config.w1_nodes] * back.output_values) @ f
    assert abs(fh - hf) < 1e-10 * abs(fh)


def test_dtn_is_nonlocal(dec_bump, config):
    # a single-node source on W1 is felt at every node of W2
    e = np.zeros(len(config.w1_nodes))
    e[0] = 1.0
    rec = dtn_partial(dec_bump, 0.5, config, e)
    assert np.min(np.abs(rec.output_values)) > 1e-3


def test_dtn_rejects_unaligned_datum(dec_bump, config):
    # a datum holds one value per W1 node; anything else is refused with
    # the node set and both shapes named
    m, n1 = dec_bump.node_count, len(config.w1_nodes)
    for bad in (np.zeros(m), np.ones(2)):
        msg = rf"\({bad.size},\).*config\.w1_nodes.*\({n1},\)"
        with pytest.raises(ValueError, match=msg):
            dtn_partial(dec_bump, 0.5, config, bad)


def _assert_columns_are_records(dec, alpha, config):
    # column j of Lambda is the record of the unit datum at W1 node j, and
    # Lambda f the record of any datum f
    lam = dtn_matrix(dec, alpha, config)
    n1 = len(config.w1_nodes)
    assert lam.shape == (len(config.w2_nodes), n1)
    records = np.stack([dtn_partial(dec, alpha, config, e).output_values
                        for e in np.eye(n1)], axis=1)
    assert np.max(np.abs(lam - records)) <= 1e-12 * np.max(np.abs(records))
    f = np.random.default_rng(5).standard_normal(n1)
    out = dtn_partial(dec, alpha, config, f).output_values
    assert np.max(np.abs(lam @ f - out)) <= 1e-12 * np.max(np.abs(out))
    # any datum: an output entry sums terms of Lambda's scale times f, so
    # the roundoff of either side is bounded on the scale max|Lambda| ||f||_1
    # (the bound above, on max|record|, is below it for some data)
    scale = np.max(np.abs(lam))
    for f in np.random.default_rng(6).standard_normal((20, n1)):
        out = dtn_partial(dec, alpha, config, f).output_values
        assert (np.max(np.abs(lam @ f - out))
                <= 1e-12 * scale * np.abs(f).sum())


def test_dtn_matrix_columns_are_records(dec_bump, config):
    _assert_columns_are_records(dec_bump, 0.5, config)


def _last_column_off(monkeypatch):
    """Make np.linalg.solve return its last column 1e-6 (relative) off."""
    solve = np.linalg.solve

    def last_column_off(a, b):
        x = solve(a, b)
        x[:, -1] *= 1.0 + 1e-6
        return x

    monkeypatch.setattr(np.linalg, "solve", last_column_off)


def test_dtn_matrix_residual_guard_takes_the_worst_column(dec_bump, config,
                                                          monkeypatch):
    # one column solved 1e-6 off: its residual alone trips the guard
    _last_column_off(monkeypatch)
    with pytest.raises(ArithmeticError, match="residual"):
        dtn_matrix(dec_bump, 0.5, config)


def test_exterior_dirichlet_solve_is_residual_guarded(dec_bump, config,
                                                      monkeypatch):
    # the one-column exterior solve is guarded like the DtN maps
    _last_column_off(monkeypatch)
    f = np.ones(len(config.exterior_nodes))
    with pytest.raises(ArithmeticError, match="residual"):
        solve_exterior_dirichlet(dec_bump, 0.5, config, f)


def test_dtn_residual_guard(dec_bump, config, monkeypatch):
    # one datum is one column, the last one, and its solve is guarded
    _last_column_off(monkeypatch)
    with pytest.raises(ArithmeticError, match="residual"):
        dtn_partial(dec_bump, 0.5, config, np.ones(len(config.w1_nodes)))


# ----------------------------------------------------------------------
# 2-d layouts against the dense energy matrix


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
def test_dtn_matrix_2d_columns_are_records(dec_2d, alpha):
    _assert_columns_are_records(dec_2d, alpha, REGION_2D.build(dec_2d.grid))


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
        forward = w[config.w2_nodes, None] * dtn_matrix(dec, alpha, config)
        backward = w[config.w1_nodes, None] * dtn_matrix(dec, alpha,
                                                         _swapped(config))
        assert np.max(np.abs(forward - backward.T)) \
            < 1e-9 * np.max(np.abs(forward))


# ----------------------------------------------------------------------
# the Omega problem in symmetry coordinates, against node-space oracles

# operators of each symmetry group decompose records at N = 16 (side 4):
# profile, number of generators, number of records (one per set of modes)
GROUP_CASES = {
    "dihedral-bump": (BUMP_2D, 3, 6),
    "dihedral-pullback": (_pullback(BUMP_2D), 3, 6),
    "mirrors": (AnisotropicBump(2, beta=0.5, sigma=0.5, center=(2.0, 2.0),
                                r0=1.5), 2, 4),
    "transposition": (PullbackProfile(
        base=dataclasses.replace(BUMP_2D, center=(1.75, 1.75)),
        squash=RadialSquash(dim=2, center=(1.75, 1.75), radius=0.9,
                            strength=0.15)), 1, 2),
    "one-mirror": (dataclasses.replace(BUMP_2D, center=(2.0, 1.5)), 1, 2),
    "trivial": (AnisotropicBump(2, beta=0.5, sigma=0.5, center=(1.7, 2.3),
                                r0=1.5), 0, 1),
    "closed-form": (IdentityMetric(2), 2, 4),
}
# Omega centred on the grid's symmetry centre, mapped onto itself by every
# generator, and Omega moved off it, mapped onto itself by none
REGIONS = {
    "invariant": REGION_2D,
    "off-centre": dataclasses.replace(REGION_2D, omega_center=(2.25, 2.5),
                                      omega_radius=0.7),
}


@pytest.fixture(scope="module", params=list(GROUP_CASES))
def dec_group(request):
    profile, generators, blocks = GROUP_CASES[request.param]
    dec = decompose(assemble_laplacian(make_metric(build_grid(2, 4.0, 16),
                                                   profile)))
    assert len(dec.generators) == generators
    assert len(dec.blocks) == blocks
    return dec


def _dense_solution(dec, alpha, config, in_nodes, data):
    """Node-space oracle: U_O = -E_OO^{-1} E_O,in F from the dense energy
    matrix, and A^a U = W^{-1} E U at every node."""
    energy = frac_energy_matrix(dec, alpha)
    om = config.omega_nodes
    u = np.zeros((dec.node_count, data.shape[1]))
    u[in_nodes] = data
    u[om] = np.linalg.solve(energy[np.ix_(om, om)],
                            -energy[np.ix_(om, in_nodes)] @ data)
    return u, (energy @ u) / dec.measure.node_weights[:, None]


def _assert_matches(got, want, rel=1e-11):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(got))


@pytest.mark.parametrize("region", list(REGIONS))
@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_block_solves_match_the_node_space_oracle(dec_group, region, alpha):
    config = REGIONS[region].build(dec_group.grid)
    om, ex = config.omega_nodes, config.exterior_nodes
    # a datum without symmetry has a part in every block and copy
    f = np.random.default_rng(2).standard_normal(len(ex))
    u, _ = _dense_solution(dec_group, alpha, config, ex, f[:, None])
    _assert_matches(solve_exterior_dirichlet(dec_group, alpha, config, f)[om],
                    u[om, 0])
    n1 = len(config.w1_nodes)
    _, flux = _dense_solution(dec_group, alpha, config, config.w1_nodes,
                              np.eye(n1))
    want = flux[config.w2_nodes]
    _assert_matches(dtn_matrix(dec_group, alpha, config), want)
    rows_only = decompose(dec_group.operator, nodes=config.partial_map_nodes)
    _assert_matches(dtn_matrix(rows_only, alpha, config), want)
    # the smallest eigenvalue over the blocks is that of the whole
    # W^{-1/2} E_OO W^{-1/2}
    energy = frac_energy_matrix(dec_group, alpha)
    rw = np.sqrt(dec_group.measure.node_weights[om])
    dense = np.linalg.eigvalsh(energy[np.ix_(om, om)] / np.outer(rw, rw))[0]
    assert coercivity_constant(dec_group, alpha, config) == pytest.approx(
        dense, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_coercivity_of_one_node_on_the_flat_torus(alpha):
    # Omega = {n}: the constant is sum_k lam_k^a x_k(n)^2 for the orthonormal
    # eigenvectors x of the circulant, the mean of lam^a over the
    # frequencies, lam = (4/h^2)(sin^2(pi c0/N) + sin^2(pi c1/N))
    n, h = 16, 0.25
    grid = build_grid(2, 4.0, n)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(2))))
    config = dataclasses.replace(REGION_2D, omega_radius=0.1).build(grid)
    assert config.interior_count == 1
    s = np.sin(np.pi * np.arange(n) / n) ** 2
    lam = (4.0 / h ** 2) * (s[:, None] + s[None, :])
    assert coercivity_constant(dec, alpha, config) == pytest.approx(
        np.mean(lam ** alpha), rel=1e-13)


# the benchmark's layout (side 4, centre (2, 2)), restated here
BENCH_REGION = RegionSpec(omega_center=(2.0, 2.0), omega_radius=1.0,
                          w1_center=(0.2, 2.0), w1_radius=0.2,
                          w2_center=(2.0, 0.2), w2_radius=0.2)
BENCH_BUMP = ConformalBump(2, beta=0.5, sigma=0.3, center=(2.0, 2.0), r0=0.9)


def _spy_on_solve(monkeypatch):
    """Record the size of every system np.linalg.solve is handed."""
    sizes, solve = [], np.linalg.solve

    def spy(a, b):
        sizes.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return sizes


def test_omega_is_solved_one_orbit_block_at_a_time(monkeypatch):
    grid = build_grid(2, 4.0, 24)
    config = BENCH_REGION.build(grid)
    om = config.omega_nodes
    dec = decompose(assemble_laplacian(make_metric(grid, BENCH_BUMP)),
                    nodes=config.partial_map_nodes)
    live = []  # per record: its orbits inside Omega
    for block in dec.blocks:
        inside = block.coef[om] != 0.0
        live.append(np.unique(block.index[om][inside]).size)
    # the orbit vectors of Omega, over every record, are a basis of it
    assert sum(live) == om.size
    sizes = _spy_on_solve(monkeypatch)
    dtn_matrix(dec, 0.5, config)
    # one solve per eigensolve: D4's 2-d block is two records over one
    # set of vectors, whose data are solved side by side
    assert len(dec.blocks) == 6
    assert len(sizes) == len({id(block.vectors) for block in dec.blocks}) == 5
    spectra, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: spectra.append(a.shape[0]) or eigvalsh(a))
    coercivity_constant(dec, 0.5, config)
    assert sorted(spectra) == sorted(sizes)
    assert max(sizes) <= max(live) < om.size // 3
    # an Omega off the symmetry centre is one system of |Omega|
    moved = dataclasses.replace(BENCH_REGION, omega_center=(2.25, 2.0)).build(grid)
    sizes.clear()
    dtn_matrix(decompose(dec.operator, nodes=moved.partial_map_nodes), 0.5,
               moved)
    assert sizes == [moved.interior_count]


def test_omega_blocks_check_that_omega_is_held():
    # the Omega blocks read the held eigenvectors at Omega's orbits, so a
    # decomposition holding W1 and W2 alone is refused by the one held-node
    # check, on the symmetric and the moved Omega alike
    grid = build_grid(2, 4.0, 24)
    op = assemble_laplacian(make_metric(grid, BENCH_BUMP))
    for spec in (BENCH_REGION,
                 dataclasses.replace(BENCH_REGION, omega_center=(2.25, 2.0))):
        config = spec.build(grid)
        dec = decompose(op, nodes=np.union1d(config.w1_nodes, config.w2_nodes))
        for reader in (dtn_matrix, coercivity_constant):
            with pytest.raises(ValueError, match="not among"):
                reader(dec, 0.5, config)


def test_residual_guard_sums_over_the_blocks(dec_2d, monkeypatch):
    # the dihedral records each solve the last column 1e-6 off; the
    # residual of that column, summed over the records, trips the guard
    assert len(dec_2d.blocks) == 6
    config = REGION_2D.build(dec_2d.grid)
    _last_column_off(monkeypatch)
    with pytest.raises(ArithmeticError, match="residual"):
        dtn_matrix(dec_2d, 0.5, config)
    with pytest.raises(ArithmeticError, match="residual"):
        solve_exterior_dirichlet(dec_2d, 0.5, config,
                                 np.ones(len(config.exterior_nodes)))


def _exact_dot(a, b):
    """sum_k a_k b_k of two float64 vectors, exactly, as a Fraction: each
    float is an integer times a power of two, so the products are summed
    as integers scaled to the smallest exponent."""
    terms = []
    for x, y in zip(a.tolist(), b.tolist()):
        (mx, ex), (my, ey) = math.frexp(x), math.frexp(y)
        terms.append((int(mx * 2 ** 53) * int(my * 2 ** 53), ex + ey - 106))
    low = min(e for _, e in terms)
    return (fractions.Fraction(sum(m << (e - low) for m, e in terms))
            * fractions.Fraction(2) ** low)


def test_measured_product_against_exact_sums():
    # the last product of the partial map, Phi_W2 Lambda^{a/2} times the
    # modes of the |W1| unit data, cancels about 1.7e4-fold; on the
    # benchmark layout at N = 48 the split BLAS products round 60 sampled
    # entries at least as often to the nearest float64 of the exact sum,
    # and miss it by no more, than a long-double product of the same inputs
    grid = build_grid(2, 4.0, 48)
    config = BENCH_REGION.build(grid)
    dec = decompose(assemble_laplacian(make_metric(grid, BENCH_BUMP)),
                    nodes=config.partial_map_nodes)
    _, modes = exterior._solve_blocks(dec, 0.5, config, config.w1_nodes,
                                      np.eye(config.w1_nodes.size))
    rows = dec.rows(config.w2_nodes) * spectral._spectral_power(
        dec.eigenvalues, 0.25)
    got = exterior._accurate_product(rows, modes)
    wide = (rows.astype(np.longdouble)
            @ modes.astype(np.longdouble)).astype(float)
    picks = np.random.default_rng(7).choice(got.size, 60, replace=False)
    exact = {(i, j): _exact_dot(rows[i], modes[:, j])
             for i, j in zip(*np.unravel_index(picks, got.shape))}
    scale = np.abs(got).max()

    def misses(product):
        errors = [abs(fractions.Fraction(product[i, j]) - e)
                  for (i, j), e in exact.items()]
        rounded = sum(product[i, j] == float(e) for (i, j), e in exact.items())
        return float(max(errors)) / scale, rounded

    error, rounded = misses(got)
    wide_error, wide_rounded = misses(wide)
    assert error <= wide_error
    assert rounded >= wide_rounded


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
        dtn = _full_map(dec_bump, alpha, config, rec.solution_values)
        target = dec_bump.operator.apply(F)[config.exterior_nodes]
        scale = np.max(np.abs(target))
        assert np.max(np.abs(dtn - target)) < 1e-9 * scale


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
    recs = [poisson_solve(dec_bump, 0.5, config, F)
            for F in (F1, F2, F1 + 2.0 * F2)]
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
