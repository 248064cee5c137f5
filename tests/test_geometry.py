"""Grid, metric-field, and weighted-measure tests.

Oracles are closed-form: bump profiles evaluate to known tensors at the
center and to the exact identity outside the cutoff radius, and weighted
inner products reduce to volume integrals that are exact for trapezoid-free
lattice sums of periodic data.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbeltrami.geometry import (
    AnisotropicBump,
    ConformalBump,
    ConformalRescale,
    IdentityMetric,
    build_grid,
    make_metric,
    weighted_inner,
    weighted_norm,
    wrap_displacement,
)


# ----------------------------------------------------------------------
# grids


def test_build_grid_1d_nodes():
    grid = build_grid(1, 4.0, 4)
    assert grid.spacing == 1.0
    assert grid.node_count == 4
    np.testing.assert_array_equal(grid.coordinates(), [[0.0], [1.0], [2.0], [3.0]])


def test_build_grid_2d_counts():
    grid = build_grid(2, 2.0, 8)
    assert grid.node_count == 64
    assert grid.spacing == 0.25
    assert grid.shape == (8, 8)
    coords = grid.coordinates()
    assert coords.shape == (64, 2)
    # C-order: second axis varies fastest
    np.testing.assert_allclose(coords[1], [0.0, 0.25])
    np.testing.assert_allclose(coords[8], [0.25, 0.0])


@pytest.mark.parametrize(
    "dim, L, N",
    [(1, 4.0, 5), (1, 4.0, 3), (3, 4.0, 8), (0, 4.0, 8), (1, -1.0, 8), (1, 4.0, 2)],
)
def test_build_grid_rejects_bad_arguments(dim, L, N):
    with pytest.raises(ValueError):
        build_grid(dim, L, N)


@given(
    delta=st.floats(-1e6, 1e6, allow_nan=False),
    k=st.integers(-50, 50),
    L=st.floats(0.1, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_wrap_displacement_periodic_and_minimal(delta, k, L):
    w = wrap_displacement(np.array(delta), L)
    # minimal image lies in [-L/2, L/2] ...
    assert abs(w) <= L / 2 + 1e-9 * L
    # ... and is congruent to the input mod L
    assert abs((delta - w) / L - round((delta - w) / L)) < 1e-6
    # shifting by whole periods changes nothing -- up to the tie at
    # |delta| = L/2 exactly, where +L/2 and -L/2 are both minimal images
    # and round-half-to-even may pick either; compare mod L
    w2 = wrap_displacement(np.array(delta + k * L), L)
    frac = (w - w2) / L
    assert abs(frac - round(frac)) <= 1e-6
    assert abs(w2) <= L / 2 + 1e-9 * L


def test_pair_distance_symmetry_and_wrap():
    grid = build_grid(2, 4.0, 8)
    # nodes one step apart across the periodic seam are h apart, not L-h
    n = grid.points_per_side
    i, j = 0, n - 1  # (0,0) and (0, L-h)
    assert grid.pair_distance(i, j) == pytest.approx(grid.spacing)
    rng = np.random.default_rng(3)
    ii = rng.integers(0, grid.node_count, 20)
    jj = rng.integers(0, grid.node_count, 20)
    np.testing.assert_allclose(grid.pair_distance(ii, jj), grid.pair_distance(jj, ii))


# ----------------------------------------------------------------------
# metric fields


def test_identity_metric_field():
    grid = build_grid(2, 4.0, 8)
    met = make_metric(grid, IdentityMetric(2))
    np.testing.assert_array_equal(met.sqrt_det, np.ones(grid.node_count))
    assert met.tensor.shape == (grid.node_count, 2, 2)
    np.testing.assert_array_equal(met.tensor, np.broadcast_to(np.eye(2), met.tensor.shape))
    w = met.measure()
    np.testing.assert_allclose(w.node_weights, grid.spacing**2)
    assert w.total == pytest.approx(16.0)  # L^dim


def test_conformal_bump_peak_value():
    # at the center the cutoff and the Gaussian both equal 1, so g = (1+beta) I
    grid = build_grid(2, 4.0, 16)
    beta = 0.5
    met = make_metric(grid, ConformalBump(2, beta=beta, sigma=0.4, center=(2.0, 2.0), r0=0.8))
    idx = int(np.argmin(grid.distance_to((2.0, 2.0))))
    np.testing.assert_allclose(met.tensor[idx], 1.5 * np.eye(2), rtol=1e-14)
    assert met.sqrt_det[idx] == pytest.approx(1.5, rel=1e-14)  # (1+beta)^{dim/2}


def test_bump_identity_outside_cutoff():
    grid = build_grid(2, 4.0, 16)
    met = make_metric(grid, ConformalBump(2, beta=0.7, sigma=0.4, center=(2.0, 2.0), r0=0.8))
    outside = grid.distance_to((2.0, 2.0)) > 0.8
    assert outside.any()
    # exact identity, not merely close: the cutoff vanishes identically
    np.testing.assert_array_equal(met.tensor[outside], np.broadcast_to(np.eye(2), (outside.sum(), 2, 2)))
    np.testing.assert_array_equal(met.sqrt_det[outside], np.ones(outside.sum()))


def test_anisotropic_bump_structure():
    grid = build_grid(2, 4.0, 16)
    beta = 0.4
    met = make_metric(grid, AnisotropicBump(2, beta=beta, sigma=0.4, center=(2.0, 2.0), r0=0.9))
    idx = int(np.argmin(grid.distance_to((2.0, 2.0))))
    g = met.tensor[idx]
    assert g[0, 0] == pytest.approx(1.0 + beta, rel=1e-14)
    assert g[1, 1] == pytest.approx(1.0)
    assert g[0, 1] == 0.0
    # inverse and determinant wired consistently everywhere
    prod = np.einsum("nij,njk->nik", met.inverse_tensor, met.tensor)
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(2), prod.shape), atol=1e-13)
    np.testing.assert_allclose(met.sqrt_det, np.sqrt(np.linalg.det(met.tensor)), rtol=1e-13)


def test_conformal_rescale_multiplies_base():
    grid = build_grid(2, 4.0, 16)
    base = AnisotropicBump(2, beta=0.4, sigma=0.4, center=(2.0, 2.0), r0=0.9)
    scaled = ConformalRescale(base, beta=0.1, sigma=0.5, center=(2.0, 2.0), bump_r0=0.9)
    g_base = base.sample(grid.displacement)
    g = scaled.sample(grid.displacement)
    # at the center the factor is exactly 1 + beta; outside it is exactly 1
    idx = int(np.argmin(grid.distance_to((2.0, 2.0))))
    np.testing.assert_allclose(g[idx], 1.1 * g_base[idx], rtol=1e-14)
    outside = grid.distance_to((2.0, 2.0)) > 0.9
    np.testing.assert_array_equal(g[outside], g_base[outside])
    assert scaled.dim == 2
    assert scaled.r0 == 0.9


@pytest.mark.parametrize(
    "factory",
    [
        lambda: ConformalBump(2, beta=-1.5, sigma=0.4, center=(2.0, 2.0), r0=0.8),  # loses ellipticity
        lambda: ConformalBump(2, beta=0.5, sigma=-0.1, center=(2.0, 2.0), r0=0.8),
        lambda: ConformalBump(2, beta=0.5, sigma=0.4, center=(2.0,), r0=0.8),  # wrong center length
        lambda: AnisotropicBump(2, beta=-1.0, sigma=0.4, center=(2.0, 2.0), r0=0.8),
        lambda: ConformalRescale(IdentityMetric(2), beta=-1.5, sigma=0.4, center=(2.0, 2.0), bump_r0=0.8),
    ],
)
def test_bump_profiles_reject_bad_parameters(factory):
    with pytest.raises(ValueError):
        factory()


def test_make_metric_rejects_wide_bump():
    # r0 >= L/2 would let the bump wrap into itself
    grid = build_grid(2, 4.0, 16)
    with pytest.raises(ValueError):
        make_metric(grid, ConformalBump(2, beta=0.5, sigma=0.4, center=(2.0, 2.0), r0=2.5))


def test_metric_uniform_ellipticity():
    grid = build_grid(2, 4.0, 16)
    for profile in (
        IdentityMetric(2),
        ConformalBump(2, beta=0.8, sigma=0.5, center=(2.0, 2.0), r0=1.2),
        AnisotropicBump(2, beta=0.6, sigma=0.5, center=(2.0, 2.0), r0=1.2),
    ):
        met = make_metric(grid, profile)
        eigs = np.linalg.eigvalsh(met.tensor)
        assert eigs.min() > 0.9  # these families never dip below the identity floor
        assert np.isfinite(eigs).all()


def test_restricted_equal_detects_bump():
    grid = build_grid(2, 4.0, 16)
    flat = make_metric(grid, IdentityMetric(2))
    bumped = make_metric(grid, ConformalBump(2, beta=0.5, sigma=0.4, center=(2.0, 2.0), r0=0.8))
    far = np.flatnonzero(grid.distance_to((2.0, 2.0)) > 0.8)
    near = np.flatnonzero(grid.distance_to((2.0, 2.0)) < 0.3)
    assert flat.restricted_equal(bumped, far)
    assert not flat.restricted_equal(bumped, near)


@pytest.mark.parametrize("field", ["tensor", "inverse_tensor", "sqrt_det"])
def test_restricted_equal_is_bitwise(field):
    # one unit of roundoff at one node, in any of the fields the stencil
    # and the weights are read from, breaks the agreement there
    grid = build_grid(2, 4.0, 16)
    flat = make_metric(grid, IdentityMetric(2))
    values = getattr(flat, field).copy()
    values[5] = np.nextafter(values[5], 2.0)
    nudged = dataclasses.replace(flat, **{field: values})
    assert not flat.restricted_equal(nudged, np.array([4, 5]))
    assert flat.restricted_equal(nudged, np.array([4, 6]))


# ----------------------------------------------------------------------
# weighted measure


def test_weighted_inner_total_volume():
    grid = build_grid(1, 4.0, 4)
    met = make_metric(grid, IdentityMetric(1))
    one = np.ones(grid.node_count)
    assert weighted_inner(one, one, met.measure()) == pytest.approx(4.0)


def test_weighted_inner_delta_picks_weight():
    grid = build_grid(2, 4.0, 8)
    met = make_metric(grid, ConformalBump(2, beta=0.5, sigma=0.6, center=(2.0, 2.0), r0=1.0))
    w = met.measure()
    delta = np.zeros(grid.node_count)
    delta[17] = 1.0
    assert weighted_inner(delta, np.ones_like(delta), w) == pytest.approx(w.node_weights[17])


def test_weighted_inner_matches_brute_force():
    grid = build_grid(2, 4.0, 8)
    met = make_metric(grid, ConformalBump(2, beta=0.5, sigma=0.6, center=(2.0, 2.0), r0=1.0))
    w = met.measure()
    rng = np.random.default_rng(11)
    u = rng.standard_normal(grid.node_count)
    v = rng.standard_normal(grid.node_count)
    brute = sum(u[i] * v[i] * w.node_weights[i] for i in range(grid.node_count))
    assert weighted_inner(u, v, w) == pytest.approx(brute, rel=1e-13)
    assert weighted_inner(u, v, w) == pytest.approx(weighted_inner(v, u, w))


def test_weighted_inner_lower_bound():
    # <u,u>_w >= lambda_min^{dim/2} h^dim sum u_i^2
    grid = build_grid(2, 4.0, 16)
    met = make_metric(grid, AnisotropicBump(2, beta=0.7, sigma=0.5, center=(2.0, 2.0), r0=1.2))
    lam_min = np.linalg.eigvalsh(met.tensor).min()
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = rng.standard_normal(grid.node_count)
        lhs = weighted_inner(u, u, met.measure())
        rhs = lam_min ** (grid.dim / 2) * grid.spacing**grid.dim * np.dot(u, u)
        assert lhs >= rhs * (1 - 1e-12)


def test_weighted_inner_shape_mismatch():
    grid = build_grid(1, 4.0, 8)
    met = make_metric(grid, IdentityMetric(1))
    with pytest.raises(ValueError):
        weighted_inner(np.ones(8), np.ones(7), met.measure())


def test_weighted_norm_is_sqrt_of_inner():
    grid = build_grid(1, 4.0, 8)
    met = make_metric(grid, IdentityMetric(1))
    u = np.arange(8.0)
    assert weighted_norm(u, met.measure()) == pytest.approx(
        np.sqrt(weighted_inner(u, u, met.measure()))
    )
