"""Gauge pullbacks, heat-difference moments and matched-data heat kernels.

Exact oracles first: the squash Jacobian against central differences and
the closed-form determinant, moment integrals against Gamma values, and
identically-zero tables for identical operators.  The pipeline tests pin
the verdict contrast between a gauge pair (pure discretisation defect)
and a genuinely different conformal rescaling on small 1D grids.
"""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fracbeltrami.geometry import (
    AnisotropicBump,
    ConformalBump,
    ConformalRescale,
    IdentityMetric,
    build_grid,
    make_metric,
    wrap_displacement,
)
from fracbeltrami import recovery
from fracbeltrami.quadrature import LogQuadrature
from fracbeltrami.exterior import (
    RegionSpec,
    dtn_matrix,
    dtn_partial,
    poisson_solve,
)
from fracbeltrami.recovery import (
    PullbackProfile,
    RadialSquash,
    dtn_difference_experiment,
    gauge_experiment,
    heat_difference_trace,
    heat_moment_table,
    moment_vector,
    vanishing_test,
)
from fracbeltrami.spectral import (assemble_laplacian, decompose,
                                   heat_kernel, jump_kernel)

SIDE = 4.0

REGION = RegionSpec(omega_center=(2.0,), omega_radius=0.55,
                    w1_center=(0.5,), w1_radius=0.3,
                    w2_center=(3.4,), w2_radius=0.3)
BASE_1D = ConformalBump(dim=1, beta=0.5, sigma=0.3, center=(2.0,), r0=0.45)
SQUASH_1D = RadialSquash(dim=1, center=(2.0,), radius=0.52, strength=0.12)
# same 10%-style rescaling used throughout: a conformal factor inside omega
RESCALE_1D = ConformalRescale(BASE_1D, 0.2, 0.35, (2.0,), 0.45)
QUAD = LogQuadrature.log_uniform(5e-2, 1e3, 400)
ALPHA = 0.5


def _smooth_ball_source(grid, center, radius):
    d = grid.distance_to(center)
    F = np.zeros(grid.node_count)
    m = d < radius
    F[m] = np.cos(np.pi * d[m] / (2.0 * radius)) ** 2
    return F


@pytest.fixture(scope="module")
def grid32():
    return build_grid(1, SIDE, 32)


@pytest.fixture(scope="module")
def dec_base(grid32):
    return decompose(assemble_laplacian(make_metric(grid32, BASE_1D)))


@pytest.fixture(scope="module")
def dec_gauge(grid32):
    return decompose(assemble_laplacian(make_metric(
        grid32, PullbackProfile(base=BASE_1D, squash=SQUASH_1D))))


@pytest.fixture(scope="module")
def dec_rescaled(grid32):
    return decompose(assemble_laplacian(make_metric(grid32, RESCALE_1D)))


@pytest.fixture(scope="module")
def config(grid32):
    return REGION.build(grid32)


@pytest.fixture(scope="module")
def source(grid32):
    return _smooth_ball_source(grid32, (0.5,), 0.3)


@pytest.fixture(scope="module")
def observer(grid32):
    return int(np.argmin(grid32.distance_to((3.4,))))


# ----------------------------------------------------------------------
# the squash family


def _squashed(sq, delta):
    """Phi about the squash centre: the displacement lam(r) d of the image
    of a point at displacement d."""
    lam, _ = sq.stretch_factors(np.linalg.norm(delta, axis=-1))
    return np.asarray(lam)[..., None] * delta


def test_squash_jacobian_matches_finite_differences():
    sq = RadialSquash(dim=2, center=(1.0, 1.2), radius=0.8, strength=0.3)
    # centre, generic interior, near the support edge, and far outside
    pts = np.array([[1.0, 1.2], [1.3, 1.0], [1.6, 1.7], [1.74, 1.2],
                    [3.5, 0.2]])
    delta = wrap_displacement(pts - sq.center, SIDE)
    jac = sq.jacobian(delta)
    eps = 1e-6
    for k, d in enumerate(delta):
        num = np.zeros((2, 2))
        for a in range(2):
            step = np.zeros(2)
            step[a] = eps
            num[:, a] = (_squashed(sq, d + step) - _squashed(sq, d - step)
                         ) / (2.0 * eps)
        assert np.abs(num - jac[k]).max() < 1e-8


def test_squash_determinant_closed_form():
    # det Phi' = lam^{d-1} rho' with lam, rho' the tangential/radial factors
    sq = RadialSquash(dim=2, center=(2.0, 2.0), radius=0.7, strength=-0.4)
    grid = build_grid(2, SIDE, 16)
    jac = sq.jacobian(grid.displacement(sq.center))
    r = grid.distance_to(sq.center)
    lam, rad = sq.stretch_factors(r)
    assert_allclose(np.linalg.det(jac), lam * rad, atol=1e-13)


def test_pullback_volume_identity():
    # sqrt det (Phi^* g)(x) = |det Phi'(x)| sqrt det g(Phi(x))
    sq = RadialSquash(dim=2, center=(1.0, 1.2), radius=0.8, strength=0.3)
    base = ConformalBump(dim=2, beta=0.4, sigma=0.35, center=(1.1, 1.1),
                         r0=0.9)
    grid = build_grid(2, SIDE, 12)
    pulled = PullbackProfile(base=base, squash=sq).sample(grid.displacement)
    delta = grid.displacement(sq.center)
    jac = sq.jacobian(delta)
    image = _squashed(sq, delta)
    g_at = base.sample(lambda c: wrap_displacement(
        image + (np.asarray(sq.center) - c), SIDE))
    lhs = np.sqrt(np.linalg.det(pulled))
    rhs = np.abs(np.linalg.det(jac)) * np.sqrt(np.linalg.det(g_at))
    assert_allclose(lhs, rhs, rtol=1e-12)


def test_squash_identity_outside_support():
    sq = RadialSquash(dim=1, center=(2.0,), radius=0.5, strength=0.25)
    delta = np.array([[-1.9], [-0.8], [0.8], [1.9]])
    assert np.array_equal(sq.stretch_factors(np.abs(delta[:, 0])),
                          (np.ones(4), np.ones(4)))
    assert np.array_equal(sq.jacobian(delta),
                          np.broadcast_to(np.eye(1), (4, 1, 1)))


def test_pullback_profile_exterior_bitwise_equal(grid32, config):
    # gauge pairs share exterior data to the last bit: outside both supports
    # the pulled-back samples coincide exactly with the base samples
    pulled = PullbackProfile(base=BASE_1D, squash=SQUASH_1D)
    ex = config.exterior_nodes
    assert np.array_equal(pulled.sample(grid32.displacement)[ex],
                          BASE_1D.sample(grid32.displacement)[ex])


def test_zero_strength_squash_is_identity_pullback(grid32):
    sq = RadialSquash(dim=1, center=(2.0,), radius=0.5, strength=0.0)
    pulled = PullbackProfile(base=BASE_1D, squash=sq)
    # Phi = id exactly: lam = 1 adds an exact zero to every displacement
    assert np.array_equal(pulled.sample(grid32.displacement),
                          BASE_1D.sample(grid32.displacement))


def test_squash_validation():
    with pytest.raises(ValueError, match="diffeomorphism"):
        RadialSquash(dim=1, center=(0.5,), radius=0.5, strength=0.9)
    with pytest.raises(ValueError, match="diffeomorphism"):
        RadialSquash(dim=2, center=(1.0, 1.0), radius=0.5, strength=-1.05)
    with pytest.raises(ValueError, match="radius"):
        RadialSquash(dim=1, center=(0.5,), radius=0.0, strength=0.1)
    with pytest.raises(ValueError, match="center"):
        RadialSquash(dim=2, center=(0.5,), radius=0.5, strength=0.1)
    with pytest.raises(ValueError, match="dim"):
        RadialSquash(dim=3, center=(0.5, 0.5, 0.5), radius=0.5, strength=0.1)


def test_pullback_profile_dim_mismatch():
    sq = RadialSquash(dim=2, center=(1.0, 1.0), radius=0.5, strength=0.1)
    with pytest.raises(ValueError, match="dim"):
        PullbackProfile(base=BASE_1D, squash=sq)


def test_gauge_pullback_is_valid_metric(grid32):
    field = make_metric(grid32, PullbackProfile(base=BASE_1D, squash=SQUASH_1D))
    # make_metric already validated SPD; the density genuinely moved
    base = make_metric(grid32, BASE_1D)
    assert not np.allclose(field.sqrt_det, base.sqrt_det)
    # total mass is diffeo-invariant in the continuum; the Riemann sums
    # agree once the squash is resolved (2.1e-3 at N=32, O(h^2) after)
    fine = build_grid(1, SIDE, 512)
    pulled = make_metric(fine, PullbackProfile(base=BASE_1D, squash=SQUASH_1D))
    assert np.isclose(pulled.measure().total,
                      make_metric(fine, BASE_1D).measure().total, rtol=3e-5)


# ----------------------------------------------------------------------
# moment integrals


def test_moment_gamma_oracle():
    # U = t^2 e^{-t}, alpha = 1/2: mu_0 = Gamma(3/2), mu_1 = Gamma(1/2);
    # the wide window keeps the truncated tails below the quadrature error
    quad = LogQuadrature.log_uniform(1e-10, 1e4, 2000)
    table = moment_vector(lambda t: t ** 2 * np.exp(-t), 0.5, 1, quad)
    assert_allclose(table.moments[0], math.gamma(1.5), rtol=1e-12)
    # mu_1's integrand ~ t^{-1/2} at 0: truncation at 1e-10 costs ~2e-5 rel
    assert_allclose(table.moments[1], math.sqrt(math.pi), rtol=5e-5)


def test_moment_shift_identity():
    # (t U) weighted by t^{-1-a-m} equals U weighted by t^{-1-a-(m-1)}
    # pointwise, so the moments shift by one index on the same nodes
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(4)

    def u(t):
        return np.polyval(coef, t) * np.exp(-t)

    lower = moment_vector(u, 0.3, 5, QUAD)
    lifted = moment_vector(lambda t: t * u(t), 0.3, 6, QUAD)
    assert_allclose(lifted.moments[1:], lower.moments, rtol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_moment_linearity(seed):
    rng = np.random.default_rng(seed)
    c1, c2 = rng.standard_normal(3), rng.standard_normal(3)
    a, b = rng.uniform(-3, 3, size=2)

    def u1(t):
        return np.polyval(c1, t) * np.exp(-t)

    def u2(t):
        return np.polyval(c2, t) * np.exp(-t)

    mix = moment_vector(lambda t: a * u1(t) + b * u2(t), 0.5, 4, QUAD)
    m1 = moment_vector(u1, 0.5, 4, QUAD)
    m2 = moment_vector(u2, 0.5, 4, QUAD)
    scale = np.abs(m1.moments).max() + np.abs(m2.moments).max()
    assert np.abs(mix.moments - (a * m1.moments + b * m2.moments)).max() \
        <= 1e-12 * max(scale, 1.0)


def test_moment_self_reference_normalizes_to_one():
    # positive U referenced against itself: every normalized entry is 1
    table = moment_vector(lambda t: t ** 2 * np.exp(-t), 0.5, 6, QUAD,
                          reference_sampler=lambda t: t ** 2 * np.exp(-t))
    assert_allclose(table.normalized(), 1.0, rtol=1e-13)
    assert table.direct_ratio() == 1.0


def test_moment_zero_signal_zero_table():
    table = moment_vector(lambda t: np.zeros_like(t), 0.5, 8, QUAD,
                          reference_sampler=lambda t: np.zeros_like(t))
    assert np.all(table.moments == 0.0)
    assert np.all(table.normalized() == 0.0)
    assert table.direct_ratio() == 0.0
    assert vanishing_test(table, 1e-12)


def test_moment_window_metadata():
    table = moment_vector(lambda t: np.exp(-t) * t, 0.5, 3, QUAD, x_index=17)
    assert table.window == (QUAD.t_min, QUAD.t_max)
    assert table.order_count == 4
    assert table.x_index == 17


def test_moment_small_t_amplification_guard():
    # |U(t_min)| t_min^{-1-a-M} ~ 10^{300}: reject before it overflows
    quad = LogQuadrature.log_uniform(1e-30, 1.0, 50)
    with pytest.raises(ValueError, match="widen the window"):
        moment_vector(lambda t: np.ones_like(t), 0.5, 9, quad)
    # a signal that has decayed by t_min sails through
    moment_vector(lambda t: t ** 12, 0.5, 9, quad)


def test_moment_input_validation():
    with pytest.raises(ValueError, match="non-negative integer"):
        moment_vector(lambda t: t, 0.5, -1, QUAD)
    with pytest.raises(ValueError, match="non-negative integer"):
        moment_vector(lambda t: t, 0.5, 2.5, QUAD)
    with pytest.raises(ValueError, match="alpha"):
        moment_vector(lambda t: t, 1.0, 2, QUAD)
    with pytest.raises(ValueError, match="non-finite"):
        moment_vector(lambda t: np.full_like(t, np.nan), 0.5, 2, QUAD)
    with pytest.raises(ValueError, match="shape"):
        moment_vector(lambda t: t[:-1], 0.5, 2, QUAD)
    with pytest.raises(ValueError, match="reference"):
        moment_vector(lambda t: t, 0.5, 2, QUAD,
                      reference_sampler=lambda t: np.full_like(t, np.inf))


def test_vanishing_threshold_validation():
    table = moment_vector(lambda t: np.exp(-t), 0.5, 2, QUAD)
    with pytest.raises(ValueError, match="threshold"):
        vanishing_test(table, 0.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_vanishing_monotone_in_order_count(seed):
    # enlarging M adds entries to the max, so it can only demote a verdict
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(3) * 10.0 ** rng.uniform(-6, 0)

    def u(t):
        return np.polyval(coef, t) * np.exp(-t)

    def ref(t):
        return (1.0 + t) * np.exp(-t)

    few = moment_vector(u, 0.5, 3, QUAD, reference_sampler=ref)
    many = moment_vector(u, 0.5, 8, QUAD, reference_sampler=ref)
    threshold = 10.0 ** rng.uniform(-6, 0)
    if vanishing_test(many, threshold):
        assert vanishing_test(few, threshold)


# ----------------------------------------------------------------------
# heat differences observed from outside


def test_heat_difference_identical_operators_is_zero(dec_base, source,
                                                     observer):
    assert heat_difference_trace(dec_base, dec_base, source, observer,
                                 0.7) == 0.0
    t = np.geomspace(0.05, 50.0, 20)
    out = heat_difference_trace(dec_base, dec_base, source, observer, t)
    assert out.shape == t.shape
    assert np.all(out == 0.0)


def test_heat_difference_guards(dec_base, dec_gauge, dec_rescaled, source,
                                config, observer):
    other = decompose(assemble_laplacian(
        make_metric(build_grid(1, SIDE, 16), BASE_1D)))
    with pytest.raises(ValueError, match="share a grid"):
        heat_difference_trace(dec_base, other, source, observer, 0.5)
    with pytest.raises(ValueError, match="full node vector"):
        heat_difference_trace(dec_base, dec_gauge, source[:-1], observer, 0.5)
    with pytest.raises(ValueError, match="outside the source support"):
        heat_difference_trace(dec_base, dec_gauge, source,
                              int(config.w1_nodes[2]), 0.5)
    with pytest.raises(ValueError, match="out of range"):
        heat_difference_trace(dec_base, dec_gauge, source, 9999, 0.5)
    # source sitting on the region where the metrics differ is dishonest
    bad = np.zeros(dec_base.node_count)
    bad[config.omega_nodes] = 1.0
    with pytest.raises(ValueError, match="disagree"):
        heat_difference_trace(dec_base, dec_rescaled, bad, observer, 0.5)


READ_AT_OBSERVER = {
    "heat_difference_trace": lambda dec, F, x:
        heat_difference_trace(dec, dec, F, x, 1.0),
    "heat_moment_table": lambda dec, F, x:
        heat_moment_table(dec, dec, ALPHA, F, x, quad=QUAD),
}


@pytest.mark.parametrize("x", [27.7, True], ids=["float", "bool"])
@pytest.mark.parametrize("reader", READ_AT_OBSERVER)
def test_observer_must_be_an_integer_node(dec_base, source, reader, x):
    # a float observer was truncated onto node 27 and a bool read as
    # node 1, both off the source, so the reader ran at a node not asked for
    with pytest.raises(ValueError,
                       match="observation index must be integer node indices"):
        READ_AT_OBSERVER[reader](dec_base, source, x)


def test_gauge_pair_moments_pass_rescaled_pair_fails(dec_base, dec_gauge,
                                                     dec_rescaled, source,
                                                     observer):
    threshold = 5e-3  # coarse-grid unit check; acceptance pins C * h^2
    gauge = heat_moment_table(dec_base, dec_gauge, ALPHA, source, observer,
                              quad=QUAD)
    assert vanishing_test(gauge, threshold)
    distinct = heat_moment_table(dec_base, dec_rescaled, ALPHA, source,
                                 observer, quad=QUAD)
    assert not vanishing_test(distinct, threshold)
    assert distinct.normalized()[0] > threshold
    # the genuine metric difference dominates the gauge discretisation error
    assert distinct.normalized()[0] > 3.0 * gauge.normalized().max()


def test_overlapping_windows_reach_the_same_verdict(grid32, dec_base,
                                                    dec_gauge, source):
    # W2 deliberately overlapping W1: the pipeline and its verdict are
    # unchanged as long as the observer stays off the source support
    overlap = RegionSpec(omega_center=(2.0,), omega_radius=0.55,
                         w1_center=(0.5,), w1_radius=0.3,
                         w2_center=(0.8,), w2_radius=0.3, allow_overlap=True)
    cfg = overlap.build(grid32)
    assert np.intersect1d(cfg.w1_nodes, cfg.w2_nodes).size > 0
    x = int(np.argmin(grid32.distance_to((1.05,))))
    assert source[x] == 0.0
    table = heat_moment_table(dec_base, dec_gauge, ALPHA, source, x,
                              quad=QUAD)
    assert vanishing_test(table, 5e-3)


# ----------------------------------------------------------------------
# heat kernels under matched exterior data


def test_gauge_pair_shares_data_and_heat_kernels(dec_base, dec_gauge, config,
                                                 source):
    # the source-to-solution data agree to discretisation accuracy ...
    rec1 = poisson_solve(dec_base, ALPHA, config, source)
    rec2 = poisson_solve(dec_gauge, ALPHA, config, source)
    defect = np.abs(rec1.solution_values - rec2.solution_values).max()
    assert defect < 1e-4 * np.abs(rec1.solution_values).max()
    # ... and so do the heat kernels between the windows
    t = np.array([0.1, 0.5, 2.0])[:, None, None]
    w1, w2 = config.w1_nodes[:, None], config.w2_nodes
    k1 = heat_kernel(dec_base, t, w1, w2)
    k2 = heat_kernel(dec_gauge, t, w1, w2)
    assert np.abs(k1 - k2).max() < 5e-3 * np.abs(k1).max()


# ----------------------------------------------------------------------
# region specs and the paired refinement experiments


def test_region_spec_build_matches_manual(grid32, config):
    rebuilt = REGION.build(grid32)
    assert np.array_equal(rebuilt.omega_nodes, config.omega_nodes)
    assert np.array_equal(rebuilt.w1_nodes, config.w1_nodes)
    assert np.array_equal(rebuilt.w2_nodes, config.w2_nodes)
    assert REGION.dim == 1


def test_region_spec_validation():
    with pytest.raises(ValueError, match="dimension"):
        RegionSpec(omega_center=(1.0, 1.0), omega_radius=0.5,
                   w1_center=(0.5,), w1_radius=0.3,
                   w2_center=(3.0,), w2_radius=0.3)
    with pytest.raises(ValueError, match="positive"):
        RegionSpec(omega_center=(1.0,), omega_radius=0.0,
                   w1_center=(0.5,), w1_radius=0.3,
                   w2_center=(3.0,), w2_radius=0.3)


DATA_1D = [lambda X: np.sin(2.0 * np.pi * X[:, 0] / SIDE),
           lambda X: np.cos(np.pi * X[:, 0])]


@pytest.fixture(scope="module")
def distinct_1d():
    return dtn_difference_experiment(ALPHA, REGION, BASE_1D,
                                     IdentityMetric(dim=1), DATA_1D,
                                     side_length=SIDE, sizes=(16, 32, 64))


def test_gauge_experiment_defect_shrinks_under_refinement(distinct_1d):
    report = gauge_experiment(ALPHA, REGION, BASE_1D, SQUASH_1D, DATA_1D,
                              side_length=SIDE, sizes=(16, 32, 64))
    assert report.passed
    assert np.all(np.diff(report.errors) < 0.0)
    assert report.ratios.min() >= 3.0
    assert report.sizes == (16, 32, 64)
    # the data-free defect reads 1.06e-3, 2.81e-4, 4.55e-5: it shrinks by
    # 3.8 and 6.2 and ends 85x below the distinct pair's
    ops = report.operator_defects
    assert np.all(ops[:-1] / ops[1:] > 3.0)
    assert ops[-1] < distinct_1d.operator_defects[-1] / 50.0


def test_distinct_pair_defect_does_not_shrink(distinct_1d):
    control = distinct_1d
    assert not control.passed
    assert control.ratios.max() < 2.0
    assert control.relative_errors.min() > 1e-4
    # the data-free defect is flat: 3.61e-3, 3.85e-3, 3.89e-3
    ops = control.operator_defects
    assert ops.min() > 1e-3
    assert ops.max() / ops.min() < 1.1


def test_identical_profiles_measure_identically():
    report = dtn_difference_experiment(ALPHA, REGION, BASE_1D, BASE_1D,
                                       DATA_1D, side_length=SIDE,
                                       sizes=(16, 32))
    assert report.passed
    assert np.all(report.errors == 0.0)
    assert np.all(report.operator_defects == 0.0)
    assert np.all(np.isinf(report.ratios))


def test_experiment_holds_one_decomposition_at_a_time(monkeypatch):
    # each metric's decomposition is dropped once its DtN matrix is read, so
    # no decomposition is alive when the next one is computed; each holds
    # the basis rows on the nodes the partial map reads, and no others
    made = []

    def tracked(op, **kwargs):
        alive = [ref for ref in made if ref() is not None]
        assert not alive, f"{len(alive)} earlier decomposition(s) still alive"
        assert kwargs.keys() == {"nodes"}
        want = REGION.build(op.grid).partial_map_nodes
        assert np.array_equal(kwargs["nodes"], want)
        dec = decompose(op, **kwargs)
        assert np.array_equal(dec.nodes, want)
        made.append(weakref.ref(dec))
        return dec

    monkeypatch.setattr(recovery, "decompose", tracked)
    dtn_difference_experiment(ALPHA, REGION, BASE_1D, IdentityMetric(dim=1),
                              DATA_1D, side_length=SIDE, sizes=(16, 32))
    assert len(made) == 4


# 2-d layout on the side-4 torus: Omega has 21 nodes at N = 12 and 37 at
# N = 16; the bump and the squash stay inside Omega, so both pairs agree on
# the exterior
REGION_2D = RegionSpec(omega_center=(2.0, 2.0), omega_radius=0.8,
                       w1_center=(0.25, 2.0), w1_radius=0.3,
                       w2_center=(2.0, 0.25), w2_radius=0.3)
BASE_2D = ConformalBump(dim=2, beta=0.5, sigma=0.3, center=(2.0, 2.0),
                        r0=0.75)
SQUASH_2D = RadialSquash(dim=2, center=(2.0, 2.0), radius=0.75,
                         strength=0.15)
DATA_2D = [lambda X: np.exp(-((X - (0.25, 2.0)) ** 2).sum(axis=1) / 0.05),
           lambda X: np.cos(np.pi * X[:, 1]),
           lambda X: X[:, 0] - 0.25 + 0.5 * (X[:, 1] - 2.0)]


@settings(max_examples=20, deadline=None)
@given(strength=st.floats(0.05, 0.3), pull_in=st.booleans(),
       radius=st.floats(0.3, 0.75), n=st.sampled_from([12, 16]))
def test_pullback_metric_exterior_bitwise_equal_2d(strength, pull_in, radius, n):
    # the 2-d gauge pair shares its exterior data to the last bit: with the
    # squash inside Omega, the pulled-back metric's tensors, inverses and
    # volume densities equal the base metric's on every exterior node
    grid = build_grid(2, SIDE, n)
    config = REGION_2D.build(grid)
    squash = RadialSquash(dim=2, center=(2.0, 2.0), radius=radius,
                          strength=-strength if pull_in else strength)
    base = make_metric(grid, BASE_2D)
    pulled = make_metric(grid, PullbackProfile(base=BASE_2D, squash=squash))
    ex = config.exterior_nodes
    assert np.array_equal(pulled.tensor[ex], base.tensor[ex])
    assert np.array_equal(pulled.inverse_tensor[ex], base.inverse_tensor[ex])
    assert np.array_equal(pulled.sqrt_det[ex], base.sqrt_det[ex])
    assert pulled.restricted_equal(base, ex)
    # the squash moves the centre node, so the pair differs inside Omega
    assert not pulled.restricted_equal(base, config.omega_nodes)


def _per_datum_ladder(profile_a, profile_b, sizes):
    """(errors, signals) from one dtn_partial record per datum and metric."""
    errors, signals = [], []
    for n in sizes:
        grid = build_grid(2, SIDE, n)
        config = REGION_2D.build(grid)
        dec_a = decompose(assemble_laplacian(make_metric(grid, profile_a)))
        dec_b = decompose(assemble_laplacian(make_metric(grid, profile_b)))
        w2 = dec_a.measure.node_weights[config.w2_nodes]
        coords = grid.coordinates()[config.w1_nodes]
        err = sig = 0.0
        for f in DATA_2D:
            out_a = dtn_partial(dec_a, ALPHA, config, f(coords)).output_values
            out_b = dtn_partial(dec_b, ALPHA, config, f(coords)).output_values
            err = max(err, math.sqrt(w2 @ (out_a - out_b) ** 2))
            sig = max(sig, math.sqrt(w2 @ out_a ** 2))
        errors.append(err)
        signals.append(sig)
    return np.array(errors), np.array(signals)


@pytest.mark.parametrize("pair", ["gauge", "distinct"])
def test_2d_experiment_matches_per_datum_records(pair):
    # the defect is a difference of nearby outputs, so it keeps fewer digits
    # than the signal when the matrix route reorders the arithmetic
    other = (PullbackProfile(base=BASE_2D, squash=SQUASH_2D)
             if pair == "gauge" else IdentityMetric(dim=2))
    report = dtn_difference_experiment(ALPHA, REGION_2D, BASE_2D, other,
                                       DATA_2D, side_length=SIDE,
                                       sizes=(12, 16))
    errors, signals = _per_datum_ladder(BASE_2D, other, (12, 16))
    assert_allclose(report.signals, signals, rtol=1e-12, atol=0.0)
    assert_allclose(report.errors, errors, rtol=1e-8, atol=0.0)


def test_euclidean_reference_needs_no_eigensolve(monkeypatch):
    # the identity metric has the same stencil and weight at every node, so
    # only BASE_2D is decomposed by eigensolves; it is a conformal bump
    # centred on the grid's mirror axes and diagonal, so each size takes
    # the five dihedral blocks, (N^2 + 6N + 8)/8, (N^2 - 6N + 8)/8,
    # (N^2 + 2N)/8, (N^2 - 2N)/8 and (N^2 - 4)/4
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(a.shape[0]) or eigh(a))
    dtn_difference_experiment(ALPHA, REGION_2D, BASE_2D, IdentityMetric(dim=2),
                              DATA_2D, side_length=SIDE, sizes=(12, 16))
    assert len(calls) == 10
    assert sorted(calls[:5]) == [10, 15, 21, 28, 35]
    assert sorted(calls[5:]) == [21, 28, 36, 45, 63]


# the benchmark's gauge layout (``benchmarks/workloads.py``), restated here:
# Omega r 1.0 with 0.2-radius windows, bump and squash of radius 0.9
GAUGE_REGION = RegionSpec(omega_center=(2.0, 2.0), omega_radius=1.0,
                          w1_center=(0.2, 2.0), w1_radius=0.2,
                          w2_center=(2.0, 0.2), w2_radius=0.2)
GAUGE_PROFILE = ConformalBump(dim=2, beta=0.5, sigma=0.3, center=(2.0, 2.0),
                              r0=0.9)
GAUGE_SQUASH = RadialSquash(dim=2, center=(2.0, 2.0), radius=0.9,
                            strength=0.15)
GAUGE_DATA = [lambda X: np.exp(-((X - (0.2, 2.0)) ** 2).sum(axis=1) / 0.05)]


def test_2d_gauge_operator_defect_is_second_order():
    # the gauge pair's DtN maps agree in the continuum, so their data-free
    # defect is discretisation error alone, and the averaged stencil makes
    # it fall at second order or better (8.78e-4, 1.19e-4, 1.51e-5: orders
    # 2.9 and 3.0); the distinct pair stays flat (1.43e-3 to 1.53e-3)
    sizes = (16, 32, 64)
    gauge = gauge_experiment(ALPHA, GAUGE_REGION, GAUGE_PROFILE, GAUGE_SQUASH,
                             GAUGE_DATA, side_length=SIDE, sizes=sizes)
    orders = np.log2(gauge.operator_defects[:-1] / gauge.operator_defects[1:])
    assert np.all(orders >= 1.8)
    distinct = dtn_difference_experiment(ALPHA, GAUGE_REGION, GAUGE_PROFILE,
                                         IdentityMetric(dim=2), GAUGE_DATA,
                                         side_length=SIDE, sizes=sizes)
    ops = distinct.operator_defects
    assert ops.min() > 1e-3
    assert ops.max() / ops.min() < 1.1


def _fixed_pair_kernels(profile, n, sources, observers):
    """p_1 from each source to each observer on the N = n grid, the nodes
    given in side-4 coordinates on every grid with N = 0 mod 4; the
    decomposition holds their rows alone."""
    grid = build_grid(2, SIDE, n)

    def index(points):
        cells = np.asarray(points) * n / SIDE
        return np.ravel_multi_index(tuple(cells.astype(int).T), grid.shape)

    x, y = index(sources), index(observers)
    dec = decompose(assemble_laplacian(make_metric(grid, profile)),
                    nodes=np.concatenate([x, y]))
    return heat_kernel(dec, 1.0, x[:, None], y)


def test_2d_fixed_pair_gauge_heat_defect_changes_sign():
    # the named cause of the gauge verdict's ladder dependence: the signed
    # relative gauge defect (p^a - p^b) / p^a of the heat kernel at t = 1,
    # between fixed nodes, needs no Omega.  Pairs near the squash keep one
    # sign and fall 5.4x or more per step ((1, 2) -> (2, 0): -4.93e-3,
    # -8.07e-4, -1.27e-4); the pairs observed at (0, 0) change sign between
    # N = 32 and 64 ((1, 2) -> (0, 0): -5.97e-4, -4.06e-5, +5.13e-5); the
    # distinct pair moves by at most 1.4% ((1, 2) -> (2, 0): -2.21e-2 to
    # -2.20e-2)
    sources = [(0, 2), (1, 2)]
    observers = [(2, 0), (2, 1), (0, 0)]
    pulled = PullbackProfile(base=GAUGE_PROFILE, squash=GAUGE_SQUASH)
    gauge, distinct = [], []
    for n in (16, 32, 64):
        p_a = _fixed_pair_kernels(GAUGE_PROFILE, n, sources, observers)
        for other, out in ((pulled, gauge), (IdentityMetric(dim=2), distinct)):
            p_b = _fixed_pair_kernels(other, n, sources, observers)
            out.append((p_a - p_b) / p_a)
    gauge, distinct = np.array(gauge), np.array(distinct)
    near, far = gauge[..., :2], gauge[..., 2]
    assert np.all(np.sign(near) == np.sign(near[0]))
    assert np.all(near[:-1] / near[1:] >= 4.0)
    assert np.all(np.sign(far[1]) == np.sign(far[0]))
    assert np.all(np.sign(far[2]) == -np.sign(far[1]))
    assert np.all(np.sign(distinct) == np.sign(distinct[0]))
    size = np.abs(distinct)
    assert np.all(size.max(axis=0) / size.min(axis=0) < 1.05)


@pytest.mark.parametrize("pair", ["gauge", "distinct"])
def test_2d_rows_only_heat_readers_match_the_whole_decomposition(pair):
    # on the benchmark layout at N = 24 a decomposition holding the rows on
    # Omega, W1 and W2 alone serves the heat readers, a source on W1 seen
    # from W2: traces within 1e-13 of the reference peak (1.6e-15 read),
    # moments within the moments of that trace error (the window's
    # t^{-1-a-m} amplifies the traces' roundoff alike on both), the
    # source's coefficients within 1e-13 and the jump kernel at three held
    # pairs to the bit
    grid = build_grid(2, SIDE, 24)
    config = GAUGE_REGION.build(grid)
    other = (PullbackProfile(base=GAUGE_PROFILE, squash=GAUGE_SQUASH)
             if pair == "gauge" else IdentityMetric(dim=2))
    whole, held = [], []
    for profile in (GAUGE_PROFILE, other):
        op = assemble_laplacian(make_metric(grid, profile))
        whole.append(decompose(op))
        held.append(decompose(op, nodes=config.partial_map_nodes))
    F = _smooth_ball_source(grid, GAUGE_REGION.w1_center, GAUGE_REGION.w1_radius)
    x = config.w2_nodes[0]
    want = heat_moment_table(*whole, ALPHA, F, x, quad=QUAD)
    got = heat_moment_table(*held, ALPHA, F, x, quad=QUAD)
    peak = want.reference_peak
    assert got.reference_peak == peak
    assert np.abs(got.samples - want.samples).max() <= 1e-13 * peak
    t = want.t_nodes[::40]
    assert (np.abs(heat_difference_trace(*held, F, x, t)
                   - heat_difference_trace(*whole, F, x, t)).max()
            <= 1e-13 * peak)
    amplified = QUAD.moments(np.full(QUAD.nodes.size, 1e-13 * peak),
                             -1.0 - ALPHA - np.arange(want.order_count))
    assert np.all(np.abs(got.moments - want.moments) <= amplified)
    assert np.all(np.abs(got.scales - want.scales) <= amplified)
    coeffs = whole[0].project(F)
    assert (np.abs(held[0].project(F) - coeffs).max()
            <= 1e-13 * np.abs(coeffs).max())
    pairs = np.stack([config.w1_nodes[:3], config.w2_nodes[:3]], axis=1)
    assert np.array_equal(jump_kernel(held[0], ALPHA, pairs).values,
                          jump_kernel(whole[0], ALPHA, pairs).values)


def test_2d_gauge_experiment_takes_the_dihedral_blocks(monkeypatch):
    # both metrics of the gauge pair hold D4, so no eigensolve is larger than
    # the 2-d representation's block, (N^2 - 4)/4, at either size
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(a.shape[0]) or eigh(a))
    gauge_experiment(ALPHA, GAUGE_REGION, GAUGE_PROFILE, GAUGE_SQUASH,
                     GAUGE_DATA, side_length=SIDE, sizes=(24, 48))
    assert len(calls) == 20  # five blocks per metric and size
    assert max(calls[:10]) <= (24 ** 2 - 4) // 4
    assert max(calls[10:]) <= (48 ** 2 - 4) // 4


# one operator per route of decompose, with the eigensolve sizes that show
# the route: the closed form runs none, the symmetry blocks one per block,
# and an operator without grid symmetries one of size M (the trivial group)
ROUTE_CASES = {
    "closed-1d": (1, 32, IdentityMetric(dim=1), []),
    "dense-1d": (1, 32, BASE_1D, [32]),
    "closed-2d": (2, 16, IdentityMetric(dim=2), []),
    "dihedral": (2, 16, BASE_2D, [21, 28, 36, 45, 63]),
    "pullback": (2, 16, PullbackProfile(base=BASE_2D, squash=SQUASH_2D),
                 [21, 28, 36, 45, 63]),
    "transposition": (2, 16, PullbackProfile(
        base=dataclasses.replace(BASE_2D, center=(1.75, 1.75)),
        squash=dataclasses.replace(SQUASH_2D, center=(1.75, 1.75))),
        [120, 136]),
    "mirror": (2, 16, dataclasses.replace(BASE_2D, center=(2.0, 1.5)),
               [112, 144]),
    "mirror-pair": (2, 16, AnisotropicBump(dim=2, beta=0.5, sigma=0.3,
                                           center=(2.0, 2.0), r0=0.75),
                    [49, 63, 63, 81]),
    "dense-2d": (2, 16, AnisotropicBump(dim=2, beta=0.5, sigma=0.3,
                                        center=(1.75, 2.25), r0=0.75), [256]),
}


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_rows_only_decomposition_matches_the_whole_basis(monkeypatch, case):
    # the same eigensolves, and the same eigenvalues, rows and DtN matrix
    # as the whole basis, to the bit
    dim, n, profile, sizes = ROUTE_CASES[case]
    grid = build_grid(dim, SIDE, n)
    config = (REGION if dim == 1 else REGION_2D).build(grid)
    op = assemble_laplacian(make_metric(grid, profile))
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(a.shape[0]) or eigh(a))
    full = decompose(op)
    assert sorted(calls) == sizes
    rows = decompose(op, nodes=config.partial_map_nodes[::-1])
    assert sorted(calls) == sorted(sizes * 2)
    assert np.array_equal(rows.nodes, config.partial_map_nodes)
    held = rows.rows(rows.nodes)
    assert held.shape == (config.partial_map_nodes.size, grid.node_count)
    assert np.array_equal(rows.eigenvalues, full.eigenvalues)
    assert np.array_equal(held, full.rows(np.arange(full.node_count))[rows.nodes])
    assert np.array_equal(rows.rows(config.w2_nodes),
                          full.rows(config.w2_nodes))
    assert np.array_equal(dtn_matrix(rows, ALPHA, config),
                          dtn_matrix(full, ALPHA, config))


@pytest.mark.parametrize("pair", ["gauge", "distinct"])
def test_experiment_peak_memory_below_one_basis(pair):
    # the experiments decompose on the rows the partial map reads, so the
    # arrays they allocate (numpy reports them to tracemalloc) peak below
    # one M x M float64 array at the finest size
    tracemalloc.start()
    try:
        if pair == "gauge":
            gauge_experiment(ALPHA, REGION_2D, BASE_2D, SQUASH_2D, DATA_2D,
                             side_length=SIDE, sizes=(16, 32))
        else:
            dtn_difference_experiment(ALPHA, REGION_2D, BASE_2D,
                                      IdentityMetric(dim=2), DATA_2D,
                                      side_length=SIDE, sizes=(16, 32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (32 * 32) ** 2


def test_experiment_validation():
    with pytest.raises(ValueError, match="two grid sizes"):
        dtn_difference_experiment(ALPHA, REGION, BASE_1D, BASE_1D, DATA_1D,
                                  side_length=SIDE, sizes=(32,))
    # a ladder that does not refine judges nothing
    for sizes in ((24, 24), (32, 16), (16, 32, 32)):
        with pytest.raises(ValueError, match="strictly increase"):
            dtn_difference_experiment(ALPHA, REGION, BASE_1D, BASE_1D, DATA_1D,
                                      side_length=SIDE, sizes=sizes)
    with pytest.raises(ValueError, match="at least one datum"):
        dtn_difference_experiment(ALPHA, REGION, BASE_1D, BASE_1D, [],
                                  side_length=SIDE)
    with pytest.raises(TypeError, match="callable"):
        dtn_difference_experiment(ALPHA, REGION, BASE_1D, BASE_1D,
                                  [np.ones(5)], side_length=SIDE)
    with pytest.raises(ValueError, match="shape"):
        dtn_difference_experiment(ALPHA, REGION, BASE_1D, BASE_1D,
                                  [lambda X: np.ones(3)], side_length=SIDE,
                                  sizes=(16, 32))
    # a profile differing inside a window is not exterior-equal: reject
    shifted = ConformalBump(dim=1, beta=0.3, sigma=0.2, center=(0.5,),
                            r0=0.25)
    with pytest.raises(ValueError, match="exterior"):
        dtn_difference_experiment(ALPHA, REGION, BASE_1D, shifted, DATA_1D,
                                  side_length=SIDE, sizes=(16, 32))
