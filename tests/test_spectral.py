"""Laplace-Beltrami assembly, eigencalculus, heat semigroup, fractional powers.

The dense decomposition makes most oracles exact: circulant eigenvalues on
the identity metric are 2(1 - cos(2 pi k / N))/h^2 per axis, the flat-torus
heat kernel is a wrapped Gaussian, and both fractional routes must agree at
quadrature accuracy.
"""

import math
import warnings

import numpy as np
import pytest

from fracbeltrami.geometry import (
    AnisotropicBump,
    ConformalBump,
    IdentityMetric,
    build_grid,
    make_metric,
    weighted_inner,
    weighted_norm,
)
from fracbeltrami.quadrature import LogQuadrature
from fracbeltrami.recovery import PullbackProfile, RadialSquash
from fracbeltrami.spectral import (
    DecompositionSizeError,
    QuadratureWindowWarning,
    assemble_laplacian,
    decompose,
    energy_form,
    frac_apply_balakrishnan,
    frac_apply_spectral,
    frac_energy_matrix,
    heat_apply,
    heat_kernel,
    heat_kernel_matrix,
    heat_kernel_pairs,
    jump_kernel,
)

BUMP_1D = ConformalBump(1, beta=0.6, sigma=0.5, center=(2.0,), r0=1.5)
BUMP_2D = ConformalBump(2, beta=0.6, sigma=0.5, center=(2.0, 2.0), r0=1.5)
ANISO_2D = AnisotropicBump(2, beta=0.5, sigma=0.5, center=(2.0, 2.0), r0=1.5)


@pytest.fixture(scope="module")
def dec_1d_identity():
    grid = build_grid(1, 4.0, 16)
    return decompose(assemble_laplacian(make_metric(grid, IdentityMetric(1))))


@pytest.fixture(scope="module")
def dec_1d_bump():
    grid = build_grid(1, 4.0, 16)
    return decompose(assemble_laplacian(make_metric(grid, BUMP_1D)))


@pytest.fixture(scope="module")
def dec_2d_aniso():
    grid = build_grid(2, 4.0, 12)
    return decompose(assemble_laplacian(make_metric(grid, ANISO_2D)))


# ----------------------------------------------------------------------
# assembly


def test_unit_stencil_row():
    grid = build_grid(1, 4.0, 4)  # h = 1
    op = assemble_laplacian(make_metric(grid, IdentityMetric(1)))
    np.testing.assert_allclose(op.matrix[0], [2.0, -1.0, 0.0, -1.0], atol=1e-14)


def test_circulant_eigenvalues_n4():
    grid = build_grid(1, 4.0, 4)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(1))))
    np.testing.assert_allclose(dec.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-13)


def test_circulant_eigenvalues_closed_form_1d():
    N, L = 16, 4.0
    grid = build_grid(1, L, N)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(1))))
    h = L / N
    exact = np.sort(2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(N) / N)) / h**2)
    np.testing.assert_allclose(dec.eigenvalues, exact, atol=1e-11)


def test_circulant_eigenvalues_closed_form_2d():
    N, L = 8, 4.0
    grid = build_grid(2, L, N)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(2))))
    h = L / N
    sym = 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(N) / N)) / h**2
    exact = np.sort(np.add.outer(sym, sym).ravel())
    np.testing.assert_allclose(dec.eigenvalues, exact, atol=1e-11)


@pytest.mark.parametrize(
    "dim, profile",
    [(1, IdentityMetric(1)), (1, BUMP_1D), (2, BUMP_2D), (2, ANISO_2D)],
)
def test_constants_are_harmonic(dim, profile):
    grid = build_grid(dim, 4.0, 8 if dim == 2 else 16)
    op = assemble_laplacian(make_metric(grid, profile))
    res = op.apply(np.ones(grid.node_count))
    np.testing.assert_allclose(res, 0.0, atol=1e-13)


def test_weighted_self_adjointness():
    grid = build_grid(2, 4.0, 12)
    met = make_metric(grid, BUMP_2D)
    op = assemble_laplacian(met)
    w = met.measure()
    rng = np.random.default_rng(2)
    scale = np.abs(op.matrix).sum(axis=1).max()
    for _ in range(100):
        u = rng.standard_normal(grid.node_count)
        v = rng.standard_normal(grid.node_count)
        defect = abs(
            weighted_inner(op.apply(u), v, w) - weighted_inner(u, op.apply(v), w)
        )
        assert defect < 1e-12 * scale * weighted_norm(u, w) * weighted_norm(v, w)


def test_energy_nonnegative():
    grid = build_grid(2, 4.0, 12)
    met = make_metric(grid, ANISO_2D)
    op = assemble_laplacian(met)
    rng = np.random.default_rng(8)
    for _ in range(30):
        u = rng.standard_normal(grid.node_count)
        assert weighted_inner(op.apply(u), u, met.measure()) >= -1e-11


@pytest.mark.parametrize("dim, profile", [
    (1, BUMP_1D),
    (2, BUMP_2D),
    (2, PullbackProfile(base=BUMP_2D, squash=RadialSquash(
        dim=2, center=(2.0, 2.0), radius=1.5, strength=0.15))),
], ids=["bump-1d", "conformal-2d", "pullback-2d"])
def test_stencil_product_matches_dense_form(dim, profile):
    grid = build_grid(dim, 4.0, 16 if dim == 1 else 12)
    op = assemble_laplacian(make_metric(grid, profile))
    if isinstance(profile, PullbackProfile):  # the cross terms are live
        assert np.abs(op.metric.inverse_tensor[:, 0, 1]).max() > 0.1
    block = np.random.default_rng(9).standard_normal((grid.node_count, 5))
    dense = op.form_matrix @ block
    tol = 1e-14 * np.abs(dense).max()
    np.testing.assert_allclose(op.apply_form(block), dense, rtol=0, atol=tol)
    np.testing.assert_allclose(op.apply_form(block[:, 0]), dense[:, 0],
                               rtol=0, atol=tol)
    dense_a = op.matrix @ block
    tol_a = 1e-14 * np.abs(dense_a).max()
    np.testing.assert_allclose(op.apply(block), dense_a, rtol=0, atol=tol_a)
    np.testing.assert_allclose(op.apply(block[:, 0]), dense_a[:, 0],
                               rtol=0, atol=tol_a)
    assert np.array_equal(op.form_diagonal(), np.diag(op.form_matrix))


# ----------------------------------------------------------------------
# decomposition


def test_decompose_invariants(dec_2d_aniso):
    dec = dec_2d_aniso
    assert dec.eigenvalues[0] == 0.0  # snapped zero mode
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    # phi_0 constant
    phi0 = dec.basis[:, 0]
    assert np.abs(phi0 - phi0.mean()).max() < 1e-10
    # weighted orthonormality
    gram = dec.basis.T @ (dec.basis * dec.measure.node_weights[:, None])
    np.testing.assert_allclose(gram, np.eye(dec.node_count), atol=1e-10)
    # reconstruction A = Phi Lambda Phi^T W
    rebuilt = (dec.basis * dec.eigenvalues) @ (
        dec.basis.T * dec.measure.node_weights[None, :]
    )
    scale = np.abs(dec.operator.matrix).max()
    np.testing.assert_allclose(rebuilt, dec.operator.matrix, atol=1e-10 * scale)


def test_trace_identity(dec_1d_bump):
    # sum of eigenvalues = trace of A (similarity transforms preserve it)
    assert dec_1d_bump.eigenvalues.sum() == pytest.approx(
        np.trace(dec_1d_bump.operator.matrix), rel=1e-12
    )


@pytest.mark.parametrize("dim, profile", [(1, BUMP_1D), (2, ANISO_2D)],
                         ids=["bump-1d", "aniso-2d"])
def test_decompose_pins_dense_reference(dim, profile):
    # the eigensolve sees exactly 0.5 (S + S') with S = W^{-1/2} B W^{-1/2},
    # so its eigenpairs equal this out-of-place reference to the last bit
    grid = build_grid(dim, 4.0, 16 if dim == 1 else 12)
    op = assemble_laplacian(make_metric(grid, profile))
    dec = decompose(op)
    root_w = np.sqrt(op.measure.node_weights)
    sym = op.form_matrix / np.outer(root_w, root_w)
    evals, evecs = np.linalg.eigh(0.5 * (sym + sym.T))
    lam_max = max(float(evals[-1]), 1.0)
    evals = np.where(evals < 1e-12 * lam_max, 0.0, evals)
    anchor = np.abs(evecs).argmax(axis=0)
    signs = np.sign(evecs[anchor, np.arange(grid.node_count)])
    signs[signs == 0] = 1.0
    assert np.array_equal(dec.eigenvalues, evals)
    assert np.array_equal(dec.basis, evecs * signs / root_w[:, None])


def test_decompose_is_deterministic():
    grid = build_grid(1, 4.0, 16)
    met = make_metric(grid, BUMP_1D)
    a = decompose(assemble_laplacian(met))
    b = decompose(assemble_laplacian(met))
    np.testing.assert_array_equal(a.basis, b.basis)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)


def test_decompose_size_cap():
    grid = build_grid(1, 4.0, 16)
    op = assemble_laplacian(make_metric(grid, IdentityMetric(1)))
    with pytest.raises(DecompositionSizeError):
        decompose(op, cap=8)


# ----------------------------------------------------------------------
# heat semigroup


def test_heat_identity_at_t0(dec_1d_bump):
    u = np.sin(np.arange(16.0))
    np.testing.assert_array_equal(heat_apply(dec_1d_bump, 0.0, u), u)


def test_heat_preserves_constants(dec_2d_aniso):
    one = np.ones(dec_2d_aniso.node_count)
    for t in (0.01, 0.1, 1.0, 10.0):
        np.testing.assert_allclose(heat_apply(dec_2d_aniso, t, one), 1.0, atol=1e-12)


def test_heat_contracts(dec_1d_bump):
    rng = np.random.default_rng(4)
    u = rng.standard_normal(dec_1d_bump.node_count)
    n0 = weighted_norm(u, dec_1d_bump.measure)
    prev = n0
    for t in (0.01, 0.1, 1.0, 10.0):
        n = weighted_norm(heat_apply(dec_1d_bump, t, u), dec_1d_bump.measure)
        assert n <= prev * (1 + 1e-12)
        prev = n


def test_heat_long_time_limit(dec_1d_bump):
    rng = np.random.default_rng(9)
    u = rng.standard_normal(dec_1d_bump.node_count)
    w = dec_1d_bump.measure
    mean = weighted_inner(u, np.ones_like(u), w) / w.total
    np.testing.assert_allclose(heat_apply(dec_1d_bump, 1e8, u), mean, atol=1e-10)


def test_heat_rejects_negative_t(dec_1d_bump):
    with pytest.raises(ValueError):
        heat_apply(dec_1d_bump, -0.1, np.ones(16))
    with pytest.raises(ValueError):
        heat_kernel(dec_1d_bump, 0.0, 0, 1)


@pytest.mark.parametrize("profile", [IdentityMetric(2), BUMP_2D, ANISO_2D])
def test_stochastic_completeness(profile):
    grid = build_grid(2, 4.0, 10)
    met = make_metric(grid, profile)
    dec = decompose(assemble_laplacian(met))
    w = met.measure().node_weights
    for t in (0.01, 0.1, 1.0, 10.0):
        rows = heat_kernel_matrix(dec, t) @ w
        np.testing.assert_allclose(rows, 1.0, atol=1e-10)


def test_heat_kernel_symmetric(dec_2d_aniso):
    rng = np.random.default_rng(6)
    for _ in range(10):
        i, j = rng.integers(0, dec_2d_aniso.node_count, 2)
        assert heat_kernel(dec_2d_aniso, 0.37, int(i), int(j)) == pytest.approx(
            heat_kernel(dec_2d_aniso, 0.37, int(j), int(i)), abs=1e-15
        )


def test_heat_kernel_positive_small_torus():
    # L = 1 keeps the farthest pair at distance^2/(4 t) ~ 12.5 for the
    # smallest t, i.e. kernel values ~ e^{-12.5}, far above round-off.
    for dim, N in ((1, 32), (2, 12)):
        grid = build_grid(dim, 1.0, N)
        bump = ConformalBump(dim, beta=0.5, sigma=0.1, center=(0.5,) * dim, r0=0.3)
        dec = decompose(assemble_laplacian(make_metric(grid, bump)))
        for t in (0.01, 0.1, 1.0, 10.0):
            assert heat_kernel_matrix(dec, t).min() > 0.0


def test_heat_kernel_matches_wrapped_gaussian():
    # identity metric: p_t(x, y) = sum_m (4 pi t)^{-n/2} e^{-|x-y+mL|^2/(4t)}
    # up to O(h^2) lattice dispersion
    L, N, t = 8.0, 32, 0.5
    grid = build_grid(2, L, N)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(2))))
    coords = grid.coordinates()
    rng = np.random.default_rng(12)
    for _ in range(12):
        i, j = rng.integers(0, grid.node_count, 2)
        if grid.pair_distance(int(i), int(j)) > L / 4:
            continue
        diff = coords[int(i)] - coords[int(j)]
        wrapped = 0.0
        for mx in (-1, 0, 1):
            for my in (-1, 0, 1):
                d2 = (diff[0] + mx * L) ** 2 + (diff[1] + my * L) ** 2
                wrapped += math.exp(-d2 / (4 * t)) / (4 * math.pi * t)
        assert heat_kernel(dec, t, int(i), int(j)) == pytest.approx(wrapped, rel=0.05)


def test_heat_kernel_pairs_shape(dec_2d_aniso):
    ts = np.array([0.1, 1.0, 10.0])
    ii = np.array([0, 5, 9])
    jj = np.array([3, 2, 70])
    block = heat_kernel_pairs(dec_2d_aniso, ts, ii, jj)
    assert block.shape == (3, 3)
    for a, t in enumerate(ts):
        for b in range(3):
            assert block[a, b] == pytest.approx(
                heat_kernel(dec_2d_aniso, t, int(ii[b]), int(jj[b])), rel=1e-12
            )


def test_heat_derivative_decay_rate():
    # |d/dt p_t(x,x)| ~ t^{-n/2-1}; on a long 1D torus the window [1, 100]
    # sits between the lattice scale h^2 ~ 0.04 and the mixing time 1/lam_1 ~ 253
    grid = build_grid(1, 100.0, 512)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(1))))
    ts = np.geomspace(1.0, 100.0, 9)
    vals = []
    for t in ts:
        dp = (heat_kernel(dec, 1.01 * t, 7, 7) - heat_kernel(dec, 0.99 * t, 7, 7)) / (
            0.02 * t
        )
        vals.append(abs(dp))
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert slope == pytest.approx(-1.5, abs=0.2)


# ----------------------------------------------------------------------
# fractional powers: spectral route


def test_frac_alpha_one_is_laplacian(dec_1d_bump):
    rng = np.random.default_rng(1)
    u = rng.standard_normal(dec_1d_bump.node_count)
    np.testing.assert_allclose(
        frac_apply_spectral(dec_1d_bump, 1.0, u),
        dec_1d_bump.operator.apply(u),
        atol=1e-11,
    )


def test_frac_on_eigenvector(dec_1d_bump):
    k = 5
    phi = dec_1d_bump.basis[:, k]
    lam = dec_1d_bump.eigenvalues[k]
    np.testing.assert_allclose(
        frac_apply_spectral(dec_1d_bump, 0.3, phi), lam**0.3 * phi, atol=1e-12
    )


def test_frac_semigroup_property(dec_2d_aniso):
    rng = np.random.default_rng(14)
    u = rng.standard_normal(dec_2d_aniso.node_count)
    once = frac_apply_spectral(dec_2d_aniso, 0.7, frac_apply_spectral(dec_2d_aniso, 0.3, u))
    direct = dec_2d_aniso.operator.apply(u)  # alpha + beta = 1
    np.testing.assert_allclose(once, direct, atol=1e-10 * np.abs(direct).max())


def test_frac_annihilates_constants(dec_2d_aniso):
    one = np.ones(dec_2d_aniso.node_count)
    for alpha in (0.25, 0.5, 0.75, 1.0):
        np.testing.assert_allclose(
            frac_apply_spectral(dec_2d_aniso, alpha, one), 0.0, atol=1e-12
        )


def test_frac_symmetric_in_weighted_product(dec_1d_bump):
    rng = np.random.default_rng(15)
    u = rng.standard_normal(dec_1d_bump.node_count)
    v = rng.standard_normal(dec_1d_bump.node_count)
    w = dec_1d_bump.measure
    a = weighted_inner(frac_apply_spectral(dec_1d_bump, 0.5, u), v, w)
    b = weighted_inner(u, frac_apply_spectral(dec_1d_bump, 0.5, v), w)
    assert a == pytest.approx(b, abs=1e-10)


def test_fractional_powers_emit_no_warnings(dec_2d_aniso):
    # lam^a is taken on the positive eigenvalues only; the zero mode gets an
    # exact 0 and nothing reads uninitialized memory
    dec = dec_2d_aniso
    lam = dec.eigenvalues
    u = np.random.default_rng(16).standard_normal(dec.node_count)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = frac_apply_spectral(dec, 0.4, u)
        energy = frac_energy_matrix(dec, 0.4)
    powers = np.zeros_like(lam)
    powers[lam > 0] = lam[lam > 0] ** 0.4
    assert np.array_equal(out, dec.synthesize(dec.project(u) * powers))
    weighted = dec.basis * dec.measure.node_weights[:, None]
    e = (weighted * powers) @ weighted.T
    assert np.array_equal(energy, 0.5 * (e + e.T))


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, 2.0])
def test_frac_rejects_alpha_outside_range(dec_1d_bump, alpha):
    with pytest.raises(ValueError):
        frac_apply_spectral(dec_1d_bump, alpha, np.ones(16))


# ----------------------------------------------------------------------
# fractional powers: Balakrishnan route


def test_gamma_reflection_constant():
    # Gamma(-1/2) = -2 sqrt(pi); the prefactor both singular integrals divide by
    assert math.gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-15)
    assert math.gamma(-0.5) == pytest.approx(-3.5449077018110318, rel=1e-15)


def test_balakrishnan_matches_spectral_identity(dec_1d_identity):
    rng = np.random.default_rng(21)
    u = rng.standard_normal(dec_1d_identity.node_count)
    w = dec_1d_identity.measure
    exact = frac_apply_spectral(dec_1d_identity, 0.5, u)
    approx = frac_apply_balakrishnan(dec_1d_identity, 0.5, u)
    assert weighted_norm(approx - exact, w) < 1e-6 * weighted_norm(exact, w)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_balakrishnan_matches_spectral_bump(dec_1d_bump, alpha):
    rng = np.random.default_rng(22)
    u = rng.standard_normal(dec_1d_bump.node_count)
    w = dec_1d_bump.measure
    exact = frac_apply_spectral(dec_1d_bump, alpha, u)
    approx = frac_apply_balakrishnan(dec_1d_bump, alpha, u)
    assert weighted_norm(approx - exact, w) < 1e-5 * weighted_norm(exact, w)


def test_balakrishnan_kills_constants(dec_1d_bump):
    out = frac_apply_balakrishnan(dec_1d_bump, 0.5, np.ones(16))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_balakrishnan_warns_on_narrow_window(dec_1d_identity):
    quad = LogQuadrature.log_uniform(t_min=1.0, t_max=10.0, count=50)
    with pytest.warns(QuadratureWindowWarning):
        frac_apply_balakrishnan(dec_1d_identity, 0.5, np.sin(np.arange(16.0)), quad)


# ----------------------------------------------------------------------
# jump kernel and energy form


def test_jump_kernel_symmetric(dec_1d_bump):
    fwd = jump_kernel(dec_1d_bump, 0.5, pairs=np.array([[0, 5], [2, 9]]))
    rev = jump_kernel(dec_1d_bump, 0.5, pairs=np.array([[5, 0], [9, 2]]))
    np.testing.assert_array_equal(fwd.values, rev.values)


def test_jump_kernel_rejects_diagonal(dec_1d_bump):
    with pytest.raises(ValueError):
        jump_kernel(dec_1d_bump, 0.5, pairs=np.array([[3, 3]]))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_jump_kernel_positive(dec_1d_bump, alpha):
    kernel = jump_kernel(dec_1d_bump, alpha)
    assert kernel.values.min() > 0.0


def test_jump_kernel_sandwich():
    # (1/C) d^{-n-2a} <= K <= C d^{-n-2a} with torus geodesic distance;
    # the fitted constant reflects the bump strength and stays modest.
    grid = build_grid(1, 8.0, 32)
    met = make_metric(grid, ConformalBump(1, beta=0.6, sigma=0.5, center=(4.0,), r0=1.5))
    dec = decompose(assemble_laplacian(met))
    alpha = 0.5
    kernel = jump_kernel(dec, alpha)
    d = grid.pair_distance(kernel.i_indices, kernel.j_indices)
    ratio = kernel.values * d ** (1 + 2 * alpha)
    C = max(ratio.max(), 1.0 / ratio.min())
    assert np.isfinite(C)
    assert C < 10.0  # fitted: ~2.6 at this bump strength


def test_jump_kernel_euclidean_decay_1d():
    # log-log slope of K vs distance approaches -(1+2a) well inside a period
    grid = build_grid(1, 16.0, 64)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(1))))
    alpha = 0.5
    ks = np.arange(2, 9)  # separations 0.5 ... 2.0 at h = 0.25
    pairs = np.stack([np.zeros_like(ks), ks], axis=1)
    kernel = jump_kernel(dec, alpha, pairs=pairs)
    d = grid.spacing * ks
    slope = np.polyfit(np.log(d), np.log(kernel.values), 1)[0]
    assert slope == pytest.approx(-(1 + 2 * alpha), abs=0.1)


def test_energy_form_vanishes_on_constants(dec_1d_bump):
    kernel = jump_kernel(dec_1d_bump, 0.5)
    u = np.ones(dec_1d_bump.node_count)
    v = np.sin(np.arange(16.0))
    assert energy_form(kernel, u, v) == 0.0
    assert energy_form(kernel, v, u) == 0.0


def test_energy_form_symmetric_nonnegative(dec_1d_bump):
    kernel = jump_kernel(dec_1d_bump, 0.5)
    rng = np.random.default_rng(30)
    for _ in range(10):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        assert energy_form(kernel, u, v) == pytest.approx(energy_form(kernel, v, u))
        assert energy_form(kernel, u, u) >= 0.0


@pytest.mark.parametrize("N", [16, 32])
def test_energy_form_agrees_with_spectral_pairing(N):
    # E(u, v) = <A^a u, v>_w holds at quadrature accuracy on every grid
    # (the kernel completions make the defect h-independent), so refinement
    # keeps the agreement instead of revealing a discretization order.
    grid = build_grid(1, 4.0, N)
    met = make_metric(grid, ConformalBump(1, beta=0.6, sigma=0.5, center=(2.0,), r0=1.5))
    dec = decompose(assemble_laplacian(met))
    rng = np.random.default_rng(31)
    u = rng.standard_normal(grid.node_count)
    v = rng.standard_normal(grid.node_count)
    for alpha in (0.25, 0.5, 0.75):
        kernel = jump_kernel(dec, alpha)
        lhs = energy_form(kernel, u, v)
        rhs = weighted_inner(frac_apply_spectral(dec, alpha, u), v, met.measure())
        assert lhs == pytest.approx(rhs, rel=5e-6)


def test_energy_dominates_fourier_seminorm():
    # E(u,u) >= c * sum_k |sym_k|^a |u_hat_k|^2 (discrete H^a seminorm);
    # on the identity metric both sides coincide, bumps only raise the energy.
    N, L, alpha = 32, 4.0, 0.5
    grid = build_grid(1, L, N)
    h = L / N
    sym = 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(N) / N)) / h**2
    rng = np.random.default_rng(33)
    for profile in (IdentityMetric(1), ConformalBump(1, beta=0.6, sigma=0.5, center=(2.0,), r0=1.5)):
        met = make_metric(grid, profile)
        dec = decompose(assemble_laplacian(met))
        kernel = jump_kernel(dec, alpha)
        for _ in range(10):
            u = rng.standard_normal(N)
            uhat = np.fft.fft(u)
            seminorm = (h / N) * np.sum(sym**alpha * np.abs(uhat) ** 2)
            assert energy_form(kernel, u, u) >= 0.9 * seminorm


# ----------------------------------------------------------------------
# quadrature helper


def test_log_uniform_window():
    quad = LogQuadrature.log_uniform()
    assert quad.t_min == pytest.approx(1e-8)
    assert quad.t_max == pytest.approx(1e4)
    assert len(quad) == 400


def test_log_uniform_integrates_power_law():
    # int_a^b t^{-3/2} dt = 2 (a^{-1/2} - b^{-1/2}); exponential in log t
    quad = LogQuadrature.log_uniform(1e-6, 1e2, 600)
    approx = quad.integrate(quad.nodes ** (-1.5))
    exact = 2.0 * (quad.t_min ** (-0.5) - quad.t_max ** (-0.5))
    assert approx == pytest.approx(exact, rel=1e-4)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t_min=1e-3, t_max=1e-4, count=50),  # reversed window
        dict(t_min=0.0, t_max=1.0, count=50),
        dict(t_min=1e-3, t_max=1.0, count=1),
    ],
)
def test_log_uniform_rejects_bad_windows(kwargs):
    with pytest.raises(ValueError):
        LogQuadrature.log_uniform(**kwargs)
