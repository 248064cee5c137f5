"""Extension module: Bessel profiles, the graded-mesh FEM solve of the
degenerate problem, and the heat-kernel representation with its normal
series."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fracbeltrami.geometry import (
    ConformalBump,
    IdentityMetric,
    build_grid,
    make_metric,
    weighted_norm,
)
from fracbeltrami.exterior import RegionSpec, solve_exterior_dirichlet
from fracbeltrami.recovery import PullbackProfile, RadialSquash
from fracbeltrami.solvers import conjugate_gradient
from fracbeltrami.spectral import assemble_laplacian, decompose, frac_apply_spectral
from fracbeltrami.extension import (
    ExtensionMesh,
    _flat_modes,
    bessel_k,
    d_alpha,
    extend_dirichlet,
    fd_extension_solve,
    graded_mesh,
    mode_profile,
    neumann_trace,
    representation_solution,
    series_coefficients,
)

BUMP_1D = ConformalBump(1, beta=0.6, sigma=0.5, center=(2.0,), r0=1.5)


@pytest.fixture(scope="module")
def dec_bump():
    grid = build_grid(1, 4.0, 32)
    return decompose(assemble_laplacian(make_metric(grid, BUMP_1D)))


@pytest.fixture(scope="module")
def dec_identity_wide():
    grid = build_grid(1, 8.0, 64)
    return decompose(assemble_laplacian(make_metric(grid, IdentityMetric(1))))


def _mean_zero(dec, u):
    w = dec.measure.node_weights
    return u - np.dot(w, u) / w.sum()


# ----------------------------------------------------------------------
# Bessel kernel


def test_bessel_half_order_closed_form():
    # K_{1/2}(z) = sqrt(pi/2z) e^{-z}
    z = np.array([0.1, 0.5, 1.0, 3.0, 20.0])
    assert_allclose(bessel_k(0.5, z), np.sqrt(np.pi / (2 * z)) * np.exp(-z),
                    rtol=1e-12)
    assert bessel_k(0.5, 1.0) == pytest.approx(0.46106850444789454, rel=1e-12)


def test_bessel_small_argument_limit():
    # z^a K_a(z) -> 2^{a-1} Gamma(a), approached like (z/2)^{2a}
    a = 0.25
    limit = 2.155800549540928
    dev = np.array([abs(z**a * bessel_k(a, z) - limit) / limit
                    for z in (1e-6, 1e-8)])
    assert dev[0] < 2.0 * (0.5e-6) ** (2 * a)
    assert dev[1] < 2.0 * (0.5e-8) ** (2 * a)


def test_bessel_large_argument_asymptotic():
    # leading asymptotic sqrt(pi/2z) e^{-z} is within 3% at z = 40
    for a in (0.25, 0.75):
        lead = math.sqrt(math.pi / 80.0) * math.exp(-40.0)
        assert bessel_k(a, 40.0) == pytest.approx(lead, rel=0.03)


@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_bessel_against_library(a):
    # independent route: scipy's kv, over both evaluation branches
    z = np.geomspace(1e-6, 50.0, 200)
    assert_allclose(bessel_k(a, z), scipy.special.kv(a, z), rtol=1e-10)


def test_bessel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_k(0.5, 0.0)
    with pytest.raises(ValueError):
        bessel_k(0.5, -1.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, 1.0)


# ----------------------------------------------------------------------
# trace constant and mode profile


def test_trace_constant_values():
    assert d_alpha(0.5) == pytest.approx(1.0, abs=1e-15)
    assert d_alpha(0.25) == pytest.approx(0.4779887974861251, rel=1e-14)
    assert d_alpha(0.75) == pytest.approx(2.092099240106203, rel=1e-14)


def test_profile_normalization_and_zero_mode():
    lam = np.array([0.0, 1.7, 9.0])
    prof0 = mode_profile(0.35, lam, 0.0)
    assert_allclose(prof0, 1.0, atol=1e-14)
    # zero mode extends constantly
    assert mode_profile(0.35, 0.0, 7.3) == 1.0


def test_profile_half_alpha_exponential():
    lam, z = np.meshgrid([0.5, 2.0, 11.0], [0.0, 0.3, 1.5, 6.0], indexing="ij")
    assert_allclose(mode_profile(0.5, lam, z), np.exp(-np.sqrt(lam) * z),
                    rtol=1e-12, atol=1e-300)


def test_profile_small_z_expansion():
    # phi(z) = 1 - (Gamma(1-a)/Gamma(1+a)) (sqrt(lam) z/2)^{2a}
    #            + lam z^2/(4(1-a)) + O(z^{2+2a})
    a, lam = 0.25, 3.0
    z = np.array([1e-3, 5e-4, 2.5e-4])
    s = np.sqrt(lam) * z
    model = 1.0 - 1.3519564801345694 * (s / 2) ** (2 * a) + s**2 / (4 * (1 - a))
    err = np.abs(mode_profile(a, lam, z) - model)
    assert np.all(err < 2.0 * s ** (2 + 2 * a))


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.05, 0.95), lam=st.floats(1e-3, 1e3), z=st.floats(1e-6, 40.0))
def test_profile_bounded_and_decreasing(a, lam, z):
    lo, hi = mode_profile(a, lam, z), mode_profile(a, lam, 0.5 * z)
    assert 0.0 <= lo <= hi <= 1.0
    if math.sqrt(lam) * z < 600.0:  # below the documented underflow cutoff
        assert lo > 0.0


# ----------------------------------------------------------------------
# spectral extension and its Neumann trace


def test_extension_boundary_datum(dec_bump):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(dec_bump.node_count)
    sol = extend_dirichlet(dec_bump, 0.6, u)
    assert np.max(np.abs(sol.level_values(0.0) - u)) < 1e-10 * np.max(np.abs(u))
    # evaluator agrees with level restriction
    assert sol.evaluate(5, 0.8) == pytest.approx(sol.level_values(0.8)[5], abs=1e-14)


def test_constant_extends_constantly(dec_bump):
    sol = extend_dirichlet(dec_bump, 0.3, np.full(dec_bump.node_count, 2.5))
    for z in (0.0, 1.0, 10.0):
        assert_allclose(sol.level_values(z), 2.5, atol=1e-12)
    assert_allclose(neumann_trace(sol), 0.0, atol=1e-12)


def test_neumann_trace_matches_spectral_power(dec_bump):
    rng = np.random.default_rng(11)
    for alpha in (0.25, 0.5, 0.75):
        for _ in range(20):
            u = rng.standard_normal(dec_bump.node_count)
            tr = neumann_trace(extend_dirichlet(dec_bump, alpha, u))
            want = -d_alpha(alpha) * frac_apply_spectral(dec_bump, alpha, u)
            defect = weighted_norm(tr - want, dec_bump.measure)
            assert defect < 1e-8 * weighted_norm(u, dec_bump.measure)


def test_numeric_mode_trace_recovers_constant(dec_bump):
    # independent route to d_a: the weighted difference quotient
    # 2a (phi(z1) - phi(0)) / z1^{2a} tends to -d_a lam^a with corrections
    # O(z^{2-2a}) + O(z^2); Richardson over a halving z-sequence removes both.
    for alpha in (0.25, 0.5, 0.75):
        lam = dec_bump.eigenvalues[1:]
        z1 = 1e-3 / np.sqrt(lam)  # scale-matched start keeps cancellation mild
        ratios = []
        for j in range(6):
            z = z1 * 0.5**j
            prof = mode_profile(alpha, lam, z)
            ratios.append(2 * alpha * (prof - 1.0) / z ** (2 * alpha))
        f = np.stack(ratios)
        for expo in (2.0 - 2.0 * alpha, 2.0):
            f = (f[1:] * 2.0**expo - f[:-1]) / (2.0**expo - 1.0)
        ratio = f[-1] / lam**alpha
        # mode-independence of the limit, and the Bessel-oracle constant
        assert np.max(np.abs(ratio - ratio[0])) < 1e-8 * abs(ratio[0])
        assert np.max(np.abs(ratio + d_alpha(alpha))) < 1e-8 * d_alpha(alpha)
        if alpha == 0.5:
            assert np.max(np.abs(ratio + 1.0)) < 1e-10


# ----------------------------------------------------------------------
# graded mesh and the graded-mesh FEM solve


def test_mesh_invariants(dec_bump):
    mesh = graded_mesh(dec_bump, 0.25)
    assert mesh.heights[0] == 0.0
    assert np.all(np.diff(mesh.heights) > 0)
    assert mesh.grading >= 1.0
    lam1 = dec_bump.eigenvalues[1]
    assert mesh.height >= 5.0 / math.sqrt(lam1)
    with pytest.raises(ValueError):
        graded_mesh(dec_bump, 0.25, height=1.0 / math.sqrt(lam1))
    with pytest.raises(ValueError):
        ExtensionMesh(alpha=0.5, heights=np.array([0.0, 2.0, 1.0]), grading=1.0)
    with pytest.raises(ValueError):
        ExtensionMesh(alpha=0.5, heights=np.array([0.1, 0.2, 0.3]), grading=1.0)


def test_mesh_conductance_exact_on_flux_solution():
    # the pure-flux solution A + B z^{2a} has constant weighted flux 2aB;
    # harmonic-mean conductances reproduce it exactly on any mesh
    a = 0.3
    mesh = ExtensionMesh(alpha=a, heights=np.array([0.0, 0.1, 0.5, 1.3, 2.0]),
                         grading=1.0)
    u = 1.7 + 0.9 * mesh.heights ** (2 * a)
    flux = mesh.conductances() * np.diff(u)
    assert_allclose(flux, 2 * a * 0.9, rtol=1e-13)


@pytest.mark.parametrize("n", [4, 6, 16])
@pytest.mark.parametrize("dim", [1, 2])
def test_flat_modes_diagonalise_the_euclidean_stencil(dim, n):
    # the preconditioner's closed-form mu must be the symbol of the stencil
    # that apply_form applies, or the flat inverse is no longer exact
    grid = build_grid(dim, 4.0, n)
    op = assemble_laplacian(make_metric(grid, IdentityMetric(dim)))
    to_modes, to_nodes, mu = _flat_modes(grid)
    eye = np.eye(grid.node_count)
    basis = to_nodes(eye).T  # column k is mode k at the nodes
    assert np.abs(to_modes(eye) - basis).max() <= 1e-15
    assert np.abs(basis.T @ basis - eye).max() <= 1e-13
    stiffness = basis.T @ op.apply_form(eye) @ basis
    assert np.abs(stiffness - np.diag(mu)).max() <= 1e-13 * mu.max()


def test_fd_zero_data_gives_zero_field(dec_bump):
    mesh = graded_mesh(dec_bump, 0.5, count=24)
    n = dec_bump.node_count
    fld = fd_extension_solve(dec_bump, 0.5, mesh, np.arange(n), np.array([], int),
                             np.zeros(n), np.array([]))
    assert fld.iterations == 0
    assert np.all(fld.values == 0.0)


def test_fd_rejects_bad_partitions(dec_bump):
    mesh = graded_mesh(dec_bump, 0.5, count=24)
    n = dec_bump.node_count
    with pytest.raises(ValueError):
        fd_extension_solve(dec_bump, 0.5, mesh, np.arange(n), np.array([0]),
                           np.zeros(n), np.zeros(1))
    with pytest.raises(ValueError):
        fd_extension_solve(dec_bump, 0.5, mesh, np.arange(n - 1), np.array([], int),
                           np.zeros(n - 1), np.array([]))
    with pytest.raises(ValueError):  # mesh graded for a different power
        fd_extension_solve(dec_bump, 0.25, mesh, np.arange(n), np.array([], int),
                           np.zeros(n), np.array([]))


def test_fd_rejects_a_repeated_node(dec_bump):
    # counted once, the repeated node 4 would pass as a partition and its
    # trace would silently read the last datum, 7
    mesh = graded_mesh(dec_bump, 0.5, count=24)
    n = dec_bump.node_count
    with pytest.raises(ValueError, match="dirichlet_nodes and neumann_nodes "
                                         "must partition"):
        fd_extension_solve(dec_bump, 0.5, mesh, np.r_[np.arange(4, n), 4],
                           np.arange(4), np.r_[np.ones(n - 4), 7.0],
                           np.zeros(4))


def test_fd_rejects_a_node_off_the_grid(dec_bump):
    mesh = graded_mesh(dec_bump, 0.5, count=24)
    n = dec_bump.node_count
    with pytest.raises(ValueError, match=rf"must lie in \[0, {n}\)"):
        fd_extension_solve(dec_bump, 0.5, mesh, np.arange(4, n),
                           np.r_[np.arange(4), n], np.ones(n - 4), np.zeros(5))


def test_fd_rejects_non_integer_nodes(dec_bump):
    # numpy would truncate ex + 0.9 and om + 0.3 to the partition and solve
    # on it; a boolean mask would read as the nodes 0 and 1
    mesh = graded_mesh(dec_bump, 0.5, count=24)
    n = dec_bump.node_count
    ex, om = np.arange(4, n), np.arange(4)
    mask = np.arange(n) < 4
    for nodes, name in (((ex + 0.9, om), "dirichlet_nodes"),
                        ((ex, om + 0.3), "neumann_nodes"),
                        ((ex, mask), "neumann_nodes")):
        with pytest.raises(ValueError, match=f"{name} must be integer node "
                                             "indices.*flatnonzero"):
            fd_extension_solve(dec_bump, 0.5, mesh, *nodes, np.ones(n - 4),
                               np.zeros(len(nodes[1])))


@pytest.mark.parametrize("which", ["dirichlet", "neumann"])
def test_fd_rejects_non_finite_data_at_once(dec_bump, which):
    # unchecked, one inf runs all 20000 CG iterations and then reports a
    # stall with residual nan; the check names the nodes and comes before
    # any arithmetic, so no RuntimeWarning is raised first
    mesh = graded_mesh(dec_bump, 0.5, count=24)
    n = dec_bump.node_count
    ex, om = np.arange(4, n), np.arange(4)
    f_d, f_n = np.ones(n - 4), np.zeros(4)
    if which == "dirichlet":
        f_d[[3, 9]] = np.inf, -np.inf
        nodes = r"f_dirichlet must be finite; it is not at the nodes \[7, 13\]"
    else:
        f_n[2] = np.nan
        nodes = r"f_neumann must be finite; it is not at the nodes \[2\]"
    with pytest.raises(ValueError, match=nodes):
        fd_extension_solve(dec_bump, 0.5, mesh, ex, om, f_d, f_n)


def _smooth_datum(dec):
    x = dec.grid.coordinates()[:, 0]
    L = dec.grid.side_length
    u = np.cos(2 * np.pi * x / L) + 0.3 * np.sin(4 * np.pi * x / L)
    # mean-free data keep the decaying-mode error visible (the constant mode
    # is exact under the reflecting cap and would otherwise dominate norms)
    return _mean_zero(dec, u)


def test_fd_cap_treatment_of_constants(dec_bump):
    # the half-space extension carries constants unchanged; the reflecting
    # cap reproduces that exactly
    n = dec_bump.node_count
    c = np.full(n, 1.8)
    mesh = graded_mesh(dec_bump, 0.5, count=32)
    fld = fd_extension_solve(dec_bump, 0.5, mesh, np.arange(n),
                             np.array([], int), c, np.array([]))
    assert_allclose(fld.values, 1.8, atol=2e-9)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_fd_dirichlet_matches_bessel_field(dec_bump, alpha):
    u = _smooth_datum(dec_bump)
    sol = extend_dirichlet(dec_bump, alpha, u)
    n = dec_bump.node_count
    errs = []
    for count in (48, 96, 192):
        mesh = graded_mesh(dec_bump, alpha, count=count)
        fld = fd_extension_solve(dec_bump, alpha, mesh, np.arange(n),
                                 np.array([], int), u, np.array([]))
        ref = sol.field(mesh.heights)
        errs.append(np.linalg.norm(fld.values - ref) / np.linalg.norm(ref))
    # default mesh (96) under the contract tolerance, refinement monotone
    # until the e^{-8} cap-truncation floor (~3e-4) takes over
    assert errs[1] < 1e-3
    assert errs[0] > errs[1] >= errs[2] - 5e-5


def test_fd_refinement_second_order(dec_bump):
    # with the cap pushed out the discretization error dominates and the
    # graded harmonic-conductance scheme is second order in the level count
    u = _smooth_datum(dec_bump)
    alpha = 0.5
    H = 16.0 / math.sqrt(dec_bump.eigenvalues[1])
    sol = extend_dirichlet(dec_bump, alpha, u)
    n = dec_bump.node_count
    errs = []
    for count in (48, 96, 192):
        mesh = graded_mesh(dec_bump, alpha, height=H, count=count)
        fld = fd_extension_solve(dec_bump, alpha, mesh, np.arange(n),
                                 np.array([], int), u, np.array([]))
        ref = sol.field(mesh.heights)
        errs.append(np.linalg.norm(fld.values - ref) / np.linalg.norm(ref))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_fd_mixed_problem_matches_bessel(dec_bump):
    # Dirichlet on even nodes, exact weighted flux on odd nodes: the mixed
    # solve must reproduce the same extension
    alpha = 0.5
    u = _smooth_datum(dec_bump)
    sol = extend_dirichlet(dec_bump, alpha, u)
    flux = neumann_trace(sol)
    n = dec_bump.node_count
    dir_nodes = np.arange(0, n, 2)
    neu_nodes = np.arange(1, n, 2)
    H = 16.0 / math.sqrt(dec_bump.eigenvalues[1])
    mesh = graded_mesh(dec_bump, alpha, height=H, count=96)
    energies = []

    def watch(xf, matvec, rhs):
        energies.append(0.5 * float(xf @ matvec(xf)) - float(rhs @ xf))

    fld = fd_extension_solve(dec_bump, alpha, mesh, dir_nodes, neu_nodes,
                             u[dir_nodes], flux[neu_nodes],
                             iteration_callback=watch)
    ref = sol.field(mesh.heights)
    assert np.linalg.norm(fld.values - ref) / np.linalg.norm(ref) < 2e-3
    assert fld.values[dir_nodes, 0] == pytest.approx(u[dir_nodes], abs=1e-14)
    # CG minimizes the quadratic over growing Krylov spaces: the discrete
    # energy must decrease strictly, iteration by iteration
    diffs = np.diff(np.asarray(energies))
    assert np.all(diffs <= 1e-12 * np.abs(energies[0]))


def test_fd_pure_neumann_compatibility(dec_bump):
    alpha = 0.5
    mesh = graded_mesh(dec_bump, alpha, count=48)
    n = dec_bump.node_count
    every = np.arange(n)
    with pytest.raises(ValueError):
        fd_extension_solve(dec_bump, alpha, mesh, np.array([], int), every,
                           np.array([]), np.ones(n))
    # a trace of a mean-free datum is weighted-mean-free, hence compatible;
    # the solution is then defined up to an additive constant (reflecting
    # cap), so align the free constant before comparing
    u = _smooth_datum(dec_bump)
    flux = neumann_trace(extend_dirichlet(dec_bump, alpha, u))
    fld = fd_extension_solve(dec_bump, alpha, mesh, np.array([], int), every,
                             np.array([]), flux)
    ref = extend_dirichlet(dec_bump, alpha, u).field(mesh.heights)
    diff = fld.values - ref
    diff -= diff.mean()
    assert np.linalg.norm(diff) / np.linalg.norm(ref) < 2e-2


BUMP_2D = ConformalBump(2, beta=0.5, sigma=0.3, center=(2.0, 2.0), r0=0.7)
SQUASH_2D = RadialSquash(dim=2, center=(2.0, 2.0), radius=0.7, strength=0.15)


PROFILES_2D = pytest.mark.parametrize("profile", [
    BUMP_2D, PullbackProfile(base=BUMP_2D, squash=SQUASH_2D)],
    ids=["conformal", "pullback"])
MIXED_REGION = RegionSpec(omega_center=(2.0, 2.0), omega_radius=0.8,
                          w1_center=(0.3, 2.0), w1_radius=0.3,
                          w2_center=(2.0, 0.3), w2_radius=0.3)


def _mixed_2d(profile, n, alpha=0.5, count=48):
    """Dirichlet data outside Omega and zero weighted flux on it, a = 1/2
    and P = 48 unless given: the solve's field and its z = 0 trace error on
    Omega against the spectral exterior solution, which the mixed problem
    reproduces."""
    grid = build_grid(2, 4.0, n)
    dec = decompose(assemble_laplacian(make_metric(grid, profile)))
    config = MIXED_REGION.build(grid)
    om, ex = config.omega_nodes, config.exterior_nodes
    x = grid.coordinates()[ex]
    f = np.cos(0.5 * np.pi * x[:, 0]) + 0.5 * np.sin(0.5 * np.pi * x[:, 1])
    mesh = graded_mesh(dec, alpha, count=count)
    fld = fd_extension_solve(dec, alpha, mesh, ex, om, f, np.zeros(len(om)))
    assert np.array_equal(fld.boundary_values()[ex], f)
    ref = solve_exterior_dirichlet(dec, alpha, config, f)
    w = dec.measure.node_weights[om]
    diff = fld.boundary_values()[om] - ref[om]
    return fld, math.sqrt(w @ diff**2 / (w @ ref[om] ** 2))


@pytest.mark.parametrize("profile", [
    BUMP_2D, PullbackProfile(base=BUMP_2D, squash=SQUASH_2D), IdentityMetric(dim=2)],
    ids=["conformal", "pullback", "euclidean"])
def test_fd_mixed_2d_matches_exterior_solve(profile):
    # the pullback metric has |g^{01}| up to 0.28, so the stencil's cross
    # terms are exercised
    fld, trace_error = _mixed_2d(profile, 16)
    assert trace_error <= 1e-3
    # the Euclidean preconditioner differs from the system only on the
    # metric's support, which leaves CG a few iterations (5, 7 and 1 here)
    assert fld.iterations <= 15


FLAT_CASES = [(dim, n, problem) for problem in ("mixed", "neumann")
              for dim, sizes in ((1, (16, 64)), (2, (8, 16, 22))) for n in sizes]


@pytest.mark.parametrize("dim, n, problem", FLAT_CASES,
                         ids=[f"{p}-{d}d-{n}" for d, n, p in FLAT_CASES])
def test_fd_flat_metric_preconditioner_is_exact(dim, n, problem):
    # for the Euclidean metric the preconditioner is the system's own
    # inverse, so CG stops after one step, on the mixed problem (Cholesky
    # factor of the Omega block) and on the pure-Neumann one (the level-0
    # symbol with mode 0 dropped) alike
    alpha = 0.5
    grid = build_grid(dim, 4.0, n)
    dec = decompose(assemble_laplacian(make_metric(grid, IdentityMetric(dim))))
    mesh = graded_mesh(dec, alpha, count=48)
    u = _smooth_datum(dec)
    every = np.arange(grid.node_count)
    if problem == "mixed":
        # Dirichlet data outside the ball of radius 0.8 about the centre
        om = np.flatnonzero(np.linalg.norm(grid.coordinates() - 2.0, axis=1) < 0.8)
        ex = np.setdiff1d(every, om)
        fld = fd_extension_solve(dec, alpha, mesh, ex, om, u[ex], np.zeros(len(om)))
    else:
        flux = neumann_trace(extend_dirichlet(dec, alpha, u))
        fld = fd_extension_solve(dec, alpha, mesh, np.array([], int), every,
                                 np.array([]), flux)
    assert fld.iterations == 1


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("count", [48, 768])
def test_fd_iterations_survive_steep_grading(alpha, count):
    # the grading z_p = H (p/P)^{4-2a} puts the first height at about
    # 1e-11 H at a = 0.1, P = 768, so the z-mass and the conductances span
    # many decades.  The preconditioner's z-systems are eliminated level by
    # level (Thomas), so the flat inverse stays exact however ill-conditioned
    # the z-pencil (K_z, M_z): 6/5, 5/2 and 4/1 iterations at P = 48/768.
    # Solving them in the pencil's eigenbasis instead agrees at P = 48 but
    # took about 1500 iterations at a = 0.1, P = 768, and 9 at a = 0.5
    fld, _ = _mixed_2d(BUMP_2D, 16, alpha=alpha, count=count)
    assert fld.iterations <= 8


@PROFILES_2D
def test_fd_mixed_iterations_flat_in_n(profile):
    counts = [_mixed_2d(profile, n)[0].iterations for n in (16, 24, 32)]
    assert max(counts) <= 10
    assert max(counts) <= 1.25 * min(counts)


# ----------------------------------------------------------------------
# heat-kernel representation and normal series


def _source(dec):
    x = dec.grid.coordinates()[:, 0]
    F = np.zeros(dec.node_count)
    mask = np.abs(x - 2.0) < 0.5
    F[mask] = np.cos(np.pi * (x[mask] - 2.0)) ** 2
    return F


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_representation_matches_neumann_solve(dec_identity_wide, alpha):
    # the constant 1/Gamma(a) is exact mode by mode,
    # int_0^inf e^{-lam t} t^{a-1} dt = Gamma(a) lam^{-a}, so every source
    # on the same decomposition matches its own Poisson solution
    dec = dec_identity_wide
    x = dec.grid.coordinates()[:, 0]
    for F in (_source(dec), _source(dec) * (x - 1.5)):
        w_ref = frac_apply_spectral(dec, 1.0 - alpha, F)
        scale = np.max(np.abs(w_ref))
        # 1.5 and 2.5 sit next to supp F, where H(x) = (A F)(x) != 0
        for target in (4.0, 5.5, 0.5, 1.5, 2.5):
            xi = int(np.argmin(np.abs(x - target)))
            val = representation_solution(dec, alpha, F, xi, 0.0)
            assert abs(val - w_ref[xi]) < 1e-12 * scale


def test_representation_rejects_support_points(dec_identity_wide):
    F = _source(dec_identity_wide)
    inside = int(np.flatnonzero(F)[0])
    with pytest.raises(ValueError):
        representation_solution(dec_identity_wide, 0.5, F, inside, 0.0)
    with pytest.raises(ValueError):
        representation_solution(dec_identity_wide, 0.5, F, 0, -0.1)


def test_representation_decays_far_out(dec_identity_wide):
    dec = dec_identity_wide
    F = _source(dec)
    x = dec.grid.coordinates()[:, 0]
    xi = int(np.argmin(np.abs(x - 3.5)))
    dist = 1.0  # support edge sits at x = 2.5
    vals = [abs(representation_solution(dec, 0.5, F, xi, z))
            for z in np.linspace(5 * dist, 8 * dist, 7)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_series_reproduces_representation(dec_identity_wide):
    dec = dec_identity_wide
    F = _source(dec)
    x = dec.grid.coordinates()[:, 0]
    xi = int(np.argmin(np.abs(x - 4.0)))
    for alpha in (0.25, 0.5, 0.75):
        sc = series_coefficients(dec, alpha, F, [xi], 8)
        assert sc.values.shape == (1, 9)
        z_q = sc.distances[0] / 4.0
        partial = sc.evaluate(z_q)[0]
        direct = representation_solution(dec, alpha, F, xi, z_q)
        assert abs(partial - direct) < 1e-6 * abs(direct)
        # j = 0 term is the boundary value itself
        assert sc.values[0, 0] == pytest.approx(
            representation_solution(dec, alpha, F, xi, 0.0), rel=1e-9)


def test_series_decay_steepens_with_distance(dec_identity_wide):
    # |C_j| carries a dist^{-2j} factor, so the fitted log-slope drops by
    # about 2 log(d_far/d_near) between the two stations
    dec = dec_identity_wide
    F = _source(dec)
    x = dec.grid.coordinates()[:, 0]
    near = int(np.argmin(np.abs(x - 3.5)))
    far = int(np.argmin(np.abs(x - 6.0)))
    sc = series_coefficients(dec, 0.5, F, [near, far], 8)
    assert sc.distances[1] > sc.distances[0]
    drop = sc.decay_slopes[0] - sc.decay_slopes[1]
    want = 2.0 * math.log(sc.distances[1] / sc.distances[0])
    assert drop == pytest.approx(want, rel=0.4)


@pytest.mark.parametrize("x", [40.6, True], ids=["float", "bool"])
def test_representation_readers_refuse_non_integer_nodes(dec_identity_wide, x):
    # a float node was truncated onto node 40 (series_coefficients) or
    # raised numpy's IndexError (representation_solution), and a bool was
    # read as node 1; both lie off supp F
    F = _source(dec_identity_wide)
    with pytest.raises(ValueError, match="x_index must be integer node indices"):
        representation_solution(dec_identity_wide, 0.5, F, x, 0.0)
    with pytest.raises(ValueError, match="x_indices must be integer node indices"):
        series_coefficients(dec_identity_wide, 0.5, F, [x], 4)


def test_representation_reads_supp_f_and_x_alone():
    # H's modes are lam_k <phi_k, F>_w, so a 2-d decomposition holding the
    # rows on supp F and at the stations alone serves both readers, and
    # both match the whole decomposition's within 1e-12; at z = 0 the
    # representation is the Poisson solution A^{1-a} F
    grid = build_grid(2, 4.0, 16)
    op = assemble_laplacian(make_metric(grid, ConformalBump(
        2, beta=0.6, sigma=0.5, center=(2.0, 2.0), r0=1.5)))
    d = grid.distance_to((0.75, 2.0))
    F = np.where(d < 0.5, np.cos(np.pi * d) ** 2, 0.0)
    stations = np.array([np.argmin(grid.distance_to(c))
                         for c in ((3.25, 2.0), (2.0, 3.25))])
    rows = decompose(op, nodes=np.union1d(np.flatnonzero(F), stations))
    whole = decompose(op)
    poisson = frac_apply_spectral(whole, 0.5, F)[stations]
    for x, want in zip(stations, poisson):
        got = [representation_solution(dec, 0.5, F, x, z)
               for dec in (rows, whole) for z in (0.0, 0.3)]
        assert abs(got[0] - got[2]) <= 1e-12 * abs(got[2])
        assert abs(got[1] - got[3]) <= 1e-12 * abs(got[3])
        assert abs(got[2] - want) <= 1e-12 * abs(want)
    got, want = (series_coefficients(dec, 0.5, F, stations, 4).values
                 for dec in (rows, whole))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_series_window_guard(dec_identity_wide):
    dec = dec_identity_wide
    F = _source(dec)
    x = dec.grid.coordinates()[:, 0]
    close = int(np.argmin(np.abs(x - 2.75)))  # one cell past the support
    with pytest.raises(ValueError, match="window"):
        series_coefficients(dec, 0.5, F, [close], 12)
    with pytest.raises(ValueError):
        series_coefficients(dec, 0.5, F, [close], 13)
    inside = int(np.flatnonzero(F)[0])
    with pytest.raises(ValueError):
        series_coefficients(dec, 0.5, F, [inside], 4)


# ----------------------------------------------------------------------
# shared CG kernel


def test_cg_matches_direct_solve():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((40, 40))
    s = m @ m.T + 40.0 * np.eye(40)
    b = rng.standard_normal(40)
    x, iters, res = conjugate_gradient(lambda v: s @ v, b, np.copy, rtol=1e-12)
    assert_allclose(x, np.linalg.solve(s, b), rtol=1e-9)
    assert 0 < iters <= 40 + 5
    assert res <= 1e-12


def test_cg_zero_rhs_and_stall():
    s = np.diag(np.geomspace(1.0, 1e8, 30))
    x, iters, _ = conjugate_gradient(lambda v: s @ v, np.zeros(30), np.copy)
    assert iters == 0 and np.all(x == 0.0)
    with pytest.raises(RuntimeError):
        conjugate_gradient(lambda v: s @ v, np.ones(30), np.copy, rtol=1e-14,
                           max_iter=3)


def test_cg_rejects_a_non_finite_system_at_once():
    # unchecked, a NaN or inf right-hand side, or a NaN the operator
    # returns, runs every iteration and then reports a stall
    s, b = _spd_system(9)
    for bad in (np.nan, np.inf):
        b_bad = b.copy()
        b_bad[5] = bad
        with pytest.raises(ValueError, match=r"finite right-hand side.*"
                                             f"{bad}"):
            conjugate_gradient(lambda v: s @ v, b_bad, np.copy)
    s_bad = s.copy()
    s_bad[3, 3] = np.nan
    calls = []
    with pytest.raises(RuntimeError, match="broke down: residual norm nan "
                                           "at iteration 1"):
        conjugate_gradient(lambda v: calls.append(1) or s_bad @ v, b, np.copy)
    assert len(calls) == 1


def _spd_system(seed, n=40):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    s = m @ m.T + np.diag(np.geomspace(1.0, 1e4, n))
    return s, rng.standard_normal(n)


def test_pcg_matches_direct_solve():
    s, b = _spd_system(6)
    inv_diag = 1.0 / np.diag(s)
    x, iters, res = conjugate_gradient(lambda v: s @ v, b, rtol=1e-12,
                                       precondition=lambda r: inv_diag * r)
    assert_allclose(x, np.linalg.solve(s, b), rtol=1e-9)
    assert 0 < iters <= 40 + 5
    assert res <= 1e-12


def test_pcg_exact_inverse_converges_at_once():
    s, b = _spd_system(7)
    inverse = np.linalg.inv(s)
    inverse = 0.5 * (inverse + inverse.T)
    x, iters, _ = conjugate_gradient(lambda v: s @ v, b, rtol=1e-9,
                                     precondition=lambda r: inverse @ r)
    assert iters == 1
    assert_allclose(x, np.linalg.solve(s, b), rtol=1e-9)


def test_pcg_reports_the_unpreconditioned_residual():
    # a preconditioner that shrinks residuals by 1e-6 must not make the
    # stopping test or the reported residual any easier to meet
    s, b = _spd_system(8)
    inv_diag = 1e-6 / np.diag(s)
    x, _, res = conjugate_gradient(lambda v: s @ v, b, rtol=1e-8,
                                   precondition=lambda r: inv_diag * r)
    explicit = np.linalg.norm(b - s @ x) / np.linalg.norm(b)
    assert res <= 1e-8
    assert res == pytest.approx(explicit, rel=1e-4)


def test_pcg_stall_raises():
    d = np.geomspace(1.0, 1e8, 30)
    s = np.diag(d)
    with pytest.raises(RuntimeError):
        conjugate_gradient(lambda v: s @ v, np.ones(30), rtol=1e-14, max_iter=3,
                           precondition=lambda r: r / np.sqrt(d))
