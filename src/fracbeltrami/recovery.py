"""Gauge obstruction and the exterior heat-data test.

Two questions sit on top of the exterior measurement maps.  First, how much
can exterior data possibly determine?  Interior diffeomorphisms that fix the
exterior pointwise change the metric but not a single measurement, so the
answer is "the metric up to such pullbacks" at best; this module builds the
closed-form diffeomorphism family and the pulled-back metrics that exhibit
the obstruction, together with a paired refinement experiment showing the
measured defect of a gauge pair is pure discretisation error (it shrinks
under refinement) while the defect of a genuinely different pair is not.

Second, how is equality of data exploited?  Matching exterior
source-to-solution records force the heat semigroup differences

    U(t, x) = (e^{t Lap_1} - e^{t Lap_2}) F~ (x)

to vanish at exterior observation points, and with them the heat kernels
at exterior pairs (``spectral.heat_kernel`` reads those off each
decomposition, the records off ``exterior.poisson_solve``); a weighted
moment vector

    mu_m = int U(t, x) t^{-1-a-m} dt,   m = 0 .. M,

over a log-time window turns that into a finite, quantitative test.
Moments are linear in U, so their raw size says nothing by itself; every
moment is reported relative to the same weighted integral of a reference
signal (the single-metric heat trace), which is what makes "vanishing" a
scale-free verdict.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    _compact_cutoff,
    build_grid,
    make_metric,
)
from .quadrature import LogQuadrature
from .exterior import RegionSpec, dtn_matrix
from .spectral import (
    SpectralDecomposition,
    _check_alpha,
    _check_integers,
    _heat_series,
    _node_indices,
    assemble_laplacian,
    decompose,
)

__all__ = [
    "RadialSquash",
    "PullbackProfile",
    "heat_difference_trace",
    "MomentTable",
    "moment_vector",
    "heat_moment_table",
    "vanishing_test",
    "DtNComparisonReport",
    "dtn_difference_experiment",
    "gauge_experiment",
]


# ----------------------------------------------------------------------
# interior diffeomorphisms and metric pullback
#
# The family is radial around a centre c:  Phi(x) = c + lam(r) (x - c) with
# lam(r) = 1 + s b(q), q = (r/R)^2 and b the compact cutoff exp(1 - 1/(1-q)).
# Outside radius R the map is exactly the identity, so pulling back by Phi
# never touches exterior data.  Writing rho(r) = lam(r) r for the radial
# action, the Jacobian is
#
#     Phi'(x) = lam I + (lam'(r)/r) d d^T,        d = x - c,
#
# with eigenvalues lam (tangential, d-1 times) and rho'(r) = lam + (lam'/r) r^2
# (radial).  Since b'(q) = -b(q)/(1-q)^2,
#
#     lam'(r)/r = -2 s b(q) / (R^2 (1-q)^2),
#
# which is analytic at r = 0, so the Jacobian formula needs no special case
# on the axis.  Phi is an orientation-preserving bijection of the ball iff
# both eigenvalues stay positive.  lam >= min(1, 1 + s) as b lies in [0, 1],
# and rho' = 1 + s g(q) with g = b h, h = 1 - 2q/(1-q)^2: g(0) = 1 is its
# maximum, and g' = -b (h + 2(1+q)/(1-q)) / (1-q)^2 vanishes where
# q^2 + 4q - 3 = 0, at its minimum g* = g(q*) = -1.50114, q* = sqrt(7) - 2.
# So Phi is a diffeomorphism iff  -1 < s < -1/g* = 0.66616.

_Q_STAR = math.sqrt(7.0) - 2.0
_G_STAR = float(_compact_cutoff(_Q_STAR)) * (1.0 - 2.0 * _Q_STAR
                                             / (1.0 - _Q_STAR) ** 2)


@dataclasses.dataclass(frozen=True)
class RadialSquash:
    """Radial diffeomorphism equal to the identity outside ``radius``.

    ``strength`` > 0 pushes mass outward (the ball is inflated near the
    centre), negative values pull it in.  The map is a diffeomorphism iff
    -1 < ``strength`` < -1/g* = 0.66616 (the closed form above), where the
    tangential stretch 1 + s and the least radial stretch 1 + s g* stay
    positive; construction refuses any other strength, NaN included.
    """

    dim: int
    center: tuple
    radius: float
    strength: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.center) != self.dim:
            raise ValueError(f"center has {len(self.center)} components, "
                             f"expected {self.dim}")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got "
                             f"{self.radius}")
        object.__setattr__(self, "center",
                           tuple(float(c) for c in self.center))
        worst = min(1.0 + self.strength, 1.0 + self.strength * _G_STAR)
        if not worst > 1e-9:
            raise ValueError(
                f"strength {self.strength} is not a diffeomorphism: it must "
                f"lie in (-1, {-1.0 / _G_STAR:.5f}), where the tangential "
                f"and radial stretches stay positive")

    def _shape(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lam, lam'(r)/r) at q = (r/R)^2; b is an exact zero outside the
        support, so there they are (1, 0)."""
        b = _compact_cutoff(q)
        qi = np.clip(q, 0.0, 1.0 - 1e-12)
        return (1.0 + self.strength * b,
                -2.0 * self.strength * b / (self.radius ** 2 * (1.0 - qi) ** 2))

    def pullback(self, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Phi(x) - x, Phi'(x)) at displacements ``delta`` (M, dim) of x from
        the centre: an exact zero and I outside the support."""
        lam, slope = self._shape((delta ** 2).sum(axis=1) / self.radius ** 2)
        return ((lam - 1.0)[:, None] * delta,
                lam[:, None, None] * np.eye(self.dim)
                + slope[:, None, None] * delta[:, :, None] * delta[:, None, :])

    def stretch_factors(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tangential, radial) stretch at radii r: (lam(r), rho'(r))."""
        r = np.asarray(r, dtype=float)
        lam, slope = self._shape((r / self.radius) ** 2)
        return lam, lam + slope * r ** 2


@dataclasses.dataclass(frozen=True)
class PullbackProfile:
    """Metric profile ``Phi^* g``: sample ``Phi'(x)^T g(Phi(x)) Phi'(x)``.

    The map ``squash`` is any object with four members: ``dim``, ``center``,
    ``radius`` (Phi is the identity farther than that from ``center``) and
    ``pullback(delta)``, which returns (Phi(x) - x, Phi'(x)) at the nodes'
    displacements ``delta`` from the centre; ``RadialSquash`` is one.  The
    base reads Phi(x) as c -> displace(c) + (Phi(x) - x), which adds an exact
    zero outside the map's support: the pulled-back profile matches ``base``
    exactly outside both supports -- gauge pairs share exterior data to the
    bit.
    """

    base: object
    squash: object

    def __post_init__(self):
        base_dim = getattr(self.base, "dim", None)
        if base_dim is not None and base_dim != self.squash.dim:
            raise ValueError(f"base profile dim {base_dim} != squash dim "
                             f"{self.squash.dim}")

    @property
    def dim(self) -> int:
        return self.squash.dim

    @property
    def r0(self) -> float:
        return max(self.squash.radius,
                   float(getattr(self.base, "r0", 0.0) or 0.0))

    def sample(self, displace) -> np.ndarray:
        moved, jac = self.squash.pullback(displace(self.squash.center))
        g = np.asarray(self.base.sample(lambda c: displace(c) + moved), float)
        return _matmul(np.swapaxes(jac, 1, 2), _matmul(g, jac))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 1 x 1 or 2 x 2 matrices, each entry summed in index
    order, which the grid symmetries only negate in pairs or reorder."""
    dims = range(a.shape[-1])
    return np.stack([np.stack([sum(a[:, i, k] * b[:, k, j] for k in dims)
                               for j in dims], axis=1) for i in dims], axis=1)


# ----------------------------------------------------------------------
# heat semigroup differences observed from outside


def _observation_guards(dec1: SpectralDecomposition,
                        dec2: SpectralDecomposition, F: np.ndarray,
                        x_index: int) -> tuple[np.ndarray, int]:
    """Shared checks for exterior heat observation: geometry must be honest.

    The observation node must be a node index, checked like every node
    array the package is given (``spectral._node_indices``: a float or a
    bool is refused, not truncated), and lie outside the source support; both
    metrics must agree node-exactly on the support and at the observer --
    otherwise the difference conflates interior structure with trivially
    different data.
    """
    if dec1.grid != dec2.grid:
        raise ValueError("the two decompositions must share a grid")
    F = np.asarray(F, dtype=float)
    if F.shape != (dec1.node_count,):
        raise ValueError("source must be a full node vector")
    support = np.flatnonzero(F != 0.0)
    x_index = int(_node_indices(x_index, dec1.node_count, "observation index"))
    if x_index in support:
        raise ValueError("observation point must lie outside the source "
                         "support")
    if not dec1.metric.restricted_equal(dec2.metric,
                                        np.append(support, x_index)):
        raise ValueError(
            "the metrics disagree on the source support / observation set; "
            "the comparison is only defined for metrics sharing their "
            "exterior data")
    return F, x_index


def heat_difference_trace(dec1: SpectralDecomposition,
                          dec2: SpectralDecomposition, F: np.ndarray,
                          x_index: int, t):
    """U(t, x) = (e^{t Lap_1} - e^{t Lap_2}) F (x) for an exterior observer.

    ``t`` may be a scalar or an array; the result matches its shape.  Each
    decomposition is read at the support of F and at x only, so one that
    holds those rows alone (``decompose(op, nodes=...)``) serves.
    """
    F, x_index = _observation_guards(dec1, dec2, F, x_index)
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0):
        raise ValueError("heat trace requires t >= 0")
    out = (_heat_series(dec1, dec1.project(F), x_index, t_arr)
           - _heat_series(dec2, dec2.project(F), x_index, t_arr))
    return float(out) if np.ndim(t) == 0 else out


# ----------------------------------------------------------------------
# the moment vector and its vanishing test


@dataclasses.dataclass(frozen=True)
class MomentTable:
    """Weighted time moments of a signal over a fixed log window.

    ``moments[m] = int U(t) t^{-1-alpha-m} dt`` for m = 0..M, evaluated on
    the stored quadrature; ``scales[m]`` is the same integral of |reference|
    and turns each moment into the dimensionless ``normalized()`` entry.
    Raw samples of U at the nodes are kept so the direct smallness of the
    signal can be judged alongside its moments.
    """

    alpha: float
    moments: np.ndarray
    scales: np.ndarray
    t_nodes: np.ndarray
    samples: np.ndarray
    reference_peak: float
    x_index: int | None = None

    @property
    def order_count(self) -> int:
        return len(self.moments)

    @property
    def window(self) -> tuple[float, float]:
        return float(self.t_nodes[0]), float(self.t_nodes[-1])

    def normalized(self) -> np.ndarray:
        """|mu_m| / scale_m with 0/0 read as 0 and x/0 as inf."""
        mag = np.abs(self.moments)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = mag / self.scales
        return np.where(self.scales > 0.0,
                        out, np.where(mag > 0.0, np.inf, 0.0))

    def direct_ratio(self) -> float:
        """Peak |U| on the window relative to the reference peak."""
        peak = float(np.max(np.abs(self.samples), initial=0.0))
        if self.reference_peak > 0.0:
            return peak / self.reference_peak
        return math.inf if peak > 0.0 else 0.0


def moment_vector(values: np.ndarray, alpha: float, M: int,
                  quad: LogQuadrature, *, reference: np.ndarray | None = None,
                  x_index: int | None = None) -> MomentTable:
    """The moment vector of a signal U over the window ``quad``.

    ``values`` and ``reference`` are U and the reference signal sampled at
    the window's nodes ``quad.nodes``.  The weight t^{-1-alpha-m} makes the
    small-t edge dangerous: a signal that has not decayed by ``t_min`` is
    amplified by up to t_min^{-1-alpha-M}, so ``LogQuadrature.moments``
    rejects the combination before it can overflow, with instructions to
    widen the window or lower the order M.  Without a ``reference`` all
    scales are 1 and the moments are raw.
    """
    _check_alpha(alpha, allow_one=False)
    _check_integers([M], "moment count M (a non-negative integer)")
    if M < 0:
        raise ValueError(f"moment count M must be a non-negative integer, "
                         f"got {M}")
    t = quad.nodes
    values = np.array(values, dtype=float)
    if values.shape != t.shape:
        raise ValueError(f"samples of shape {values.shape} do not match the "
                         f"window's nodes, shape {t.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("samples hold non-finite values on the window")
    exponents = -1.0 - alpha - np.arange(M + 1, dtype=float)
    moments = quad.moments(values, exponents)
    if reference is not None:
        ref = np.asarray(reference, dtype=float)
        if ref.shape != t.shape or not np.all(np.isfinite(ref)):
            raise ValueError("reference must be finite samples at the "
                             "window's nodes")
        scales = quad.moments(np.abs(ref), exponents)
        peak = float(np.max(np.abs(ref), initial=0.0))
    else:
        scales = np.ones(M + 1)
        peak = 1.0
    return MomentTable(alpha=float(alpha), moments=moments, scales=scales,
                       t_nodes=t.copy(), samples=values,
                       reference_peak=peak, x_index=x_index)


# the window of every heat moment table, and its highest order
_HEAT_WINDOW = LogQuadrature.log_uniform(5e-2, 1e3, 400)
_HEAT_ORDER = 8


def heat_moment_table(dec1: SpectralDecomposition,
                      dec2: SpectralDecomposition, alpha: float,
                      F: np.ndarray, x_index: int) -> MomentTable:
    """Moment table of the heat-semigroup difference seen at one node.

    The reference scale is the single-metric heat trace (e^{-t A_1} F)(x):
    moments are linear in U, so only this relative size distinguishes "zero
    up to discretisation" from "small because the experiment was small".
    Each trace is sampled once, the first also serving as the reference.

    The table holds the orders m = 0..8 on 400 nodes from t = 0.05 to 1e3.
    The window starts no lower: with separated source and observer, the
    discrete traces below the diffusion time are pure floating-point
    cancellation (~1e-16), and the t^{-1-alpha-m} weights turn that noise
    into the dominant contribution of every high-order moment -- the
    noise/noise ratio is O(1) and does not shrink under refinement.
    """
    F, x_index = _observation_guards(dec1, dec2, F, x_index)
    t = _HEAT_WINDOW.nodes
    u1 = _heat_series(dec1, dec1.project(F), x_index, t)
    u2 = _heat_series(dec2, dec2.project(F), x_index, t)
    return moment_vector(u1 - u2, alpha, _HEAT_ORDER, _HEAT_WINDOW,
                         reference=u1, x_index=x_index)


def vanishing_test(table: MomentTable, threshold: float) -> bool:
    """Whether the signal behind ``table`` vanishes at the threshold (PASS).

    Both the largest normalised moment and the direct peak ratio must fall
    below ``threshold``; moments alone could be blind to a signal the
    weights happen to cancel.  Adding more orders can only raise the
    maximum, so enlarging M never flips a FAIL into a PASS.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    worst = float(np.max(table.normalized(), initial=0.0))
    return bool(worst < threshold and table.direct_ratio() < threshold)


# ----------------------------------------------------------------------
# paired refinement experiments on the DtN maps


@dataclasses.dataclass(frozen=True)
class DtNComparisonReport:
    """Refinement study of || (Lambda_a - Lambda_b) f || on the window W2.

    ``errors[i]`` is the largest weighted-L2 defect over the datum family
    at ``sizes[i]``; ``signals[i]`` the matching size of Lambda_a f itself.
    ``operator_defects[i]`` is the data-free defect

        || W2^{1/2} (Lambda_a - Lambda_b) W1^{1/2} ||_2
            / || W2^{1/2} Lambda_a W1^{1/2} ||_2 ,

    the relative operator norm between the weighted L2 spaces of the two
    windows (W1, W2 the diagonal node weights there), so no choice of datum
    enters it.  A pair "measures the same" when the finest relative datum
    defect is at noise level or the datum defect keeps shrinking like
    discretisation error.
    """

    alpha: float
    sizes: tuple
    errors: np.ndarray
    signals: np.ndarray
    operator_defects: np.ndarray
    passed: bool

    @property
    def ratios(self) -> np.ndarray:
        errs = self.errors
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = errs[:-1] / errs[1:]
        return np.where(errs[1:] > 0.0, raw, np.inf)

    @property
    def relative_errors(self) -> np.ndarray:
        return self.errors / np.maximum(self.signals, 1e-300)


def dtn_difference_experiment(alpha: float, region: RegionSpec, profile_a,
                              profile_b, f_list: Sequence[Callable], *,
                              side_length: float,
                              sizes: tuple = (24, 48)) -> DtNComparisonReport:
    """Measure the partial-DtN defect of two metric profiles under refinement.

    The datum family must be callables on coordinates: refinement re-samples
    each datum on every grid, so node-aligned arrays cannot travel between
    sizes.  The profiles must agree node-exactly on the exterior of every
    grid -- otherwise the defect mixes interior structure with trivially
    different boundary data and the experiment means nothing.  ``sizes``
    must be integers that strictly increase: a ladder that does not refine
    judges nothing.

    Each size measures the partial map of each metric as its |W2| x |W1|
    matrix Lambda (``exterior.dtn_matrix``).  Lambda reads the eigenbasis
    only on Omega, W1 and W2 (``ExteriorConfig.partial_map_nodes``), so
    each metric is decomposed on those rows alone, and no M x M basis is
    built: metric a is decomposed, its Lambda_a read off and the
    decomposition dropped before metric b is decomposed, so one
    decomposition is alive at a time.  The data, sampled on W1 as the
    columns of F, are measured as Lambda_a F and Lambda_b F, and the
    data-free defect comes from the two matrices.
    """
    _check_alpha(alpha, allow_one=False)
    if len(sizes) < 2:
        raise ValueError("need at least two grid sizes to judge refinement")
    _check_integers(sizes, "every grid size")
    if any(coarse >= fine for coarse, fine in zip(sizes, sizes[1:])):
        raise ValueError(f"grid sizes must strictly increase to judge "
                         f"refinement, got {tuple(sizes)}")
    if not f_list:
        raise ValueError("need at least one datum")
    for f in f_list:
        if not callable(f):
            raise TypeError("data must be callables on coordinates; "
                            "refinement re-samples them per grid")
    errors = []
    signals = []
    operator_defects = []
    for n in sizes:
        grid = build_grid(region.dim, side_length, int(n))
        metric_a = make_metric(grid, profile_a)
        metric_b = make_metric(grid, profile_b)
        config = region.build(grid)
        if not metric_a.restricted_equal(metric_b, config.exterior_nodes):
            raise ValueError(f"profiles disagree on the exterior at size {n}")
        coords = grid.coordinates()[config.w1_nodes]
        data = np.empty((len(config.w1_nodes), len(f_list)))
        for j, f in enumerate(f_list):
            datum = np.asarray(f(coords), dtype=float)
            if datum.shape != (len(config.w1_nodes),):
                raise ValueError(f"datum returned shape {datum.shape}, "
                                 f"expected ({len(config.w1_nodes)},)")
            data[:, j] = datum
        # each decomposition is a temporary, freed once its Lambda is read,
        # so the second eigensolve never runs beside the first eigenbasis
        nodes = config.partial_map_nodes
        lam_a = dtn_matrix(decompose(assemble_laplacian(metric_a), nodes=nodes),
                           alpha, config)
        lam_b = dtn_matrix(decompose(assemble_laplacian(metric_b), nodes=nodes),
                           alpha, config)
        # the windows lie in the exterior, where the two metrics agree
        weights = metric_a.measure().node_weights
        w1, w2 = weights[config.w1_nodes], weights[config.w2_nodes]
        out_a = lam_a @ data
        diff = out_a - lam_b @ data
        errors.append(float(np.sqrt(w2 @ diff ** 2).max()))
        signals.append(float(np.sqrt(w2 @ out_a ** 2).max()))
        root = np.sqrt(w2)[:, None] * np.sqrt(w1)
        operator_defects.append(float(np.linalg.norm(root * (lam_a - lam_b), 2)
                                      / np.linalg.norm(root * lam_a, 2)))
    errors = np.asarray(errors)
    signals = np.asarray(signals)
    rel = errors / np.maximum(signals, 1e-300)
    # judge the ladder by its total shrink factor (3x per refinement step):
    # pre-asymptotic steps may individually fall short while the defect is
    # plainly collapsing, and a genuine metric difference meets neither bar
    total = errors[0] / errors[-1] if errors[-1] > 0.0 else math.inf
    passed = bool(rel.max() < 1e-10 or total >= 3.0 ** (len(sizes) - 1))
    return DtNComparisonReport(alpha=float(alpha), sizes=tuple(sizes),
                               errors=errors, signals=signals,
                               operator_defects=np.asarray(operator_defects),
                               passed=passed)


def gauge_experiment(alpha: float, region: RegionSpec, g2_profile,
                     squash: RadialSquash, f_list: Sequence[Callable], *,
                     side_length: float,
                     sizes: tuple = (24, 48)) -> DtNComparisonReport:
    """Refinement study of the DtN defect between g and its gauge pullback.

    In the continuum the defect is exactly zero; on a grid it is pure
    discretisation error, so ``passed`` asserts it shrinks under refinement
    the way no genuine metric difference does.
    """
    pulled = PullbackProfile(base=g2_profile, squash=squash)
    return dtn_difference_experiment(alpha, region, g2_profile, pulled,
                                     f_list, side_length=side_length,
                                     sizes=sizes)
