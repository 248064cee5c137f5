"""Flat periodic grids, Riemannian metric fields and weighted node measures.

Everything downstream (Laplacians, heat kernels, fractional powers) lives on
a uniform grid over the torus ``[0, L)^n`` for ``n in {1, 2}``.  A metric is
sampled node-wise from a smooth profile; the associated volume weights
``w_i = sqrt(det g(x_i)) * h^n`` turn plain vectors into elements of the
weighted L2 space in which all operators below are self-adjoint.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

__all__ = [
    "TorusGrid",
    "MetricField",
    "WeightedMeasure",
    "IdentityMetric",
    "ConformalBump",
    "ConformalRescale",
    "AnisotropicBump",
    "build_grid",
    "make_metric",
    "weighted_inner",
    "weighted_norm",
    "wrap_displacement",
]


def wrap_displacement(delta: np.ndarray, side_length: float) -> np.ndarray:
    """Reduce coordinate differences to the minimal periodic image."""
    delta = np.asarray(delta, dtype=float)
    return delta - side_length * np.round(delta / side_length)


@dataclasses.dataclass(frozen=True)
class TorusGrid:
    """Uniform grid with ``points_per_side**dim`` nodes on ``[0, L)^dim``.

    Nodes are ordered C-style (last axis fastest); node ``i`` sits at
    ``coordinates()[i]``, and profiles and balls read it through
    :meth:`displacement`.  ``points_per_side`` must be even and at least 4:
    the per-axis Fourier modes (``spectral._axis_modes``) include the
    self-conjugate frequency N/2, and the stencil's offsets -1, 0 and +1
    along an axis must reach distinct nodes, so that the dense form read
    off the stencil table lists every entry once.
    """

    dim: int
    side_length: float
    points_per_side: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not self.side_length > 0:
            raise ValueError("side_length must be positive")
        n = self.points_per_side
        if n < 4 or n % 2 != 0:
            raise ValueError(f"points_per_side must be even and >= 4, got {n}")

    @property
    def spacing(self) -> float:
        return self.side_length / self.points_per_side

    @property
    def shape(self) -> tuple:
        return (self.points_per_side,) * self.dim

    @property
    def node_count(self) -> int:
        return self.points_per_side ** self.dim

    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape (node_count, dim)."""
        idx = np.indices(self.shape).reshape(self.dim, -1).T
        return idx * self.spacing

    def displacement(self, center: Sequence[float]) -> np.ndarray:
        """Minimal periodic displacement (node_count, dim) of every node from
        ``center``: i - c N / L in node units, wrapped mod N, times h once.
        A mirror or the transposition about a grid node or cell centre maps
        it exactly, so profiles sampled from it keep the grid's symmetries
        to the bit (:func:`make_metric`)."""
        n = self.points_per_side
        steps = (np.indices(self.shape).reshape(self.dim, -1).T
                 - np.asarray(center, float) * n / self.side_length)
        return wrap_displacement(steps, n) * self.spacing

    def distance_to(self, point: Sequence[float]) -> np.ndarray:
        """Torus distance from every node to ``point``."""
        return np.sqrt((self.displacement(point) ** 2).sum(axis=1))

    def pair_distance(self, i, j) -> np.ndarray:
        """Torus distance between node indices ``i`` and ``j`` (arrays ok)."""
        idx = np.indices(self.shape).reshape(self.dim, -1).T
        steps = wrap_displacement(idx[np.asarray(i)] - idx[np.asarray(j)],
                                  self.points_per_side)
        return np.sqrt((steps ** 2).sum(axis=-1)) * self.spacing


def build_grid(dim: int, side_length: float, points_per_side: int) -> TorusGrid:
    return TorusGrid(dim=dim, side_length=side_length,
                     points_per_side=points_per_side)


# --------------------------------------------------------------------------
# metric profiles
#
# A profile is any object with ``sample(displace) -> (M, d, d)`` returning
# symmetric positive-definite tensors, ``displace(center)`` being the (M, d)
# displacement of the sample points from ``center``.  The two bump families
# read it as r^2 = d0^2 + d1^2 and are exact identity outside radius r0:
# the cutoff exp(1 - 1/(1 - (r/r0)^2)) is smooth, equals 1 at r = 0 and
# vanishes with all derivatives at r0.


def _compact_cutoff(r2_over_r02: np.ndarray) -> np.ndarray:
    q = np.asarray(r2_over_r02, dtype=float)
    out = np.zeros_like(q)
    inside = q < 1.0
    # guard the exponent against overflow right at the support edge
    qi = np.clip(q[inside], 0.0, 1.0 - 1e-12)
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - qi))
    return out


def _bump_factor(r2: np.ndarray, sigma: float, r0: float) -> np.ndarray:
    """Gaussian interior shape scaled by a compactly supported cutoff."""
    return np.exp(-r2 / (2.0 * sigma ** 2)) * _compact_cutoff(r2 / r0 ** 2)


@dataclasses.dataclass(frozen=True)
class IdentityMetric:
    dim: int

    def sample(self, displace) -> np.ndarray:
        m = displace((0.0,) * self.dim).shape[0]
        return np.broadcast_to(np.eye(self.dim), (m, self.dim, self.dim)).copy()


class _BumpFactor:
    """Parameter checks and the factor 1 + beta * bump(r) of the bump
    profiles, with r the wrapped distance to ``center`` and the support
    radius ``_bump_r0`` (the profile's ``r0`` unless it says otherwise)."""

    @property
    def _bump_r0(self) -> float:
        return self.r0

    def __post_init__(self):
        if not self.beta > -1.0:
            raise ValueError(f"bump amplitude beta must exceed -1 for ellipticity, got {self.beta}")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not self._bump_r0 > 0.0:
            raise ValueError("support radius r0 must be positive")
        if len(self.center) != self.dim:
            raise ValueError(f"center has {len(self.center)} components, expected {self.dim}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def _factor(self, displace) -> np.ndarray:
        delta = displace(self.center)
        r2 = (delta ** 2).sum(axis=1)
        return 1.0 + self.beta * _bump_factor(r2, self.sigma, self._bump_r0)


@dataclasses.dataclass(frozen=True)
class ConformalBump(_BumpFactor):
    """Metric ``(1 + beta * bump(r)) * I`` around ``center``.

    ``bump`` equals 1 at the center (so g = (1+beta) I there), has Gaussian
    interior shape of width ``sigma`` and is exactly zero for r >= r0.
    """

    dim: int
    beta: float
    sigma: float
    center: tuple
    r0: float

    def sample(self, displace) -> np.ndarray:
        return self._factor(displace)[:, None, None] * np.eye(self.dim)


@dataclasses.dataclass(frozen=True)
class ConformalRescale(_BumpFactor):
    """Metric ``(1 + beta * bump(r)) * g_base`` for any base profile.

    Multiplies an existing metric by a localized conformal factor; with
    ``beta = 0.1`` this is "the base metric with a 10% conformal bump".
    The factor's own support radius is ``bump_r0``; the combined ``r0``
    reported to the wrap guard covers base and factor.
    """

    base: object
    beta: float
    sigma: float
    center: tuple
    bump_r0: float

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def r0(self) -> float:
        return max(self.bump_r0, float(getattr(self.base, "r0", 0.0) or 0.0))

    @property
    def _bump_r0(self) -> float:
        return self.bump_r0

    def sample(self, displace) -> np.ndarray:
        return self._factor(displace)[:, None, None] * np.asarray(
            self.base.sample(displace), float)


@dataclasses.dataclass(frozen=True)
class AnisotropicBump(_BumpFactor):
    """Metric scaling a single coordinate direction: g_aa = 1 + beta * bump(r)."""

    dim: int
    beta: float
    sigma: float
    center: tuple
    r0: float
    axis: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.axis < self.dim:
            raise ValueError(f"axis {self.axis} out of range for dim {self.dim}")

    def sample(self, displace) -> np.ndarray:
        factor = self._factor(displace)
        g = np.broadcast_to(np.eye(self.dim),
                            (factor.size, self.dim, self.dim)).copy()
        g[:, self.axis, self.axis] = factor
        return g


# --------------------------------------------------------------------------
# sampled metric fields and measures


@dataclasses.dataclass(frozen=True)
class MetricField:
    """Node-sampled metric: tensors, inverses and volume densities."""

    grid: TorusGrid
    tensor: np.ndarray          # (M, dim, dim)
    inverse_tensor: np.ndarray  # (M, dim, dim)
    sqrt_det: np.ndarray        # (M,)

    def measure(self) -> "WeightedMeasure":
        h = self.grid.spacing
        return WeightedMeasure(node_weights=self.sqrt_det * h ** self.grid.dim)

    def restricted_equal(self, other: "MetricField", nodes: np.ndarray) -> bool:
        """Bitwise agreement of two fields on an index set: the tensors,
        their inverses and the volume densities, which the stencil and the
        weights are read from."""
        return self.grid == other.grid and all(
            np.array_equal(mine[nodes], theirs[nodes])
            for mine, theirs in ((self.tensor, other.tensor),
                                 (self.inverse_tensor, other.inverse_tensor),
                                 (self.sqrt_det, other.sqrt_det)))


@dataclasses.dataclass(frozen=True)
class WeightedMeasure:
    node_weights: np.ndarray

    @property
    def total(self) -> float:
        return float(self.node_weights.sum())


def make_metric(grid: TorusGrid, profile) -> MetricField:
    """Sample a metric profile at the grid nodes and validate it.

    The profile reads ``grid.displacement``.  det g and g^{-1} =
    adj(g) / sqrt(det g) / sqrt(det g) are the 1 x 1 and 2 x 2 closed forms,
    which the grid symmetries only permute within products and commutative
    sums, so a symmetric sample stays symmetric to the bit; adj(g) / det g
    would not keep a 2-d conformal metric's stencil constant.

    Raises ``ValueError`` if the sampled tensors are not finite, symmetric
    and positive definite, or if the profile's support radius does not fit
    strictly inside half a period (the bump must not wrap onto itself).
    """
    r0 = getattr(profile, "r0", None)
    if r0 is not None and not r0 < grid.side_length / 2.0:
        raise ValueError(
            f"support radius {r0} must be < half the side length "
            f"{grid.side_length / 2.0}")
    g = np.asarray(profile.sample(grid.displacement), float)
    if g.shape != (grid.node_count, grid.dim, grid.dim):
        raise ValueError(f"profile returned shape {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("profile returned non-finite metric samples")
    if not np.allclose(g, np.swapaxes(g, 1, 2), atol=1e-12):
        raise ValueError("metric tensors must be symmetric")
    eigs = np.linalg.eigvalsh(g)
    if eigs.min() <= 1e-12:
        raise ValueError(
            f"metric not uniformly elliptic (min eigenvalue {eigs.min():.3e})")
    if grid.dim == 1:
        det, adjugate = g[:, 0, 0], np.ones_like(g)
    else:
        det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
        adjugate = np.stack([g[:, 1, 1], -g[:, 0, 1], -g[:, 1, 0], g[:, 0, 0]],
                            axis=1).reshape(g.shape)
    root = np.sqrt(det)[:, None, None]
    return MetricField(grid=grid, tensor=g, inverse_tensor=adjugate / root / root,
                       sqrt_det=root[:, 0, 0])


def weighted_inner(u: np.ndarray, v: np.ndarray,
                   measure: WeightedMeasure) -> float:
    """Weighted inner product sum(u * v * w)."""
    return float(np.dot(np.asarray(u) * measure.node_weights, np.asarray(v)))


def weighted_norm(u: np.ndarray, measure: WeightedMeasure) -> float:
    return math.sqrt(max(weighted_inner(u, u, measure), 0.0))
