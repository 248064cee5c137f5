"""Log-spaced quadrature for semigroup-in-time integrals."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = ["LogQuadrature"]

@dataclasses.dataclass(frozen=True)
class LogQuadrature:
    """Trapezoid rule in log-time for ``∫ f(t) t^e dt``.

    Nodes are geometrically spaced and the weights carry the Jacobian ``t``
    of the substitution ``t = exp(s)``.  Every semigroup time integral of
    the package (the Balakrishnan weights, the jump kernel, the extension
    representation and its normal series, the heat moment tables) samples a
    heat factor on the nodes and contracts it through ``moments``, the one
    place that applies the weights.  ``log_uniform`` is the composite rule on
    a given window; ``semigroup`` is the rule for integrals over all of
    (0, inf), whose window is read off the spectrum and whose end sums
    continue the trapezoid past both ends, so it converges geometrically.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if nodes.size < 2:
            raise ValueError("quadrature needs at least two nodes")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ValueError("nodes and weights must be finite")
        if nodes[0] <= 0 or np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be positive and strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def t_min(self) -> float:
        return float(self.nodes[0])

    @property
    def t_max(self) -> float:
        return float(self.nodes[-1])

    def __len__(self) -> int:
        return self.nodes.size

    @classmethod
    def log_uniform(cls, t_min: float, t_max: float,
                    count: int) -> "LogQuadrature":
        """``count`` log-uniform nodes on [t_min, t_max], half weights at the ends.

        The step is linspace's own, (log t_max - log t_min)/(count - 1); a
        difference of two neighbouring log-nodes of size ~40 would carry
        their roundoff, ~1e-14 of the step, into every weight.
        """
        if not 0.0 < t_min < t_max < math.inf:
            raise ValueError(f"need 0 < t_min < t_max < inf, got [{t_min}, {t_max}]")
        if count < 2:
            raise ValueError("count must be at least 2")
        ell = np.linspace(math.log(t_min), math.log(t_max), count)
        step = (ell[-1] - ell[0]) / (count - 1)
        w = np.full(count, step)
        w[0] *= 0.5
        w[-1] *= 0.5
        t = np.exp(ell)
        return cls(nodes=t, weights=w * t)

    @classmethod
    def semigroup(cls, spectrum: np.ndarray, left: float,
                  right: float) -> "LogQuadrature":
        """Rule for ``∫_0^inf f(t) dt`` over the heat factors of ``spectrum``.

        Nodes run log-uniformly, with log step h <= 1/4, from 1e-17/lam_max,
        where e^{-lam t} is 1 - lam t to the last bit, to 40/lam_1 (lam_1 the
        least positive eigenvalue), where it is below e^{-40}.  Past each end
        the log-time integrand t f(t) decays like e^{-c |s - s_end|}, with
        c = ``left`` or ``right`` (``inf``: negligible), and the trapezoid
        sum continued over that tail gives the end weight h/(1 - e^{-c h}):
        the trapezoid's h/2 plus (h/2) coth(c h/2).  For integrands analytic
        in |Im s| < pi/2 the aliasing error is e^{-pi^2/h} ~ 7e-18, so the
        rule is exact to roundoff.
        """
        lam = np.asarray(spectrum, dtype=float)
        positive = lam[lam > 0]
        if not (positive.size and np.isfinite(lam).all() and left > 0 and right > 0):
            raise ValueError("need a finite spectrum with a positive eigenvalue "
                             f"and positive end rates, got {left}, {right}")
        t_min, t_max = 1e-17 / positive.max(), 40.0 / positive.min()
        count = math.ceil(4.0 * math.log(t_max / t_min)) + 1
        step = (math.log(t_max) - math.log(t_min)) / (count - 1)
        quad = cls.log_uniform(t_min, t_max, count)
        weights = quad.weights.copy()
        weights[[0, -1]] *= [-2.0 / math.expm1(-c * step) for c in (left, right)]
        return cls(nodes=quad.nodes, weights=weights)

    def moments(self, values: np.ndarray, exponents) -> np.ndarray:
        """``sum_q w_q t_q^e values[..., q]`` for each exponent ``e``.

        Nodes run along the last axis of ``values``; the result has shape
        ``values.shape[:-1] + np.shape(exponents)``.  Each term is the
        product v (w t^e), and a zero sample contributes exactly zero even
        where ``t**e`` overflows at the small-t edge for strongly negative
        ``e`` (inf * 0).  A term beyond e^600, judged in log space first,
        means the window amplifies small-t samples into garbage and is
        rejected with advice.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != self.nodes.shape:
            raise ValueError("integrand sampled on a different node set")
        exponents = np.asarray(exponents, dtype=float)
        log_factor = (np.log(self.weights)
                      + np.multiply.outer(exponents.ravel(), np.log(self.nodes)))
        with np.errstate(divide="ignore"):
            contrib = np.log(np.abs(values))[..., None, :] + log_factor
        if contrib.max() > 600.0:
            *lead, e, q = np.unravel_index(int(np.argmax(contrib)), contrib.shape)
            raise ValueError(
                f"signal at t = {self.nodes[q]:.3e} is too large "
                f"({values[(*lead, q)]:.3e}) for the weight "
                f"t^({exponents.flat[e]:.2f}); widen the window or lower "
                "the order")
        with np.errstate(over="ignore"):
            factor = self.weights * self.nodes ** exponents.reshape(-1, 1)
        sample = values[..., None, :]
        terms = np.multiply(sample, factor, out=np.zeros(contrib.shape),
                            where=sample != 0.0)
        return terms.sum(axis=-1).reshape(values.shape[:-1] + exponents.shape)
