"""Log-spaced quadrature for semigroup-in-time integrals."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = ["LogQuadrature"]


@dataclasses.dataclass(frozen=True)
class LogQuadrature:
    """Composite trapezoid rule in log-time for ``∫ f(t) t^e dt`` on ``[t_min, t_max]``.

    Nodes are geometrically spaced and the weights carry the Jacobian ``t``
    of the substitution ``t = exp(l)``.  Every semigroup time integral of
    the package (the Balakrishnan weights, the jump kernel, the extension
    representation and its normal series, the heat moment tables) samples a
    heat factor on the nodes and contracts it through ``moments``, the one
    place that applies the weights.  Those integrands are analytic in a
    strip around the real log-time axis, so where they are negligible at
    both window ends the composite trapezoid rule converges geometrically
    in the node count; where they are not, the end error is second order in
    the log step.
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
    def log_uniform(cls, t_min: float = 1e-8, t_max: float = 1e4,
                    count: int = 400) -> "LogQuadrature":
        """Default window: 400 log-uniform nodes on [1e-8, 1e4]."""
        if not 0.0 < t_min < t_max:
            raise ValueError(f"need 0 < t_min < t_max, got [{t_min}, {t_max}]")
        if count < 2:
            raise ValueError("count must be at least 2")
        ell = np.linspace(math.log(t_min), math.log(t_max), count)
        step = ell[1] - ell[0]
        w = np.full(count, step)
        w[0] *= 0.5
        w[-1] *= 0.5
        t = np.exp(ell)
        return cls(nodes=t, weights=w * t)

    def moments(self, values: np.ndarray, exponents) -> np.ndarray:
        """``sum_q w_q t_q^e values[..., q]`` for each exponent ``e``.

        Nodes run along the last axis of ``values``; the result has shape
        ``values.shape[:-1] + np.shape(exponents)``.  Terms are formed in log
        space, since ``t**e`` overflows at the small-t edge for strongly
        negative ``e`` even where the sample is zero (inf * 0); a term beyond
        e^600 means the window amplifies small-t samples into garbage and is
        rejected with advice.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != self.nodes.shape:
            raise ValueError("integrand sampled on a different node set")
        exponents = np.asarray(exponents, dtype=float)
        with np.errstate(divide="ignore"):
            base_log = np.log(np.abs(values)) + np.log(self.weights)
        contrib = (base_log[..., None, :]
                   + np.multiply.outer(exponents.ravel(), np.log(self.nodes)))
        if contrib.max() > 600.0:
            *lead, e, q = np.unravel_index(int(np.argmax(contrib)), contrib.shape)
            raise ValueError(
                f"signal at t = {self.nodes[q]:.3e} is too large "
                f"({values[(*lead, q)]:.3e}) for the weight "
                f"t^({exponents.flat[e]:.2f}); widen the window or lower "
                "the order")
        out = np.copysign(np.exp(contrib), values[..., None, :]).sum(axis=-1)
        return out.reshape(values.shape[:-1] + exponents.shape)
