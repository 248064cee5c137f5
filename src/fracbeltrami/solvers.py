"""Conjugate gradients for the matrix-free extension solve.

The graded-mesh system of ``extension.fd_extension_solve`` is symmetric
positive definite and applied only through its stencil, so it is solved
iteratively; the exterior layer's interior blocks are small and dense and
are solved directly.

Hand-rolled on purpose: the iteration is tiny, and owning it keeps the
energy decrease observable through the callback (preconditioned CG
minimizes the quadratic J(x) = x'Sx/2 - b'x over growing Krylov spaces, so
J is strictly decreasing -- a cheap structural sanity check on the
assembled forms).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


def conjugate_gradient(matvec: Callable[[np.ndarray], np.ndarray],
                       b: np.ndarray,
                       precondition: Callable[[np.ndarray], np.ndarray],
                       rtol: float = 1e-9,
                       max_iter: int = 5000,
                       callback: Callable[[np.ndarray], None] | None = None,
                       ) -> tuple[np.ndarray, int, float]:
    """Preconditioned CG for S x = b: returns (x, iterations, relative residual).

    ``precondition`` applies an SPD approximation of S^{-1} to a residual;
    ``np.copy`` gives plain CG.  The stopping test and the returned residual
    are those of S x = b itself, ||b - S x|| / ||b||.  Raises ValueError
    at once if ||b|| is not finite, and RuntimeError as soon as the
    residual is not (a non-finite value from ``matvec`` or
    ``precondition``), or if it has not dropped below rtol * ||b|| after
    max_iter iterations.
    """
    b = np.asarray(b, float)
    x = np.zeros_like(b)
    b_norm = math.sqrt(float(b @ b))
    if not math.isfinite(b_norm):
        raise ValueError(f"conjugate gradients needs a finite right-hand "
                         f"side, got ||b|| = {b_norm}")
    if b_norm == 0.0:
        return x, 0, 0.0
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rr = float(r @ r)
    rz = float(r @ z)
    for k in range(1, max_iter + 1):
        Sp = matvec(p)
        alpha = rz / float(p @ Sp)
        x += alpha * p
        r -= alpha * Sp
        rr = float(r @ r)
        if not math.isfinite(rr):
            raise RuntimeError(f"conjugate gradients broke down: residual "
                               f"norm {math.sqrt(rr)} at iteration {k}")
        if callback is not None:
            callback(x)
        if math.sqrt(rr) <= rtol * b_norm:
            return x, k, math.sqrt(rr) / b_norm
        z = precondition(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise RuntimeError(
        f"conjugate gradients stalled: residual {math.sqrt(rr) / b_norm:.3e} "
        f"after {max_iter} iterations (target {rtol:.1e})")
