"""Output checks of the benchmark, one per workload.

Each check judges an output against an identity of the discrete method or
against the paper's other route, computed apart from the output itself;
none compares with stored numbers.  Every check returns a dict of the
figures it looked at plus ``ok``.
"""

from __future__ import annotations

import numpy as np

# The gauge defect at the finest size must sit at least this factor below
# the distinct one; the method gives about 27 at (24, 48).
GAUGE_SEPARATION = 10.0
# Weighted DtN symmetry holds to <= 7e-11 at N = 48 with the CG solves of
# the exterior layer (relative residual 1e-12).
SYMMETRY_TOL = 1e-9
# Weighted relative error of the mixed extension trace against the spectral
# exterior solve at N = 32, P = 48: about 5e-4.
TRACE_TOL = 2e-3


def gauge_check(report) -> dict:
    """A gauge pair must measure the same: the experiment reports PASS."""
    rel = report.relative_errors
    return {"ok": bool(report.passed), "passed": bool(report.passed),
            "errors": report.errors.tolist(), "relative_errors": rel.tolist()}


def distinct_check(report, gauge_report) -> dict:
    """A distinct pair must not measure the same, and its finest defect must
    sit well above the gauge pair's from the same round."""
    rel = report.relative_errors
    gauge_rel = float(gauge_report.relative_errors[-1])
    separated = bool(rel[-1] > GAUGE_SEPARATION * gauge_rel)
    return {"ok": (not report.passed) and separated,
            "passed": bool(report.passed), "errors": report.errors.tolist(),
            "relative_errors": rel.tolist(),
            "separation": float(rel[-1] / gauge_rel) if gauge_rel > 0 else float("inf")}


def symmetry_check(lam_12: np.ndarray, lam_21: np.ndarray,
                   w_1: np.ndarray, w_2: np.ndarray) -> dict:
    """Weighted DtN symmetry  w_W2 * Lambda^{W1->W2} = (w_W1 * Lambda^{W2->W1})^T.

    ``lam_12[i, j]`` is the output at W2 node i for the unit datum at W1
    node j; ``lam_21`` the same with the windows swapped.
    """
    left = w_2[:, None] * lam_12
    right = (w_1[:, None] * lam_21).T
    if left.shape != right.shape:
        return {"ok": False, "symmetry_residual": float("inf")}
    residual = float(np.linalg.norm(left - right) / np.linalg.norm(left))
    return {"ok": residual <= SYMMETRY_TOL, "symmetry_residual": residual}


def trace_check(trace: np.ndarray, reference: np.ndarray, weights: np.ndarray,
                omega: np.ndarray, exterior_nodes: np.ndarray,
                f_exterior: np.ndarray) -> dict:
    """The z = 0 trace of the mixed extension solve against the spectral
    exterior Dirichlet solve on Omega, and the exact exterior data."""
    diff = trace[omega] - reference[omega]
    w = weights[omega]
    error = float(np.sqrt(w @ diff ** 2 / (w @ reference[omega] ** 2)))
    exact = bool(np.array_equal(trace[exterior_nodes], f_exterior))
    return {"ok": error <= TRACE_TOL and exact, "trace_error": error,
            "exterior_exact": exact}
