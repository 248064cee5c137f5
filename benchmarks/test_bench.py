"""Tests of the benchmark itself: every check rejects a broken output, and
every workload runs end to end at a small size.

    python3 -m pytest -q benchmarks

The repository's own suite collects only tests/, so these stay out of it.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "gauge-ladder-2d": lambda: workloads.GaugeLadder(seed=3, sizes=(16, 48)),
    "dtn-sweep-2d": lambda: workloads.DtnSweep(seed=3, n=24),
    "mixed-extension-2d": lambda: workloads.MixedExtension(seed=3, n=16),
}


@pytest.fixture(scope="module")
def sweep_pair():
    wl = SMALL["dtn-sweep-2d"]()
    state = wl.setup()
    op = wl.round(state)[3]
    pair = op.run()
    w = state["dec"].measure.node_weights
    return pair, w[state["config"].w1_nodes], w[state["config"].w2_nodes]


def test_symmetry_check_accepts_the_method(sweep_pair):
    (lam_12, lam_21), w1, w2 = sweep_pair
    out = checks.symmetry_check(lam_12, lam_21, w1, w2)
    assert out["ok"], out


def test_symmetry_check_rejects_a_perturbed_matrix(sweep_pair):
    (lam_12, lam_21), w1, w2 = sweep_pair
    bad = lam_12.copy()
    bad[3, 5] *= 1.0 + 1e-6
    assert not checks.symmetry_check(bad, lam_21, w1, w2)["ok"]


def test_symmetry_check_rejects_a_transposed_matrix(sweep_pair):
    (lam_12, lam_21), w1, w2 = sweep_pair
    assert not np.allclose(lam_12, lam_12.T)
    assert not checks.symmetry_check(lam_12.T, lam_21, w1, w2)["ok"]
    assert not checks.symmetry_check(lam_12, lam_21.T, w1, w2)["ok"]


@pytest.fixture(scope="module")
def mixed():
    wl = SMALL["mixed-extension-2d"]()
    state = wl.setup()
    op = wl.round(state)[0]
    return op, op.run(), state


def test_trace_check_accepts_the_method(mixed):
    op, field, _ = mixed
    out = op.check(field)
    assert out["ok"], out


def test_trace_check_rejects_an_injected_error(mixed):
    _, field, state = mixed
    config = state["config"]
    om, ex = config.omega_nodes, config.exterior_nodes
    trace = field.boundary_values().copy()
    trace[om[len(om) // 2]] += 0.05 * np.abs(trace[om]).max()
    out = checks.trace_check(trace, state["reference"],
                             state["dec"].measure.node_weights, om, ex, state["f"])
    assert not out["ok"] and out["exterior_exact"]
    trace = field.boundary_values().copy()
    trace[ex[0]] = np.nextafter(trace[ex[0]], np.inf)
    out = checks.trace_check(trace, state["reference"],
                             state["dec"].measure.node_weights, om, ex, state["f"])
    assert not out["ok"] and not out["exterior_exact"]


@pytest.fixture(scope="module")
def verdicts():
    wl = SMALL["gauge-ladder-2d"]()
    ops = wl.round(wl.setup())
    return [op.run() for op in ops]


def test_gauge_checks_accept_the_method(verdicts):
    gauge, distinct = verdicts
    assert checks.gauge_check(gauge)["ok"]
    assert checks.distinct_check(distinct, gauge)["ok"]


def test_gauge_checks_reject_swapped_verdicts(verdicts):
    gauge, distinct = verdicts
    assert not checks.gauge_check(dataclasses.replace(gauge, passed=False))["ok"]
    assert not checks.distinct_check(dataclasses.replace(distinct, passed=True),
                                     gauge)["ok"]
    # the two reports handed over in the wrong order
    assert not checks.gauge_check(distinct)["ok"]
    assert not checks.distinct_check(gauge, distinct)["ok"]


def test_distinct_check_needs_separation_from_the_gauge_defect(verdicts):
    gauge, distinct = verdicts
    close = dataclasses.replace(gauge, errors=distinct.errors / 2.0,
                                signals=distinct.signals)
    assert not checks.distinct_check(distinct, close)["ok"]


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace):
    wl = SMALL[name]()
    wl.setups = 2
    result, record = run.measure(wl, 0.0, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(record["operations"]) >= 1
    names = set(result["metrics"])
    if trace:
        assert names == set(run.LAYER_METRICS) | {
            "trace.op_s_p50", "trace.overhead_pct"}
        assert record["rounds"] == 2 and record["spans"]
    else:
        assert names == {"setup_s", "op_s_p50", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in result["metrics"].values())
