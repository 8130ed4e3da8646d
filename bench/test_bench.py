"""Self-tests of the benchmark, on tiny inputs (``--quick``).

    PYTHONPATH=src python -m pytest -q bench/
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import run
from compare import verdict
from harness import host_info
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 2017


@pytest.fixture(scope="module")
def host():
    run._use_checkout_package()
    return host_info(quick=True)


@pytest.fixture(scope="module")
def results(host):
    """One quick run per (workload, trace), made on first use."""
    cache = {}

    def get(workload: str, trace_on: bool) -> dict:
        key = (workload, trace_on)
        if key not in cache:
            result = run.run_workload(workload, SEED, 0.3, trace_on,
                                      quick=True, host=host)
            if trace_on:
                path = run.ROOT / result["details"]["chrome_trace"]
                result["events"] = json.loads(path.read_text())["traceEvents"]
            cache[key] = result
        return cache[key]

    return get


@pytest.mark.parametrize("trace_on", [False, True])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_listed_metric_is_emitted_with_its_unit(results, workload,
                                                      trace_on):
    result = results(workload, trace_on)
    listed = SPEC["per_layer" if trace_on else "end_to_end"]
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in listed}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("trace_on", [False, True])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_nothing_fails_at_seed(results, workload, trace_on):
    result = results(workload, trace_on)
    assert result["attempted"] > 0
    assert result["failed_frac"] == 0.0, result["errors"]
    assert result["correct"]


@pytest.mark.parametrize("workload",
                         ["graph-spmv", "scattered-batch", "plan-churn"])
def test_output_scaled_by_one_plus_1e_9_is_a_failure(monkeypatch, host,
                                                     workload):
    from repro.kernels.variants import ConfiguredSpMV

    def scaled(original):
        def apply(self, data, x, out=None, workspace=None):
            y = original(self, data, x, out=out, workspace=workspace)
            y *= 1.0 + 1e-9
            return y
        return apply

    monkeypatch.setattr(ConfiguredSpMV, "apply",
                        scaled(ConfiguredSpMV.apply))
    monkeypatch.setattr(ConfiguredSpMV, "apply_multi",
                        scaled(ConfiguredSpMV.apply_multi))
    result = run.run_workload(workload, SEED, 0.2, False, quick=True,
                              host=host)
    assert result["failed"] > 0
    assert not result["correct"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_children_lie_inside_their_parents(results, workload):
    events = results(workload, True)["events"]
    by_id = {e["args"]["id"]: e for e in events}
    children = [e for e in events if e["args"]["parent"]]
    assert children
    slack = 1e-3  # microseconds of float rounding
    for child in children:
        parent = by_id[child["args"]["parent"]]
        assert parent["tid"] == child["tid"]
        assert parent["ts"] - slack <= child["ts"]
        assert (child["ts"] + child["dur"]
                <= parent["ts"] + parent["dur"] + slack)


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0]
    assert verdict(base, [10.2, 10.3, 10.1], "lower", 0.1)[0] == "ok"
    assert verdict(base, [12.0, 12.1, 11.9], "lower", 0.1)[0] == "regressed"
    assert verdict(base, [8.0, 8.1, 7.9], "higher", 0.1)[0] == "regressed"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert verdict(noisy, [21.0, 22.0], "lower", 0.1)[0] == "unresolved"
    assert verdict(noisy, [1.0, 2.0], "lower", 0.1)[0] == "ok"
