"""Perf smoke (``-m perf_smoke``): warm-start overhead is ~zero.

Plans two generator matrices through a traced ``optimize`` and asserts
the plan-cache warm start eliminates the modeled optimizer overhead
entirely — the property the persisted-cache feature exists for — that a
plan-cache lookup hashes no matrix content with blake2b, and that a
miss computes no row spans,
column gaps or ``np.unique`` it does not read. Kept tiny so
``python -m pytest -m perf_smoke -q`` is a sub-second gate.
"""

import types

import pytest

from repro.core import AdaptiveSpMV, PlanCache
from repro.formats import CSRMatrix
from repro.machine import KNL
from repro.matrices.generators import banded, power_law, random_uniform
from repro.pipeline import Tracer

MATRICES = (
    ("banded", lambda: banded(1500, nnz_per_row=8, bandwidth=24, seed=11)),
    ("scattered", lambda: random_uniform(1500, nnz_per_row=10.0, seed=12)),
)


@pytest.mark.perf_smoke
@pytest.mark.parametrize("name,make", MATRICES, ids=[m[0] for m in MATRICES])
def test_warm_start_overhead_is_zero(name, make):
    csr = make()
    opt = AdaptiveSpMV(KNL, classifier="profile")

    op_cold = opt.optimize(csr, tracer=Tracer())
    r_cold = op_cold.simulate()
    assert not op_cold.plan.cache_hit
    assert op_cold.plan.total_overhead_seconds > 0.0
    assert r_cold.gflops > 0.0

    warm_tracer = Tracer()
    op_warm = opt.optimize(csr, tracer=warm_tracer)
    r_warm = op_warm.simulate()
    assert op_warm.plan.cache_hit
    assert op_warm.plan.total_overhead_seconds == 0.0
    assert warm_tracer.total_charged_seconds() == 0.0
    # same decision, same simulated performance
    assert op_warm.plan.kernel_name == op_cold.plan.kernel_name
    assert r_warm.gflops == pytest.approx(r_cold.gflops)


@pytest.mark.perf_smoke
def test_persisted_warm_start_overhead_is_zero(tmp_path):
    csr = MATRICES[0][1]()
    cold = AdaptiveSpMV(KNL, classifier="profile")
    cold.optimize(csr)
    path = tmp_path / "plans.json"
    cold.plan_cache.save(path)

    warm = AdaptiveSpMV(
        KNL, classifier="profile", plan_cache=PlanCache.load(path)
    )
    op = warm.optimize(csr, tracer=Tracer())
    assert op.plan.cache_hit
    assert op.plan.decision_seconds == 0.0
    assert op.simulate().gflops > 0.0


@pytest.mark.perf_smoke
def test_optimize_path_never_runs_blake2b(monkeypatch):
    """With blake2b broken, a miss, 50 repeat hits and a new-values hit
    on a live entry all succeed: lookups hash sampled indices only."""
    from repro.model import signature

    def broken(*args, **kwargs):
        raise AssertionError("blake2b ran on the optimize path")

    monkeypatch.setattr(signature, "hashlib",
                        types.SimpleNamespace(blake2b=broken))
    csr = MATRICES[1][1]()
    opt = AdaptiveSpMV(KNL, classifier="profile")
    assert not opt.optimize(csr).plan.cache_hit
    for _ in range(50):
        op = opt.optimize(csr)
        assert op.plan.cache_hit
        assert op.plan.total_overhead_seconds == 0.0
    rescaled = CSRMatrix(csr.rowptr, csr.colind, 2.0 * csr.values,
                         csr.shape)
    op = opt.optimize(rescaled)
    assert op.plan.cache_hit and op.plan.decision_seconds == 0.0
    assert op.data.csr is rescaled


@pytest.mark.perf_smoke
@pytest.mark.parametrize("make", [
    lambda: banded(3000, nnz_per_row=9, jitter=1.0, seed=21),
    lambda: power_law(3000, avg_deg=12, seed=22),
], ids=["banded", "power_law"])
def test_optimize_miss_computes_only_what_it_reads(monkeypatch, make):
    """A plan-cache miss reads the row lengths and runs the lean
    x-access pass: no row spans, no column gaps, no ``np.unique``."""
    import numpy as np

    from repro.machine import clear_cache

    csr = make()
    expected = AdaptiveSpMV(KNL).optimize(csr).plan

    def broken(*args, **kwargs):
        raise AssertionError("a plan-cache miss computed an unread value")

    clear_cache()
    monkeypatch.setattr(CSRMatrix, "column_gaps", broken)
    monkeypatch.setattr(CSRMatrix, "row_bandwidths", broken)
    monkeypatch.setattr(np, "unique", broken)
    op = AdaptiveSpMV(KNL).optimize(csr)
    assert not op.plan.cache_hit
    assert op.plan.to_dict() == expected.to_dict()


@pytest.mark.perf_smoke
@pytest.mark.parametrize("make", [
    lambda: banded(3000, nnz_per_row=9, jitter=1.0, seed=31),
    lambda: power_law(3000, avg_deg=12, seed=32),
], ids=["banded", "power_law"])
def test_bound_runs_build_no_per_row_cost_arrays(monkeypatch, make):
    """The cost plane prices threads from exact per-thread totals: the
    three bound runs and a plan-cache miss evaluate
    ``row_compute_cycles`` only at the three or fewer largest-unit
    candidates and price x misses only from totals, never per row, and
    still decide the same. A per-row cost array would need one of the
    two per row (the matrices have more rows than KNL has threads)."""
    import numpy as np

    from repro.kernels import costmodel
    from repro.model import AnalyticModel

    csr = make()
    bounds = AnalyticModel(KNL).bounds(csr).as_dict()
    expected = AdaptiveSpMV(KNL).optimize(csr).plan
    row_compute_cycles = costmodel.row_compute_cycles
    x_miss_cost = costmodel.x_miss_cost

    def cycles(row_nnz, *args, **kwargs):
        assert np.size(row_nnz) <= 3, "the cost plane priced every row"
        return row_compute_cycles(row_nnz, *args, **kwargs)

    def miss_cost(matrix, machine, potential, strided, **kwargs):
        assert np.size(potential) < matrix.nrows, (
            "the cost plane priced every row's x misses")
        return x_miss_cost(matrix, machine, potential, strided, **kwargs)

    monkeypatch.setattr(costmodel, "row_compute_cycles", cycles)
    monkeypatch.setattr(costmodel, "x_miss_cost", miss_cost)
    assert AnalyticModel(KNL).bounds(csr).as_dict() == bounds
    op = AdaptiveSpMV(KNL).optimize(csr)
    assert not op.plan.cache_hit
    assert op.plan.to_dict() == expected.to_dict()
