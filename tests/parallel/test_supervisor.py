"""Supervision plumbing: pool lifecycle, registry, reports, stages.

The fault-driven ladder walks live in ``tests/faults/
test_parallel_faults.py``; this module covers the fault-free surface —
transparent pass-through, executor recycling and health introspection,
the demotion registry semantics, straggler flagging, and the measured
parallel run (:func:`repro.model.measure_parallel`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    SupervisedExecutor,
    clear_demotions,
    demoted_target,
    demotion_count,
    demotion_log,
    record_demotion,
)
from repro.parallel import (
    ParallelMeasurement,
    get_executor,
    pool_health,
    recycle_executor,
)


@pytest.fixture(autouse=True)
def _clean_demotions():
    clear_demotions()
    yield
    clear_demotions()


# -- executor lifecycle -------------------------------------------------


def test_get_executor_recycles_broken_pool():
    pool = get_executor(5)
    pool.submit(lambda: None).result()  # spawn at least one thread
    pool.shutdown(wait=True)  # break it behind the module's back
    fresh = get_executor(5)
    assert fresh is not pool
    assert fresh.submit(lambda: 41 + 1).result() == 42
    recycle_executor(5)


def test_recycle_executor_reports_presence():
    recycle_executor(6)  # earlier suites may have left a width-6 pool
    assert recycle_executor(6) is False
    get_executor(6)
    assert recycle_executor(6) is True
    assert recycle_executor(6) is False


def test_pool_health_reports_liveness():
    pool = get_executor(7)
    pool.submit(lambda: None).result()
    health = pool_health()[7]
    assert health["expected"] == 7
    assert 1 <= health["started"] <= 7
    assert health["alive"] == health["started"]
    assert health["shutdown"] is False
    assert health["healthy"] is True
    pool.shutdown(wait=True)
    health = pool_health()[7]
    assert health["healthy"] is False
    # get_executor repairs what pool_health flagged
    assert get_executor(7).submit(lambda: 1).result() == 1
    recycle_executor(7)


# -- demotion registry --------------------------------------------------


def test_demotion_registry_keeps_lowest_target_and_counts_events():
    assert demoted_target("sig") is None
    record_demotion("sig", 2, "worker-fault")
    record_demotion("sig", 4, "deadline")  # higher target: kept at 2
    assert demoted_target("sig") == 2
    record_demotion("sig", 0, "deadline")
    assert demoted_target("sig") == 0
    assert demotion_count() == 3
    entry = demotion_log()["sig"]
    assert entry["events"] == 3
    assert entry["reason"] == "deadline"
    clear_demotions()
    assert demotion_count() == 0
    assert demoted_target("sig") is None


# -- fault-free supervised operator -------------------------------------


def test_supervised_matches_serial_when_nothing_fails(small_random_csr):
    x = np.random.default_rng(5).standard_normal(small_random_csr.ncols)
    sup = SupervisedExecutor(small_random_csr, nthreads=4)
    np.testing.assert_array_equal(
        sup.matvec(x), small_random_csr.matvec(x)
    )
    report = sup.last_report
    assert not report.degraded
    assert report.final_mode == "parallel"
    assert report.final_nthreads == 4
    assert report.ladder() == "t4"
    assert demotion_count() == 0
    assert sup.last_measurement is not None
    assert sup.last_measurement.nthreads == 4


def test_supervised_matmat_matches_serial(small_random_csr):
    X = np.random.default_rng(6).standard_normal(
        (small_random_csr.ncols, 3)
    )
    sup = SupervisedExecutor(small_random_csr, nthreads=2)
    np.testing.assert_array_equal(
        sup.matmat(X), small_random_csr.matmat(X)
    )
    assert not sup.last_report.degraded


def test_supervised_out_buffer_written_in_place(small_random_csr):
    x = np.random.default_rng(7).standard_normal(small_random_csr.ncols)
    out = np.empty(small_random_csr.nrows)
    sup = SupervisedExecutor(small_random_csr, nthreads=2)
    y = sup.matvec(x, out=out)
    assert y is out
    np.testing.assert_array_equal(out, small_random_csr.matvec(x))


def test_report_summary_is_json_ready(small_random_csr):
    import json

    x = np.ones(small_random_csr.ncols)
    sup = SupervisedExecutor(small_random_csr, nthreads=2,
                             deadline_seconds=60.0)
    sup.matvec(x)
    summary = sup.last_report.summary()
    json.dumps(summary)  # must not raise
    assert summary["final_mode"] == "parallel"
    assert summary["deadline_seconds"] == 60.0
    assert summary["attempts"][0]["outcome"] == "ok"


# -- straggler flagging -------------------------------------------------


def test_stragglers_flags_dominant_wall_span():
    m = ParallelMeasurement(
        nthreads=4, schedule="static-rows", dynamic=False,
        wall_seconds=1.0,
        thread_wall_seconds=(0.01, 0.012, 0.009, 0.9),
        thread_cpu_seconds=(0.01, 0.01, 0.01, 0.01),
        chunks_per_thread=(1, 1, 1, 1),
    )
    assert m.stragglers() == (3,)
    assert m.summary()["stragglers"] == [3]


def test_stragglers_empty_on_balanced_run():
    m = ParallelMeasurement(
        nthreads=4, schedule="static-rows", dynamic=False,
        wall_seconds=0.04,
        thread_wall_seconds=(0.01, 0.011, 0.009, 0.012),
        thread_cpu_seconds=(0.01, 0.01, 0.01, 0.01),
        chunks_per_thread=(1, 1, 1, 1),
    )
    assert m.stragglers() == ()


# -- measured parallel run ------------------------------------------------


def test_measure_parallel_returns_supervision(small_random_csr):
    from repro.kernels import baseline_kernel
    from repro.machine import KNL
    from repro.model import AnalyticModel, measure_parallel
    from repro.pipeline import Tracer

    tracer = Tracer()
    result, measurement, supervision = measure_parallel(
        AnalyticModel(KNL), baseline_kernel(), small_random_csr,
        nthreads=2, repeats=1, schedule="balanced-nnz", tracer=tracer,
    )
    assert result is not None
    assert measurement.nthreads == 2
    assert supervision.final_mode == "parallel"
    assert not supervision.degraded
    (span,) = [s for s in tracer.spans if s.name == "execute"]
    assert span.attributes["supervision"]["ladder"] == "t2"
    assert span.attributes["measured_imbalance"] >= 1.0
    assert span.attributes["predicted_imbalance"] >= 1.0


def test_measure_parallel_honors_deadline_and_retry_options(
        small_random_csr):
    from repro.engine import SupervisionSpec
    from repro.kernels import baseline_kernel
    from repro.machine import KNL
    from repro.model import AnalyticModel, measure_parallel

    _, measurement, supervision = measure_parallel(
        AnalyticModel(KNL), baseline_kernel(), small_random_csr,
        nthreads=2, repeats=1, deadline_seconds=60.0,
        supervision=SupervisionSpec(max_retries=1),
    )
    assert measurement is not None
    assert supervision.deadline_seconds == 60.0
