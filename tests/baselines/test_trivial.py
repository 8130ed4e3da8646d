"""Unit tests for the trivial exhaustive optimizers."""

import pytest

from repro.baselines import TrivialOptimizer
from repro.machine import KNL


def test_candidate_counts():
    assert len(TrivialOptimizer(KNL, "single").candidates()) == 5
    assert len(TrivialOptimizer(KNL, "combined").candidates()) == 15


def test_mode_validation():
    with pytest.raises(ValueError):
        TrivialOptimizer(KNL, mode="triples")


def test_combined_at_least_as_good_but_more_expensive(skewed_csr):
    single = TrivialOptimizer(KNL, "single", nthreads=32).optimize(skewed_csr)
    combined = TrivialOptimizer(KNL, "combined", nthreads=32).optimize(
        skewed_csr
    )
    assert combined.gflops >= single.gflops * 0.999
    assert combined.sweep_seconds > single.sweep_seconds


def test_picks_the_actual_argmax(skewed_csr):
    """The sweep must return exactly the best-performing candidate."""
    from repro.model import AnalyticModel

    opt = TrivialOptimizer(KNL, "single", nthreads=32)
    res = opt.optimize(skewed_csr)
    model = AnalyticModel(KNL, nthreads=32)
    best = max(
        (model.run(k, k.preprocess(skewed_csr)).gflops, name)
        for name, k in opt.candidates().items()
    )
    assert res.chosen == best[1]
    assert res.gflops == pytest.approx(best[0])


def test_sweep_cost_includes_all_benchmarks(banded_csr):
    res = TrivialOptimizer(KNL, "single").optimize(banded_csr)
    # 5 candidates x 64 iterations: at least 100 kernel executions' time
    assert res.sweep_seconds > 100 * res.result.seconds * 0.5
    assert res.n_candidates == 5


def test_empty_matrix_rejected():
    import numpy as np

    from repro.formats import CSRMatrix

    empty = CSRMatrix([0, 0], np.zeros(0, np.int32), np.zeros(0), (1, 1))
    with pytest.raises(ValueError):
        TrivialOptimizer(KNL).optimize(empty)
