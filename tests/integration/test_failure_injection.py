"""Failure injection across the public API boundaries.

Every entry point a downstream user can hit with malformed input must
fail with a clear, typed error — never a silent wrong answer or a deep
NumPy traceback from inside the vectorized code.
"""

import numpy as np
import pytest

from repro import (
    KNL,
    AdaptiveSpMV,
    AnalyticModel,
    CSRMatrix,
    FeatureGuidedClassifier,
    baseline_kernel,
)
from repro.formats import COOMatrix
from repro.sched import Partition, balanced_nnz


def test_nan_values_flow_through_numerics_not_model(banded_csr):
    """NaN matrix values are a numeric concern (propagate per IEEE),
    but the cost model must stay finite — it depends only on structure."""
    vals = banded_csr.values.copy()
    vals[0] = np.nan
    poisoned = CSRMatrix(
        banded_csr.rowptr.copy(), banded_csr.colind.copy(), vals,
        banded_csr.shape,
    )
    y = poisoned.matvec(np.ones(poisoned.ncols))
    assert np.isnan(y[0])
    model = AnalyticModel(KNL, nthreads=8)
    base = baseline_kernel()
    r = model.run(base, base.preprocess(poisoned))
    assert np.isfinite(r.seconds)


def test_empty_matrix_rejected_by_analysis_accepted_by_numerics():
    empty = CSRMatrix([0, 0, 0], np.zeros(0, np.int32), np.zeros(0),
                      (2, 3))
    np.testing.assert_array_equal(empty.matvec(np.ones(3)), [0.0, 0.0])
    with pytest.raises(ValueError):
        AnalyticModel(KNL).bounds(empty)
    with pytest.raises(ValueError):
        AdaptiveSpMV(KNL, classifier="profile").optimize(empty)


def test_mismatched_partition_rejected(banded_csr, skewed_csr):
    base = baseline_kernel()
    model = AnalyticModel(KNL, nthreads=4)
    wrong = balanced_nnz(skewed_csr, 4)
    with pytest.raises(ValueError):
        model.run(base, base.preprocess(banded_csr), wrong)


def test_partition_with_foreign_thread_ids_rejected():
    with pytest.raises(ValueError):
        Partition(2, np.array([0, 1, 2], dtype=np.int32))


def test_untrained_feature_classifier_in_optimizer(banded_csr):
    clf = FeatureGuidedClassifier(KNL)
    opt = AdaptiveSpMV(KNL, classifier=clf)
    with pytest.raises(RuntimeError):
        opt.optimize(banded_csr)


def test_coo_with_nonfinite_bounds_checked():
    # out-of-range indices must be caught at construction
    with pytest.raises(ValueError):
        COOMatrix([0], [99], [1.0], (3, 3))


def test_solver_rejects_mismatched_rhs(banded_csr):
    from repro.solvers import cg

    with pytest.raises(Exception):
        cg(banded_csr, np.ones(banded_csr.nrows + 5), maxiter=2)


def test_classifier_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text('{"not": "a classifier"}')
    with pytest.raises(KeyError):
        FeatureGuidedClassifier.load(path)


def test_mm_reader_rejects_truncated_file(tmp_path):
    from repro.matrices import MatrixMarketError, read_matrix_market

    path = tmp_path / "t.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)
