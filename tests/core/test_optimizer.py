"""Unit tests for the end-to-end adaptive optimizer."""

import numpy as np
import pytest

from repro.core import AdaptiveSpMV, Bottleneck
from repro.engine import ExecutorSpec
from repro.machine import KNC, KNL
from repro.kernels import baseline_kernel
from repro.model import AnalyticModel
from repro.parallel import ParallelConfig


@pytest.fixture(scope="module")
def skewed_big():
    from repro.matrices.generators import banded, with_dense_rows

    return with_dense_rows(
        banded(60_000, nnz_per_row=4, bandwidth=8, seed=21),
        n_dense=3, dense_nnz=40_000, seed=22,
    )


@pytest.fixture(scope="module")
def scattered_big():
    from repro.matrices.generators import random_uniform

    return random_uniform(120_000, nnz_per_row=16.0, seed=23)


def test_plan_reports_decision_and_setup(skewed_big):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    plan = opt.plan(skewed_big)
    assert plan.decision_seconds > 0
    assert plan.total_overhead_seconds >= plan.decision_seconds
    assert plan.classifier_kind == "profile-guided"
    assert "classes=" in str(plan)


def test_optimize_improves_skewed(skewed_big):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    operator = opt.optimize(skewed_big)
    assert Bottleneck.IMB in operator.plan.classes
    assert "decomposition" in operator.plan.optimizations
    model = AnalyticModel(KNL)
    base = baseline_kernel()
    r_base = model.run(base, base.preprocess(skewed_big))
    assert operator.simulate().gflops > 2.0 * r_base.gflops


def test_optimize_improves_scattered_on_knc(scattered_big):
    opt = AdaptiveSpMV(KNC, classifier="profile")
    operator = opt.optimize(scattered_big)
    assert Bottleneck.ML in operator.plan.classes
    model = AnalyticModel(KNC)
    base = baseline_kernel()
    r_base = model.run(base, base.preprocess(scattered_big))
    assert operator.simulate().gflops > 1.25 * r_base.gflops


def test_numeric_plane_exact(skewed_big, rng):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    operator = opt.optimize(skewed_big)
    x = rng.standard_normal(skewed_big.ncols)
    np.testing.assert_allclose(
        operator.matvec(x), skewed_big.matvec(x), rtol=1e-12
    )
    # operator is also usable via @
    np.testing.assert_allclose(operator @ x, operator.matvec(x))


def test_unclassified_matrix_gets_baseline(banded_csr):
    """A small regular matrix on KNC may be 'not worth optimizing' —
    in that case the operator must be the plain baseline."""
    opt = AdaptiveSpMV(KNC, classifier="profile")
    operator = opt.optimize(banded_csr)
    if not operator.plan.optimizations:
        assert operator.kernel.name == "csr"


def test_feature_classifier_integration(skewed_big):
    from repro.core import FeatureGuidedClassifier
    from repro.matrices import training_suite

    corpus = [t.matrix for t in training_suite(count=12, seed=11,
                                               min_rows=8_000,
                                               max_rows=20_000)]
    clf = FeatureGuidedClassifier(KNL).fit_from_matrices(corpus)
    opt = AdaptiveSpMV(KNL, classifier=clf)
    operator = opt.optimize(skewed_big)
    assert operator.plan.classifier_kind == "feature-guided"
    assert operator.plan.decision_seconds < 0.01  # cheap by design


def test_invalid_classifier_rejected():
    with pytest.raises(TypeError):
        AdaptiveSpMV(KNL, classifier=42)


def test_custom_duck_typed_classifier(banded_csr):
    class Fixed:
        def classify_with_cost(self, csr):
            return frozenset({Bottleneck.MB}), 0.001

    opt = AdaptiveSpMV(KNL, classifier=Fixed())
    operator = opt.optimize(banded_csr)
    assert operator.plan.optimizations == ("compression",)


def test_operator_shape_property(banded_csr):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    operator = opt.optimize(banded_csr)
    assert operator.shape == banded_csr.shape


# -- the operator applies through its plan's stack ---------------------


def test_explicit_spec_composes_a_separate_stack(small_random_csr):
    """``executor(spec)`` builds the stack the spec says, over the plain
    planned kernel: an empty spec on a guarded operator is unguarded,
    and the operator keeps its own guarded stack."""
    op = AdaptiveSpMV(KNL, spec=ExecutorSpec(guard=True)).optimize(
        small_random_csr)
    assert "guard -> kernel[" in op.executor().describe()
    assert "guard" not in op.executor(ExecutorSpec()).describe()
    assert op.executor() is op.executor()


def test_matvec_runs_the_plans_parallel_stack(small_random_csr, x300):
    op = AdaptiveSpMV(
        KNL, spec=ExecutorSpec(parallel=ParallelConfig(2))
    ).optimize(small_random_csr)
    assert op.executor().last_measurement is None
    y = op.matvec(x300)
    assert op.executor().last_measurement is not None
    assert np.array_equal(y, small_random_csr.matvec(x300))
