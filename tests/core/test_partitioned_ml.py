"""Unit tests for the partitioned irregularity detector (future work
section of the paper, implemented here as an extension)."""

import pytest

from repro.core import (
    Bottleneck,
    ExtendedProfileClassifier,
    PartitionedMLDetector,
    ProfileGuidedClassifier,
)
from repro.machine import KNC
from repro.matrices import named_matrix
from repro.matrices.generators import banded, random_uniform


@pytest.fixture(scope="module")
def rajat30_like():
    """Scattered short rows + dense rows: the paper's missed ML case."""
    return named_matrix("rajat30", scale=1.0)


def test_detector_finds_hidden_ml(rajat30_like):
    det = PartitionedMLDetector(KNC)
    report = det.analyze(rajat30_like)
    # the whole-matrix gain is below threshold (the paper's miss) ...
    assert report.whole_matrix_gain < det.t_ml
    # ... but partition-level analysis exposes the irregular region
    assert report.max_gain > det.t_ml
    assert report.detected


def test_detector_quiet_on_regular():
    regular = banded(80_000, nnz_per_row=16, bandwidth=40, seed=1)
    report = PartitionedMLDetector(KNC).analyze(regular)
    assert not report.detected
    assert report.ml_nnz_fraction == 0.0


def test_detector_consistent_with_global_on_uniform_scatter():
    """On a homogeneous scattered matrix, partitioning adds nothing:
    global and partition gains agree."""
    scattered = random_uniform(120_000, nnz_per_row=16.0, seed=2)
    det = PartitionedMLDetector(KNC)
    report = det.analyze(scattered)
    assert report.whole_matrix_gain > det.t_ml
    assert report.detected


def test_extended_classifier_adds_ml(rajat30_like):
    std = ProfileGuidedClassifier(KNC).classify(rajat30_like)
    ext = ExtendedProfileClassifier(KNC).classify(rajat30_like)
    assert Bottleneck.ML not in std      # the paper's miss, reproduced
    assert Bottleneck.ML in ext          # the future-work fix
    assert std <= ext                    # strictly additive


def test_extended_classifier_charges_extra_cost(rajat30_like):
    std = ProfileGuidedClassifier(KNC)
    ext = ExtendedProfileClassifier(KNC)
    _, c_std = std.classify_with_cost(rajat30_like)
    _, c_ext = ext.classify_with_cost(rajat30_like)
    assert c_ext > c_std


def test_extended_classifier_skips_detector_when_ml_already_found():
    scattered = random_uniform(120_000, nnz_per_row=16.0, seed=3)
    ext = ExtendedProfileClassifier(KNC)
    std = ProfileGuidedClassifier(KNC)
    classes_ext, cost_ext = ext.classify_with_cost(scattered)
    classes_std, cost_std = std.classify_with_cost(scattered)
    assert Bottleneck.ML in classes_std
    assert classes_ext == classes_std
    assert cost_ext == pytest.approx(cost_std)


def test_extended_classifier_plugs_into_optimizer(rajat30_like):
    from repro.core import AdaptiveSpMV
    from repro.machine import KNC as M

    opt = AdaptiveSpMV(M, classifier=ExtendedProfileClassifier(M))
    operator = opt.optimize(rajat30_like)
    assert "prefetching" in operator.plan.optimizations


def test_partition_gain_accounting(rajat30_like):
    det = PartitionedMLDetector(KNC, n_partitions=4)
    report = det.analyze(rajat30_like)
    assert len(report.partitions) <= 4
    assert sum(p.nnz for p in report.partitions) == rajat30_like.nnz
    assert det.profiling_seconds(report) > 0


def test_parameter_validation():
    with pytest.raises(ValueError):
        PartitionedMLDetector(KNC, n_partitions=1)
    with pytest.raises(ValueError):
        PartitionedMLDetector(KNC, t_ml=1.0)
    with pytest.raises(ValueError):
        PartitionedMLDetector(KNC, min_nnz_fraction=0.0)
