"""Unit tests for the feature-guided classifier."""

import pytest

from repro.core import (
    Bottleneck,
    FeatureGuidedClassifier,
    ProfileGuidedClassifier,
)
from repro.machine import KNC
from repro.matrices import training_suite


@pytest.fixture(scope="module")
def small_corpus():
    return [
        t.matrix
        for t in training_suite(count=16, seed=9, min_rows=8_000,
                                max_rows=30_000)
    ]


@pytest.fixture(scope="module")
def trained(small_corpus):
    clf = FeatureGuidedClassifier(KNC)
    clf.fit_from_matrices(small_corpus)
    return clf


def test_training_report(trained, small_corpus):
    rep = trained.report
    assert rep.n_samples == len(small_corpus)
    assert rep.tree_depth >= 1
    assert sum(v for k, v in rep.label_counts.items() if k != "dummy") > 0


def test_predicts_class_sets(trained, small_corpus):
    for m in small_corpus[:4]:
        classes = trained.classify(m)
        assert isinstance(classes, frozenset)
        assert all(isinstance(c, Bottleneck) for c in classes)


def test_agreement_with_labeler_on_training_data(trained, small_corpus):
    """Resubstitution accuracy should be high (tree can overfit)."""
    labeler = ProfileGuidedClassifier(KNC)
    agree = sum(
        trained.classify(m) == labeler.classify(m) for m in small_corpus
    )
    assert agree >= int(0.7 * len(small_corpus))


def test_classify_with_cost_positive(trained, small_corpus):
    classes, cost = trained.classify_with_cost(small_corpus[0])
    assert cost > 0.0


def test_feature_cost_cheaper_than_profiling(trained, small_corpus):
    """The whole point of the feature-guided path (paper Table V)."""
    labeler = ProfileGuidedClassifier(KNC)
    m = small_corpus[0]
    _, feat_cost = trained.classify_with_cost(m)
    _, prof_cost = labeler.classify_with_cost(m)
    assert feat_cost < prof_cost / 5


def test_extraction_complexity_property():
    clf = FeatureGuidedClassifier(KNC, feature_names=("nnz_max", "density"))
    assert clf.extraction_complexity == "O(N)"
    clf2 = FeatureGuidedClassifier(KNC, feature_names=("misses_avg",))
    assert clf2.extraction_complexity == "O(NNZ)"


def test_unfitted_classifier_rejects(small_corpus):
    clf = FeatureGuidedClassifier(KNC)
    with pytest.raises(RuntimeError):
        clf.classify(small_corpus[0])


def test_explicit_labels_path(small_corpus):
    labels = [frozenset({Bottleneck.CMP})] * len(small_corpus)
    clf = FeatureGuidedClassifier(KNC)
    clf.fit_from_matrices(small_corpus, labels=labels)
    assert clf.classify(small_corpus[0]) == frozenset({Bottleneck.CMP})


def test_label_count_mismatch_rejected(small_corpus):
    clf = FeatureGuidedClassifier(KNC)
    with pytest.raises(ValueError):
        clf.fit_from_matrices(small_corpus, labels=[frozenset()])


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        FeatureGuidedClassifier(KNC).fit_from_matrices([])


def test_dispersion_alias_accepted():
    clf = FeatureGuidedClassifier(
        KNC, feature_names=("dispersion_avg", "nnz_max")
    )
    assert "scatter_avg" in clf.feature_names


def test_on_subset_classifier_never_scans_column_indices(monkeypatch,
                                                         small_corpus):
    """Over the paper's O(N) subset (Table IV) the classifier reads row
    lengths and row spans only: no column-gap pass."""
    from repro.formats import CSRMatrix
    from repro.matrices import PAPER_ON_SUBSET

    clf = FeatureGuidedClassifier(KNC, feature_names=PAPER_ON_SUBSET)
    clf.fit_from_matrices(small_corpus)
    expected = [clf.classify_with_cost(m) for m in small_corpus[:4]]

    def broken(self):
        raise AssertionError("O(N) features scanned the column indices")

    monkeypatch.setattr(CSRMatrix, "column_gaps", broken)
    assert [clf.classify_with_cost(m) for m in small_corpus[:4]] == expected
