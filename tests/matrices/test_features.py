"""Unit tests for Table II feature extraction, on hand-built matrices."""

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.matrices import (
    FEATURE_COMPLEXITY,
    FEATURE_NAMES,
    PAPER_ON_SUBSET,
    PAPER_ONNZ_SUBSET,
    extract_features,
    feature_matrix,
    features_with_complexity,
)
from repro.matrices.features import canonical_feature_name, spmv_working_set_bytes


@pytest.fixture
def hand_matrix():
    """3x16 matrix with known structure:

    row0: cols 0,1,2,3       (one dense run)
    row1: cols 0, 15         (one big gap)
    row2: empty
    """
    rowptr = np.array([0, 4, 6, 6], dtype=np.int64)
    colind = np.array([0, 1, 2, 3, 0, 15], dtype=np.int32)
    return CSRMatrix(rowptr, colind, np.ones(6), (3, 16))


def test_nnz_stats(hand_matrix):
    f = extract_features(hand_matrix)
    assert f.nnz_min == 0
    assert f.nnz_max == 4
    assert f.nnz_avg == pytest.approx(2.0)
    assert f.nnz_sd == pytest.approx(np.std([4, 2, 0]))


def test_bw_stats(hand_matrix):
    f = extract_features(hand_matrix)
    assert f.bw_min == 0          # empty row
    assert f.bw_max == 15
    assert f.bw_avg == pytest.approx((3 + 15 + 0) / 3)


def test_scatter(hand_matrix):
    f = extract_features(hand_matrix)
    # row0: 4/(3+1)=1.0 ; row1: 2/16=0.125 ; row2: 0
    assert f.scatter_avg == pytest.approx((1.0 + 0.125 + 0.0) / 3)


def test_clustering(hand_matrix):
    f = extract_features(hand_matrix)
    # row0: 1 group / 4 nnz ; row1: 2 groups / 2 nnz ; row2: 0
    assert f.clustering_avg == pytest.approx((0.25 + 1.0 + 0.0) / 3)


def test_misses(hand_matrix):
    f = extract_features(hand_matrix, line_elems=8)
    # only the 0->15 gap (15 > 8) counts; row-first elements don't
    assert f.misses_avg == pytest.approx(1.0 / 3)


def test_misses_line_size_sensitivity(hand_matrix):
    f = extract_features(hand_matrix, line_elems=16)
    assert f.misses_avg == 0.0


def test_density(hand_matrix):
    f = extract_features(hand_matrix)
    assert f.density == pytest.approx(6 / (3 * 16))


def test_size_feature_thresholds(hand_matrix):
    ws = spmv_working_set_bytes(hand_matrix)
    assert extract_features(hand_matrix, llc_bytes=ws).size == 1.0
    assert extract_features(hand_matrix, llc_bytes=ws - 1).size == 0.0


def test_feature_vector_key_access(hand_matrix):
    f = extract_features(hand_matrix)
    assert f["nnz_max"] == f.nnz_max
    # paper's alternative spelling
    assert f["dispersion_avg"] == f.scatter_avg
    with pytest.raises(ValueError, match="unknown feature"):
        f["bogus"]


def test_as_array_ordering(hand_matrix):
    f = extract_features(hand_matrix)
    arr = f.as_array()
    assert arr.shape == (len(FEATURE_NAMES),)
    assert arr[FEATURE_NAMES.index("nnz_max")] == 4.0


def test_feature_matrix_stacks(hand_matrix, banded_csr):
    X = feature_matrix([hand_matrix, banded_csr])
    assert X.shape == (2, len(FEATURE_NAMES))


def test_complexity_classes_cover_all_features():
    assert set(FEATURE_COMPLEXITY) == set(FEATURE_NAMES)
    assert set(FEATURE_COMPLEXITY.values()) == {"O(1)", "O(N)", "O(NNZ)"}


def test_features_with_complexity_monotone():
    o1 = features_with_complexity("O(1)")
    on = features_with_complexity("O(N)")
    onnz = features_with_complexity("O(NNZ)")
    assert set(o1) < set(on) < set(onnz)
    assert set(onnz) == set(FEATURE_NAMES)


def test_features_with_complexity_rejects_unknown():
    with pytest.raises(ValueError):
        features_with_complexity("O(N^2)")


def test_paper_subsets_are_valid():
    for subset in (PAPER_ON_SUBSET, PAPER_ONNZ_SUBSET):
        for name in subset:
            assert canonical_feature_name(name) in FEATURE_NAMES


def test_structural_discrimination(banded_csr, scattered_csr):
    """The features must separate the archetypes they were designed for."""
    fb = extract_features(banded_csr)
    fs = extract_features(scattered_csr)
    assert fb.misses_avg < fs.misses_avg       # scattered misses more
    assert fb.bw_avg < fs.bw_avg               # scattered spans more
    assert fb.scatter_avg > fs.scatter_avg     # banded is denser in-row


def test_empty_matrix_features():
    csr = CSRMatrix([0, 0], np.zeros(0, np.int32), np.zeros(0), (1, 4))
    f = extract_features(csr)
    assert f.nnz_avg == 0.0 and f.misses_avg == 0.0


def _broken(self):
    raise AssertionError("this feature group must not be computed")


def test_row_length_features_read_only_rowptr(monkeypatch, skewed_csr):
    """The IMB sub-selection reads nnz_max and nnz_avg: one np.diff of
    rowptr, no row spans, no column gaps."""
    expected = skewed_csr.row_nnz()
    monkeypatch.setattr(CSRMatrix, "row_bandwidths", _broken)
    monkeypatch.setattr(CSRMatrix, "column_gaps", _broken)
    f = extract_features(skewed_csr)
    assert f.nnz_max == float(expected.max())
    assert f["nnz_avg"] == float(expected.mean())


def test_column_gap_group_is_computed_once_on_first_read(monkeypatch,
                                                         scattered_csr):
    calls = []
    column_gaps = CSRMatrix.column_gaps

    def counting(self):
        calls.append(self)
        return column_gaps(self)

    monkeypatch.setattr(CSRMatrix, "column_gaps", counting)
    f = extract_features(scattered_csr)
    assert calls == []
    clustering = f.clustering_avg
    misses = f.misses_avg
    assert f["misses_avg"] == misses and f.clustering_avg == clustering
    assert len(calls) == 1


def test_feature_groups_cover_every_feature():
    from repro.matrices.features import _GROUP_OF

    assert set(_GROUP_OF) == set(FEATURE_NAMES)
