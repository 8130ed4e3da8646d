"""Property-based tests on the bound-and-bottleneck analysis.

For arbitrary generated matrices, the structural guarantees of Section
III-B must hold: P_peak dominates P_MB (indexing can only add traffic),
P_IMB dominates P_CSR (median <= max), all bounds positive/finite, and
the classifier always returns a valid subset of the four classes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ALL_CLASSES,
    ProfileThresholds,
    classify_from_bounds,
)
from repro.machine import KNC, KNL
from repro.model import AnalyticModel

from .test_formats_prop import sparse_matrices


@st.composite
def nonempty_matrices(draw):
    csr = draw(sparse_matrices(max_dim=60, max_nnz=400))
    if csr.nnz == 0:
        # ensure at least one nonzero so bounds are defined
        from repro.formats import CSRMatrix

        csr = CSRMatrix.from_arrays([0], [0], [1.0], csr.shape)
    return csr


@given(nonempty_matrices(), st.sampled_from([KNC, KNL]))
@settings(max_examples=40, deadline=None)
def test_bound_invariants(csr, machine):
    b = AnalyticModel(machine, nthreads=8).bounds(csr)
    vals = b.as_dict()
    for name, v in vals.items():
        assert np.isfinite(v) and v > 0, name
    assert b.p_peak > b.p_mb
    assert b.p_imb >= b.p_csr * 0.999


@given(nonempty_matrices(), st.sampled_from([KNC, KNL]))
@settings(max_examples=40, deadline=None)
def test_classifier_returns_valid_subset(csr, machine):
    b = AnalyticModel(machine, nthreads=8).bounds(csr)
    classes = classify_from_bounds(b)
    assert classes <= frozenset(ALL_CLASSES)


@given(nonempty_matrices())
@settings(max_examples=30, deadline=None)
def test_stricter_thresholds_shrink_ml_imb(csr):
    b = AnalyticModel(KNC, nthreads=8).bounds(csr)
    loose = classify_from_bounds(
        b, ProfileThresholds(t_ml=1.01, t_imb=1.01)
    )
    strict = classify_from_bounds(
        b, ProfileThresholds(t_ml=10.0, t_imb=10.0)
    )
    from repro.core import Bottleneck

    # ML/IMB memberships are monotone in their thresholds
    for c in (Bottleneck.ML, Bottleneck.IMB):
        if c in strict:
            assert c in loose


@given(nonempty_matrices())
@settings(max_examples=30, deadline=None)
def test_bounds_deterministic(csr):
    a = AnalyticModel(KNC, nthreads=8).bounds(csr)
    b = AnalyticModel(KNC, nthreads=8).bounds(csr)
    assert a.as_dict() == pytest.approx(b.as_dict())
