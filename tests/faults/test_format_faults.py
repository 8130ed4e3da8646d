"""Fault-injected round trips: every format must fail loudly.

Each format is corrupted one invariant at a time; ``validate`` in
strict mode must raise the typed :class:`FormatValidationError` and in
permissive mode must return a report naming the damage — never crash,
never pass.
"""

import numpy as np
import pytest

from repro.errors import (
    FormatValidationError,
    ReproError,
    ValidationReport,
)
from repro.formats import COOMatrix, CSRMatrix, DecomposedCSR, DeltaCSR
from repro.guard import (
    STRUCTURAL_FAULTS,
    VALUE_FAULTS,
    applicable_faults,
    clone_format,
    inject_structural_fault,
    inject_value_fault,
)


def test_clean_formats_validate_ok(any_format):
    report = any_format.validate(strict=True)
    assert isinstance(report, ValidationReport)
    assert report.ok
    assert report.issues == []
    assert "ok" in report.summary()


def test_structural_faults_raise_in_strict_mode(any_format):
    kinds = applicable_faults(any_format)
    assert kinds  # every format has at least index faults
    for kind in kinds:
        bad = inject_structural_fault(any_format, kind)
        with pytest.raises(FormatValidationError) as exc_info:
            bad.validate(strict=True)
        assert exc_info.value.report.issues
        # the original is untouched
        assert any_format.validate(strict=True).ok


def test_structural_faults_reported_in_permissive_mode(any_format):
    for kind in applicable_faults(any_format):
        report = inject_structural_fault(any_format, kind).validate(
            strict=False
        )
        assert not report.ok
        assert all(issue.code and issue.message for issue in report.issues)


@pytest.mark.parametrize("kind", VALUE_FAULTS)
def test_value_faults_detected(any_format, kind):
    bad = inject_value_fault(any_format, kind)
    with pytest.raises(FormatValidationError):
        bad.validate(strict=True)
    report = bad.validate(strict=False)
    assert any(i.code.endswith("non-finite-values") for i in report.issues)
    # structure-only validation ignores the poisoned payload
    assert bad.validate(strict=True, check_values=False).ok


def test_validation_error_is_typed(small_random_csr):
    bad = inject_structural_fault(small_random_csr, "index-negative")
    with pytest.raises(ReproError):
        bad.validate()
    with pytest.raises(ValueError):  # also a ValueError for old callers
        bad.validate()


def _csr_of(fmt):
    """The CSR matrix a format without a numeric plane gives back."""
    if isinstance(fmt, COOMatrix):
        return CSRMatrix.from_coo(fmt)
    return fmt.to_csr()


def test_clone_format_is_independent(any_format):
    clone = clone_format(any_format)
    assert clone is not any_format
    assert type(clone) is type(any_format)
    assert clone.validate(strict=True).ok
    if isinstance(any_format, (COOMatrix, DeltaCSR, DecomposedCSR)):
        got, want = _csr_of(clone), _csr_of(any_format)
        for name in ("rowptr", "colind", "values"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
    else:
        x = np.arange(any_format.ncols, dtype=np.float64)
        np.testing.assert_array_equal(clone.matvec(x),
                                      any_format.matvec(x))


@pytest.mark.parametrize("kind", ["index-out-of-bounds", "index-negative"])
@pytest.mark.parametrize(
    "any_format", ["decomposed-csr", "sell-c-sigma"], indirect=True,
)
def test_compiled_views_check_indices(any_format, kind):
    """The compiled CSR kernels do not bounds-check. A derived CSR view
    (the decomposed long part the cost plane prices, SELL-C-sigma's
    row-major view) checks its indices when it is built, so a
    corrupted index raises."""
    bad = inject_structural_fault(any_format, kind)
    with pytest.raises(ValueError, match="out of bounds"):
        if isinstance(bad, DecomposedCSR):
            bad.long_part()
        else:
            bad.matvec(np.ones(any_format.ncols))


def test_unknown_fault_kind_rejected(small_random_csr):
    with pytest.raises(ValueError, match="unknown structural fault"):
        inject_structural_fault(small_random_csr, "no-such-fault")
    with pytest.raises(ValueError, match="unknown value fault"):
        inject_value_fault(small_random_csr, "minus-zero")


def test_pointer_faults_not_applicable_to_coo(small_random_csr):
    coo = small_random_csr.to_coo()
    assert "pointer-nonmonotonic" not in applicable_faults(coo)
    with pytest.raises(ValueError, match="not applicable"):
        inject_structural_fault(coo, "pointer-overrun")


def test_all_faults_covered_by_some_format(small_random_csr):
    # CSR supports the full structural fault alphabet.
    assert applicable_faults(small_random_csr) == STRUCTURAL_FAULTS
