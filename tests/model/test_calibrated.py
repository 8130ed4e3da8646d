"""CalibratedModel: identity bit-identity, profile scaling, and the
observe → refine feedback loop."""

import numpy as np
import pytest

from repro.kernels import baseline_kernel
from repro.machine import BROADWELL, KNL
from repro.matrices.generators import banded
from repro.model import (
    AnalyticModel,
    CalibratedModel,
    CostModel,
    MachineProfile,
)


@pytest.fixture(scope="module")
def csr():
    return banded(2000, nnz_per_row=9, seed=4)


@pytest.fixture()
def kernel():
    return baseline_kernel()


def test_satisfies_protocol():
    assert isinstance(
        CalibratedModel(KNL, MachineProfile.identity(KNL.name)),
        CostModel,
    )


def test_rejects_foreign_profile():
    with pytest.raises(ValueError, match="calibrated for"):
        CalibratedModel(KNL, MachineProfile.identity(BROADWELL.name))


class TestIdentityProfile:
    """CalibratedModel(identity) must be bit-identical to AnalyticModel
    — the regression test the refactor is pinned by."""

    def test_run_returns_exact_analytic_object(self, csr, kernel):
        model = CalibratedModel(KNL, MachineProfile.identity(KNL.name), 4)
        data = kernel.preprocess(csr)
        ours = model.run(kernel, data)
        ref = AnalyticModel(KNL, 4).run(kernel, data)
        assert ours.seconds == ref.seconds
        assert ours.gflops == ref.gflops
        np.testing.assert_array_equal(ours.thread_seconds,
                                      ref.thread_seconds)
        # the scaled path was never entered: this model's own
        # analytic plane gives the same numbers
        assert ours.seconds == AnalyticModel.run(model, kernel, data).seconds

    def test_bounds_bit_identical(self, csr):
        identity = CalibratedModel(KNL, MachineProfile.identity(KNL.name))
        assert (identity.bounds(csr).as_dict()
                == AnalyticModel(KNL).bounds(csr).as_dict())


class TestScaledProfile:
    def test_kernel_scale_stretches_time(self, csr, kernel):
        profile = MachineProfile(machine_name=KNL.name,
                                 kernel_scales={kernel.name: 2.0})
        model = CalibratedModel(KNL, profile, 4)
        data = kernel.preprocess(csr)
        ref = AnalyticModel(KNL, 4).run(kernel, data)
        scaled = model.run(kernel, data)
        assert scaled.seconds == pytest.approx(2.0 * ref.seconds)
        assert scaled.gflops == pytest.approx(ref.gflops / 2.0)
        np.testing.assert_allclose(scaled.thread_seconds,
                                   2.0 * ref.thread_seconds)

    def test_unknown_kernel_uses_median_scale(self, csr, kernel):
        profile = MachineProfile(
            machine_name=KNL.name,
            kernel_scales={"a": 2.0, "b": 4.0, "c": 8.0},
        )
        model = CalibratedModel(KNL, profile)
        assert model.scale_for("never-measured") == 4.0

    def test_bandwidth_scale_moves_analytic_bounds(self, csr):
        half = MachineProfile(machine_name=KNL.name, bandwidth_scale=0.5)
        b_ref = AnalyticModel(KNL).bounds(csr)
        b_half = CalibratedModel(KNL, half).bounds(csr)
        # Purely-analytic bounds scale with bandwidth; operational
        # bounds (unscaled kernels) do not.
        assert b_half.p_mb == pytest.approx(0.5 * b_ref.p_mb)
        assert b_half.p_peak == pytest.approx(0.5 * b_ref.p_peak)
        assert b_half.p_csr == pytest.approx(b_ref.p_csr)


class TestObserveRefine:
    def test_refine_moves_scale_to_median_ratio(self):
        model = CalibratedModel(KNL, MachineProfile.identity(KNL.name))
        for measured in (2.0, 4.0, 8.0):
            model.observe("csr", 1.0, measured)
        assert model.observation_count == 3
        report = model.refine(alpha=1.0)
        assert model.observation_count == 0  # buffer cleared
        assert report["csr"]["samples"] == 3
        assert report["csr"]["ratio"] == pytest.approx(4.0)
        assert model.profile.kernel_scales["csr"] == pytest.approx(4.0)

    def test_partial_alpha_damps(self):
        model = CalibratedModel(KNL, MachineProfile.identity(KNL.name))
        model.observe("csr", 1.0, 4.0)
        model.refine(alpha=0.5)
        assert model.profile.kernel_scales["csr"] == pytest.approx(2.0)

    def test_bad_samples_dropped(self):
        model = CalibratedModel(KNL, MachineProfile.identity(KNL.name))
        model.observe("csr", 0.0, 1.0)
        model.observe("csr", 1.0, -1.0)
        model.observe("csr", float("nan"), 1.0)
        model.observe("csr", 1.0, float("inf"))
        assert model.observation_count == 0
        assert model.refine() == {}

    def test_alpha_validated(self):
        model = CalibratedModel(KNL, MachineProfile.identity(KNL.name))
        for alpha in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                model.refine(alpha=alpha)

    def test_refine_shrinks_prediction_error(self, csr, kernel):
        """One refine() pass makes the next prediction land on the
        observed wall time (the acceptance round-trip, in miniature)."""
        from repro.model import prediction_error_pct

        model = CalibratedModel(KNL, MachineProfile.identity(KNL.name), 1)
        data = kernel.preprocess(csr)
        predicted = model.run(kernel, data).seconds
        measured = predicted * 37.5  # host much slower than simulator
        error_before = prediction_error_pct(predicted, measured)
        model.observe(kernel.name, predicted, measured)
        model.refine(alpha=1.0)
        error_after = prediction_error_pct(
            model.run(kernel, data).seconds, measured
        )
        assert error_after < 1e-6 < error_before

    def test_refine_changes_signatures(self):
        from repro.core import AdaptiveSpMV

        model = CalibratedModel(KNL, MachineProfile.identity(KNL.name))
        opt = AdaptiveSpMV(KNL, classifier="profile", model=model)
        sig_before = model.signature()
        key_before = opt._execution_signature()
        model.observe("csr", 1.0, 2.0)
        model.refine()
        assert model.signature() != sig_before
        assert opt._execution_signature() != key_before


def test_signature_format():
    from repro.core import AdaptiveSpMV

    model = CalibratedModel(KNL, MachineProfile.identity(KNL.name))
    sig = model.signature()
    assert sig == f"calibrated:{model.profile.signature()}"
    # the plan-cache key names the model, so analytic and calibrated
    # plans never share an entry
    calibrated = AdaptiveSpMV(KNL, classifier="profile", model=model)
    analytic = AdaptiveSpMV(KNL, classifier="profile")
    assert calibrated._execution_signature().endswith(f";model={sig}")
    assert (calibrated._execution_signature()
            != analytic._execution_signature())
