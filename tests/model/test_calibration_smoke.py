"""End-to-end calibration smoke: the acceptance round-trip.

``calibrate --quick`` → a host :class:`~repro.model.MachineProfile` →
a :class:`~repro.model.CalibratedModel` predicting measured parallel
runs (:func:`~repro.model.measure_parallel`), with execute spans
carrying the ``predicted_gflops`` / ``measured_gflops`` /
``model_error_pct`` triple → ``refine()`` demonstrably shrinking the
median prediction error across two runs. This is the same scenario
``check.sh`` stage 9 drives from the CLI.
"""

import numpy as np
import pytest

from repro.kernels import baseline_kernel
from repro.machine import KNL
from repro.matrices.generators import banded
from repro.model import (
    CalibratedModel,
    MachineProfile,
    calibrate,
    measure_parallel,
)
from repro.pipeline import Tracer


@pytest.fixture(scope="module")
def profile():
    return calibrate(KNL, quick=True, repeats=2)


@pytest.fixture(scope="module")
def csr():
    return banded(4000, nnz_per_row=9, seed=21)


def test_quick_calibration_is_sane(profile):
    assert profile.machine_name == KNL.name
    assert profile.quick and profile.samples >= 2
    assert profile.bandwidth_scale > 0
    assert profile.kernel_scales and all(
        s > 0 for s in profile.kernel_scales.values()
    )
    m = profile.measured
    assert m["stream_bandwidth_gbs"] > 0
    assert m["gather_latency_ns"] > 0
    assert m["parallel"]["nthreads"] == 2
    assert not profile.is_identity


def test_profile_round_trips_through_disk(profile, tmp_path):
    path = tmp_path / "profile.json"
    profile.save(path)
    loaded = MachineProfile.load(path)
    assert loaded.signature() == profile.signature()
    model = CalibratedModel(KNL, loaded)
    assert model.signature() == f"calibrated:{profile.signature()}"


def _median_error(tracer: Tracer) -> float:
    errors = [
        s.attributes["model_error_pct"]
        for s in tracer.spans
        if s.name == "execute" and "model_error_pct" in s.attributes
    ]
    assert errors, "no execute span carried model_error_pct"
    return float(np.median(errors))


def _sweep(model, csr, kernel) -> float:
    """One measured sweep (two runs at a fixed width — per-kernel
    scales cannot absorb per-width effects, so the sweep keeps the
    width constant); returns the median span prediction error."""
    tracer = Tracer()
    for _ in range(2):
        result, measured, _ = measure_parallel(
            model, kernel, csr, 2, schedule="balanced-nnz", repeats=2,
            tracer=tracer,
        )
        assert result is not None and measured is not None
    spans = [s for s in tracer.spans if s.name == "execute"]
    for span in spans:
        attrs = span.attributes
        assert attrs["cost_model"] == model.signature()
        assert attrs["predicted_gflops"] > 0
        assert attrs["measured_gflops"] > 0
        assert attrs["model_error_pct"] >= 0
    return _median_error(tracer)


def test_refine_shrinks_span_error_across_runs(profile, csr):
    """The paper's feedback loop, end to end: run → observe → refine →
    run again with a strictly smaller median prediction error.

    The starting profile is deliberately miscalibrated by 100x toward
    under-prediction (over-predicting time saturates the relative
    Gflop/s error at 100%, under-predicting it is unbounded) so the
    initial error is orders of magnitude above timing noise — the
    refinement must collapse it, not just nudge it."""
    kernel = baseline_kernel()
    wrong = MachineProfile(machine_name=KNL.name,
                           kernel_scales={kernel.name: 0.01})
    model = CalibratedModel(KNL, wrong, 1)

    error_before = _sweep(model, csr, kernel)
    assert error_before > 500.0  # percent; way above noise
    assert model.observation_count > 0
    sig_before = model.signature()
    report = model.refine()
    assert kernel.name in report
    assert model.signature() != sig_before

    error_after = _sweep(model, csr, kernel)
    assert error_after < error_before * 0.5


def test_auto_deadline_through_calibrated_model(profile, csr):
    """deadline_seconds='auto' derives the watchdog budget from the
    model's prediction and the run completes undemoted."""
    model = CalibratedModel(KNL, profile)
    result, measured, supervision = measure_parallel(
        model, baseline_kernel(), csr, 2, schedule="balanced-nnz",
        repeats=1, deadline_seconds="auto",
    )
    assert measured is not None
    assert supervision is not None and not supervision.degraded
