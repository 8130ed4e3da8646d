"""The staged planning pipeline: stage order, charged-seconds
accounting, custom stages, and quarantine telemetry."""

import numpy as np
import pytest

from repro.core import AdaptiveSpMV
from repro.formats import CSRMatrix
from repro.guard import clear_quarantine
from repro.kernels import baseline_kernel
from repro.kernels.registry import record_kernel_failure
from repro.machine import KNL, clear_cache
from repro.matrices.generators import banded, power_law
from repro.pipeline import (
    PipelineContext,
    Stage,
    Tracer,
    default_planning_stages,
    run_stages,
)

PLANNING_STAGES = ("analyze", "classify", "select", "transform")


@pytest.fixture
def quarantine_guard():
    clear_quarantine()
    yield
    clear_quarantine()


def test_default_stages_match_protocol_and_order():
    stages = default_planning_stages()
    assert tuple(s.name for s in stages) == PLANNING_STAGES
    for stage in stages:
        assert isinstance(stage, Stage)


def test_plan_records_one_span_per_stage(small_random_csr):
    opt = AdaptiveSpMV(KNL, classifier="profile", plan_cache=False)
    tracer = Tracer()
    plan = opt.plan(small_random_csr, tracer=tracer)
    assert tracer.stage_names() == PLANNING_STAGES

    (classify,) = tracer.find("classify")
    assert classify.charged_seconds == plan.decision_seconds
    (transform,) = tracer.find("transform")
    assert transform.charged_seconds == plan.setup_seconds
    assert transform.attributes["materialized"] is False
    # the acceptance invariant: charges sum to the plan's overhead
    assert tracer.total_charged_seconds() == pytest.approx(
        plan.total_overhead_seconds
    )


def test_optimize_trace_includes_cache_span(small_random_csr):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    cold = Tracer()
    opt.optimize(small_random_csr, tracer=cold)
    assert cold.stage_names() == ("cache",) + PLANNING_STAGES
    assert cold.find("cache")[0].attributes["hit"] is False
    assert cold.find("transform")[0].attributes["materialized"] is True

    warm = Tracer()
    plan = opt.optimize(small_random_csr, tracer=warm).plan
    assert plan.cache_hit
    assert warm.stage_names() == ("cache",)
    assert warm.find("cache")[0].attributes["hit"] is True
    assert warm.total_charged_seconds() == 0.0


def test_run_stages_populates_context(small_random_csr):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    ctx = PipelineContext(
        csr=small_random_csr,
        machine=KNL,
        classifier=opt._classifier,
        classifier_kind=opt.classifier_kind,
        pool=opt.pool,
        materialize=True,
    )
    run_stages(default_planning_stages(), ctx)
    assert ctx.features is not None
    assert ctx.classes is not None
    assert ctx.kernel is not None
    assert ctx.data is not None
    plan = ctx.build_plan()
    assert plan.kernel_name == ctx.kernel.name


def test_build_plan_requires_classify_and_select(small_random_csr):
    ctx = PipelineContext(
        csr=small_random_csr, machine=KNL, classifier=None,
        classifier_kind="none", pool=None,
    )
    with pytest.raises(RuntimeError, match="classify and select"):
        ctx.build_plan()


def test_custom_stage_composes_into_the_optimizer(small_random_csr):
    class TagStage:
        name = "tag"

        def run(self, ctx, span):
            span.set(tagged=True)

    stages = default_planning_stages() + (TagStage(),)
    opt = AdaptiveSpMV(
        KNL, classifier="profile", plan_cache=False, stages=stages
    )
    tracer = Tracer()
    opt.plan(small_random_csr, tracer=tracer)
    assert tracer.stage_names() == PLANNING_STAGES + ("tag",)
    assert tracer.find("tag")[0].attributes["tagged"] is True


def test_select_span_records_quarantine_event(small_random_csr,
                                              quarantine_guard):
    opt = AdaptiveSpMV(KNL, classifier="profile", plan_cache=False)
    first = opt.plan(small_random_csr)
    assert first.optimizations  # fixture matrix gets optimized

    record_kernel_failure(first.kernel_name, "forced")
    tracer = Tracer()
    second = opt.plan(small_random_csr, tracer=tracer)
    # the plan substituted the baseline and telemetry says why
    assert second.kernel_name == baseline_kernel().name
    assert second.quarantined == (first.kernel_name,)
    assert tracer.stage_names() == PLANNING_STAGES  # no span lost
    (select,) = tracer.find("select")
    assert select.attributes["quarantine_substitutions"] == [
        first.kernel_name
    ]
    assert select.attributes["guard_fault_counts"][first.kernel_name] >= 1


def test_guarded_fault_shows_up_in_trace(small_random_csr, rng,
                                         quarantine_guard):
    from repro.engine import ExecutorSpec
    from repro.guard import BrokenKernel, GuardedKernel

    opt = AdaptiveSpMV(KNL, classifier="profile",
                       spec=ExecutorSpec(guard=True), plan_cache=False)
    op = opt.optimize(small_random_csr)
    guarded = op.executor().kernel
    assert isinstance(guarded, GuardedKernel)
    name = op.plan.kernel_name
    # sabotage the wrapped variant, then run through the guard
    guarded.inner = BrokenKernel(guarded.inner, mode="raise", name=name)
    x = rng.standard_normal(small_random_csr.ncols)
    np.testing.assert_array_equal(
        op.matvec(x), small_random_csr.matvec(x)
    )
    assert guarded.failure_events == 1

    # replanning now reports the quarantine in the select span
    tracer = Tracer()
    replanned = opt.plan(small_random_csr, tracer=tracer)
    assert replanned.quarantined == (name,)
    (select,) = tracer.find("select")
    assert select.attributes["quarantine_substitutions"] == [name]
    assert select.attributes["guard_fault_counts"][name] == 1


@pytest.mark.parametrize("make,imb", [
    (lambda: banded(2000, nnz_per_row=9, jitter=1.0, seed=1), False),
    (lambda: power_law(2000, avg_deg=12, seed=1), True),
], ids=["banded", "power_law"])
def test_plan_reads_neither_row_spans_nor_column_gaps(monkeypatch, make,
                                                      imb):
    """A plan computes only what it reads: the profile classifier's
    bounds run the x-access pass, and the IMB sub-selection reads the
    row lengths; no stage needs the row spans or the column gaps."""
    csr = make()
    expected = AdaptiveSpMV(KNL, plan_cache=False).plan(csr)
    assert ("IMB" in {c.value for c in expected.classes}) is imb
    if imb:
        assert expected.kernel_name == "csr+vec+unroll+split"

    def broken(self):
        raise AssertionError("planning read an unused feature group")

    clear_cache()
    monkeypatch.setattr(CSRMatrix, "row_bandwidths", broken)
    monkeypatch.setattr(CSRMatrix, "column_gaps", broken)
    plan = AdaptiveSpMV(KNL, plan_cache=False).plan(csr)
    assert plan.to_dict() == expected.to_dict()
