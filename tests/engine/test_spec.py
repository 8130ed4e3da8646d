"""ExecutorSpec / SupervisionSpec: validation, signatures, round-trip."""

import pytest

from repro.engine import (
    ENGINE_SPEC_SCHEMA_VERSION,
    ExecutorSpec,
    SupervisionSpec,
)
from repro.parallel import ParallelConfig


def test_default_spec_is_bare_kernel():
    spec = ExecutorSpec()
    assert spec.layer_names() == ()
    assert spec.cache_signature() == "serial"
    assert spec.signature() == "guard=0;serial"


def test_legacy_parallel_signature_is_preserved():
    """The cache-key component of a plain parallel spec must equal the
    pre-engine ParallelConfig.signature() string, so plan caches saved
    by earlier builds still warm-start."""
    cfg = ParallelConfig(nthreads=4, schedule="balanced-nnz")
    spec = ExecutorSpec(parallel=cfg)
    assert spec.cache_signature() == cfg.signature()


def test_guard_and_trace_do_not_partition_the_cache():
    cfg = ParallelConfig(nthreads=2)
    plain = ExecutorSpec(parallel=cfg)
    guarded = ExecutorSpec(parallel=cfg, guard=True, trace=True)
    assert plain.cache_signature() == guarded.cache_signature()
    assert plain.signature() != guarded.signature()


def test_supervision_and_workspace_partition_the_cache():
    cfg = ParallelConfig(nthreads=2)
    base = ExecutorSpec(parallel=cfg)
    sup = ExecutorSpec(parallel=cfg, supervision=SupervisionSpec())
    ws = ExecutorSpec(parallel=cfg, workspace="thread-local")
    sigs = {base.cache_signature(), sup.cache_signature(),
            ws.cache_signature()}
    assert len(sigs) == 3


def test_supervision_requires_parallel():
    with pytest.raises(ValueError, match="supervision requires"):
        ExecutorSpec(supervision=SupervisionSpec())


def test_workspace_mode_is_validated():
    with pytest.raises(ValueError, match="workspace"):
        ExecutorSpec(workspace="bogus")


def test_parallel_must_quack_like_a_config():
    with pytest.raises(TypeError, match="parallel"):
        ExecutorSpec(parallel=4)

    class SignatureOnly:
        """Signs like a config but has no width, schedule or chunks."""

        def signature(self):
            return "threads=2"

    with pytest.raises(TypeError, match="ParallelConfig"):
        ExecutorSpec(parallel=SignatureOnly())


def test_supervision_spec_validation():
    with pytest.raises(ValueError, match="max_retries"):
        SupervisionSpec(max_retries=-1)
    with pytest.raises(ValueError, match="backoff_seconds"):
        SupervisionSpec(backoff_seconds=-0.1)


def test_layer_names_order_outermost_last():
    spec = ExecutorSpec(
        guard=True,
        parallel=ParallelConfig(nthreads=2),
        supervision=SupervisionSpec(),
        workspace="shared",
        trace=True,
    )
    assert spec.layer_names() == ("guard", "supervision", "workspace",
                                  "trace")
    bare_parallel = ExecutorSpec(parallel=ParallelConfig(nthreads=2))
    assert bare_parallel.layer_names() == ("parallel",)


@pytest.mark.parametrize("spec", [
    ExecutorSpec(),
    ExecutorSpec(guard=True),
    ExecutorSpec(parallel=ParallelConfig(nthreads=4, chunk_rows=64)),
    ExecutorSpec(
        guard=True,
        parallel=ParallelConfig(nthreads=2, schedule="balanced-rows"),
        supervision=SupervisionSpec(deadline_seconds=0.5, max_retries=1,
                                    backoff_seconds=0.002,
                                    serial_fallback=False),
        workspace="thread-local",
        trace=True,
    ),
])
def test_round_trip_through_dict(spec):
    payload = spec.to_dict()
    assert payload["schema_version"] == ENGINE_SPEC_SCHEMA_VERSION
    assert ExecutorSpec.from_dict(payload) == spec


def test_from_dict_rejects_unknown_schema():
    payload = ExecutorSpec().to_dict()
    payload["schema_version"] = ENGINE_SPEC_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="unsupported executor-spec"):
        ExecutorSpec.from_dict(payload)


def test_spec_rides_the_plan_ir():
    """The spec is folded into OptimizationPlan.to_dict/from_dict."""
    from repro.core import OptimizationPlan

    spec = ExecutorSpec(guard=True,
                        parallel=ParallelConfig(nthreads=2),
                        supervision=SupervisionSpec(deadline_seconds=1.0))
    plan = OptimizationPlan(
        classes=frozenset(),
        optimizations=("unrolling",),
        kernel_name="csr+vec+unroll",
        decision_seconds=0.01,
        setup_seconds=0.02,
        classifier_kind="profile-guided",
        executor_spec=spec,
    )
    revived = OptimizationPlan.from_dict(plan.to_dict())
    assert revived.executor_spec == spec


def test_v1_plan_payload_is_rejected():
    """A pre-engine plan (no executor_spec) is no longer upgraded."""
    from repro.core import OptimizationPlan

    payload = {
        "schema_version": 1,
        "classes": [],
        "optimizations": [],
        "kernel_name": "csr",
        "decision_seconds": 0.0,
        "setup_seconds": 0.0,
        "classifier_kind": "profile-guided",
    }
    with pytest.raises(ValueError, match="unsupported plan schema 1"):
        OptimizationPlan.from_dict(payload)
