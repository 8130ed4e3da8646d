"""Cross-process plan-cache persistence: save/load warm-start."""

import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import CACHE_SCHEMA_VERSION, AdaptiveSpMV, PlanCache
from repro.machine import KNL

SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_save_writes_schema_versioned_json(small_random_csr, tmp_path):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    opt.optimize(small_random_csr)
    path = tmp_path / "plans.json"
    assert opt.plan_cache.save(path) == 1
    payload = json.loads(path.read_text())
    assert set(payload) == {"checksum", "body"}
    body = payload["body"]
    assert body["schema_version"] == CACHE_SCHEMA_VERSION
    (entry,) = body["entries"]
    assert set(entry) == {"key", "plan"}
    assert entry["plan"]["kernel_name"]
    # no temp file left behind by the atomic write
    assert [p.name for p in tmp_path.iterdir()] == ["plans.json"]


def test_loaded_cache_serves_zero_decision_cost(small_random_csr, x300,
                                                tmp_path):
    cold = AdaptiveSpMV(KNL, classifier="profile")
    op_cold = cold.optimize(small_random_csr)
    assert op_cold.plan.total_overhead_seconds > 0.0
    path = tmp_path / "plans.json"
    cold.plan_cache.save(path)

    warm = AdaptiveSpMV(
        KNL, classifier="profile", plan_cache=PlanCache.load(path)
    )
    op_warm = warm.optimize(small_random_csr)
    assert op_warm.plan.cache_hit
    assert op_warm.plan.decision_seconds == 0.0
    # kernels are rebuilt deterministically: identical decision,
    # bit-identical numerics vs the uncached path
    assert op_warm.plan.kernel_name == op_cold.plan.kernel_name
    assert op_warm.plan.optimizations == op_cold.plan.optimizations
    np.testing.assert_array_equal(
        op_warm.matvec(x300), op_cold.matvec(x300)
    )


def test_strict_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"schema_version": CACHE_SCHEMA_VERSION + 1, "entries": []}
    ))
    with pytest.raises(ValueError, match="unsupported plan-cache schema"):
        PlanCache.load(path, strict=True)


def test_lenient_load_degrades_unknown_schema_to_empty(tmp_path):
    from repro.errors import PlanCacheWarning

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"schema_version": CACHE_SCHEMA_VERSION + 1, "entries": []}
    ))
    with pytest.warns(PlanCacheWarning):
        cache = PlanCache.load(path)
    assert len(cache) == 0
    assert "unsupported plan-cache schema" in cache.load_recovery_reason


def test_guarded_optimizer_rewraps_revived_entries(small_random_csr,
                                                   tmp_path):
    from repro.engine import ExecutorSpec
    from repro.guard import GuardedKernel

    cold = AdaptiveSpMV(KNL, classifier="profile")
    cold.optimize(small_random_csr)
    path = tmp_path / "plans.json"
    cold.plan_cache.save(path)

    warm = AdaptiveSpMV(
        KNL, classifier="profile", spec=ExecutorSpec(guard=True),
        plan_cache=PlanCache.load(path),
    )
    op = warm.optimize(small_random_csr)
    assert op.plan.cache_hit
    assert isinstance(op.executor().kernel, GuardedKernel)


def test_fresh_process_warm_start_bit_identical(small_random_csr,
                                                tmp_path):
    """The acceptance scenario, literally: a cache saved here is loaded
    in a *fresh process* and serves the same matrix with cache_hit=True,
    decision_seconds == 0, and bit-identical matvec output."""
    cold = AdaptiveSpMV(KNL, classifier="profile")
    op_cold = cold.optimize(small_random_csr)
    path = tmp_path / "plans.json"
    cold.plan_cache.save(path)

    x = np.random.default_rng(99).standard_normal(small_random_csr.ncols)
    expected = tmp_path / "expected.npy"
    np.save(expected, op_cold.matvec(x))
    matrix = tmp_path / "matrix.npz"
    np.savez(
        matrix,
        rowptr=small_random_csr.rowptr,
        colind=small_random_csr.colind,
        values=small_random_csr.values,
        shape=np.array(small_random_csr.shape),
    )

    script = f"""
import sys
sys.path.insert(0, {SRC!r})
import numpy as np
from repro.core import AdaptiveSpMV, PlanCache
from repro.formats import CSRMatrix
from repro.machine import KNL

blob = np.load({str(matrix)!r})
csr = CSRMatrix(blob["rowptr"], blob["colind"], blob["values"],
                tuple(blob["shape"]))
opt = AdaptiveSpMV(KNL, classifier="profile",
                   plan_cache=PlanCache.load({str(path)!r}))
op = opt.optimize(csr)
assert op.plan.cache_hit, "expected a cache hit in the fresh process"
assert op.plan.decision_seconds == 0.0
x = np.random.default_rng(99).standard_normal(csr.ncols)
expected = np.load({str(expected)!r})
np.testing.assert_array_equal(op.matvec(x), expected)
print("fresh-process warm start ok")
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "fresh-process warm start ok" in proc.stdout


FIXTURES = Path(__file__).parent / "fixtures"


def test_legacy_plan_cache_degrades_to_empty():
    """A schema-v2 cache file (blake2b-keyed, here also carrying
    pre-engine v1 plans) is unusable: lenient load degrades it to an
    empty cache with a warning, strict load raises. Plan-schema-1
    rejection inside a current file is covered by
    ``test_legacy_plan_cache_replans_cold``."""
    from repro.errors import PlanCacheWarning

    path = FIXTURES / "plan_cache_v2_legacy_plans.json"
    with pytest.warns(PlanCacheWarning):
        cache = PlanCache.load(path)
    assert len(cache) == 0
    assert "unsupported plan-cache schema 2" in cache.load_recovery_reason
    with pytest.raises(ValueError, match="unsupported plan-cache schema 2"):
        PlanCache.load(path, strict=True)


def test_legacy_plan_cache_replans_cold(small_random_csr, tmp_path):
    """End-to-end: a cache written by this build, rewritten to the
    legacy v1 plan layout (as an old build would have saved it), gives
    no warm start; the optimizer replans with identical numerics."""
    from repro.core.optimizer import _body_checksum
    from repro.errors import PlanCacheWarning

    cold = AdaptiveSpMV(KNL, classifier="profile")
    op_cold = cold.optimize(small_random_csr)
    path = tmp_path / "plans.json"
    cold.plan_cache.save(path)

    # Rewrite each plan to schema v1: drop the executor_spec field,
    # exactly what a pre-engine build persisted.
    payload = json.loads(path.read_text())
    for item in payload["body"]["entries"]:
        item["plan"]["schema_version"] = 1
        del item["plan"]["executor_spec"]
    payload["checksum"] = _body_checksum(payload["body"])
    path.write_text(json.dumps(payload))

    with pytest.warns(PlanCacheWarning):
        loaded = PlanCache.load(path)
    warm = AdaptiveSpMV(KNL, classifier="profile", plan_cache=loaded)
    op_warm = warm.optimize(small_random_csr)
    assert not op_warm.plan.cache_hit
    assert op_warm.plan.kernel_name == op_cold.plan.kernel_name
    x = np.random.default_rng(7).standard_normal(small_random_csr.ncols)
    np.testing.assert_array_equal(op_warm.matvec(x), op_cold.matvec(x))


def test_two_optimizers_share_one_loaded_cache_concurrently(
        small_random_csr, tmp_path):
    cold = AdaptiveSpMV(KNL, classifier="profile")
    cold.optimize(small_random_csr)
    path = tmp_path / "plans.json"
    cold.plan_cache.save(path)

    shared = PlanCache.load(path)
    optimizers = [
        AdaptiveSpMV(KNL, classifier="profile", plan_cache=shared)
        for _ in range(2)
    ]
    errors = []

    def hammer(opt):
        try:
            for _ in range(10):
                op = opt.optimize(small_random_csr)
                assert op.plan.cache_hit
                assert op.plan.decision_seconds == 0.0
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(opt,))
        for opt in optimizers
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert shared.hits == 20
    assert shared.misses == 0
