"""Plan-cache keys name the cost model a plan was decided under.

Three invariants:

* an explicit :class:`~repro.model.AnalyticModel` shares the default
  optimizer's key;
* a :class:`~repro.model.CalibratedModel` folds its profile digest in,
  so analytic and calibrated plans never share an entry;
* recalibration (or :meth:`~repro.model.CalibratedModel.refine`) moves
  the key, invalidating plans tuned against the stale profile.
"""

import pytest

from repro.core import (
    PLAN_SCHEMA_VERSION,
    AdaptiveSpMV,
    OptimizationPlan,
    PlanCache,
)
from repro.core.optimizer import _StructureKey
from repro.machine import BROADWELL, KNL
from repro.matrices.generators import banded
from repro.model import AnalyticModel, CalibratedModel, MachineProfile


@pytest.fixture(scope="module")
def csr():
    return banded(1500, nnz_per_row=7, seed=11)


def test_analytic_execution_signature_is_pinned():
    """The exact string — persisted keys embed it."""
    opt = AdaptiveSpMV(KNL, classifier="profile")
    assert (opt._execution_signature()
            == "nthreads=default;serial;model=analytic")
    opt4 = AdaptiveSpMV(KNL, classifier="profile", nthreads=4)
    assert opt4._execution_signature() == "nthreads=4;serial;model=analytic"


def test_explicit_analytic_model_same_key(csr):
    default = AdaptiveSpMV(KNL, classifier="profile")
    explicit = AdaptiveSpMV(KNL, classifier="profile",
                            model=AnalyticModel(KNL))
    structure = _StructureKey.of(csr)
    assert default._cache_key(structure) == explicit._cache_key(structure)


def test_calibrated_model_changes_key(csr):
    profile = MachineProfile(machine_name=KNL.name,
                             kernel_scales={"csr": 2.0})
    analytic = AdaptiveSpMV(KNL, classifier="profile")
    calibrated = AdaptiveSpMV(KNL, classifier="profile",
                              model=CalibratedModel(KNL, profile))
    fp = _StructureKey.of(csr)
    key_a = analytic._cache_key(fp)
    key_c = calibrated._cache_key(fp)
    assert key_a != key_c
    assert f"model=calibrated:{profile.signature()}" in key_c[-1]
    # ...and refining moves the key again
    calibrated.model.observe("csr", 1.0, 3.0)
    calibrated.model.refine()
    assert calibrated._cache_key(fp) != key_c


def test_adaptive_rejects_foreign_model():
    with pytest.raises(ValueError, match="model targets machine"):
        AdaptiveSpMV(KNL, classifier="profile",
                     model=AnalyticModel(BROADWELL))


def test_plan_ir_v3_round_trip(csr):
    opt = AdaptiveSpMV(
        KNL, classifier="profile",
        model=CalibratedModel(KNL, MachineProfile.identity(KNL.name)),
    )
    plan = opt.plan(csr)
    assert plan.cost_model.startswith("calibrated:")
    payload = plan.to_dict()
    assert payload["schema_version"] == PLAN_SCHEMA_VERSION == 3
    restored = OptimizationPlan.from_dict(payload)
    assert restored.cost_model == plan.cost_model


def test_plan_ir_rejects_legacy_versions(csr):
    """Only the current schema loads: v1/v2 payloads (pre-cost-model
    builds) and payloads missing a required field are rejected."""
    plan = AdaptiveSpMV(KNL, classifier="profile").plan(csr)
    payload = plan.to_dict()
    for version in (1, 2, 99):
        with pytest.raises(ValueError, match="schema"):
            OptimizationPlan.from_dict(dict(payload, schema_version=version))
    for field in ("executor_spec", "cost_model"):
        partial = dict(payload)
        del partial[field]
        with pytest.raises(KeyError, match=field):
            OptimizationPlan.from_dict(partial)


def test_persisted_cache_warm_starts_across_models(csr, tmp_path):
    """A cache persisted under the default model warm-starts an
    explicitly-analytic optimizer (same key), and does NOT serve a
    calibrated one (different key)."""
    path = tmp_path / "plans.json"
    first = AdaptiveSpMV(KNL, classifier="profile")
    first.optimize(csr)
    first.plan_cache.save(path)

    warm = AdaptiveSpMV(KNL, classifier="profile",
                        model=AnalyticModel(KNL),
                        plan_cache=PlanCache.load(path))
    assert warm.plan(csr).cache_hit

    profile = MachineProfile(machine_name=KNL.name,
                             kernel_scales={"csr": 2.0})
    cold = AdaptiveSpMV(KNL, classifier="profile",
                        model=CalibratedModel(KNL, profile),
                        plan_cache=PlanCache.load(path))
    assert not cold.plan(csr).cache_hit
