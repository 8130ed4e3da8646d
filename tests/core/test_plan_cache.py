"""Tests for the operator plan cache (exact structural keys)."""

import numpy as np
import pytest

from repro.core import (
    AdaptiveSpMV,
    OptimizationPool,
    PlanCache,
    matrix_fingerprint,
    optimizer,
)
from repro.engine import ExecutorSpec
from repro.formats import CSRMatrix
from repro.machine import BROADWELL, KNL
from repro.matrices.generators import fem_like, power_law, random_uniform


def _with_values(csr, values):
    return CSRMatrix(csr.rowptr, csr.colind, values, csr.shape)


# -- fingerprint -------------------------------------------------------


def test_fingerprint_is_structural(small_random_csr, rng):
    fp = matrix_fingerprint(small_random_csr)
    same_structure = _with_values(
        small_random_csr, rng.standard_normal(small_random_csr.nnz)
    )
    assert matrix_fingerprint(same_structure) == fp


def test_fingerprint_distinguishes_structure(small_random_csr,
                                             scattered_csr):
    assert matrix_fingerprint(small_random_csr) != matrix_fingerprint(
        scattered_csr
    )
    # same nnz pattern length, different column = different fingerprint
    a = CSRMatrix([0, 2], [0, 1], [1.0, 2.0], (1, 4))
    b = CSRMatrix([0, 2], [0, 2], [1.0, 2.0], (1, 4))
    assert matrix_fingerprint(a) != matrix_fingerprint(b)


# -- cache semantics ---------------------------------------------------


def test_second_optimize_hits_cache(small_random_csr, x300):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    first = opt.optimize(small_random_csr)
    assert not first.plan.cache_hit
    assert first.plan.total_overhead_seconds > 0.0

    second = opt.optimize(small_random_csr)
    assert second.plan.cache_hit
    assert second.plan.decision_seconds == 0.0
    assert second.plan.setup_seconds == 0.0
    assert second.plan.total_overhead_seconds == 0.0
    # identical decision, run on the caller's matrix
    assert second.plan.kernel_name == first.plan.kernel_name
    assert second.data.csr is small_random_csr
    np.testing.assert_allclose(
        second.matvec(x300), first.matvec(x300), rtol=1e-15
    )
    assert opt.plan_cache.hits == 1
    assert opt.plan_cache.misses == 1


def test_same_structure_new_values_reuses_decision(small_random_csr, rng,
                                                   x300):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    opt.optimize(small_random_csr)
    changed = _with_values(
        small_random_csr, rng.standard_normal(small_random_csr.nnz)
    )
    op = opt.optimize(changed)
    assert op.plan.cache_hit
    assert op.plan.decision_seconds == 0.0
    assert op.plan.setup_seconds > 0.0  # conversion re-ran, stays charged
    np.testing.assert_allclose(
        op.matvec(x300), changed.matvec(x300), rtol=1e-9, atol=1e-9
    )


def test_plan_hits_cache_too(small_random_csr):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    first = opt.plan(small_random_csr)
    assert not first.cache_hit and first.decision_seconds > 0.0
    second = opt.plan(small_random_csr)
    assert second.cache_hit and second.decision_seconds == 0.0


def test_shared_cache_across_optimizers(small_random_csr):
    shared = PlanCache()
    a = AdaptiveSpMV(KNL, classifier="profile", plan_cache=shared)
    b = AdaptiveSpMV(KNL, classifier="profile", plan_cache=shared)
    a.optimize(small_random_csr)
    op = b.optimize(small_random_csr)
    assert op.plan.cache_hit
    assert shared.hits == 1 and shared.misses == 1


def test_cache_disabled(small_random_csr):
    opt = AdaptiveSpMV(KNL, classifier="profile", plan_cache=False)
    assert opt.plan_cache is None
    opt.optimize(small_random_csr)
    op = opt.optimize(small_random_csr)
    assert not op.plan.cache_hit
    assert op.plan.total_overhead_seconds > 0.0


def test_cache_rejects_bad_argument(small_random_csr):
    with pytest.raises(TypeError, match="plan_cache"):
        AdaptiveSpMV(KNL, plan_cache=object())


def test_cache_lru_eviction(rng):
    cache = PlanCache(maxsize=2)
    opt = AdaptiveSpMV(KNL, classifier="profile", plan_cache=cache)
    mats = []
    for seed in range(3):
        r = np.random.default_rng(seed)
        rows = np.repeat(np.arange(20), 3)
        cols = np.tile([1 + seed, 7 + seed, 13 + seed], 20)
        mats.append(CSRMatrix.from_arrays(
            rows, cols, r.standard_normal(60), (20, 30)
        ))
    for m in mats:
        opt.optimize(m)
    assert len(cache) == 2
    # the oldest entry was evicted -> re-optimizing it misses
    op = opt.optimize(mats[0])
    assert not op.plan.cache_hit


def test_cache_eviction_counter_and_repr(rng):
    cache = PlanCache(maxsize=2)
    opt = AdaptiveSpMV(KNL, classifier="profile", plan_cache=cache)
    for seed in range(4):
        r = np.random.default_rng(seed)
        rows = np.repeat(np.arange(20), 3)
        cols = np.tile([1 + seed, 7 + seed, 13 + seed], 20)
        opt.optimize(CSRMatrix.from_arrays(
            rows, cols, r.standard_normal(60), (20, 30)
        ))
    assert cache.evictions == 2
    assert "evictions=2" in repr(cache)
    # clear() only drops entries; the counters (and repr) stay truthful
    cache.clear()
    assert len(cache) == 0
    assert cache.evictions == 2
    assert "evictions=2" in repr(cache)
    cache.reset_stats()
    assert cache.evictions == 0
    assert cache.hits == 0 and cache.misses == 0
    assert cache.invalidations == 0


def test_cache_invalidate(small_random_csr):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    opt.optimize(small_random_csr)
    cache = opt.plan_cache
    (key,) = cache._entries.keys()
    assert cache.invalidate(key)
    assert len(cache) == 0
    assert cache.invalidations == 1
    assert not cache.invalidate(key)  # already gone
    assert cache.invalidations == 1


def test_cache_is_thread_safe():
    import threading

    cache = PlanCache(maxsize=8)
    errors = []

    def hammer(tid):
        try:
            for i in range(300):
                key = (tid % 3, i % 12)
                entry = cache.get(key)
                if entry is None:
                    cache.store(key, object())
                if i % 50 == 0:
                    cache.invalidate(key)
                len(cache)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(t,)) for t in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(cache) <= 8
    assert cache.hits + cache.misses == 8 * 300


def test_cache_clear(small_random_csr):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    opt.optimize(small_random_csr)
    opt.plan_cache.clear()
    assert len(opt.plan_cache) == 0
    op = opt.optimize(small_random_csr)
    assert not op.plan.cache_hit


def test_different_machines_do_not_share_plans(small_random_csr):
    from repro.machine import KNC

    shared = PlanCache()
    a = AdaptiveSpMV(KNL, classifier="profile", plan_cache=shared)
    b = AdaptiveSpMV(KNC, classifier="profile", plan_cache=shared)
    a.optimize(small_random_csr)
    op = b.optimize(small_random_csr)
    assert not op.plan.cache_hit


def test_shared_cache_serves_each_optimizer_its_own_stack(
        small_random_csr):
    """Entries hold the plain planned kernel: a plain, a guarded and a
    plain optimizer on one shared cache each run their own spec's
    stack, and no lookup replaces the entry's kernel."""
    shared = PlanCache()
    plain = AdaptiveSpMV(KNL, classifier="profile", plan_cache=shared)
    guarded = AdaptiveSpMV(KNL, classifier="profile", plan_cache=shared,
                           spec=ExecutorSpec(guard=True))
    ops = [opt.optimize(small_random_csr)
           for opt in (plain, guarded, plain)]
    assert [op.plan.cache_hit for op in ops] == [False, True, True]
    assert len(shared) == 1
    for op, is_guarded in zip(ops, (False, True, False)):
        assert op.plan.executor_spec.guard is is_guarded
        assert ("guard ->" in op.executor().describe()) is is_guarded
        assert op.kernel is ops[0].kernel


# -- execution-configuration axis (nthreads / parallel config) ---------


def test_execution_config_partitions_cache(small_random_csr):
    """Plans tuned for one parallel configuration must never be served
    for another: nthreads and the parallel signature are key axes."""
    from repro.parallel import ParallelConfig

    shared = PlanCache()
    serial = AdaptiveSpMV(KNL, classifier="profile", plan_cache=shared)
    threaded = AdaptiveSpMV(
        KNL, classifier="profile", plan_cache=shared,
        spec=ExecutorSpec(parallel=ParallelConfig(4, "balanced-nnz")),
    )
    serial.optimize(small_random_csr)
    op = threaded.optimize(small_random_csr)
    assert not op.plan.cache_hit  # different execution signature
    # same config again -> hit
    assert threaded.optimize(small_random_csr).plan.cache_hit
    # different schedule under the same thread count -> miss
    other = AdaptiveSpMV(
        KNL, classifier="profile", plan_cache=shared,
        spec=ExecutorSpec(parallel=ParallelConfig(4, "static-rows")),
    )
    assert not other.optimize(small_random_csr).plan.cache_hit


def test_nthreads_partitions_cache(small_random_csr):
    shared = PlanCache()
    a = AdaptiveSpMV(KNL, classifier="profile", plan_cache=shared,
                     nthreads=2)
    b = AdaptiveSpMV(KNL, classifier="profile", plan_cache=shared,
                     nthreads=8)
    a.optimize(small_random_csr)
    assert not b.optimize(small_random_csr).plan.cache_hit
    assert b.optimize(small_random_csr).plan.cache_hit


def test_parallel_executor_from_optimized(small_random_csr, x300):
    """An optimizer built with a parallel config hands out operators
    whose default ``executor()`` runs on the configured pool,
    bit-identical to the planned serial numeric plane."""
    from repro.parallel import ParallelConfig

    opt = AdaptiveSpMV(
        KNL, classifier="profile",
        spec=ExecutorSpec(parallel=ParallelConfig(4, "balanced-nnz")))
    op = opt.optimize(small_random_csr)
    par = op.executor()
    np.testing.assert_array_equal(
        par.matvec(x300), small_random_csr.matvec(x300)
    )
    assert par.nthreads <= 4


def test_parallel_executor_needs_parallel_spec(small_random_csr):
    from repro.engine import ExecutorSpec
    from repro.parallel import ParallelConfig

    opt = AdaptiveSpMV(KNL, classifier="profile")
    op = opt.optimize(small_random_csr)
    # a serial plan builds a serial stack: no thread count to report
    with pytest.raises(AttributeError):
        op.executor().nthreads
    # an explicit parallel spec works without one on the plan
    par = op.executor(ExecutorSpec(parallel=ParallelConfig(2)))
    assert par.nthreads <= 2


# -- exactness: every hit runs the caller's matrix ---------------------


def _copy(csr):
    return CSRMatrix(csr.rowptr.copy(), csr.colind.copy(),
                     csr.values.copy(), csr.shape)


def test_hit_runs_callers_arrays_not_the_first_arrivals():
    """A hit whose values equal the entry's last-served values must
    still compute with the caller's arrays, even after the first
    arrival's values were edited in place."""
    A = random_uniform(2000, 8, seed=3)
    opt = AdaptiveSpMV(KNL, classifier="profile")
    opt.optimize(A)
    B = _copy(A)
    A.values *= 2
    op = opt.optimize(B)
    assert op.plan.cache_hit
    assert op.data.csr is B
    x = np.random.default_rng(0).standard_normal(B.ncols)
    expected = B.matvec(x)
    np.testing.assert_array_equal(op.matvec(x), expected)
    np.testing.assert_array_equal(op.executor().apply(x), expected)


def test_structure_hash_is_pinned():
    """Persisted keys store the hash, so it must never drift: crc32
    over little-endian int64 shape/nnz and index samples."""
    import zlib

    csr = CSRMatrix([0, 2, 3, 5], [0, 2, 1, 0, 2],
                    [1.0, 2.0, 3.0, 4.0, 5.0], (3, 3))
    crc = 0
    for part in ([3, 3, 5], [0, 2, 3, 5], [0, 2, 1, 0, 2]):
        crc = zlib.crc32(np.array(part, dtype="<i8").tobytes(), crc)
    assert optimizer._structure_hash(csr) == crc == 1198492722


def test_inplace_colind_edit_misses_and_replans():
    A = random_uniform(2000, 8, seed=3)
    opt = AdaptiveSpMV(KNL, classifier="profile")
    opt.optimize(A)
    before = optimizer._structure_hash(A)
    # position 1 is not sampled by the hash: only the exact compare
    # can tell the structures apart
    assert A.colind[1] + 1 < A.colind[2]
    A.colind[1] += 1
    assert optimizer._structure_hash(A) == before
    op = opt.optimize(A)
    assert not op.plan.cache_hit
    assert op.plan.decision_seconds > 0.0
    assert len(opt.plan_cache) == 2


def _inplace_case(case):
    if case == "bcsr":
        A = fem_like(3000, block=4, neighbors=24, reach=30, seed=71)
        pool = OptimizationPool().override(MB="bcsr")

        def make(**kw):
            return AdaptiveSpMV(BROADWELL, classifier="profile",
                                pool=pool, **kw)
    else:
        A = random_uniform(2000, 8, seed=3)

        def make(**kw):
            return AdaptiveSpMV(
                KNL, classifier="profile",
                spec=ExecutorSpec(guard=case == "guarded"), **kw)
    return A, make


@pytest.mark.parametrize("case", ["default", "guarded", "bcsr"])
def test_inplace_values_edit_is_served_exactly(case):
    """An in-place edit of the values array served last is charged no
    setup, and the hit computes with the edited values."""
    A, make = _inplace_case(case)
    opt = make()
    first = opt.optimize(A)
    if case == "bcsr":
        assert first.plan.optimizations == ("bcsr",)
    A.values *= 3.0
    op = opt.optimize(A)
    assert op.plan.cache_hit
    assert op.plan.setup_seconds == 0.0
    x = np.random.default_rng(1).standard_normal(A.ncols)
    expected = make(plan_cache=False).optimize(A).matvec(x)
    if case != "bcsr":
        np.testing.assert_array_equal(expected, A.matvec(x))
    np.testing.assert_array_equal(op.matvec(x), expected)
    np.testing.assert_array_equal(op.executor().apply(x), expected)


def _even_rows(csr):
    """Same shape and nnz as ``csr``, with rows of equal length (+-1)."""
    n, nnz = csr.nrows, csr.nnz
    lens = np.full(n, nnz // n)
    lens[: nnz % n] += 1
    rowptr = np.concatenate([[0], np.cumsum(lens)])
    start = np.minimum(np.arange(n), csr.ncols - lens)
    cols = np.repeat(start, lens) + (
        np.arange(nnz) - np.repeat(rowptr[:-1], lens))
    return CSRMatrix(rowptr, cols, np.ones(nnz), csr.shape)


def test_hash_collision_never_serves_a_wrong_plan(monkeypatch):
    monkeypatch.setattr(optimizer, "_structure_hash", lambda csr: 0)
    skewed = power_law(3000, avg_deg=12, seed=2)
    even = _even_rows(skewed)
    assert (even.shape, even.nnz) == (skewed.shape, skewed.nnz)
    opt = AdaptiveSpMV(KNL, classifier="profile")
    planned = [(m, opt.optimize(m).plan) for m in (skewed, even)]
    assert len(opt.plan_cache) == 2
    assert planned[0][1].kernel_name != planned[1][1].kernel_name
    for m, plan in planned:
        op = opt.optimize(m)
        assert op.plan.cache_hit
        assert op.plan.kernel_name == plan.kernel_name
        assert op.data.csr is m


def test_revived_key_fingerprints_once(small_random_csr, tmp_path,
                                       monkeypatch):
    """A key loaded from disk matches by blake2b fingerprint on its
    first hit only; the entry is then re-keyed with owned copies."""
    cold = AdaptiveSpMV(KNL, classifier="profile")
    cold.optimize(small_random_csr)
    path = tmp_path / "plans.json"
    cold.plan_cache.save(path)

    calls = []
    real = optimizer.matrix_fingerprint

    def counting(csr):
        calls.append(csr)
        return real(csr)

    monkeypatch.setattr(optimizer, "matrix_fingerprint", counting)
    warm = AdaptiveSpMV(KNL, classifier="profile",
                        plan_cache=PlanCache.load(path))
    assert warm.optimize(small_random_csr).plan.cache_hit
    assert len(calls) == 1
    second = warm.optimize(small_random_csr)
    assert second.plan.cache_hit
    assert second.plan.total_overhead_seconds == 0.0
    assert len(calls) == 1


def test_loaded_cache_rekeys_once_under_contention(small_random_csr,
                                                   tmp_path):
    """Six threads race for the first hit on one revived entry: every
    call is a hit on the caller's own matrix, and the entry ends up
    under exactly one key that owns its arrays."""
    import sys
    import threading

    cold = AdaptiveSpMV(KNL, classifier="profile")
    cold.optimize(small_random_csr)
    path = tmp_path / "plans.json"
    cold.plan_cache.save(path)
    shared = PlanCache.load(path)
    mats = [_copy(small_random_csr) for _ in range(6)]
    errors = []

    def serve(m):
        try:
            opt = AdaptiveSpMV(KNL, classifier="profile", plan_cache=shared)
            for _ in range(25):
                op = opt.optimize(m)
                assert op.plan.cache_hit
                assert op.data.csr is m
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=serve, args=(m,)) for m in mats]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert shared.hits == 6 * 25 and shared.misses == 0
    (key,) = shared._entries
    assert key[0].rowptr is not None
    assert not np.shares_memory(key[0].colind, small_random_csr.colind)
