"""``Partition.thread_counts``: exact per-thread totals of per-row counts.

The cost model sums integer row moments (nonzeros, SIMD iterations,
possible x misses, empty rows) per thread through this helper, so its
totals must equal the exact integer sums over each thread's rows for
every schedule, whatever the input dtype and however the rows are
grouped into runs.
"""

import numpy as np
import pytest

from repro.matrices.generators import power_law, short_rows
from repro.sched import SCHEDULE_POLICIES, Partition, make_partition


def _exact(partition: Partition, per_row) -> list[int]:
    """Python-int totals per thread (no numpy accumulation)."""
    totals = [0] * partition.nthreads
    for tid, value in zip(partition.thread_of_row.tolist(),
                          np.asarray(per_row).tolist()):
        totals[tid] += int(value)
    return totals


def _partitions(csr):
    parts = [make_partition(csr, t, name)
             for name in SCHEDULE_POLICIES for t in (1, 3, 7, 64)]
    parts.append(make_partition(csr, 4, "auto", chunk_rows=1))
    # An arbitrary row->thread map without boundaries: runs of mixed
    # length, owners out of order, one thread without rows.
    rng = np.random.default_rng(0)
    tor = np.repeat(rng.integers(0, 5, size=csr.nrows // 3 + 1),
                    3)[:csr.nrows]
    tor[tor == 2] = 4
    parts.append(Partition(5, tor.astype(np.int32), kind="static"))
    return parts


@pytest.fixture(params=["power_law", "short_rows"])
def csr(request):
    if request.param == "power_law":
        return power_law(900, avg_deg=10, seed=3)
    return short_rows(900, seed=4)


def test_totals_are_exact_for_every_schedule_and_dtype(csr):
    row_nnz = csr.row_nnz()
    inputs = {
        "bool": row_nnz % 2 == 1,
        "int32": row_nnz.astype(np.int32),
        "int64": row_nnz,
        "float64": row_nnz.astype(np.float64),
    }
    for part in _partitions(csr):
        for name, per_row in inputs.items():
            got = part.thread_counts(per_row)
            assert got.dtype == np.int64, name
            assert got.tolist() == _exact(part, per_row), (part.kind, name)
        assert part.thread_counts().tolist() == _exact(
            part, np.ones(csr.nrows, dtype=np.int64))
        assert part.thread_counts(offsets=csr.rowptr).tolist() == _exact(
            part, row_nnz)


def test_bool_input_counts_instead_of_or():
    part = make_partition(power_law(300, avg_deg=8, seed=1), 2, "static-rows")
    got = part.thread_counts(np.ones(300, dtype=bool))
    assert got.tolist() == [150, 150]


def test_narrow_integers_widen_instead_of_wrapping():
    part = Partition(2, np.array([0, 0, 0, 1, 1], dtype=np.int32))
    per_row = np.full(5, 2**30, dtype=np.int32)
    assert part.thread_counts(per_row).tolist() == [3 * 2**30, 2 * 2**30]
    negative = np.full(5, -(2**30), dtype=np.int32)
    assert part.thread_counts(negative).tolist() == [-3 * 2**30,
                                                     -2 * 2**30]


def test_integral_floats_sum_exactly_past_float32():
    part = Partition(2, np.array([0, 1, 0, 1], dtype=np.int32))
    per_row = np.array([2.0**52, 1.0, 1.0, 3.0])
    assert part.thread_counts(per_row).tolist() == [2**52 + 1, 4]


def test_empty_partition_and_shape_validation():
    no_rows = np.empty(0, dtype=np.int32)
    for empty in (Partition(1, no_rows, kind="balanced-nnz",
                            boundaries=np.array([0, 0])),
                  Partition(3, no_rows)):
        zeros = [0] * empty.nthreads
        assert empty.thread_counts(np.zeros(0, dtype=bool)).tolist() == zeros
        assert empty.thread_counts().tolist() == zeros
        assert empty.thread_counts(offsets=np.zeros(1)).tolist() == zeros
    part = Partition(2, np.array([0, 1], dtype=np.int32))
    with pytest.raises(ValueError, match="per_row"):
        part.thread_counts(np.zeros(3))
    with pytest.raises(ValueError, match="offsets"):
        part.thread_counts(offsets=np.zeros(2))


def test_runs_follow_thread_of_row(csr):
    for part in _partitions(csr):
        runs = part.contiguous_runs()
        assert len(runs) == part.n_chunks()
        covered = np.concatenate([np.full(hi - lo, tid)
                                  for lo, hi, tid in runs])
        np.testing.assert_array_equal(covered, part.thread_of_row)
